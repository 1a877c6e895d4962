"""The byte contract: every command of ``scripts/cli_digests.py`` and every
benchmark workload command at op seeds 0-2 gives the digest recorded in
``byte_contract.txt``, at one thread and at two where it takes
``--threads``.

When output moves on purpose, rewrite the file with

    PYTHONPATH=src python scripts/cli_digests.py --contract > tests/byte_contract.txt

and say in CHANGES.md which lines moved and why.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = Path(__file__).with_name("byte_contract.txt")


def _digests_module():
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "scripts" / "cli_digests.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_outputs_match_the_contract_at_1_and_2_threads():
    script = _digests_module()
    lines = CONTRACT.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    # some bytes pass through LAPACK and BLAS: another build can move them
    assert header == script.build(), (
        f"the contract was made on {header}, this build is {script.build()}")
    body = lines[len(header):]
    got = []
    for text, argv, fn in script.entries():
        runs = ([script.with_threads(argv, t) for t in (1, 2)]
                if script.takes_threads(argv) else [argv])
        digests = {fn(run) for run in runs}
        assert len(digests) == 1, f"--threads 1 and 2 disagree on {text}"
        got.append(f"{digests.pop()}  {text}")
    assert got == body
