"""Deterministic CSV/JSON record emission shared by the CLI commands."""

from __future__ import annotations

import csv
import io
import json
import sys


def _csv(header: list[str], rows) -> str:
    """CSV with "\\n" line ends, floats as their repr and minimal quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_records(records: list[dict], columns: list[str], fmt: str) -> str:
    """Render records with a fixed column schema; byte-stable across runs."""
    if fmt == "csv":
        return _csv(columns, ([r.get(c, "") for c in columns] for r in records))
    if fmt == "json":
        rows = [{c: r.get(c, "") for c in columns} for r in records]
        return json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _emit(text: str, path: str | None) -> None:
    """Write text to stdout when ``path`` is None or "-", else to the file."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def write_records(
    records: list[dict], columns: list[str], path: str | None, fmt: str
) -> None:
    _emit(render_records(records, columns, fmt), path)


def write_table(header: list[str], rows, path: str | None) -> None:
    """Plain CSV writer for columnar sample batches."""
    _emit(_csv(header, rows), path)
