"""Deterministic CSV/JSON record emission shared by the CLI commands."""

from __future__ import annotations

import io
import json
import sys


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_field(v) -> str:
    """Format one CSV field, quoting it when it holds a comma or a quote."""
    s = _fmt(v)
    if "," in s or '"' in s:
        return '"' + s.replace('"', '""') + '"'
    return s


def render_records(records: list[dict], columns: list[str], fmt: str) -> str:
    """Render records with a fixed column schema; byte-stable across runs."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for r in records:
            buf.write(",".join(_csv_field(r.get(c, "")) for c in columns) + "\n")
        return buf.getvalue()
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
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    _emit(buf.getvalue(), path)
