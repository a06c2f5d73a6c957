"""Shared report-CLI plumbing: one table/JSON/CSV output seam.

Every report CLI (``python -m repro report <kind>``, see
:mod:`repro.__main__`) and the experiments CLI accept the same output
flags and exit codes, wired through :func:`add_output_flags` + :func:`emit`:

``--json [PATH]``
    Serialize the report's data to JSON.  With a ``PATH`` the JSON is
    written there (and the plain-text report still prints); a bare
    ``--json`` or ``--json -`` prints the JSON to stdout *instead of*
    the plain-text report.
``--csv [PATH]``
    Same contract for the report's tabular rows as CSV.
``--out PATH``
    Write the plain-text report to ``PATH`` instead of stdout.

Exit codes follow the argparse convention: ``0`` on success, ``2`` on a
usage error (bad flag or argument — argparse exits with 2 itself).  The
old hand-rolled parsers returned 2 through the same paths, so shell
callers see identical codes.

The serializers themselves live in :mod:`repro.experiments.report`
(``results_to_json`` / ``rows_to_csv``); this module only owns flag
wiring and output routing so the CLIs cannot drift apart again.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

from .experiments.report import results_to_json, rows_to_csv

__all__ = ["EXIT_OK", "Report", "add_output_flags", "emit"]

EXIT_OK = 0

#: sentinel PATH value meaning "print to stdout" (bare ``--json`` /
#: ``--csv`` resolve to it via ``const``)
STDOUT = "-"


def add_output_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--json`` / ``--csv`` / ``--out`` flags."""
    group = parser.add_argument_group("output")
    group.add_argument(
        "--json", nargs="?", const=STDOUT, metavar="PATH",
        help="write report data as JSON to PATH; bare flag prints JSON "
             "to stdout instead of the plain-text report",
    )
    group.add_argument(
        "--csv", nargs="?", const=STDOUT, metavar="PATH",
        help="write report rows as CSV to PATH; bare flag prints CSV "
             "to stdout instead of the plain-text report",
    )
    group.add_argument(
        "--out", metavar="PATH",
        help="write the plain-text report to PATH instead of stdout",
    )


@dataclass
class Report:
    """What a report CLI produced, in every exportable shape.

    ``text`` is the human table/kv rendering, ``data`` the JSON-able
    structure behind it, and ``csv_headers``/``csv_rows`` the flat rows
    (omit them for reports with no natural tabular form — ``--csv``
    then falls back to a single-column note).
    """

    text: str
    data: Any
    csv_headers: Sequence[str] | None = None
    csv_rows: Sequence[Sequence[Any]] | None = field(default=None)


def _write(path: str, text: str, stdout) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")
    print(f"wrote {path}", file=stdout)


def emit(args: argparse.Namespace, report: Report, stdout=None) -> int:
    """Route a :class:`Report` according to the shared output flags."""
    stdout = sys.stdout if stdout is None else stdout
    show_text = True
    if args.json is not None:
        text = results_to_json(report.data)
        if args.json == STDOUT:
            print(text, file=stdout)
            show_text = False
        else:
            _write(args.json, text, stdout)
    if args.csv is not None:
        if report.csv_headers is None:
            headers, rows = ("report",), ((report.text,),)
        else:
            headers, rows = report.csv_headers, report.csv_rows or ()
        text = rows_to_csv(headers, rows)
        if args.csv == STDOUT:
            stdout.write(text)
            show_text = False
        else:
            _write(args.csv, text, stdout)
    if args.out:
        _write(args.out, report.text, stdout)
    elif show_text:
        print(report.text, file=stdout)
    return EXIT_OK
