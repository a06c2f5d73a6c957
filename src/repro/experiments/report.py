"""Plain-text table/report formatting + JSON/CSV export for experiment
results.

The span-derived anatomy breakdowns have richer, dedicated exporters in
:mod:`repro.obs.report`; the helpers here serialize any plain result
dict/row-set an experiment harness produces.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

__all__ = ["Table", "format_table", "format_kv", "normalize", "results_to_json",
           "rows_to_csv"]


def results_to_json(results: Any, path: str | None = None) -> str:
    """Serialize an experiment result structure to JSON (optionally to
    ``path``).  Non-JSON-able leaves fall back to ``str``."""
    text = json.dumps(results, indent=2, sort_keys=True, default=str)
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


def rows_to_csv(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                path: str | None = None) -> str:
    """Write a header + rows table as CSV (optionally to ``path``)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(headers))
    for row in rows:
        writer.writerow(list(row))
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    return text


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None, floatfmt: str = ".2f") -> str:
    """Render an aligned ASCII table (the shape the paper's tables use)."""
    def cell(v: Any) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


@dataclass(frozen=True)
class Table:
    """A figure's table as data, rendered through :func:`format_table`.

    Every cell is a ``str.format`` template over a row's keys.  Give
    either ``columns`` — ``(header, template)`` pairs, one line per row —
    or ``pivot`` — ``(row_key, column_key, template)``: one line per
    distinct ``row_key`` value, one column per ``column_key`` value.
    ``group`` splits the rows into one table per distinct value of those
    keys.  ``derive`` maps the experiment's rows to display rows first
    (sort, explode a nested row, add ratio columns).  ``title`` is a
    template over the first display row of its table; ``footer`` lines
    are templates over the experiment's summary.
    """

    title: str
    columns: tuple[tuple[str, str], ...] = ()
    pivot: Optional[tuple[str, str, str]] = None
    group: tuple[str, ...] = ()
    derive: Optional[Callable[[list[dict]], list[dict]]] = None
    footer: tuple[str, ...] = ()

    def render(self, rows: list[dict], summary: dict | None = None) -> str:
        rows = self.derive(rows) if self.derive else rows
        groups: dict[tuple, list[dict]] = {}
        for r in rows:
            groups.setdefault(tuple(r[k] for k in self.group), []).append(r)
        parts = [self._one(g) for g in groups.values()]
        if self.footer:
            parts.append("\n".join(f.format(**(summary or {})) for f in self.footer))
        return "\n\n".join(parts)

    def _one(self, rows: list[dict]) -> str:
        title = self.title.format(**rows[0])
        if self.pivot is None:
            return format_table(
                [h for h, _ in self.columns],
                [[cell.format(**r) for _, cell in self.columns] for r in rows],
                title=title)
        row_key, col_key, cell = self.pivot
        cols = list(dict.fromkeys(r[col_key] for r in rows))
        lines: dict[Any, dict] = {}
        for r in rows:
            lines.setdefault(r[row_key], {})[r[col_key]] = cell.format(**r)
        return format_table(
            [f"{row_key} \\ {col_key}"] + [str(c) for c in cols],
            [[k] + [cells.get(c, "-") for c in cols] for k, cells in lines.items()],
            title=title)


def format_kv(title: str, pairs: dict[str, Any]) -> str:
    width = max(len(k) for k in pairs) if pairs else 0
    lines = [title]
    for k, v in pairs.items():
        if isinstance(v, float):
            v = f"{v:.3f}"
        lines.append(f"  {k.ljust(width)} : {v}")
    return "\n".join(lines)


def normalize(values: dict[str, float]) -> dict[str, float]:
    """Scale a metric dict so the best entry is 1.0 (paper Fig 6 style)."""
    best = max(values.values())
    if best <= 0:
        return {k: 0.0 for k in values}
    return {k: v / best for k, v in values.items()}
