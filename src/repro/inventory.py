"""The reach map: which ``src/repro`` code the two tables reach.

Every entry runs once under :mod:`cProfile`: each form of every
:data:`repro.scenarios.SCENARIOS` entry (serial or point form, and the par
form at ``shards=1`` through :func:`repro.sim.par.run_program`), one
:func:`~repro.snap.snapshot_run` / :func:`~repro.snap.restore_run` round
trip of ``batching``, and the first grid point of every experiment with
no smoke point (one with a smoke point is a catalogue entry already).

Every function (or lambda) the profile saw entering is mapped back to the
module defining it and the entries that reached it (this module's own
entry wrappers do not count).  A module no entry reaches has no digest
and no sanitizer teardown: a catalogue entry adopts it, or it goes.

``python -m repro report inventory`` prints module x lines x reached-by
plus the unreached functions (``--json`` writes the same data).
"""

from __future__ import annotations

import ast
import cProfile
import os
from typing import Callable, Iterator, Mapping

__all__ = ["entries", "profile", "reach_map", "main"]

ROOT = os.path.dirname(os.path.abspath(__file__))


def entries() -> Iterator[tuple[str, Callable[[], object]]]:
    """``(label, run)`` for every entry of both tables."""
    from .experiments.runner import EXPERIMENTS, run_experiment
    from .scenarios import SCENARIOS, run_scenario
    from .sim.par import run_program
    from .snap import restore_run, snapshot_run

    for name, entry in SCENARIOS.items():
        if entry.serial is not None or entry.point is not None:
            yield name, lambda name=name: run_scenario(name)
        if entry.par is not None:
            yield (f"{name}@par",
                   lambda make=entry.par: run_program(make(0), shards=1, trace=True))
    batching = SCENARIOS["batching"].serial
    yield "batching@snap", lambda: restore_run(snapshot_run(batching())[1])
    for name, exp in EXPERIMENTS.items():
        if exp.smoke is None:
            yield (f"{name}@grid[0]", lambda exp=exp: run_experiment(
                exp, grid=exp.grid[:1], processes=1))


def _functions(path: str) -> dict[int, str]:
    """First line -> qualified name of every function and lambda in
    ``path`` (decorated: the first decorator's line, as ``co_firstlineno``)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    out: dict[int, str] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[first] = prefix + child.name
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.Lambda):
                out.setdefault(child.lineno, prefix + "<lambda>")
                walk(child, prefix)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def profile(run: Callable[[], object]) -> tuple[object, set[tuple[str, int]]]:
    """Run one entry under cProfile: its return value, and the
    ``(module, first line)`` of every package function it entered."""
    prof = cProfile.Profile(builtins=False, subcalls=False)
    value = prof.runcall(run)
    entered = set()
    for stat in prof.getstats():
        if isinstance(stat.code, str):
            continue
        path = os.path.abspath(stat.code.co_filename)
        if path.startswith(ROOT) and path != os.path.abspath(__file__):
            entered.add((os.path.relpath(path, ROOT), stat.code.co_firstlineno))
    return value, entered


def reach_map(profiles: Mapping[str, tuple] | None = None) -> dict[str, dict]:
    """Module -> ``{"lines", "functions", "reached_by", "unreached"}``:
    ``reached_by`` lists the entries that entered any of its functions,
    ``unreached`` the functions no entry entered.  ``profiles`` maps an
    entry's label to its :func:`profile` (default: profile them all)."""
    if profiles is None:
        profiles = {label: profile(run) for label, run in entries()}
    reached: dict[tuple[str, int], set[str]] = {}
    for label, _run in entries():
        for key in profiles[label][1]:
            reached.setdefault(key, set()).add(label)
    out = {}
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for rel in sorted(os.path.relpath(os.path.join(base, f), ROOT)
                          for f in files if f.endswith(".py")):
            with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
                lines = sum(1 for _ in f)
            funcs = _functions(os.path.join(ROOT, rel))
            out[rel] = {
                "lines": lines,
                "functions": len(funcs),
                "reached_by": sorted(set().union(
                    *(reached.get((rel, first), ()) for first in funcs))),
                "unreached": [q for first, q in sorted(funcs.items())
                              if (rel, first) not in reached],
            }
    return out


def format_inventory(data: dict[str, dict]) -> str:
    rows = [f"{'module':<34} {'lines':>5} {'funcs':>5} {'unreached':>9}  reached by"]
    for rel, m in data.items():
        by = m["reached_by"]
        shown = ", ".join(by[:3]) + (f" +{len(by) - 3}" if len(by) > 3 else "")
        rows.append(f"{rel:<34} {m['lines']:>5} {m['functions']:>5} "
                    f"{len(m['unreached']):>9}  {shown or '-- UNREACHED --'}")
    rows += ["", "unreached functions:"]
    rows += [f"  {rel}: {q}" for rel, m in data.items() for q in m["unreached"]]
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    import argparse

    from .cli import Report, add_output_flags, emit

    parser = argparse.ArgumentParser(
        prog="python -m repro report inventory",
        description="which src/repro modules and functions the two tables reach")
    add_output_flags(parser)
    args = parser.parse_args(argv)
    data = reach_map()
    return emit(args, Report(
        text=format_inventory(data), data=data,
        csv_headers=("module", "lines", "functions", "unreached", "reached_by"),
        csv_rows=[(rel, m["lines"], m["functions"], len(m["unreached"]),
                   " ".join(m["reached_by"])) for rel, m in data.items()]))
