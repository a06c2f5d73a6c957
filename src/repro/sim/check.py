"""Determinism checker: hash a run's trace stream and compare digests.

The reproducibility contract of the DES kernel is that a seeded scenario
always produces the same event stream.  This module holds the substrate
that makes the claim testable — the canonical trace line and its hasher,
the sanitized :class:`AuditRun`, the identity-counter rewind — and the
command line that runs catalogue scenarios (:mod:`repro.scenarios`) twice
in one process and reports whether the digests match, alongside the
sanitizer's invariant report for each run.

Usage::

    python -m repro.sim.check                    # all scenarios, twice each
    python -m repro.sim.check quickstart         # one scenario
    python -m repro.sim.check cluster --shards 1,2,4   # par form, per shard count
    python -m repro.sim.check --shards 1,2,4           # every par-capable scenario
    python -m repro.sim.check --list

or from a test via the ``determinism_check`` pytest fixture
(``tests/conftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from typing import Any

from .core import Environment
from .sanitizer import Sanitizer
from .trace import TraceEvent

__all__ = [
    "TraceHasher",
    "AuditRun",
    "reset_global_counters",
    "scenarios",
    "UsageParser",
    "main",
]


def _canon(v: Any) -> str:
    """Stable projection of a trace-event field for hashing.

    Scalars hash by value; arbitrary objects hash by type name only, so
    memory addresses and process-global ids never leak into the digest.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return repr(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return type(v).__name__


def canon_line(ev: TraceEvent) -> str:
    """The one canonical ``time|category|k=v|...`` rendering of a trace
    event: what the serial digest hashes and what the sharded runner
    collects and merges, so the two cannot drift apart."""
    parts = [str(ev.time_ns), ev.category]
    parts += [f"{k}={_canon(ev.fields[k])}" for k in sorted(ev.fields)]
    return "|".join(parts)


class TraceHasher:
    """A tracer sink folding every event into one SHA-256 digest.

    With ``arm_at_ns`` set, events before that virtual timestamp are
    counted (``skipped``) but not hashed — the digest then covers only
    the event-stream *suffix* from T on.  That is the seam replay-to-point
    restore needs: a restored run's armed digest must match the armed
    digest of an unbroken run byte-for-byte (:mod:`repro.snap.replay`).
    """

    def __init__(self, arm_at_ns: int | None = None) -> None:
        self._h = hashlib.sha256()
        self.count = 0
        self.skipped = 0
        self.arm_at_ns = arm_at_ns

    def __call__(self, ev: TraceEvent) -> None:
        if self.arm_at_ns is not None and ev.time_ns < self.arm_at_ns:
            self.skipped += 1
            return
        self._h.update(canon_line(ev).encode())
        self._h.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


class AuditRun:
    """One sanitized, hashed execution.

    :meth:`attach` the run's Environment *before* building or driving
    anything on it (:func:`repro.scenarios.run_audited` does).  Afterwards
    :attr:`digest` is the trace hash and :meth:`finish` yields the
    sanitizer's teardown report.
    """

    def __init__(self, strict: bool = True) -> None:
        self.hasher = TraceHasher()
        self.sanitizer = Sanitizer(strict=strict)
        self.env: Environment | None = None

    def attach(self, env: Environment) -> Environment:
        self.env = env
        self.sanitizer.install(env)
        env.tracer.add_sink(self.hasher)
        return env

    def finish(self) -> dict[str, Any]:
        return self.sanitizer.finish()

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


#: every module-global identity counter: (module, attribute, start)
_COUNTER_SITES = (
    ("repro.system", "_uuid_seq", 1),
    ("repro.builder", "_uuid_seq", 1),
    ("repro.core.client", "_pids", 1000),
    ("repro.core.labstack", "_stack_ids", 1),
    ("repro.core.requests", "_req_ids", 1),
    ("repro.devices.base", "_req_ids", 1),
    ("repro.ipc.queue_pair", "_qids", 1),
    ("repro.ipc.shmem", "_seg_ids", 1),
    ("repro.mods.labfs.log", "_seq", 1),
)


def _counter_modules() -> list[tuple[Any, str, int]]:
    import importlib

    return [(importlib.import_module(mod), attr, start)
            for mod, attr, start in _COUNTER_SITES]


def reset_global_counters() -> None:
    """Rewind every module-level id counter to its import-time start.

    Request/queue/segment/stack ids come from process-global counters, and
    process names (hashed via ``san.step``) embed them — so back-to-back
    runs of one scenario must start from identical counter state to be
    comparable.
    """
    for module, attr, start in _counter_modules():
        setattr(module, attr, itertools.count(start))


class CounterScope:
    """A private identity-counter universe.

    The sharded runner (:mod:`repro.sim.par`) hosts several node-worlds
    per process; were they to share the process-global counters, the ids
    a world draws would depend on which *other* worlds it cohabits with
    — and differ between ``shards=1`` and forked runs.  Each world owns
    a scope and :meth:`activate`\\ s it before executing, so every draw
    depends only on that world's own history: the exact values it would
    draw running alone in a fork.
    """

    def __init__(self) -> None:
        self._sites = [(module, attr, itertools.count(start))
                       for module, attr, start in _counter_modules()]

    def activate(self) -> None:
        for module, attr, counter in self._sites:
            setattr(module, attr, counter)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def scenarios():
    """The :mod:`repro.scenarios` package, imported on first use: the
    catalogue sits above this substrate and imports it, so ``check.main``
    and ``par.main`` reach it through this one lazy lookup."""
    from .. import scenarios as package

    return package


def _shard_list(text: str) -> list[int]:
    try:
        shards = [int(s) for s in text.split(",")]
    except ValueError:
        shards = []
    if not shards or min(shards) < 1:
        raise argparse.ArgumentTypeError(
            f"needs comma-separated shard counts >= 1 (e.g. 1,2,4), got {text!r}")
    return shards


class UsageParser(argparse.ArgumentParser):
    """A parser built with an explicit ``usage=`` whose every usage error
    is one line on stderr and exit 2 (shared with the experiments CLI)."""

    def error(self, message: str):
        self.exit(2, f"{message}; usage: {self.usage}\n")


def _check_serial(name: str, strict: bool) -> bool:
    """Run the serial (else point) form twice; the digests must match and
    neither run may trip the sanitizer."""
    runs = [scenarios().run_scenario(name, strict=strict) for _ in range(2)]
    d1, d2 = (r.digest for r in runs)
    ok = d1 == d2 and not any(r.report["violations"] for r in runs)
    print(f"[{'ok' if ok else 'FAIL'}] {name}: {runs[0].trace_events} trace events, "
          f"{sum(runs[0].report['checks'].values())} invariant checks")
    print(f"       run 1: {d1}")
    print(f"       run 2: {d2}{'' if d1 == d2 else '   <-- NON-DETERMINISTIC'}")
    for i, run in enumerate(runs, 1):
        for v in run.report["violations"]:
            print(f"       run {i} violation: {v}")
    return ok


def _check_shards(name: str, shards: list[int], seed: int) -> bool:
    """Run the par form once per shard count under the sharded runner;
    every merged digest must be byte-identical to the first's."""
    from .par import run_program

    make = scenarios().SCENARIOS[name].par
    runs = [run_program(make(seed), shards=n, trace=True) for n in shards]
    base = runs[0].digest
    ok = all(r.digest == base for r in runs)
    print(f"[{'ok' if ok else 'FAIL'}] {name}: {runs[0].merged_events} merged "
          f"trace events across shards={{{','.join(map(str, shards))}}}")
    for n, r in zip(shards, runs):
        mark = "" if r.digest == base else f"   <-- DIVERGES FROM shards={shards[0]}"
        print(f"       shards={n}: {r.digest}{mark}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = UsageParser(
        prog="check", add_help=False,
        usage="check [--list] [--strict] [--shards 1,2,4 [--seed N]] [scenario ...]")
    parser.add_argument("names", nargs="*")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--shards", type=_shard_list)
    parser.add_argument("--seed", type=int)
    args = parser.parse_intermixed_args(argv)

    catalogue, par = scenarios().SCENARIOS, scenarios().names_with("par")
    if args.list:
        print("\n".join(catalogue))
        return 0
    unknown = [n for n in args.names if n not in catalogue]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)}; try --list")
    if args.shards is None and args.seed is not None:
        # the serial forms are canned at one seed; running seed 0
        # under a --seed 3 label would be a silent lie
        parser.error("--seed only applies with --shards")
    serial_only = [n for n in args.names if n not in par]
    if args.shards is not None and serial_only:
        parser.error(f"not par-capable: {', '.join(serial_only)}; "
                     f"par scenarios: {par}")
    failed = False
    for name in args.names or (catalogue if args.shards is None else par):
        if args.shards is not None:
            ok = _check_shards(name, args.shards, args.seed or 0)
        elif name in par and catalogue[name].serial is None:
            ok = _check_shards(name, [1, 1], 0)  # par-only: two shards=1 runs
        else:
            ok = _check_serial(name, args.strict)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
