"""The one figure runner: any row of the experiment table, over any grid.

Importing this module imports every figure module (their ``register()``
calls fill :data:`EXPERIMENTS` in ``--list`` order).  The runner owns
each point's :class:`~repro.sim.Environment`: identity counters rewound,
a fresh clock, the ``REPRO_SANITIZE`` sanitizer attached *and torn down*,
events counted — no harness builds its own.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

from ..sim import Environment
from ..sim.check import reset_global_counters
from ..sim.sanitizer import maybe_attach
from .registry import EXPERIMENTS, Experiment
from .sweep import run_sweep

from . import (  # noqa: E402,F401 - imported for their register() calls
    anatomy,
    live_upgrade,
    orchestration_cpu,
    orchestration_partition,
    storage_api,
    metadata,
    schedulers,
    pfs_eval,
    labios_eval,
    filebench_eval,
    ablations,
    fault_recovery,
    batching,
    openloop,
    cluster_scaling,
    control_plane,
)

__all__ = ["EXPERIMENTS", "Outcome", "run_experiment"]


class Outcome(NamedTuple):
    """One experiment run: the virtual result and what it cost the host."""

    experiment: Experiment
    rows: list[dict]  #: one per grid point, in grid order
    wall_s: float
    events: Optional[int]  #: None when no point ran on the runner's Environment

    def result(self) -> dict:
        """``{"rows": ...}`` plus the experiment's summary: exactly the
        virtual content of ``BENCH_<artifact>.json`` (no host field)."""
        summarize = self.experiment.summarize
        return {"rows": self.rows, **(summarize(self.rows) if summarize else {})}

    def host(self) -> dict:
        return {"wall_s": round(self.wall_s, 3), "points": len(self.rows),
                "events": self.events}

    def table(self) -> str:
        return self.experiment.table.render(self.rows, self.result())


def _run_point(task: tuple, point_seed: int) -> tuple[dict, int]:
    """One grid point in a fresh Environment (module-level: crosses the
    process pool, so only the experiment's *name* is pickled)."""
    name, params, base_seed = task
    exp = EXPERIMENTS[name]
    reset_global_counters()
    env = Environment()
    sanitizer = maybe_attach(env)
    row = exp.point(env, params, exp.seed_for(base_seed, point_seed))
    if sanitizer is not None:
        sanitizer.finish()
    return row, env._eid


def run_experiment(exp: Experiment, *, grid=None, base_seed: int = 0,
                   processes: int | None = None) -> Outcome:
    """Run ``exp`` over ``grid`` (default: the committed one) on
    :func:`run_sweep`; rows come back in grid order whatever the process
    count."""
    points = list(exp.grid if grid is None else grid)
    t0 = time.perf_counter()
    done = run_sweep(_run_point, [(exp.name, p, base_seed) for p in points],
                     base_seed=base_seed, processes=processes)
    wall_s = time.perf_counter() - t0
    events = sum(n for _row, n in done)
    return Outcome(exp, [row for row, _n in done], wall_s, events or None)
