"""The experiment table: every paper figure is one :class:`Experiment`.

A figure module ends in ``register(Experiment(...))`` (the idiom of
:mod:`repro.scenarios.catalogue`); :mod:`repro.experiments.runner`
imports the modules in ``--list`` order and runs any row of the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .report import Table

__all__ = ["Experiment", "Table", "EXPERIMENTS", "register"]


@dataclass(frozen=True)
class Experiment:
    """One figure: what to run, over which grid, and what it must show.

    ``point(env, params, seed) -> row`` runs one configuration on the
    :class:`~repro.sim.Environment` the runner hands it.  ``grid`` is the
    one list of ``params`` dicts the committed ``BENCH_<artifact>.json``
    was produced from.  ``seeds`` is ``"base"`` (every point runs at the
    base seed, so configurations face the identical workload) or
    ``"per-point"`` (:func:`~repro.experiments.sweep.point_seed`).
    ``gates(result)`` asserts the paper's shape on ``{"rows": ...}`` plus
    whatever ``summarize(rows)`` adds to or replaces in it.  ``smoke`` is
    one small member of the parameter space: the point
    ``python -m repro.sim.check <name>`` double-runs under the sanitizer.
    """

    name: str
    figure: str
    artifact: Optional[str]
    point: Callable[..., dict]
    grid: tuple[dict, ...]
    seeds: str
    table: Table
    gates: Optional[Callable[[dict], None]]
    summarize: Optional[Callable[[list], dict]] = None
    smoke: Optional[dict] = None

    def seed_for(self, base_seed: int, point_seed: int) -> int:
        """The seed one grid point runs at, as ``seeds`` declares."""
        return point_seed if self.seeds == "per-point" else base_seed


#: every figure, in registration (= ``--list``) order
EXPERIMENTS: dict[str, Experiment] = {}


def register(exp: Experiment) -> None:
    """Add a figure to the table; its module calls this at import."""
    if exp.name in EXPERIMENTS:
        raise ValueError(f"experiment {exp.name!r} registered twice")
    if exp.seeds not in ("base", "per-point"):
        raise ValueError(f"experiment {exp.name!r}: unknown seeds {exp.seeds!r}")
    EXPERIMENTS[exp.name] = exp
