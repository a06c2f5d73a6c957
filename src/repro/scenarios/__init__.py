"""The one catalogue of runnable scenarios, and the one audited runner.

Every named, known-good input this repo runs — determinism double runs
(``python -m repro.sim.check``), snapshot/restore comparisons
(:mod:`repro.snap`), sharded runs (``python -m repro.sim.par``) — is an
entry of :data:`SCENARIOS`.  An entry carries a *serial* form (a
:class:`Program`: ``build -> drive -> pause_point -> finish``, run by
:func:`run_audited`), a *par* form (the ``nodes/build(world)/drivers/
finish/reduce`` shape :func:`repro.sim.par.run_program` takes), or both;
the paper's figures enter with a *point* form — one small member of each
experiment's grid, run to completion under the same audit.

Adding a scenario is one file in this package that ends in a
:func:`register` call, plus its import below (import order is ``--list``
order).
"""

from .catalogue import SCENARIOS, Program, names_with, register
from .runner import LiveRun, RunOutcome, run_audited, run_scenario

from . import (  # noqa: E402,F401 - imported for their register() calls
    quickstart,
    orchestration,
    kvs,
    faults,
    batching,
    openloop,
    cluster,
    control,
    upgrade_under_load,
    e14,
    zns,
    figures,
)

__all__ = [
    "SCENARIOS",
    "Program",
    "register",
    "names_with",
    "LiveRun",
    "RunOutcome",
    "run_audited",
    "run_scenario",
]
