"""The paper's figures: each experiment's ``smoke`` point, under audit.

Pulled from the experiment table (never pushed by it: importing
:mod:`repro.experiments` must stay light), so a figure's name is a
catalogue name — ``python -m repro.sim.check fig6`` double-runs one
small member of Fig 6's grid under the strict sanitizer.
"""

from __future__ import annotations

from functools import partial

from ..experiments.runner import EXPERIMENTS
from .catalogue import register


def _smoke(name: str, env, seed: int = 0) -> dict:
    exp = EXPERIMENTS[name]
    return exp.point(env, exp.smoke, seed)


for _exp in EXPERIMENTS.values():
    if _exp.smoke is not None:
        register(_exp.name, point=partial(_smoke, _exp.name))
