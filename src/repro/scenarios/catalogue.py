"""The scenario catalogue: the :class:`Program` protocol and the one
name -> :class:`Scenario` dict every runner looks names up in."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

__all__ = ["Program", "SCENARIOS", "register", "names_with"]


class Program:
    """The serial form of a scenario: a deterministic, seed-parameterized
    run split into phases so the runner can pause the clock between
    them::

        ctx   = program.build(env)      # construct system/cluster + workload
        event = program.drive(ctx)      # start the main process, return its event
        ...   = env.run(until=T)        # (snapshot seam: pause anywhere here)
        value = env.run(until=event)
        out   = program.finish(ctx, value)   # asserts + result dict

    ``seed`` perturbs the workload and system RNG streams: every seed is
    its own fully deterministic timeline.
    """

    #: a virtual timestamp strictly inside the run — the default
    #: snapshot pause point (after build, before the main event fires)
    default_pause_ns = 0

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def build(self, env) -> SimpleNamespace:
        raise NotImplementedError

    def drive(self, ctx):
        raise NotImplementedError

    def finish(self, ctx, value) -> dict[str, Any]:
        raise NotImplementedError

    def target(self, ctx):
        """The deployment a snapshot captures (system or cluster)."""
        return ctx.system

    def pause_point(self, ctx, env) -> int:
        """Resolve the default pause timestamp once the run is built
        (programs whose build phase advances the clock override this)."""
        return self.default_pause_ns

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"{type(self).__name__}(seed={self.seed})"


class Scenario(NamedTuple):
    """One catalogue entry.  ``serial(seed=0)`` builds a :class:`Program`
    for :func:`repro.scenarios.run_audited`; ``par(seed)`` builds the
    ``nodes/build(world)/drivers/finish/reduce`` object
    :func:`repro.sim.par.run_program` takes; ``point(env, seed=0)`` runs
    start to finish on the audited Environment it is handed and returns
    its result dict (no phases, so no pause point: the paper's figures).
    Unused forms are None."""

    serial: Optional[Callable] = None
    par: Optional[Callable] = None
    point: Optional[Callable] = None


#: every runnable scenario, in registration (= ``--list``) order
SCENARIOS: dict[str, Scenario] = {}


def register(name: str, **forms: Callable) -> None:
    """Add a scenario to the catalogue; its module calls this at import."""
    if name in SCENARIOS:
        raise ValueError(f"scenario {name!r} registered twice")
    SCENARIOS[name] = Scenario(**forms)


def names_with(form: str) -> list[str]:
    """Catalogue names that have the given form
    (``"serial"``/``"par"``/``"point"``)."""
    return [n for n, s in SCENARIOS.items() if getattr(s, form) is not None]
