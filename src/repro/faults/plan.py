"""Declarative fault schedules: what breaks, where, and when.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries.  Each spec
names an injector ``kind``, a trigger (``at=``/``every=`` in virtual ns,
or a per-operation ``probability``), and a scope (``device=``,
``worker=``, ``queue=``, or ``module=``).  Plans are pure data: the
:class:`~repro.faults.engine.FaultEngine` compiles them onto the live
system's seams, drawing every probabilistic decision from one seeded RNG
stream (``rngs.stream("faults")``) so a plan replays bit-identically
under :mod:`repro.sim.check`.

Injector kinds:

============== =========================================================
media_error     fail a device command with :class:`~repro.errors.MediaError`
                (EIO); scope by ``op=read|write`` and ``offset``/``length``
latency         add ``extra_ns`` to a device command's service time
stall           freeze a device's service starts for ``extra_ns`` from ``at``
torn_write      power-cut a WRITE: persist a sector-aligned prefix chosen
                by the RNG, then fail the command
worker_crash    kill a worker mid-request; the orchestrator respawns one
power_cut       :meth:`Runtime.crash`; ``restart_after`` schedules the
                administrator's restart
qp_reject       reject a queue-pair submission with
                :class:`~repro.errors.QueueFull` (full-SQ backpressure)
============== =========================================================

The ``REPRO_FAULTS`` environment variable carries a plan in a compact
text form — semicolon-separated specs of ``kind:key=value,key=value``
with ``us``/``ms``/``s`` suffixes on durations::

    REPRO_FAULTS="media_error:device=nvme,probability=0.02;power_cut:at=5ms,restart_after=10ms"
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import FAULTS_ENV_VAR
from ..config import current as _config
from ..errors import LabStorError

__all__ = ["FaultSpec", "FaultPlan", "FAULTS_ENV_VAR", "plan_from_env"]

#: injector kinds that decide per device operation
DEVICE_KINDS = ("media_error", "latency", "torn_write")
#: injector kinds driven by virtual-time schedules
TIMED_KINDS = ("stall", "worker_crash", "power_cut")
#: injector kinds hooked into queue-pair submission
QP_KINDS = ("qp_reject",)
KINDS = DEVICE_KINDS + TIMED_KINDS + QP_KINDS

_NS_SUFFIXES = (("us", 1_000), ("ms", 1_000_000), ("ns", 1), ("s", 1_000_000_000))


def _parse_ns(text: str) -> int:
    for suffix, mult in _NS_SUFFIXES:
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * mult)
    return int(text)


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.  Frozen: plans are shareable and hashable-ish."""

    kind: str
    # trigger --------------------------------------------------------------
    at: Optional[int] = None            # one-shot, virtual ns
    every: Optional[int] = None         # periodic, virtual ns
    probability: float = 0.0            # per-operation (device / qp kinds)
    count: Optional[int] = None         # max injections (None = unbounded)
    # scope ----------------------------------------------------------------
    device: Optional[str] = None        # device name ("nvme", ...)
    worker: Optional[int] = None        # worker id (worker_crash)
    queue: Optional[int] = None         # queue-pair qid (qp_reject)
    module: Optional[str] = None        # LabMod uuid; resolved to its device
    op: Optional[str] = None            # "read" | "write" (device kinds)
    offset: Optional[int] = None        # byte range start (device kinds)
    length: Optional[int] = None        # byte range length (device kinds)
    # parameters -----------------------------------------------------------
    extra_ns: int = 0                   # latency spike / stall duration
    restart_after: Optional[int] = None  # power_cut: auto-restart delay, ns

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise LabStorError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise LabStorError(f"{self.kind}: probability must be in [0, 1]")
        if self.at is None and self.every is None and self.probability == 0.0:
            raise LabStorError(
                f"{self.kind}: needs a trigger (at=, every= or probability=)"
            )
        if self.kind in TIMED_KINDS and self.at is None and self.every is None:
            raise LabStorError(f"{self.kind}: timed injector needs at= or every=")
        if self.kind in ("latency", "stall") and self.extra_ns <= 0:
            raise LabStorError(f"{self.kind}: needs extra_ns > 0")

    def matches_io(self, op_name: str, offset: int, size: int) -> bool:
        """Does a device command fall inside this spec's scope?"""
        if self.op is not None and self.op != op_name:
            return False
        if self.offset is not None:
            lo = self.offset
            hi = lo + (self.length if self.length is not None else 1)
            if offset + size <= lo or offset >= hi:
                return False
        return True

    @property
    def max_fires(self) -> Optional[int]:
        """Injection budget: explicit ``count`` wins; a bare ``at=`` is
        one-shot; ``every=``/``probability`` are unbounded by default."""
        if self.count is not None:
            return self.count
        if self.at is not None and self.every is None:
            return 1
        return None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault specs (order fixes RNG draw order)."""

    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def extend(self, *specs: FaultSpec) -> "FaultPlan":
        return FaultPlan(self.specs + tuple(specs))

    # -- builders ---------------------------------------------------------
    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(tuple(specs))

    @classmethod
    def power_cut_scenario(
        cls,
        *,
        at: int,
        device: str = "nvme",
        restart_after: Optional[int] = None,
    ) -> "FaultPlan":
        """The canned crash-consistency scenario: the first WRITE serviced
        at/after ``at`` is torn at a sector boundary, and the Runtime
        power-cuts at the same instant (restarting after ``restart_after``
        if given)."""
        return cls.of(
            FaultSpec(kind="torn_write", at=at, device=device, op="write"),
            FaultSpec(kind="power_cut", at=at, restart_after=restart_after),
        )

    # -- text form (REPRO_FAULTS) -----------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact ``kind:key=value,...;kind:...`` plan syntax."""
        specs: list[FaultSpec] = []
        for chunk in filter(None, (c.strip() for c in text.split(";"))):
            kind, _, args = chunk.partition(":")
            kw: dict = {}
            for pair in filter(None, (p.strip() for p in args.split(","))):
                key, sep, value = pair.partition("=")
                if not sep:
                    raise LabStorError(f"fault spec {chunk!r}: expected key=value, got {pair!r}")
                key = key.strip()
                value = value.strip()
                if key in ("at", "every", "extra_ns", "restart_after"):
                    kw[key] = _parse_ns(value)
                elif key == "probability":
                    kw[key] = float(value)
                elif key in ("worker", "queue", "count", "offset", "length"):
                    kw[key] = int(value)
                elif key in ("device", "module", "op"):
                    kw[key] = value
                else:
                    raise LabStorError(f"fault spec {chunk!r}: unknown key {key!r}")
            specs.append(FaultSpec(kind=kind.strip(), **kw))
        return cls(tuple(specs))

    def to_text(self) -> str:
        """Inverse of :meth:`parse` (used to ship plans through env vars)."""
        chunks = []
        for s in self.specs:
            kv = []
            for f in (
                "at", "every", "probability", "count", "device", "worker",
                "queue", "module", "op", "offset", "length", "extra_ns",
                "restart_after",
            ):
                v = getattr(s, f)
                if v is None or (f == "probability" and v == 0.0) or (f == "extra_ns" and v == 0):
                    continue
                kv.append(f"{f}={v}")
            chunks.append(f"{s.kind}:{','.join(kv)}")
        return ";".join(chunks)


def plan_from_env() -> Optional[FaultPlan]:
    """Build a plan from ``REPRO_FAULTS``; None when unset/empty/"0".

    The parse of the environment itself lives in :mod:`repro.config`
    (one parse site for every ``REPRO_*`` seam); this helper only turns
    the text into a typed :class:`FaultPlan`."""
    text = _config().faults
    if text is None:
        return None
    return FaultPlan.parse(text)
