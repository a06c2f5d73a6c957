"""Measurement primitives of the two-clock benchmark.

Everything here observes from outside: host clocks around calls into
public ``repro`` functions, virtual time read from ``env.now`` by
benchmark-owned proxies, and cProfile self time grouped by package path.
Nothing in ``src/`` is touched.
"""

from __future__ import annotations

import cProfile
import hashlib
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: layer -> path needles under src/repro/ (first match wins, so the
#: ``sim.par`` entry must precede ``sim``)
LAYER_PATHS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("sim.par", ("/repro/sim/par.py", "/multiprocessing/")),
    ("sim", ("/repro/sim/",)),
    ("ipc", ("/repro/ipc/",)),
    ("core", ("/repro/core/", "/repro/system.py", "/repro/builder.py")),
    ("mods", ("/repro/mods/",)),
    ("devices", ("/repro/devices/",)),
    ("kernel", ("/repro/kernel/",)),
    ("obs", ("/repro/obs/",)),
    ("traffic", ("/repro/traffic/",)),
    ("cluster", ("/repro/cluster/",)),
    ("workloads", ("/repro/workloads/", "/repro/experiments/")),
)
LAYERS = tuple(name for name, _ in LAYER_PATHS) + ("other",)


def layer_of(filename: str) -> str:
    norm = filename.replace("\\", "/")
    for layer, needles in LAYER_PATHS:
        if any(n in norm for n in needles):
            return layer
    return "other"


def layer_self_seconds(prof: cProfile.Profile) -> dict[str, float]:
    """cProfile self time per layer.

    A builtin (heappush, deque.append, pickle.dumps, os.read, ...) has no
    source file, so its self time is charged to the layer of the Python
    function that called it; whatever cannot be attributed lands in
    ``other``, so the values always sum to the profile's total self time.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    grand = 0.0
    attributed = 0.0
    for entry in prof.getstats():
        grand += entry.inlinetime
        if isinstance(entry.code, str):
            continue  # a builtin: charged through its callers below
        layer = layer_of(entry.code.co_filename)
        own = entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                own += sub.inlinetime
        totals[layer] += own
        attributed += own
    totals["other"] += max(0.0, grand - attributed)
    return totals


def _cpu_seconds() -> float:
    """CPU of this process plus every child already waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Section:
    """One timed section: wall, CPU (self + reaped children) and,
    for rep P only, a cProfile that is on exactly while the section is."""

    def __init__(self, profiler: cProfile.Profile | None = None) -> None:
        self.profiler = profiler
        self.t_built = time.perf_counter()  # build phase starts at creation
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.build_s = 0.0

    def start(self) -> None:
        now = time.perf_counter()
        self.build_s = now - self.t_built
        self._c0 = _cpu_seconds()
        self._t0 = now
        if self.profiler is not None:
            self.profiler.enable()

    def stop(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.wall_s = time.perf_counter() - self._t0
        self.cpu_s = _cpu_seconds() - self._c0

    def move_start(self, wall_mark: float, build_cpu_s: float) -> None:
        """The build ran inside the timed call (cluster worlds are built
        by the runner): shift it out, given when the build ended and the
        CPU it burned."""
        shift = max(0.0, wall_mark - self._t0)
        self.build_s += shift
        self.wall_s -= shift
        self.cpu_s -= build_cpu_s


@dataclass
class Rep:
    """What one repetition of a workload reports."""

    section: Section
    attempted: int            # ops started
    failed: int               # never returned, raised, refused, or wrong data
    good: int                 # of the rest: those inside the tenant deadline
    virtual_ns: int           # virtual length of the timed section
    lat_n: int                # virtual latency samples (ops that returned)
    lat_p50_ns: float
    lat_p99_ns: float
    counters: dict = field(default_factory=dict)   # exact: must repeat
    host: dict = field(default_factory=dict)       # host-derived extras
    phases: dict | None = None                     # Telemetry.breakdown()
    child_profiles: list = field(default_factory=list)  # rep P, forked shards
    problems: list = field(default_factory=list)   # failed output checks

    def fingerprint(self) -> str:
        """Everything virtual about the rep: equal seeds must give equal
        fingerprints, rep after rep and run after run."""
        h = hashlib.sha256()
        h.update(repr((self.attempted, self.failed, self.good, self.virtual_ns,
                       self.lat_n, self.lat_p50_ns, self.lat_p99_ns,
                       sorted(self.counters.items()))).encode())
        return h.hexdigest()


def lat_stats(latencies_ns: list) -> dict:
    """Rep's latency fields from one virtual latency per op (numpy's
    default linear interpolation, as LatencyRecorder.pcts uses)."""
    p50, p99 = np.percentile(latencies_ns, (50, 99)) if latencies_ns else (0, 0)
    return {"lat_n": len(latencies_ns), "lat_p50_ns": float(p50),
            "lat_p99_ns": float(p99)}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 4 values)."""
    if len(values) < 4:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def peak_rss_mib(children_before_kib: int) -> float:
    """``ru_maxrss`` of this process plus its largest child, if the
    workload forked one (the figure only ever grows, so a child counts
    when it raised the children's high-water mark)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    child = kids if kids > children_before_kib else 0
    return (own + child) / 1024.0


def children_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def environment(calibrate) -> dict:
    """Host facts recorded beside the numbers (not gated)."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count() or 1,
        "affinity": affinity,
        "calibrate_ops_per_s_before": calibrate(),
    }
