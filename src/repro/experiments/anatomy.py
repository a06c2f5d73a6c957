"""E1 — I/O stack anatomy (paper Fig 4).

Reads/writes 4KB through a LabFS stack (Permissions, LabFS, LRU cache,
NoOp scheduler, Kernel Driver) with a single Runtime worker and derives
the per-component time breakdown from live request telemetry
(:mod:`repro.obs`): every measured operation carries a SpanContext whose
stamps and category totals feed both the legacy Fig 4(a) per-LabMod
fractions and the submit/queue/module/device/completion phase anatomy.

Paper shape: device I/O ~66% of a 4KB write; page cache ~17% (copying);
IPC ~8.4%; NoOp scheduler ~5%; FS metadata ~3%; permissions ~3%;
driver ~1%.

The point takes a ``config``: ``lab-all`` / ``lab-min`` / ``lab-d`` run the
LabFS stack variant, ``ext4`` the kernel baseline — the Fig 4 matrix
``python -m repro report obs`` drives as a four-point grid.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..devices.profiles import make_device
from ..kernel import make_filesystem
from ..mods.generic_fs import GenericFS
from ..obs import Telemetry, phase_breakdown
from ..system import LabStorSystem
from .registry import Experiment, Table, register

__all__ = ["PHASE_CONFIGS"]

#: the Fig 4 matrix: three LabFS variants and the kernel baseline
PHASE_CONFIGS = ("lab-all", "lab-min", "lab-d", "ext4")

# telemetry category -> paper label
SPAN_LABELS = {
    "device_io": "Device I/O",
    "cache": "Page cache (LRU)",
    "ipc": "IPC (shm queues)",
    "sched": "I/O sched (NoOp)",
    "fs_meta": "FS metadata",
    "permissions": "Permissions",
    "driver": "Driver",
}


def run_anatomy(env, p: dict, seed: int = 0) -> dict:
    """Anatomy of one configuration, measured from request spans.

    A LabFS variant returns ``fractions`` / ``total_ns_per_op`` /
    ``span_ns`` plus ``breakdown`` (the span-derived phase anatomy of
    :func:`repro.obs.report.phase_breakdown`) and ``variant``; the
    kernel baseline returns ``fs``, ``total_ns_per_op`` and ``breakdown``.
    """
    op, nops, bs = p["op"], p["nops"], p["bs"]
    if p["config"] == "ext4":
        return _kernel_anatomy(env, op, nops, bs)
    variant = p["config"].split("-", 1)[1]
    telemetry = Telemetry()
    sys_ = LabStorSystem(
        env=env, seed=seed, devices=("nvme",), config=RuntimeConfig(nworkers=1),
        telemetry=telemetry,
    )
    sys_.stack("fs::/a").fs(variant=variant).device("nvme").uuid_prefix("anat").mount()
    client = sys_.client()
    gfs = GenericFS(client)

    def setup():
        fd = yield from gfs.open("fs::/a/target", create=True)
        # touch every page so reads/overwrites hit allocated blocks
        yield from gfs.write(fd, b"\x00" * (bs * nops), offset=0)
        if op == "read":
            # drop the LRU cache so reads exercise the device path
            sys_.runtime.registry.get("anat.lru").pages.drop_clean()
        return fd

    fd = sys_.run(sys_.process(setup()))
    telemetry.reset()  # measure only the steady-state ops
    start = sys_.env.now

    def measured():
        for i in range(nops):
            if op == "write":
                yield from gfs.write(fd, b"w" * bs, offset=i * bs)
            else:
                sys_.runtime.registry.get("anat.lru").pages.drop_clean()
                yield from gfs.read(fd, bs, offset=i * bs)

    sys_.run(sys_.process(measured()))
    elapsed = sys_.env.now - start
    spans = list(telemetry.spans)
    breakdown = phase_breakdown(spans)
    sys_.shutdown()

    # legacy Fig 4(a) per-LabMod fractions, now summed from span categories
    cats = breakdown["cats"]
    fractions = {}
    total_spans = sum(cats.get(k, 0) for k in SPAN_LABELS)
    for cat, label in SPAN_LABELS.items():
        fractions[label] = cats.get(cat, 0) / total_spans if total_spans else 0.0
    return {
        "op": op,
        "variant": variant,
        "fractions": fractions,
        "total_ns_per_op": elapsed / nops,
        "span_ns": {SPAN_LABELS[k]: v / nops for k, v in cats.items() if k in SPAN_LABELS},
        "breakdown": breakdown,
    }


def _kernel_anatomy(env, op: str, nops: int, bs: int) -> dict:
    """Span-derived anatomy of the ext4 baseline (write+fsync / read).

    Writes are paired with fsync so the measured window includes the
    device I/O a buffered write defers; reads drop the page cache each
    iteration so every read exercises the block path.
    """
    telemetry = Telemetry().install(env)
    dev = make_device(env, "nvme")
    fs = make_filesystem("ext4", env, dev)

    def setup():
        fd = yield env.process(fs.open("/anat", create=True))
        yield env.process(fs.write(fd, b"\x00" * (bs * nops), offset=0))
        yield env.process(fs.fsync(fd))
        return fd

    fd = env.run(env.process(setup()))
    ino = fs._fds[fd].inode.ino
    telemetry.reset()
    start = env.now

    def measured():
        for i in range(nops):
            if op == "write":
                yield env.process(fs.write(fd, b"w" * bs, offset=i * bs))
                yield env.process(fs.fsync(fd))
            else:
                fs.cache.invalidate(ino)
                yield env.process(fs.read(fd, bs, offset=i * bs))

    env.run(env.process(measured()))
    elapsed = env.now - start
    return {
        "op": op,
        "fs": "ext4",
        "total_ns_per_op": elapsed / nops,
        "breakdown": phase_breakdown(telemetry.spans),
    }


def _components(rows: list[dict]) -> list[dict]:
    """One display row per stack component, largest slice first."""
    r = rows[0]
    return [{"op": r["op"], "total": r["total_ns_per_op"], "component": label,
             "pct": frac * 100, "ns": r["span_ns"].get(label, 0)}
            for label, frac in sorted(r["fractions"].items(), key=lambda kv: -kv[1])]


_TABLE = Table(
    title="Fig 4(a) I/O anatomy — 4KB {op} (total {total:.0f} ns/op)",
    columns=(("Component", "{component}"), ("Fraction", "{pct:.1f}%"),
             ("ns/op", "{ns:.0f}")),
    derive=_components,
)


def _write_gates(result: dict) -> None:
    f = result["rows"]["fractions"]
    assert f["Device I/O"] > 0.45            # paper: ~66%
    assert 0.08 < f["Page cache (LRU)"] < 0.25  # paper: ~17%
    assert 0.03 < f["IPC (shm queues)"] < 0.15  # paper: ~8.4%


def _read_gates(result: dict) -> None:
    # "results are similar for reads"
    assert result["rows"]["fractions"]["Device I/O"] > 0.40


def _single(rows: list[dict]) -> dict:
    """The artifact is the one point's row itself."""
    return {"rows": rows[0]}


register(Experiment(
    name="anatomy", figure="Fig 4(a) write", artifact="anatomy_write",
    point=run_anatomy,
    grid=({"op": "write", "nops": 128, "bs": 4096, "config": "lab-all"},),
    seeds="base", table=_TABLE, gates=_write_gates, summarize=_single,
    smoke={"op": "write", "nops": 8, "bs": 4096, "config": "lab-all"},
))
register(Experiment(
    name="anatomy-read", figure="Fig 4(a) read", artifact="anatomy_read",
    point=run_anatomy,
    grid=({"op": "read", "nops": 128, "bs": 4096, "config": "lab-all"},),
    seeds="base", table=_TABLE, gates=_read_gates, summarize=_single,
    smoke={"op": "read", "nops": 8, "bs": 4096, "config": "lab-all"},
))
