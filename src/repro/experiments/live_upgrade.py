"""E2 — Live upgrade service interruption (paper Table I).

An app sends ``nmessages`` to a dummy LabMod; partway through the run a
batch of upgrade requests is queued.  We measure total app running time
for upgrade counts {0, 256, 512, 1024} under both the centralized and
decentralized protocols.

Paper shape: baseline 29.08s; ~5ms per upgrade (dominated by reading the
1MB module image from NVMe); decentralized slightly slower than
centralized; +~5s at 1024 upgrades.

Scaling: the defaults use 1/8 of the paper's message and upgrade counts
so a sweep completes in seconds of wall time; per-upgrade cost and the
relative growth are unchanged.
"""

from __future__ import annotations

from ..core.requests import LabRequest
from ..core.runtime import RuntimeConfig
from ..core.labstack import StackSpec
from ..core.module_manager import UpgradeRequest
from ..mods.dummy import DummyMod, DummyModV2
from ..system import LabStorSystem
from ..units import msec, to_sec, usec
from .report import format_table

__all__ = [
    "run_live_upgrade",
    "run_live_upgrade_under_load",
    "sweep_live_upgrade",
    "format_live_upgrade",
]

# per-message LabMod processing delay chosen so that the unscaled paper
# workload (100k messages) lasts ~29s: 100k x ~290us
MESSAGE_DELAY_NS = usec(286.0)


def run_live_upgrade(
    *,
    nmessages: int = 12_500,
    nupgrades: int = 0,
    upgrade_type: str = "centralized",
    trigger_after: int | None = None,
    seed: int = 0,
) -> dict:
    """Returns {"elapsed_s", "upgrades_done", "messages"}."""
    sys_ = LabStorSystem(
        seed=seed, devices=("nvme",),
        config=RuntimeConfig(nworkers=1, admin_poll_ns=msec(1.0)),
    )
    spec = StackSpec.linear("msg::/d", [("DummyMod", "upg.dummy")])
    spec.nodes[0].attrs = {"delay_ns": MESSAGE_DELAY_NS}
    stack = sys_.runtime.mount_stack(spec)
    client = sys_.client()
    trigger = trigger_after if trigger_after is not None else nmessages * 2 // 3

    def app():
        for i in range(nmessages):
            if i == trigger and nupgrades:
                for _ in range(nupgrades):
                    sys_.runtime.modify_mods(
                        UpgradeRequest(
                            mod_name="DummyMod", new_cls=DummyModV2, upgrade_type=upgrade_type
                        )
                    )
            yield from client.call(stack, LabRequest(op="msg.send", payload={"value": i}))

    start = sys_.env.now
    sys_.run(sys_.process(app()))
    return {
        "elapsed_s": to_sec(sys_.env.now - start),
        "upgrades_done": sys_.runtime.module_manager.upgrades_done,
        "messages": nmessages,
        "upgrade_type": upgrade_type,
    }


def run_live_upgrade_under_load(
    *,
    seed: int = 0,
    duration_ns: int | None = None,
    load: float = 1.0,
    nupgrades: int = 1,
    upgrade_type: str = "centralized",
) -> dict:
    """E2 rerun under open-loop tenant load, with a mid-upgrade snapshot.

    The dummy-mod version above measures upgrade *cost* in isolation;
    this one puts the claim under stress: the overload tenants of
    :mod:`repro.traffic` keep firing while ``LabKvs`` hot-swaps to
    ``LabKvsV2``, and a :class:`~repro.snap.ReplaySnapshot` is captured
    *while the upgrade request is in flight*.  The run proves three
    things at once — no in-flight op is lost across the state transfer
    (the program's own asserts), the capture did not perturb the run
    (full digests equal), and the restored continuation is seamless
    (suffix digests equal).
    """
    from ..scenarios.upgrade_under_load import UpgradeUnderLoadProgram
    from ..snap import restore_run, snapshot_run, straight_run

    def program():
        kw = {"load": load, "nupgrades": nupgrades, "upgrade_type": upgrade_type}
        if duration_ns is not None:
            kw["duration_ns"] = duration_ns
        return UpgradeUnderLoadProgram(seed, **kw)

    outcome, snap = snapshot_run(program())
    base = straight_run(program(), arm_at_ns=snap.time_ns)
    cont = restore_run(snap)
    return {
        **base.result,
        "pause_ns": snap.time_ns,
        "snapshot_bytes": snap.state.size_bytes(),
        "capture_invisible": outcome.digest == base.digest,
        "restore_seamless": (
            cont.suffix_digest == base.suffix_digest
            and cont.result == base.result
        ),
    }


def sweep_live_upgrade(
    *, nmessages: int = 12_500, upgrade_counts=(0, 32, 64, 128), seed: int = 0
) -> dict:
    """Table I at 1/8 scale (counts scale with nmessages)."""
    rows = {}
    for kind in ("centralized", "decentralized"):
        rows[kind] = {}
        for n in upgrade_counts:
            r = run_live_upgrade(nmessages=nmessages, nupgrades=n, upgrade_type=kind, seed=seed)
            rows[kind][n] = r["elapsed_s"]
    return {"counts": list(upgrade_counts), "rows": rows, "nmessages": nmessages}


def format_live_upgrade(result: dict) -> str:
    counts = result["counts"]
    rows = [
        [kind.capitalize()] + [f"{result['rows'][kind][n]:.3f}" for n in counts]
        for kind in ("centralized", "decentralized")
    ]
    return format_table(
        ["#Upgrades"] + [str(c) for c in counts],
        rows,
        title=f"Table I — app running time (s), {result['nmessages']} messages "
              f"(paper scale / 8)",
    )
