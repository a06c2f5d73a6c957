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
from .registry import Experiment, Table, register

__all__ = []

# per-message LabMod processing delay chosen so that the unscaled paper
# workload (100k messages) lasts ~29s: 100k x ~290us
MESSAGE_DELAY_NS = usec(286.0)


def run_live_upgrade(env, p: dict, seed: int = 0) -> dict:
    """Returns {"elapsed_s", "nupgrades", "upgrades_done", "messages",
    "upgrade_type"}."""
    nmessages, nupgrades = p["nmessages"], p["nupgrades"]
    upgrade_type = p["upgrade_type"]
    sys_ = LabStorSystem(
        env=env, seed=seed, devices=("nvme",),
        config=RuntimeConfig(nworkers=1, admin_poll_ns=msec(1.0)),
    )
    spec = StackSpec.linear("msg::/d", [("DummyMod", "upg.dummy")])
    spec.nodes[0].attrs = {"delay_ns": MESSAGE_DELAY_NS}
    stack = sys_.runtime.mount_stack(spec)
    client = sys_.client()
    trigger = nmessages * 2 // 3

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
        "nupgrades": nupgrades,
        "upgrades_done": sys_.runtime.module_manager.upgrades_done,
        "messages": nmessages,
        "upgrade_type": upgrade_type,
    }


def _table1(rows: list[dict]) -> dict:
    """Table I's shape: elapsed seconds by protocol and upgrade count."""
    by: dict[str, dict[int, float]] = {}
    for r in rows:
        by.setdefault(r["upgrade_type"], {})[r["nupgrades"]] = r["elapsed_s"]
    return {"rows": {"counts": list(next(iter(by.values()))), "rows": by,
                     "nmessages": rows[0]["messages"]}}


def _gates(result: dict) -> None:
    rows = result["rows"]["rows"]
    base = rows["centralized"][0]
    # ~5ms per upgrade (paper: +5.2s over 1024 upgrades)
    per_up_ms = (rows["centralized"][64] - base) * 1000 / 64
    assert 2.0 < per_up_ms < 10.0
    # decentralized is slightly slower at every count
    for n in (16, 32, 64):
        assert rows["decentralized"][n] > rows["centralized"][n]
    # running time grows monotonically with upgrade count
    cen = [rows["centralized"][n] for n in (0, 16, 32, 64)]
    assert cen == sorted(cen)


# Table I at 1/8 scale (counts scale with nmessages)
register(Experiment(
    name="table1", figure="Table I", artifact="live_upgrade_table",
    point=run_live_upgrade,
    grid=tuple({"upgrade_type": kind, "nupgrades": n, "nmessages": 6000}
               for kind in ("centralized", "decentralized")
               for n in (0, 16, 32, 64)),
    seeds="base",
    table=Table(
        title="Table I — app running time (s), {messages} messages (paper scale / 8)",
        pivot=("upgrade_type", "nupgrades", "{elapsed_s:.3f}"),
    ),
    gates=_gates, summarize=_table1,
    smoke={"upgrade_type": "decentralized", "nupgrades": 1, "nmessages": 60},
))
