"""Quiescent system capture: :class:`SystemSnapshot`.

Captures the *durable* side of a deployment — device backing stores (as
frozen COW layer references, so a capture costs only the dirtied pages),
per-LabMod state via the :meth:`~repro.core.labmod.LabMod.on_snapshot`
hook, RNG stream positions, and metrics counters — into a picklable
object that restores into a **freshly built** system.

This is the gem5-style *functional* checkpoint: in-flight generator
continuations and the event heap are deliberately out of scope (see
:mod:`repro.snap.replay` for the replay-to-point scheme that recovers
them).  A quiescent snapshot is what warm-started sweeps and live
cluster migration want: all the workload's durable effects, none of the
timeline.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Optional

from ..errors import SnapshotError
from .layers import SnapshotLayer, SnapshotStack

__all__ = ["SystemSnapshot"]

#: BlockDevice counters that belong to durable deployment state
_DEVICE_COUNTERS = (
    "completed",
    "errors",
    "bytes_read",
    "bytes_written",
    "coalesced_groups",
    "coalesced_ops",
)


def _canon(obj: Any) -> str:
    if isinstance(obj, dict):
        items = ",".join(
            f"{_canon(k)}:{_canon(v)}" for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canon(v) for v in obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, (bytes, bytearray)):
        return "b" + hashlib.sha256(bytes(obj)).hexdigest()
    return repr(obj)


def canonical_digest(obj: Any) -> str:
    """Order-insensitive SHA-256 over plain data (dict/set order-proof)."""
    return hashlib.sha256(_canon(obj).encode()).hexdigest()


class DeviceCapture:
    """One device's snapshot: base store + frozen overlay chain + counters."""

    __slots__ = (
        "kind", "capacity_bytes", "base", "frozen", "counters",
        "last_offset", "page_digests", "content_digest", "dirty_pages",
    )

    def __init__(self, kind: str, device: Any, tag: str) -> None:
        self.kind = kind
        stack = SnapshotStack.promote(device.store, tag=f"{tag}.{kind}")
        device.store = stack  # promote in place: pure data, no env activity
        frozen = stack.snapshot(tag)
        self.capacity_bytes = stack.capacity_bytes
        self.base = stack.base
        self.frozen: list[SnapshotLayer] = frozen
        self.counters = {name: getattr(device, name) for name in _DEVICE_COUNTERS}
        self.last_offset = device._last_offset
        self.page_digests = stack.page_digests()
        self.content_digest = stack.content_digest()
        #: pages this capture pinned beyond the previous snapshot
        self.dirty_pages = frozen[-1].dirty_pages if frozen else 0

    def restore_into(self, device: Any) -> None:
        if device.profile.capacity_bytes < self.capacity_bytes:
            raise SnapshotError(
                f"device {self.kind!r}: capacity {device.profile.capacity_bytes} "
                f"smaller than snapshot's {self.capacity_bytes}"
            )
        device.store = SnapshotStack.from_frozen(
            self.base, self.frozen, tag=f"restore.{self.kind}",
            capacity_bytes=self.capacity_bytes,
        )
        for name, value in self.counters.items():
            setattr(device, name, value)
        device._last_offset = self.last_offset

    @property
    def resident_pages(self) -> int:
        return len(self.page_digests)


class DeploymentCapture:
    """Devices + per-LabMod state of one runtime (a system or a node)."""

    __slots__ = ("name", "devices", "mods", "mod_digests")

    def __init__(self, name: str, deployment: Any, tag: str) -> None:
        self.name = name
        self.devices = {
            kind: DeviceCapture(kind, deployment.devices[kind], tag)
            for kind in sorted(deployment.devices)
        }
        self.mods: dict[str, dict] = {}
        self.mod_digests: dict[str, str] = {}
        registry = deployment.runtime.registry
        for uuid in sorted(registry.uuids()):
            state = registry.get(uuid).on_snapshot()
            try:
                pickle.dumps(state)
            except Exception as exc:
                raise SnapshotError(
                    f"mod {uuid!r}: on_snapshot() returned unpicklable state: {exc!r}"
                ) from exc
            self.mods[uuid] = state
            self.mod_digests[uuid] = canonical_digest(state)

    def restore_into(self, deployment: Any) -> None:
        for kind, capture in self.devices.items():
            device = deployment.devices.get(kind)
            if device is None:
                raise SnapshotError(
                    f"deployment {self.name!r} has no device {kind!r} to restore into"
                )
            capture.restore_into(device)
        registry = deployment.runtime.registry
        live = set(registry.uuids())
        missing = sorted(set(self.mods) - live)
        if missing:
            raise SnapshotError(
                f"deployment {self.name!r}: snapshot has state for mods "
                f"{missing} the fresh system did not mount"
            )
        for uuid in sorted(self.mods):
            registry.get(uuid).on_restore(self.mods[uuid])


def _deployments_of(target: Any) -> dict[str, Any]:
    """A LabStorSystem is one deployment; a Cluster is one per node."""
    nodes = getattr(target, "nodes", None)
    if isinstance(nodes, dict):
        return {name: nodes[name] for name in sorted(nodes)}
    return {"": target}


def quiesce(target: Any) -> None:
    """Drain in-flight client work so a capture sees settled state.

    Runs the simulation until every open client queue pair is empty —
    the moving parts left after that (pollers, admin loops) carry no
    durable state.
    """
    env = target.env
    clients = getattr(target, "_clients", None)
    if clients is None:
        clients = []
        for dep in _deployments_of(target).values():
            clients.extend(getattr(dep, "_clients", []))
    for client in clients:
        conn = getattr(client, "conn", None)
        if conn is not None:
            env.run(until=conn.qp.drained())


class SystemSnapshot:
    """Serializable durable-state capture of a system or cluster.

    Pickles cleanly (devices travel as sparse pages, mod state as the
    plain dicts ``on_snapshot`` exported), so it can cross a process
    pool to warm-start sweep points, or live in memory as the substance
    of a :class:`~repro.snap.replay.ReplaySnapshot`.
    """

    def __init__(
        self,
        deployments: dict[str, DeploymentCapture],
        *,
        time_ns: int,
        rng_seed: int,
        rng_states: dict[str, dict],
        metrics: Optional[dict],
        tag: str,
    ) -> None:
        self.deployments = deployments
        self.time_ns = time_ns
        self.rng_seed = rng_seed
        self.rng_states = rng_states
        self.metrics = metrics
        self.tag = tag

    @classmethod
    def capture(cls, target: Any, *, tag: str = "snap", drain: bool = False) -> "SystemSnapshot":
        """Capture ``target`` (LabStorSystem or Cluster) in place.

        Promotes every device store to a :class:`SnapshotStack` and
        freezes the current layers — the live run keeps going, paying
        copy-on-write only for pages it dirties afterwards.  With
        ``drain=True`` the clock first runs until client QPs are empty
        (don't use mid-flight: it advances the simulation).
        """
        if drain:
            quiesce(target)
        deployments = {
            name: DeploymentCapture(name, dep, tag)
            for name, dep in _deployments_of(target).items()
        }
        rngs = target.rngs
        rng_states = {
            name: gen.bit_generator.state for name, gen in sorted(rngs._streams.items())
        }
        telemetry = getattr(target, "telemetry", None)
        metrics = telemetry.registry.dump() if telemetry is not None else None
        return cls(
            deployments,
            time_ns=target.env.now,
            rng_seed=rngs.seed,
            rng_states=rng_states,
            metrics=metrics,
            tag=tag,
        )

    # ------------------------------------------------------------------
    def restore_into(self, target: Any) -> None:
        """Install captured durable state into a freshly built ``target``.

        The target must have the same shape (devices, mounted stacks,
        node names); its clock stays where it is — this is a functional
        restore, not a timeline warp (replay-to-point covers that).
        """
        fresh = _deployments_of(target)
        missing = sorted(set(self.deployments) - set(fresh))
        if missing:
            raise SnapshotError(f"restore target lacks deployments {missing}")
        for name in sorted(self.deployments):
            self.deployments[name].restore_into(fresh[name])
        rngs = target.rngs
        for name, state in self.rng_states.items():
            rngs.stream(name).bit_generator.state = state
        telemetry = getattr(target, "telemetry", None)
        if telemetry is not None and self.metrics is not None:
            telemetry.registry.load(self.metrics)

    # ------------------------------------------------------------------
    def state_digests(self) -> dict[str, str]:
        """Per-component digests (what a restore must reproduce)."""
        out: dict[str, str] = {}
        for name, dep in sorted(self.deployments.items()):
            for kind, dev in sorted(dep.devices.items()):
                out[f"dev:{name}/{kind}"] = dev.content_digest
            for uuid, digest in sorted(dep.mod_digests.items()):
                out[f"mod:{name}/{uuid}"] = digest
        out["rng"] = canonical_digest(self.rng_states)
        return out

    def verify_against(self, target: Any) -> list[str]:
        """Compare a live target's durable state to this capture; returns
        a list of human-readable mismatches (empty means identical)."""
        mismatches: list[str] = []
        fresh = _deployments_of(target)
        for name, dep in sorted(self.deployments.items()):
            live = fresh.get(name)
            if live is None:
                mismatches.append(f"deployment {name!r} missing")
                continue
            for kind, cap in sorted(dep.devices.items()):
                device = live.devices.get(kind)
                if device is None:
                    mismatches.append(f"dev:{name}/{kind} missing")
                    continue
                got = _store_content_digest(device.store)
                if got != cap.content_digest:
                    mismatches.append(
                        f"dev:{name}/{kind} content {got[:12]} != {cap.content_digest[:12]}"
                    )
            registry = live.runtime.registry
            live_uuids = set(registry.uuids())
            for uuid, digest in sorted(dep.mod_digests.items()):
                if uuid not in live_uuids:
                    mismatches.append(f"mod:{name}/{uuid} missing")
                    continue
                got = canonical_digest(registry.get(uuid).on_snapshot())
                if got != digest:
                    mismatches.append(f"mod:{name}/{uuid} state {got[:12]} != {digest[:12]}")
        live_states = {
            name: gen.bit_generator.state
            for name, gen in sorted(target.rngs._streams.items())
        }
        if canonical_digest(live_states) != canonical_digest(self.rng_states):
            theirs = set(live_states)
            ours = set(self.rng_states)
            detail = []
            if theirs != ours:
                detail.append(f"streams {sorted(ours ^ theirs)}")
            else:
                detail.extend(
                    name for name in sorted(ours)
                    if live_states[name] != self.rng_states[name]
                )
            mismatches.append(f"rng streams diverged: {', '.join(detail) or 'states'}")
        if target.env.now != self.time_ns:
            mismatches.append(f"clock {target.env.now} != {self.time_ns}")
        return mismatches

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Serialized size (what a pool transfer or disk spill would pay)."""
        return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))

    def summary(self) -> dict:
        devices = []
        for name, dep in sorted(self.deployments.items()):
            for kind, dev in sorted(dep.devices.items()):
                devices.append({
                    "deployment": name,
                    "device": kind,
                    "resident_pages": dev.resident_pages,
                    "dirty_pages": dev.dirty_pages,
                    "layers": len(dev.frozen),
                    "content_digest": dev.content_digest[:16],
                })
        return {
            "tag": self.tag,
            "time_ns": self.time_ns,
            "deployments": len(self.deployments),
            "mods": sum(len(d.mods) for d in self.deployments.values()),
            "rng_streams": len(self.rng_states),
            "devices": devices,
            "size_bytes": self.size_bytes(),
        }


def _store_content_digest(store: Any) -> str:
    """Works for both plain BackingStore and SnapshotStack (same surface)."""
    return store.content_digest()
