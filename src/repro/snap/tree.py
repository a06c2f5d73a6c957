"""Time-travel debugging: a tree of replay snapshots.

Each node is a :class:`~repro.snap.replay.ReplaySnapshot` — a point on
some timeline.  ``branch()`` rewinds to a node, optionally applies a
deterministic mutation (install a fault plan, kill a node, retune a
module), runs forward, and captures the child.  Because children record
their full mutation history, any node can be rewound again later: the
tree *is* the experiment log.

``diff()`` compares two nodes by dirtied pages and module state — the
"what did this fault actually touch" question — and
:meth:`SnapshotTree.audit_crash_consistency` walks every node, restores
it, and runs the :class:`~repro.faults.CrashConsistencyChecker` against
the recovered namespace, turning a single-remount crash test into an
audit of the whole branching history.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from ..errors import SnapshotError
from ..scenarios.runner import LiveRun
from .replay import ReplaySnapshot, snapshot_run

__all__ = ["SnapshotNode", "SnapshotTree"]


class SnapshotNode:
    """One captured point; an edge = (mutation, run interval)."""

    __slots__ = ("id", "label", "snapshot", "parent", "children", "meta")

    def __init__(
        self,
        node_id: int,
        label: str,
        snapshot: ReplaySnapshot,
        parent: Optional["SnapshotNode"],
    ) -> None:
        self.id = node_id
        self.label = label
        self.snapshot = snapshot
        self.parent = parent
        self.children: list["SnapshotNode"] = []
        self.meta: dict[str, Any] = {}

    @property
    def time_ns(self) -> int:
        return self.snapshot.time_ns

    def path(self) -> list["SnapshotNode"]:
        """Root-first lineage of this node."""
        out: list[SnapshotNode] = []
        node: Optional[SnapshotNode] = self
        while node is not None:
            out.append(node)
            node = node.parent
        return out[::-1]

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<SnapshotNode #{self.id} {self.label!r} @{self.time_ns}ns>"


class SnapshotTree:
    """Snapshot → mutate → run → diff → rewind, repeatably."""

    def __init__(self, program, *, strict: bool = True) -> None:
        self.program = program
        self.strict = strict
        self._ids = itertools.count(0)
        self.root: Optional[SnapshotNode] = None

    def plant(self, *, at_ns: Optional[int] = None, label: str = "root") -> SnapshotNode:
        """Run the program to ``at_ns`` and capture the root snapshot.

        The bootstrap run is then abandoned — tree nodes are snapshots,
        not live simulations; ``rewind()`` brings any of them back.
        """
        if self.root is not None:
            raise SnapshotError("tree already planted")
        _outcome, snap = snapshot_run(
            self.program, at_ns=at_ns, strict=self.strict, tag=label,
        )
        self.root = SnapshotNode(next(self._ids), label, snap, None)
        return self.root

    def branch(
        self,
        node: SnapshotNode,
        *,
        label: str,
        run_ns: int,
        mutate: Optional[Callable] = None,
        meta_fn: Optional[Callable] = None,
    ) -> SnapshotNode:
        """Rewind to ``node``, apply ``mutate(ctx)``, run ``run_ns``
        forward, capture the child.

        ``mutate`` must be deterministic (its effects replay on every
        later rewind of the child).  ``meta_fn(restored_run)`` may record
        extra picklable context on the node (e.g. a consistency checker's
        exported state).
        """
        if run_ns <= 0:
            raise SnapshotError("branch needs run_ns > 0")
        restored = node.snapshot.restore(strict=self.strict)
        history = list(node.snapshot.history)
        if mutate is not None:
            mutate(restored.ctx)
            history.append((node.snapshot.time_ns, mutate))
        restored.run_until(node.snapshot.time_ns + int(run_ns))
        if restored.main.triggered:
            raise SnapshotError(
                f"branch {label!r} ran past program completion; "
                "shorten run_ns or snapshot earlier"
            )
        child_snap = ReplaySnapshot.capture(
            self.program, restored.ctx, restored.env,
            history=history, tag=label,
        )
        child = SnapshotNode(next(self._ids), label, child_snap, node)
        if meta_fn is not None:
            child.meta.update(meta_fn(restored))
        node.children.append(child)
        return child

    # ------------------------------------------------------------------
    def rewind(self, node: SnapshotNode, *, verify: bool = True) -> LiveRun:
        """A live run sitting exactly at ``node`` (replaying its whole
        mutation history), ready to inspect or continue."""
        return node.snapshot.restore(strict=self.strict, verify=verify)

    def diff(self, a: SnapshotNode, b: SnapshotNode) -> dict:
        """Dirtied pages + changed module state between two nodes."""
        return a.snapshot.state.diff(b.snapshot.state)

    def walk(self):
        """Preorder traversal."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def summary(self) -> dict:
        nodes = list(self.walk())
        return {
            "program": type(self.program).__name__,
            "nodes": len(nodes),
            "leaves": sum(1 for n in nodes if not n.children),
            "max_time_ns": max((n.time_ns for n in nodes), default=0),
        }

    # ------------------------------------------------------------------
    def audit_crash_consistency(
        self,
        checker_of: Callable,
        gfs_of: Callable,
        *,
        settle_ns: int = 0,
    ) -> dict[int, dict]:
        """Run the crash-consistency audit against **every** node.

        For each node: rewind, optionally run ``settle_ns`` forward (a
        freshly injected power cut needs its restart window before the
        namespace answers), then drive ``checker.verify`` over the
        recovered filesystem.  ``checker_of(node, ctx)`` returns the
        checker holding that node's acked/pending ledger (typically
        rebuilt from ``node.meta``); ``gfs_of(ctx)`` the GenericFS to
        verify through.  Returns ``{node_id: consistency report}`` and
        raises :class:`~repro.errors.ConsistencyError` (in strict
        checkers) the moment any node's recovered state breaks prefix
        consistency.
        """
        reports: dict[int, dict] = {}
        for node in self.walk():
            restored = self.rewind(node)
            if settle_ns:
                restored.run_until(node.time_ns + int(settle_ns))
            env = restored.env
            checker = checker_of(node, restored.ctx)
            gfs = gfs_of(restored.ctx)
            report = env.run(until=env.process(checker.verify(gfs)))
            reports[node.id] = report
        return reports
