"""The cluster under the parallel runner: the spec-driven program base
and the ``build(shards=N)`` handle (the canned par scenarios built on
them live in :mod:`repro.scenarios`).

The sharded runner (:mod:`repro.sim.par`) gives every node its own
private Environment; a :class:`SpecParProgram` answers ``build(world)`` with a
:class:`~repro.cluster.Cluster` that hosts just ``world.node_name`` out
of the program's :class:`~repro.cluster.builder.ClusterSpec`.  It is the
same class, routes and :meth:`~repro.cluster.Cluster.shard_kvs` as the
all-nodes-on-one-clock placement; only the egress ports differ (the
world's, exchanged at window barriers).

Because a Cluster's construction consults nothing but the spec and the
name of the node it hosts, the event stream each node observes is
identical whether its world shares a process with every other node
(``shards=1``) or runs alone in a fork — the invariant the
byte-identical-digest guarantee rests on.
"""

from __future__ import annotations

from typing import Optional

from ..units import msec
from .builder import Cluster, ClusterSpec

__all__ = [
    "SpecParProgram",
    "ParHandle",
    "assert_nic_conservation",
    "kvs_closed_loop",
]


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
class SpecParProgram:
    """Base for spec-driven parallel programs: owns the ClusterSpec and
    the world -> one-node Cluster construction; subclasses add drivers
    and checks."""

    epoch_ns = int(msec(1))

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = self.make_spec()

    def make_spec(self) -> ClusterSpec:
        raise NotImplementedError

    def nodes(self) -> list[str]:
        return self.spec.node_names()

    def lookahead_ns(self) -> Optional[int]:
        return self.spec.lookahead_ns()

    def build(self, world) -> Cluster:
        view = Cluster(self.spec, world=world)
        self.setup(view)
        return view

    def setup(self, view: Cluster) -> None:
        pass

    def drivers(self, world):
        return []

    def finish(self, world) -> dict:
        view = world.ctx
        out = view.stats()
        view.shutdown()
        return out


def assert_nic_conservation(view: Cluster) -> None:
    for (s, d), r in sorted(view._routes.items()):
        qp = r.qp
        assert qp.submitted_total == qp.completed_total, (
            f"{s}->{d}: NIC conservation broken after shutdown "
            f"({qp.submitted_total} submitted, {qp.completed_total} completed)"
        )


def kvs_closed_loop(kvs, i: int, nops: int, value_size: int):
    """Process generator: E14's closed-loop client *i* — ``nops`` puts,
    then ``nops`` gets of the same keys."""
    payload = bytes(value_size)
    for j in range(nops):
        yield from kvs.put(f"c{i}.k{j}", payload)
    for j in range(nops):
        yield from kvs.get(f"c{i}.k{j}")


# ----------------------------------------------------------------------
# the ClusterBuilder front door: build(shards=N)
# ----------------------------------------------------------------------
class CallbackParProgram(SpecParProgram):
    """A SpecParProgram assembled from user callbacks instead of a
    subclass — what :meth:`ParHandle.run` constructs under the hood.

    Each callback receives the world's :class:`~repro.cluster.Cluster`,
    which hosts that one node (``view.node_name`` / ``view.node``):

    - ``setup(view)`` runs after the local node is built (mount shards,
      install faults — gate on ``view.node_name``).
    - ``drivers(view)`` returns ``[(name, generator), ...]`` for that
      node; return ``[]`` (or gate on ``view.node_name``) for nodes that
      only serve remote traffic.
    - ``finish(view)`` returns the node's result dict; the default
      collects ``view.stats()`` and shuts the world down — a custom
      finish must call ``view.shutdown()`` itself.
    - ``reduce(results)`` folds the per-node dicts into one value.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        drivers=None,
        setup=None,
        finish=None,
        reduce=None,
        epoch_ns: int = int(msec(1)),
    ) -> None:
        self.seed = spec.seed
        self.spec = spec
        self._drivers = drivers
        self._setup = setup
        self._finish = finish
        self.epoch_ns = int(epoch_ns)
        if reduce is not None:
            self.reduce = reduce

    def setup(self, view: Cluster) -> None:
        if self._setup is not None:
            self._setup(view)

    def drivers(self, world):
        if self._drivers is None:
            return []
        return list(self._drivers(world.ctx))

    def finish(self, world) -> dict:
        if self._finish is not None:
            return self._finish(world.ctx)
        return super().finish(world)


class ParHandle:
    """What ``ClusterBuilder.build(shards=N)`` returns: the frozen
    :class:`ClusterSpec` plus a shard count, runnable under the
    conservative windowed parallel runner::

        handle = (cluster(seed=7)
                  .node("n0").stack("kvs::/meta").kvs(variant="min").device("nvme")
                  .node("n1")
                  .build(shards=2))
        result = handle.run(drivers=my_drivers, trace=True)

    ``result`` is a :class:`repro.sim.par.ParResult`; with ``trace=True``
    its ``digest`` is byte-identical at every shard count.
    """

    def __init__(self, spec: ClusterSpec, shards: int) -> None:
        self.spec = spec
        self.shards = int(shards)

    def lookahead_ns(self) -> Optional[int]:
        return self.spec.lookahead_ns()

    def run(
        self,
        *,
        drivers=None,
        setup=None,
        finish=None,
        reduce=None,
        epoch_ns: int = int(msec(1)),
        trace: bool = False,
    ):
        from ..sim.par import run_program

        program = CallbackParProgram(
            self.spec, drivers=drivers, setup=setup, finish=finish,
            reduce=reduce, epoch_ns=epoch_ns,
        )
        return run_program(program, shards=self.shards, trace=trace)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<ParHandle nodes={self.spec.node_names()} "
                f"shards={self.shards}>")

