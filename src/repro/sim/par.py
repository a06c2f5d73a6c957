"""Conservative, windowed parallel DES: node-sharded execution.

The cluster layer (PR 7) made nodes loosely coupled by construction:
cross-node interaction happens only through :class:`~repro.cluster.
fabric.FabricLink` hops, each costing at least ``link_lat_ns`` of
virtual time.  That latency floor is a classic conservative-parallel
**lookahead**: if every inter-node link takes at least ``L`` ns, then a
message sent at or after virtual time ``T`` cannot arrive anywhere
before ``T + L`` — so every node may safely simulate the window
``[T, T + L)`` without hearing from anyone.

This module exploits that:

- every node runs on its **own private Environment** (at *every* shard
  count — ``shards=1`` is the same composition executed serially in one
  process, which is what makes the digests comparable byte-for-byte);
- a coordinator advances all nodes in lockstep windows ``[T, T + L)``
  where ``T`` is the global minimum next-event time and ``L`` the
  minimum inter-node link latency;
- cross-node calls are pickled into timestamped :class:`ParMessage`
  envelopes (generator frames never cross an Environment, let alone a
  process) and exchanged at window barriers; arrivals are injected in
  canonical ``(arrival, port, seq)`` order so delivery is independent of
  transport timing;
- with ``shards=N`` the node set is partitioned round-robin over ``N``
  forked OS processes; the only difference from ``shards=1`` is that
  the barrier exchange crosses a pipe instead of a function call.

Because each node-Environment sees an identical event stream at every
shard count (same build, same epoch alignment, same injected messages
at the same barriers), the per-node trace streams are identical — and
the merged digest (ordered by ``(time, node, seq)``) is byte-identical
by construction.  ``python -m repro.sim.check cluster --shards 1,2,4``
pins that claim in CI.

Safety sketch (see DESIGN.md "Parallel simulation" for the full
argument): a window bounded by ``W = T + L`` only processes events with
``t < W``; any send it performs happens at ``t ≥ T``, and its arrival is
``wire_release + link_lat ≥ t + L ≥ T + L = W`` — i.e. no message can
arrive inside the window that produced it, so exchanging messages only
at barriers never delivers into a receiver's past.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .check import CounterScope, canon_line, reset_global_counters, scenarios
from .core import Environment
from .trace import TraceEvent

__all__ = [
    "ParMessage",
    "OutPort",
    "TraceCollector",
    "ParWorld",
    "ParResult",
    "run_program",
    "main",
]

#: matches Environment.peek()'s empty-heap sentinel
TIME_SENTINEL = 2**63

#: runaway-window backstop (a real run is O(duration / lookahead))
MAX_ROUNDS = 2_000_000


class ParMessage:
    """One timestamped cross-node envelope.

    ``port`` is the directed pair ``"src->dst"``; ``seq`` a per-port
    counter assigned at send time on the source env.  ``(arrival_ns,
    port, seq)`` is the canonical injection order — a pure function of
    virtual time, so identical at every shard count.
    """

    __slots__ = ("port", "seq", "kind", "req_id", "arrival_ns", "nbytes",
                 "payload")

    def __init__(self, port: str, seq: int, kind: str, req_id: int,
                 arrival_ns: int, nbytes: int, payload: bytes) -> None:
        self.port = port
        self.seq = seq
        self.kind = kind            # "req" | "resp"
        self.req_id = req_id        # wire id (initiator's request id)
        self.arrival_ns = arrival_ns
        self.nbytes = nbytes
        self.payload = payload      # pickled body (value semantics always)

    def __getstate__(self):
        return (self.port, self.seq, self.kind, self.req_id,
                self.arrival_ns, self.nbytes, self.payload)

    def __setstate__(self, state):
        (self.port, self.seq, self.kind, self.req_id,
         self.arrival_ns, self.nbytes, self.payload) = state

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<ParMessage {self.port}#{self.seq} {self.kind} "
                f"req={self.req_id} at={self.arrival_ns}>")


class OutPort:
    """Egress buffer for one directed pair, owned by the source world.

    Always pickles the body — even when source and destination worlds
    share a process — so a message has value semantics at every shard
    count (mode-equality is a *construction*, not a hope).
    """

    __slots__ = ("world", "name", "seq", "buf")

    def __init__(self, world: "ParWorld", name: str) -> None:
        self.world = world
        self.name = name
        self.seq = 0
        self.buf: list[ParMessage] = []

    def send(self, kind: str, arrival_ns: int, req_id: int, nbytes: int,
             payload: bytes) -> ParMessage:
        self.seq += 1
        msg = ParMessage(self.name, self.seq, kind, req_id, arrival_ns,
                         nbytes, payload)
        self.buf.append(msg)
        env = self.world.env
        t = env.tracer
        if t.enabled:
            t.emit(env.now, "par.msg", port=self.name, seq=self.seq,
                   kind=kind, bytes=nbytes, arrival=arrival_ns)
        return msg


class TraceCollector:
    """Per-world trace sink: keeps each event as the
    :func:`~repro.sim.check.canon_line` the serial
    :class:`~repro.sim.check.TraceHasher` hashes, tagged with the
    emission sequence number.  ``san.*`` events are excluded — the
    sanitizer's audit stream watches one Environment's internals, which
    is not part of the cross-mode digest surface."""

    __slots__ = ("node", "events", "_seq")

    def __init__(self, node: str) -> None:
        self.node = node
        self.events: list[tuple[int, int, str]] = []
        self._seq = 0

    def __call__(self, ev: TraceEvent) -> None:
        if ev.category.startswith("san."):
            return
        self._seq += 1
        self.events.append((ev.time_ns, self._seq, canon_line(ev)))


class _Deliver:
    """Injection callback bound to one (handler, message) pair."""

    __slots__ = ("fn", "msg")

    def __init__(self, fn: Callable[[ParMessage], None], msg: ParMessage):
        self.fn = fn
        self.msg = msg

    def __call__(self, _ev) -> None:
        self.fn(self.msg)


class ParWorld:
    """One node's private universe: Environment, egress ports, ingress
    handlers, driver processes, and the trace collector.

    The program builds its node host through :meth:`build` (stacks,
    routes, executors), then the runner aligns every world to the
    program's epoch and starts the drivers — so daemon timer phases and
    driver start times are independent of *which other nodes* share the
    process, the property the whole digest-equality argument rests on.
    """

    def __init__(self, program, node_name: str, *, trace: bool = False) -> None:
        self.program = program
        self.node_name = node_name
        # private identity counters: id draws must depend only on THIS
        # world's history, not on co-resident worlds' (see CounterScope)
        self.scope = CounterScope()
        self.env = Environment()
        self.collector: Optional[TraceCollector] = None
        if trace:
            self.collector = TraceCollector(node_name)
            t = self.env.tracer
            t.add_sink(self.collector)
            t.obs = True
        self._ports: dict[str, OutPort] = {}
        self._ingress: dict[tuple[str, str], Callable[[ParMessage], None]] = {}
        self.routes: list[Any] = []       # RemoteRoute-likes (.inflight)
        self.executors: list[Any] = []    # RouteExecutor-likes (.active)
        self.drivers: list[Any] = []
        self.ctx: Any = None

    # -- program-facing API --------------------------------------------
    def out_port(self, dst: str) -> OutPort:
        name = f"{self.node_name}->{dst}"
        port = self._ports.get(name)
        if port is None:
            port = self._ports[name] = OutPort(self, name)
        return port

    def on_message(self, port: str, kind: str,
                   handler: Callable[[ParMessage], None]) -> None:
        key = (port, kind)
        if key in self._ingress:
            raise SimulationError(f"duplicate ingress handler for {key}")
        self._ingress[key] = handler

    def register_route(self, route) -> None:
        self.routes.append(route)

    def register_executor(self, executor) -> None:
        self.executors.append(executor)

    # -- lifecycle (driven by ShardHost) -------------------------------
    def build(self) -> None:
        self.scope.activate()
        self.ctx = self.program.build(self)

    def align(self, epoch_ns: int) -> None:
        self.scope.activate()
        env = self.env
        if env.now > epoch_ns:
            raise SimulationError(
                f"node {self.node_name!r}: build ended at {env.now} ns, past "
                f"the program epoch {epoch_ns} — raise epoch_ns")
        if env.now < epoch_ns:
            env.run(until=epoch_ns)

    def start_drivers(self) -> None:
        self.scope.activate()
        for name, gen in self.program.drivers(self):
            self.drivers.append(self.env.process(gen, name=name))

    def inject(self, messages) -> None:
        env = self.env
        for msg in sorted(messages, key=lambda m: (m.arrival_ns, m.port, m.seq)):
            handler = self._ingress.get((msg.port, msg.kind))
            if handler is None:
                raise SimulationError(
                    f"node {self.node_name!r}: no ingress handler for "
                    f"{msg.port}/{msg.kind}")
            delay = msg.arrival_ns - env._now
            if delay <= 0:
                raise SimulationError(
                    f"lookahead violated: {msg!r} arrives at {msg.arrival_ns} "
                    f"but node {self.node_name!r} is already at {env._now}")
            env.timeout(delay).callbacks.append(_Deliver(handler, msg))

    def run_window(self, until_window: int) -> None:
        self.scope.activate()
        self.env.run(until_window=until_window)

    def drain_outbox(self) -> list[ParMessage]:
        out: list[ParMessage] = []
        for name in sorted(self._ports):
            port = self._ports[name]
            if port.buf:
                out.extend(port.buf)
                port.buf = []
        return out

    # -- termination inputs --------------------------------------------
    @property
    def drivers_done(self) -> bool:
        return all(not p.is_alive for p in self.drivers)

    @property
    def inflight(self) -> int:
        return sum(r.inflight for r in self.routes)

    @property
    def active(self) -> int:
        return sum(x.active for x in self.executors)

    def finish(self) -> Any:
        self.scope.activate()
        return self.program.finish(self)


class ShardHost:
    """Hosts one shard's worlds in the current process and implements the
    per-barrier protocol step (the same code drives the in-process and
    forked transports)."""

    def __init__(self, program, node_names, *, trace: bool = False) -> None:
        self.program = program
        self.worlds = [ParWorld(program, n, trace=trace)
                       for n in sorted(node_names)]
        self.busy_s = 0.0
        #: CPU seconds actually burned in this shard's process — unlike
        #: ``busy_s`` (wall), immune to time-slicing on oversubscribed
        #: hosts, so it supports an honest critical-path projection
        self.cpu_s = 0.0

    def setup(self) -> int:
        c0 = time.process_time()
        t0 = time.perf_counter()
        epoch = self.program.epoch_ns
        for w in self.worlds:
            w.build()
        for w in self.worlds:
            w.align(epoch)
        for w in self.worlds:
            w.start_drivers()
        self.busy_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        return min(w.env.peek() for w in self.worlds)

    def step(self, inbox: list[ParMessage], until_window: int):
        """One window: inject, advance every world to the bound, report
        ``(outbox, local_min_next_event, drivers_done, inflight, active)``."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        if inbox:
            by_node: dict[str, list[ParMessage]] = {}
            for msg in inbox:
                by_node.setdefault(msg.port.split("->", 1)[1], []).append(msg)
            for w in self.worlds:
                msgs = by_node.get(w.node_name)
                if msgs:
                    w.inject(msgs)
        outbox: list[ParMessage] = []
        tmin = TIME_SENTINEL
        done = True
        inflight = 0
        active = 0
        for w in self.worlds:
            w.run_window(until_window)
            outbox.extend(w.drain_outbox())
            t = w.env.peek()
            if t < tmin:
                tmin = t
            done = done and w.drivers_done
            inflight += w.inflight
            active += w.active
        self.busy_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        return outbox, tmin, done, inflight, active

    def finish(self) -> dict[str, Any]:
        c0 = time.process_time()
        t0 = time.perf_counter()
        worlds: dict[str, Any] = {}
        for w in self.worlds:
            worlds[w.node_name] = {
                "result": w.finish(),
                "events": w.env._eid,
                "virtual_ns": w.env.now,
                "trace": w.collector.events if w.collector else [],
            }
        self.busy_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        return {"worlds": worlds, "busy_s": self.busy_s, "cpu_s": self.cpu_s,
                "events": sum(v["events"] for v in worlds.values())}


# ----------------------------------------------------------------------
# shard transports
# ----------------------------------------------------------------------
class _InProcessShard:
    """All worlds in this process; barriers are plain function calls."""

    def __init__(self, program, names, trace: bool) -> None:
        self.host = ShardHost(program, names, trace=trace)
        self._reply: Any = None

    def post_setup(self) -> None:
        self._reply = self.host.setup()

    def post_step(self, inbox, until_window) -> None:
        self._reply = self.host.step(inbox, until_window)

    def post_finish(self) -> None:
        self._reply = self.host.finish()

    def wait(self) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        pass


def _shard_worker(conn, program, names, trace, inherited) -> None:
    """Forked shard main loop: deterministic construction then barriers.

    ``inherited`` are the coordinator's pipe ends the fork copied in
    (this shard's and every earlier one's): closed first, so a shard
    whose coordinator end closes sees EOF instead of waiting forever."""
    for end in inherited:
        end.close()
    try:
        reset_global_counters()
        host = ShardHost(program, names, trace=trace)
        conn.send(("ok", host.setup()))
        while True:
            cmd, payload = conn.recv()
            if cmd == "step":
                conn.send(("ok", host.step(*payload)))
            elif cmd == "finish":
                conn.send(("ok", host.finish()))
                conn.close()
                return
            else:  # pragma: no cover - protocol error
                raise SimulationError(f"unknown shard command {cmd!r}")
    except Exception:  # noqa: BLE001 - ship the traceback home
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - pipe already gone
            pass


class _ForkedShard:
    """One shard in a forked child; barriers cross a Pipe.

    Fork (not spawn) start method: the child inherits the imported
    modules and the parent's hash seed, and the program object crosses
    by memory inheritance — the same trick ``run_sweep`` uses for its
    point workers.
    """

    def __init__(self, ctx, program, names, trace: bool, earlier=()) -> None:
        self.names = names
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(child, program, names, trace,
                  [self.conn, *(h.conn for h in earlier)]),
            daemon=True,
        )
        self.proc.start()
        child.close()

    def post_setup(self) -> None:
        pass  # the worker runs setup eagerly; its reply is already queued

    def post_step(self, inbox, until_window) -> None:
        self.conn.send(("step", (inbox, until_window)))

    def post_finish(self) -> None:
        self.conn.send(("finish", None))

    def wait(self) -> Any:
        try:
            tag, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            # the child died without a word (killed, os._exit, interpreter
            # abort): its end of the pipe closed under us
            self.proc.join(timeout=5)
            raise SimulationError(
                f"shard worker hosting nodes {self.names} died without "
                f"replying (exit code {self.proc.exitcode})") from exc
        if tag == "error":
            raise SimulationError(
                f"shard worker hosting nodes {self.names} failed:\n{payload}")
        return payload

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:  # pragma: no cover
            pass
        self.proc.join(timeout=5)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
class ParResult:
    """Outcome of one parallel (or ``shards=1`` serial-windowed) run."""

    def __init__(self, **kw) -> None:
        self.__dict__.update(kw)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<ParResult shards={self.shards} rounds={self.rounds} "
                f"wall={self.wall_s:.3f}s digest={self.digest[:12] if self.digest else None}>")


def merge_digest(streams: dict[str, list[tuple[int, int, str]]]) -> tuple[str, int]:
    """SHA-256 over all worlds' trace lines merged in ``(time, node,
    seq)`` order.

    Each world's stream is already (time, seq)-sorted; the node name
    breaks cross-world ties.  All three key components are pure virtual
    quantities, so the merged order — hence the digest — is independent
    of the shard count and of wall-clock interleaving.
    """
    merged = sorted(
        ((t, node, seq, line)
         for node, events in streams.items()
         for (t, seq, line) in events),
        key=lambda it: it[:3],
    )
    h = hashlib.sha256()
    for _t, _node, _seq, line in merged:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest(), len(merged)


def run_program(program, *, shards: int = 1, trace: bool = False,
                reset_counters: bool = True) -> ParResult:
    """Execute a parallel program across ``shards`` OS processes.

    ``shards=1`` hosts every node-world in this process — identical
    window schedule and message protocol, so it is both the serial
    fallback and the digest baseline the parallel runs must match.
    """
    names = sorted(program.nodes())
    if not names:
        raise SimulationError("program declares no nodes")
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    shards = min(shards, len(names))
    lookahead = program.lookahead_ns()

    # node i -> shard i % N: a pure function of the sorted node list
    assignment = [names[i::shards] for i in range(shards)]
    shard_of = {n: i for i, part in enumerate(assignment) for n in part}

    if reset_counters:
        reset_global_counters()

    wall0 = time.perf_counter()
    handles: list[Any] = []
    try:
        if shards == 1:
            handles.append(_InProcessShard(program, names, trace))
        else:
            import multiprocessing as mp
            ctx = mp.get_context("fork")
            for part in assignment:
                handles.append(_ForkedShard(ctx, program, part, trace, handles))

        for h in handles:
            h.post_setup()
        tmins = [h.wait() for h in handles]
        t_next = min(tmins)

        rounds = 0
        messages = 0
        inboxes: list[list[ParMessage]] = [[] for _ in handles]
        done_ok = False
        while True:
            if t_next >= TIME_SENTINEL:
                if done_ok or rounds == 0:
                    break
                raise SimulationError(
                    "parallel run out of events with work outstanding "
                    "(a driver is blocked on an event nobody will fire)")
            if lookahead is None:
                raise SimulationError(
                    "program has cross-node traffic potential but no links "
                    "to derive a lookahead from")
            window = t_next + lookahead
            for h, inbox in zip(handles, inboxes):
                h.post_step(inbox, window)
            replies = [h.wait() for h in handles]
            rounds += 1
            if rounds > MAX_ROUNDS:  # pragma: no cover - runaway backstop
                raise SimulationError(f"exceeded {MAX_ROUNDS} windows")

            inboxes = [[] for _ in handles]
            t_next = TIME_SENTINEL
            routed = 0
            all_done = True
            inflight = 0
            active = 0
            for outbox, tmin, done, infl, act in replies:
                if tmin < t_next:
                    t_next = tmin
                all_done = all_done and done
                inflight += infl
                active += act
                for msg in outbox:
                    dst = msg.port.split("->", 1)[1]
                    inboxes[shard_of[dst]].append(msg)
                    routed += 1
                    if msg.arrival_ns < t_next:
                        t_next = msg.arrival_ns
            messages += routed
            done_ok = (all_done and inflight == 0 and active == 0
                       and routed == 0)
            if done_ok:
                break

        for h in handles:
            h.post_finish()
        bundles = [h.wait() for h in handles]
    finally:
        for h in handles:
            h.close()
    wall_s = time.perf_counter() - wall0

    results: dict[str, Any] = {}
    streams: dict[str, list[tuple[int, int, str]]] = {}
    shard_stats: list[dict[str, Any]] = []
    for idx, bundle in enumerate(bundles):
        busy = bundle["busy_s"]
        shard_stats.append({
            "shard": idx,
            "nodes": assignment[idx],
            "events": bundle["events"],
            "busy_s": busy,
            "cpu_s": bundle["cpu_s"],
            "events_per_sec": bundle["events"] / busy if busy > 0 else 0.0,
        })
        for node, info in bundle["worlds"].items():
            results[node] = info["result"]
            if trace:
                streams[node] = info["trace"]

    digest = None
    merged_events = 0
    if trace:
        digest, merged_events = merge_digest(streams)

    reduced = None
    reduce = getattr(program, "reduce", None)
    if reduce is not None:
        reduced = reduce(results)

    return ParResult(
        shards=shards,
        assignment=assignment,
        lookahead_ns=lookahead,
        rounds=rounds,
        messages=messages,
        wall_s=wall_s,
        shard_stats=shard_stats,
        events=sum(s["events"] for s in shard_stats),
        results=results,
        reduced=reduced,
        digest=digest,
        merged_events=merged_events,
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def format_par_stats(shard_stats: list[dict[str, Any]], wall_s: float) -> str:
    """Render a sharded run's wall-clock + per-shard events/sec table.

    ``shard_stats`` is :attr:`ParResult.shard_stats`: ``busy_s`` is the
    time a shard spent inside windows (its barrier wait excluded), so
    ``events/busy_s`` is that shard's engine rate and the gap between
    ``sum(busy_s)`` and ``shards * wall_s`` is the synchronization cost
    the lookahead didn't amortize.
    """
    lines = []
    total_events = sum(s["events"] for s in shard_stats)
    lines.append(
        f"  total  {total_events:>10} events in {wall_s:.3f}s wall "
        f"= {total_events / wall_s if wall_s > 0 else 0.0:>12,.0f} events/s")
    for s in shard_stats:
        lines.append(
            f"  shard{s['shard']:<2} {s['events']:>9} events busy {s['busy_s']:.3f}s "
            f"= {s['events_per_sec']:>12,.0f} events/s  "
            f"nodes={','.join(s['nodes'])}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.par",
        description="Run a par-capable scenario under the sharded runner.",
    )
    parser.add_argument("scenario", help="a par-capable catalogue name "
                        "(python -m repro.sim.check --list)")
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-trace", action="store_true",
                        help="skip trace collection/digest (bench mode)")
    args = parser.parse_args(argv)

    par = scenarios().names_with("par")
    if args.scenario not in par:
        parser.error(f"unknown par scenario {args.scenario!r}; "
                     f"known: {sorted(par)}")
    program = scenarios().SCENARIOS[args.scenario].par(args.seed)
    res = run_program(program, shards=args.shards, trace=not args.no_trace)
    print(f"{args.scenario}: shards={res.shards} rounds={res.rounds} "
          f"messages={res.messages} events={res.events} "
          f"wall={res.wall_s:.3f}s")
    print(format_par_stats(res.shard_stats, res.wall_s))
    if res.digest is not None:
        print(f"merged digest ({res.merged_events} events): {res.digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
