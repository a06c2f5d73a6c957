"""Exception hierarchy shared by every repro subsystem."""

from __future__ import annotations


def _rebuild(cls, args, state):
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""

    def __reduce__(self):
        # rebuild without re-running ``__init__``: constructors that
        # format their message (FsError, PermissionDenied, DeviceError)
        # do not survive the default ``cls(*self.args)`` round trip, and
        # a remote error must arrive as the type its caller catches
        return _rebuild, (type(self), self.args, self.__dict__)


class SimulationError(ReproError):
    """Internal inconsistency in the discrete-event simulation kernel."""


class SanitizerError(SimulationError):
    """An invariant checked by :mod:`repro.sim.sanitizer` was violated."""


class DeviceError(ReproError):
    """Invalid operation against a simulated storage device."""

    def __init__(self, message: str, *, device: str | None = None) -> None:
        super().__init__(message if device is None else f"{device}: {message}")
        self.device = device


class OutOfSpaceError(DeviceError):
    """A block/byte allocation could not be satisfied."""


class MediaError(DeviceError):
    """An I/O command failed at the media (the simulated EIO).

    Raised into the submitter by failing the request's completion event;
    produced by :mod:`repro.faults` media-error and torn-write injectors.
    """


class KernelError(ReproError):
    """Errors raised by the simulated Linux kernel substrate."""


class FsError(KernelError):
    """Filesystem-level failure; carries a POSIX-style errno name."""

    def __init__(self, errno_name: str, message: str) -> None:
        super().__init__(f"[{errno_name}] {message}")
        self.errno_name = errno_name


class PermissionDenied(FsError):
    def __init__(self, message: str = "permission denied") -> None:
        super().__init__("EACCES", message)


class IpcError(ReproError):
    """Queue-pair / shared-memory violations (bad grant, full queue, ...)."""


class ShmAccessError(IpcError):
    """A process touched a shared-memory region it was never granted."""


class QueueFull(IpcError):
    """A submission was rejected because the SQ exerted backpressure."""


class LabStorError(ReproError):
    """Errors raised by the LabStor core (modules, stacks, runtime)."""


class ModuleNotFound(LabStorError):
    """A LabMod UUID was not present in the Module Registry."""


class StackValidationError(LabStorError):
    """A LabStack specification failed validation at mount time."""


class UpgradeError(LabStorError):
    """A live-upgrade protocol step failed."""


class RuntimeCrashed(LabStorError):
    """The LabStor Runtime is offline and did not restart within the wait window."""


class TimeoutError(LabStorError):  # noqa: A001 - deliberate, scoped to repro.*
    """A request did not complete within its per-op deadline.

    The client fails the request's pending :class:`~repro.sim.Event` with
    this error instead of letting the simulation hang; a late completion
    for the timed-out attempt is dropped by the completion poller.
    """


class WorkerCrashed(LabStorError):
    """The worker executing a request was killed mid-flight.

    The dying worker converts the interrupt into an error completion so
    queue-pair conservation stays balanced; clients may retry (LabFS
    block writes are idempotent at a given offset).
    """


class RetriesExhausted(LabStorError):
    """A :class:`repro.faults.RetryPolicy` gave up after its attempt budget."""


class ConsistencyError(LabStorError):
    """Crash-consistency check failed: recovered state is not a
    prefix-consistent view of the acknowledged operations."""


class FabricError(LabStorError):
    """No usable network path between two cluster nodes (missing link,
    unknown node, or a route used before the cluster was built)."""


class QuorumError(LabStorError):
    """A replicated KVS operation could not reach its ack quorum.

    Raised by :class:`repro.cluster.ShardedKVS` once enough replicas have
    failed that the required quorum is unreachable; carries the last
    replica error as ``__cause__``-style context in the message."""


class SnapshotError(LabStorError):
    """Snapshot capture or restore failed (unpicklable module state, a
    pause point in the past, or a program that finished before it)."""


class ReplayDivergence(SnapshotError):
    """Replay-to-point restore reached the snapshot timestamp with state
    that does not match the capture — the program is not deterministic
    (or global counters were not reset before the replay)."""
