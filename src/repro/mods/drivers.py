"""Driver LabMods: the storage hardware APIs at the bottom of every stack.

Three drivers matching Section III-F:

- :class:`KernelDriverMod` — exposes the kernel's multi-queue driver
  hardware queues directly (``submit_io_to_hctx``), bypassing the block
  layer's alloc/sched/dispatch bookkeeping; or rides the standard block
  layer (``submit_io_to_blk``) to inherit kernel policies.  Completion is
  reaped with ``poll_completions`` (no IRQ, no context switch).
- :class:`SpdkDriverMod` — userspace NVMe: builds the NVMe command
  directly in the mapped BAR, cheaper than the kernel driver's structure
  allocation (the +12% of Fig 6).
- :class:`DaxDriverMod` — PMEM as byte-addressable memory: I/O is a
  load/store memcpy.

All drivers are terminal LabMods accepting ``blk.*`` requests with
payload ``{offset, size, data?, hctx?}``; reads return the bytes.
"""

from __future__ import annotations

from ..core.labmod import ExecContext, LabMod, ModContext
from ..devices.base import BlockDevice, BlockRequest, IoOp
from ..devices.pmem import Pmem
from ..errors import LabStorError
from ..kernel.block_layer import BlockLayer
from ..sim import Interrupt

__all__ = ["KernelDriverMod", "SpdkDriverMod", "DaxDriverMod"]

_OPS = {
    "blk.read": IoOp.READ,
    "blk.write": IoOp.WRITE,
    "blk.flush": IoOp.FLUSH,
    "blk.trim": IoOp.TRIM,
}


class DriverMod(LabMod):
    """Common plumbing: find the device, decode the blk request."""

    mod_type = "driver"
    accepts = ("blk.",)
    emits = ()
    device_kinds: tuple[str, ...] = ()  # acceptable device names; () = any

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        self.device: BlockDevice = ctx.device(uuid)
        if self.device_kinds and self.device.profile.name not in self.device_kinds:
            raise LabStorError(
                f"{uuid}: driver requires device in {self.device_kinds}, got "
                f"{self.device.profile.name!r}"
            )
        self.ios = 0

    @staticmethod
    def _decode(req) -> tuple[IoOp, int, int, bytes | None, int]:
        try:
            op = _OPS[req.op]
        except KeyError:
            raise LabStorError(f"driver got non-blk request {req.op!r}") from None
        p = req.payload
        return op, p["offset"], p.get("size", len(p.get("data", b""))), p.get("data"), p.get("hctx", 0)

    def est_processing_time(self, req) -> int:
        return self.ctx.cost.driver_submit_ns + self.ctx.cost.driver_poll_ns

    def est_total_time(self, req) -> int:
        p = req.payload
        op = _OPS.get(req.op, IoOp.READ)
        size = p.get("size", len(p.get("data", b"")))
        return self.est_processing_time(req) + self.device.profile.service_ns(op, size)


class KernelDriverMod(DriverMod):
    """submit_io_to_hctx / submit_io_to_blk / poll_completions."""

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        #: "hctx" = direct hardware-queue dispatch; "blk" = full kernel path
        self.io_path = ctx.attrs.get("io_path", "hctx")
        if self.io_path not in ("hctx", "blk"):
            raise LabStorError(f"{uuid}: io_path must be 'hctx' or 'blk'")
        self._blk = BlockLayer(ctx.env, self.device, ctx.cost) if self.io_path == "blk" else None

    def handle(self, req, x: ExecContext):
        op, offset, size, data, hctx = self._decode(req)
        cost = self.ctx.cost
        self.ios += 1
        self.processed += 1
        parts = req.payload.get("parts")
        if self._blk is not None:
            # submit_io_to_blk: inherit the kernel block layer's policies
            # (a merged request is serviced as one bio — kernel semantics)
            yield from x.work(cost.driver_submit_ns, span="driver")
            breq = yield from self._blk.submit_bio(op, offset, size, data, hctx=hctx)
            return breq.result
        if parts is not None and len(parts) > 1 and op in (IoOp.READ, IoOp.WRITE):
            return (yield from self._submit_parts(op, offset, data, parts, hctx, x))
        # submit_io_to_hctx: straight into the hardware dispatch queue
        yield from x.work(cost.driver_submit_ns, span="driver")
        breq = BlockRequest(op=op, offset=offset, size=size, data=data,
                            hctx=hctx % self.device.nqueues)
        done = self.device.submit(breq)
        yield from x.wait(done, span="device_io")
        # poll_completions: reap without an interrupt
        yield from x.work(cost.driver_poll_ns, span="driver")
        return breq.result

    def _submit_parts(self, op: IoOp, offset: int, data: bytes | None,
                      parts: list, hctx: int, x: ExecContext):
        """Submit a scheduler-merged request as per-part hardware commands.

        One ``driver_submit_ns`` covers the merged command; each extra part
        pays only the marginal ``batch_op_ns``.  The parts land on the hctx
        back-to-back so the device's coalescing window fuses them — while
        keeping per-part fault isolation: the fault engine rolls for every
        constituent BlockRequest separately.

        Returns per-part ``(result, error, submit_ns, complete_ns)`` tuples
        in parts order (offset-sorted, as the scheduler built them).
        """
        cost = self.ctx.cost
        yield from x.work(cost.driver_submit_ns, span="driver")
        yield from x.work(cost.batch_op_ns * (len(parts) - 1), span="driver")
        breqs = []
        for poff, psize in parts:
            pdata = None
            if data is not None:
                lo = poff - offset
                pdata = data[lo:lo + psize]
            breqs.append(BlockRequest(op=op, offset=poff, size=psize, data=pdata,
                                      hctx=hctx % self.device.nqueues))
        for breq in breqs:
            self.device.submit(breq)
        self.ios += len(parts) - 1
        outcomes = []
        for breq in breqs:
            try:
                yield from x.wait(breq.done, span="device_io")
            except Interrupt:
                raise
            except Exception as exc:  # noqa: BLE001 - per-part fault surface
                outcomes.append((None, exc, breq.submit_ns, breq.complete_ns))
            else:
                outcomes.append((breq.result, None, breq.submit_ns, breq.complete_ns))
        # poll_completions: one reap pass covers the whole run
        yield from x.work(cost.driver_poll_ns, span="driver")
        return outcomes


class SpdkDriverMod(DriverMod):
    """Userspace NVMe driver over the mapped PCI BAR (NVMe only)."""

    device_kinds = ("nvme",)

    def handle(self, req, x: ExecContext):
        op, offset, size, data, hctx = self._decode(req)
        cost = self.ctx.cost
        self.ios += 1
        self.processed += 1
        yield from x.work(cost.spdk_submit_ns, span="driver")
        breq = BlockRequest(op=op, offset=offset, size=size, data=data,
                            hctx=hctx % self.device.nqueues)
        done = self.device.submit(breq)
        yield from x.wait(done, span="device_io")
        yield from x.work(cost.spdk_poll_ns, span="driver")
        return breq.result

    def est_processing_time(self, req) -> int:
        return self.ctx.cost.spdk_submit_ns + self.ctx.cost.spdk_poll_ns


class DaxDriverMod(DriverMod):
    """PMEM load/store access (DAX): no queues, no commands."""

    device_kinds = ("pmem",)

    def handle(self, req, x: ExecContext):
        op, offset, size, data, _hctx = self._decode(req)
        dev: Pmem = self.device  # type: ignore[assignment]
        cost = self.ctx.cost
        self.ios += 1
        self.processed += 1
        yield from x.work(cost.dax_map_ns, span="driver")
        if op is IoOp.WRITE:
            assert data is not None
            yield from x.wait(self.ctx.env.process(dev.dax_store(offset, data)), span="device_io")
            return None
        if op is IoOp.READ:
            result = yield from x.wait(
                self.ctx.env.process(dev.dax_load(offset, size)), span="device_io"
            )
            return result
        if op is IoOp.FLUSH:
            yield from x.work(dev.profile.flush_lat_ns, span="device_io")
            return None
        raise LabStorError(f"DAX driver cannot service {req.op!r}")

    def est_processing_time(self, req) -> int:
        return self.ctx.cost.dax_map_ns
