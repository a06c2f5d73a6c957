"""LRU page-cache LabMod (userspace).

Two write policies (``write_policy`` attr):

- ``"through"`` (default): writes copy into the cache (the Fig 4 "page
  cache" slice — copy + bookkeeping) and continue downstream
  synchronously — durable, what LabFS's crash-consistency story assumes.
- ``"back"``: writes are absorbed into dirty cache pages and acknowledged
  immediately; dirty pages drain downstream on eviction and on
  ``blk.flush`` — the kernel-page-cache behaviour, trading durability
  for write latency (the active-storage "asynchronously and in batches"
  pattern of Section III-B).

Reads are served from the cache on a hit, forwarded and inserted on a
miss.  State — the whole cache — survives live upgrades via StateUpdate.
"""

from __future__ import annotations

from ..core.labmod import ExecContext, LabMod, ModContext
from ..core.requests import LabRequest
from ..errors import LabStorError
from ..policy import LruPages, runs

__all__ = ["LruCacheMod"]

PAGE = 4096


def _next_page(a: tuple[int, bytes], b: tuple[int, bytes]) -> bool:
    return b[0] == a[0] + 1


class LruCacheMod(LabMod):
    mod_type = "cache"
    accepts = ("blk.",)
    emits = ("blk.",)

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        self.capacity_pages = int(ctx.attrs.get("capacity_pages", 16_384))
        self.write_policy = ctx.attrs.get("write_policy", "through")
        if self.write_policy not in ("through", "back"):
            raise LabStorError(f"{uuid}: write_policy must be 'through' or 'back'")
        self.pages = LruPages()  # page_no -> bytes
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- cache mechanics ----------------------------------------------------
    def _put(self, page_no: int, data: bytes, dirty: bool = False) -> list:
        """Cache a page; returns the dirty pages its insertion evicted."""
        self.pages.put(page_no, data, dirty)
        return self.pages.pop_lru(len(self.pages) - self.capacity_pages)

    def _writeback(self, req: LabRequest, x: ExecContext, dirty: list[tuple[int, bytes]]):
        """Generator: push dirty (page_no, data) pages downstream, one
        write per run of consecutive pages."""
        for run in runs(sorted(dirty), _next_page):
            self.writebacks += 1
            data = b"".join(d for _, d in run)
            sub = LabRequest(
                op="blk.write",
                payload={"offset": run[0][0] * PAGE, "size": len(data), "data": data,
                         "origin_core": req.payload.get("origin_core", 0)},
                stack_id=req.stack_id,
                client_pid=req.client_pid,
            )
            yield from self.forward(sub, x)

    def _evict_range(self, req: LabRequest, x: ExecContext, offset: int, size: int):
        """Generator: drop every cached page ``[offset, offset + size)``
        touches, first writing back the dirty ones it only partly covers
        (their bytes outside the range are not in the request)."""
        first, end = offset // PAGE, -(-(offset + size) // PAGE)
        partial = [(p, self.pages[p]) for p in range(first, end)
                   if p in self.pages.dirty and not offset <= p * PAGE <= offset + size - PAGE]
        for pno in range(first, end):
            self.pages.drop(pno)
        if partial:
            yield from self._writeback(req, x, partial)

    def _lookup(self, first_page: int, npages: int) -> bytes | None:
        pages = self.pages
        chunks = []
        for p in range(first_page, first_page + npages):
            data = pages.get(p)
            if data is None:
                return None
            chunks.append(data)
        for p in range(first_page, first_page + npages):
            pages.move_to_end(p)
        return b"".join(chunks)

    # -- operation -----------------------------------------------------------
    def handle(self, req, x: ExecContext):
        cost = self.ctx.cost
        p = req.payload
        offset = p.get("offset", 0)
        size = p.get("size", len(p.get("data", b"")))
        self.processed += 1

        if req.op == "blk.write":
            yield from x.work(cost.cache_mgmt_ns + cost.copy_ns(size), span="cache")
            data = p["data"]
            aligned = offset % PAGE == 0 and len(data) % PAGE == 0
            if not aligned:
                yield from self._evict_range(req, x, offset, len(data))
                return (yield from self.forward(req, x))
            evicted: list[tuple[int, bytes]] = []
            absorb = self.write_policy == "back"
            for i in range(0, len(data), PAGE):
                evicted += self._put((offset + i) // PAGE, bytes(data[i : i + PAGE]), absorb)
            if evicted:
                yield from self._writeback(req, x, evicted)
            if absorb:
                return len(data)  # acknowledged from the cache
            return (yield from self.forward(req, x))

        if req.op == "blk.flush" and self.pages.dirty:
            # durability point: drain every dirty page before the flush
            yield from self._writeback(req, x, self.pages.take_dirty())
            return (yield from self.forward(req, x))

        if req.op == "blk.read":
            yield from x.work(cost.cache_mgmt_ns, span="cache")
            if offset % PAGE == 0 and size % PAGE == 0:
                cached = self._lookup(offset // PAGE, size // PAGE)
                if cached is not None:
                    self.hits += 1
                    yield from x.work(cost.copy_ns(size), span="cache")
                    return cached
            self.misses += 1
            result = yield from self.forward(req, x)
            if result is not None and offset % PAGE == 0:
                buf = bytearray(result)
                evicted = []
                for i in range(0, len(buf), PAGE):
                    pno = (offset + i) // PAGE
                    if len(buf) - i < PAGE:
                        break
                    if pno in self.pages.dirty:
                        # dirty page not yet written back: cache wins
                        buf[i : i + PAGE] = self.pages[pno]
                    else:
                        evicted += self._put(pno, bytes(buf[i : i + PAGE]))
                if evicted:
                    yield from self._writeback(req, x, evicted)
                result = bytes(buf)
            yield from x.work(cost.copy_ns(size), span="cache")
            return result

        if req.op == "blk.trim":
            yield from self._evict_range(req, x, offset, size)
        return (yield from self.forward(req, x))

    def est_processing_time(self, req) -> int:
        size = req.payload.get("size", len(req.payload.get("data", b"")))
        return self.ctx.cost.cache_mgmt_ns + self.ctx.cost.copy_ns(size)

    # -- upgrade / repair -----------------------------------------------------
    def state_update(self, old: "LabMod") -> None:
        super().state_update(old)
        if isinstance(old, LruCacheMod):
            self.pages = old.pages
            self.write_policy = old.write_policy
            self.hits = old.hits
            self.misses = old.misses
            self.writebacks = old.writebacks

    def on_crash(self) -> None:
        # cached pages live in the Runtime's memory and die with it; in
        # write-back mode that loses un-flushed dirty pages — exactly the
        # durability trade the policy advertises.
        self.pages.clear()

    def state_repair(self) -> None:
        # nothing durable to rebuild from; start cold (on_crash dropped
        # the pages when the Runtime died)
        self.pages.clear()
