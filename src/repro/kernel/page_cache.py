"""Kernel page cache model: real cached bytes, LRU eviction, writeback.

Buffered I/O lands here first (with a copy charge — the 17% of a 4KB write
the paper's Fig 4 anatomy attributes to the page cache); dirty pages are
written back on eviction or fsync through a filesystem-supplied callback.
Read-your-writes is real: cached pages carry the actual data.
"""

from __future__ import annotations

from typing import Callable, Generator

from ..errors import KernelError
from ..policy import LruPages, runs
from ..sim import Environment
from .cpu import DEFAULT_COST, CostModel

__all__ = ["PageCache", "PAGE_SIZE"]

PAGE_SIZE = 4096

# key = (file_id, page_no)
_Key = tuple[int, int]

# writeback callback: (file_id, page_no, bytes) -> process generator
WritebackFn = Callable[[int, int, bytes], Generator]
# fill callback: (file_id, page_no) -> process generator returning bytes
FillFn = Callable[[int, int], Generator]


def _next_page(a: tuple[_Key, bytearray], b: tuple[_Key, bytearray]) -> bool:
    """Same file, next page."""
    return b[0][0] == a[0][0] and b[0][1] == a[0][1] + 1


class PageCache:
    """A bounded LRU page cache with dirty tracking."""

    def __init__(
        self,
        env: Environment,
        capacity_pages: int,
        writeback: WritebackFn,
        fill: FillFn,
        cost: CostModel = DEFAULT_COST,
        writeback_run=None,
    ) -> None:
        """``writeback_run(file_id, first_page, data)`` — optional batched
        callback covering consecutive pages in one call (writeback merges
        contiguous dirty pages into single bios); falls back to per-page
        ``writeback`` when absent."""
        if capacity_pages < 1:
            raise KernelError("page cache needs capacity >= 1 page")
        self.env = env
        self.capacity_pages = capacity_pages
        self.cost = cost
        self._writeback = writeback
        self._writeback_run = writeback_run
        self._fill = fill
        self.pages: LruPages = LruPages()  # (file_id, page_no) -> bytearray
        # dirty pages evicted but whose writeback has not landed yet;
        # concurrent reads must see this data, not the stale device copy
        self._wb_inflight: dict[_Key, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def __len__(self) -> int:
        return len(self.pages)

    def dirty_count(self) -> int:
        return len(self.pages.dirty)

    def resident(self, file_id: int, page_no: int) -> bool:
        return (file_id, page_no) in self.pages

    # -- internals --------------------------------------------------------
    def _flush(self, dirty: list[tuple[_Key, bytearray]]):
        """Write back (key, data) pages already marked clean, coalescing
        consecutive pages of a file into extent writebacks when the
        backend supports it.  Generator; maintains the in-flight table."""
        if not dirty:
            return
        dirty.sort(key=lambda kp: kp[0])
        for key, data in dirty:
            self._wb_inflight[key] = bytes(data)
        if self._writeback_run is not None:
            procs = [
                self.env.process(self._writeback_run(
                    run[0][0][0], run[0][0][1],
                    b"".join(self._wb_inflight[k] for k, _ in run)))
                for run in runs(dirty, _next_page)
            ]
        else:
            procs = [self.env.process(self._writeback(key[0], key[1], self._wb_inflight[key]))
                     for key, _data in dirty]
        self.writebacks += len(dirty)
        yield self.env.all_of(procs)
        for key, _data in dirty:
            self._wb_inflight.pop(key, None)

    def _evict_batch(self, n: int):
        """Evict up to ``n`` LRU pages, writing dirty ones back coalesced.

        Victims leave the map *before* the writeback I/O so concurrent
        evictors never pick the same page; the in-flight table keeps the
        data visible to readers until the writeback lands.
        """
        n = min(n, len(self.pages))
        dirty = self.pages.pop_lru(n)
        self.evictions += n
        yield from self._flush(dirty)

    def _ensure_room(self):
        while len(self.pages) >= self.capacity_pages:
            # evict in batches so dirty neighbours coalesce into large bios
            yield self.env.process(self._evict_batch(max(1, self.capacity_pages // 64)))

    def _get_page(self, file_id: int, page_no: int, *, fill_if_missing: bool):
        """Generator returning the page's bytearray (loading from backing if needed)."""
        key = (file_id, page_no)
        page = self.pages.get(key)
        if page is not None:
            self.hits += 1
            self.pages.touch(key)
            return page
        self.misses += 1
        yield from self._ensure_room()
        inflight = self._wb_inflight.get(key)
        if inflight is not None:
            page = inflight
        elif fill_if_missing:
            page = yield self.env.process(self._fill(file_id, page_no))
        else:
            page = bytes(PAGE_SIZE)
        return self._install(key, page)

    def _install(self, key: _Key, data) -> bytearray:
        """Cache a clean copy of ``data`` as page ``key``, replacing in
        place any page a concurrent miss installed meanwhile."""
        page = self.pages[key] = bytearray(data)
        self.pages.dirty.discard(key)
        return page

    # -- public API (process generators) -------------------------------------
    def write(self, file_id: int, offset: int, data: bytes):
        """Buffered write: copy into cache pages, mark dirty."""
        yield self.env.timeout(self.cost.cache_mgmt_ns + self.cost.copy_ns(len(data)))
        pos = 0
        while pos < len(data):
            page_no, in_page = divmod(offset + pos, PAGE_SIZE)
            chunk = min(PAGE_SIZE - in_page, len(data) - pos)
            # A partial overwrite of a non-resident page must read-modify-write.
            needs_fill = (in_page != 0 or chunk != PAGE_SIZE)
            page = yield from self._get_page(file_id, page_no, fill_if_missing=needs_fill)
            page[in_page : in_page + chunk] = data[pos : pos + chunk]
            self.pages.dirty.add((file_id, page_no))
            pos += chunk

    def read(self, file_id: int, offset: int, size: int):
        """Buffered read: serve from cache; misses fill concurrently
        (modelling readahead / plugged batch submission).

        Reads wider than the cache are processed in windows so a window's
        pages cannot be evicted before they are copied out.
        """
        yield self.env.timeout(self.cost.cache_mgmt_ns + self.cost.copy_ns(size))
        out = bytearray(size)
        window_pages = max(1, self.capacity_pages // 2)
        pos = 0
        while pos < size:
            win_first = (offset + pos) // PAGE_SIZE
            win_last = min((offset + size - 1) // PAGE_SIZE, win_first + window_pages - 1)
            # keep resident window pages hot so room-making cannot evict them
            for p in range(win_first, win_last + 1):
                if (file_id, p) in self.pages:
                    self.pages.touch((file_id, p))
                    self.hits += 1
            missing = []
            for p in range(win_first, win_last + 1):
                key = (file_id, p)
                if key in self.pages:
                    continue
                inflight = self._wb_inflight.get(key)
                if inflight is not None:
                    yield from self._ensure_room()
                    self._install(key, inflight)
                else:
                    missing.append(p)
            if missing:
                for _ in missing:
                    yield from self._ensure_room()
                procs = [self.env.process(self._fill(file_id, p)) for p in missing]
                yield self.env.all_of(procs)
                self.misses += len(missing)
                for p, proc in zip(missing, procs):
                    self._install((file_id, p), proc.value)
            win_end_byte = min(size, (win_last + 1) * PAGE_SIZE - offset)
            while pos < win_end_byte:
                page_no, in_page = divmod(offset + pos, PAGE_SIZE)
                chunk = min(PAGE_SIZE - in_page, size - pos)
                page = self.pages[(file_id, page_no)]
                out[pos : pos + chunk] = page[in_page : in_page + chunk]
                pos += chunk
        return bytes(out)

    def fsync(self, file_id: int):
        """Write back every dirty page belonging to ``file_id``.

        Writebacks are submitted concurrently — fsync plugs the block
        queue and flushes the whole dirty set in one batch, which is why
        a 64KB fsync does not pay 16 serial device round trips.
        """
        yield from self._flush(self.pages.take_dirty(lambda key: key[0] == file_id))

    def sync_all(self):
        """Write back every dirty page (umount / global sync)."""
        yield from self._flush(self.pages.take_dirty())

    def invalidate(self, file_id: int) -> None:
        """Drop all pages of a file (unlink); dirty pages are discarded."""
        for key in [k for k in self.pages if k[0] == file_id]:
            self.pages.drop(key)
