"""Kernel page cache model: real cached bytes, LRU eviction, writeback.

Buffered I/O lands here first (with a copy charge — the 17% of a 4KB write
the paper's Fig 4 anatomy attributes to the page cache); dirty pages are
written back on eviction or fsync through a filesystem-supplied callback.
Read-your-writes is real: cached pages carry the actual data.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generator

from ..errors import KernelError
from ..sim import Environment
from .cpu import DEFAULT_COST, CostModel

__all__ = ["PageCache", "PAGE_SIZE"]

PAGE_SIZE = 4096


@dataclass
class CachedPage:
    data: bytearray
    dirty: bool = False


# key = (file_id, page_no)
_Key = tuple[int, int]

# writeback callback: (file_id, page_no, bytes) -> process generator
WritebackFn = Callable[[int, int, bytes], Generator]
# fill callback: (file_id, page_no) -> process generator returning bytes
FillFn = Callable[[int, int], Generator]


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
        self._pages: OrderedDict[_Key, CachedPage] = OrderedDict()
        # dirty pages evicted but whose writeback has not landed yet;
        # concurrent reads must see this data, not the stale device copy
        self._wb_inflight: dict[_Key, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def __len__(self) -> int:
        return len(self._pages)

    def dirty_count(self) -> int:
        return sum(1 for p in self._pages.values() if p.dirty)

    def resident(self, file_id: int, page_no: int) -> bool:
        return (file_id, page_no) in self._pages

    # -- internals --------------------------------------------------------
    def _touch(self, key: _Key) -> None:
        self._pages.move_to_end(key)

    def _flush_pairs(self, pairs: list[tuple[_Key, CachedPage]]):
        """Write back (key, page) pairs, coalescing consecutive pages of a
        file into extent writebacks when the backend supports it.
        Generator; marks pages clean and maintains the in-flight table."""
        dirty = sorted((kp for kp in pairs if kp[1].dirty), key=lambda kp: kp[0])
        if not dirty:
            return
        for key, page in dirty:
            self._wb_inflight[key] = bytes(page.data)
            page.dirty = False
        procs = []
        if self._writeback_run is not None:
            i = 0
            while i < len(dirty):
                j = i
                while (
                    j + 1 < len(dirty)
                    and dirty[j + 1][0][0] == dirty[j][0][0]        # same file
                    and dirty[j + 1][0][1] == dirty[j][0][1] + 1    # next page
                ):
                    j += 1
                file_id = dirty[i][0][0]
                first_page = dirty[i][0][1]
                data = b"".join(self._wb_inflight[k] for k, _ in dirty[i : j + 1])
                procs.append(self.env.process(self._writeback_run(file_id, first_page, data)))
                i = j + 1
        else:
            for key, _page in dirty:
                procs.append(
                    self.env.process(self._writeback(key[0], key[1], self._wb_inflight[key]))
                )
        self.writebacks += len(dirty)
        yield self.env.all_of(procs)
        for key, _page in dirty:
            self._wb_inflight.pop(key, None)

    def _evict_batch(self, n: int):
        """Evict up to ``n`` LRU pages, writing dirty ones back coalesced.

        Victims leave the map *before* the writeback I/O so concurrent
        evictors never pick the same page; the in-flight table keeps the
        data visible to readers until the writeback lands.
        """
        victims = []
        it = iter(self._pages.items())
        for _ in range(min(n, len(self._pages))):
            victims.append(next(it))
        for key, _page in victims:
            del self._pages[key]
        self.evictions += len(victims)
        yield from self._flush_pairs(victims)

    def _ensure_room(self):
        while len(self._pages) >= self.capacity_pages:
            # evict in batches so dirty neighbours coalesce into large bios
            yield self.env.process(self._evict_batch(max(1, self.capacity_pages // 64)))

    def _get_page(self, file_id: int, page_no: int, *, fill_if_missing: bool):
        """Generator returning the CachedPage (loading from backing if needed)."""
        key = (file_id, page_no)
        page = self._pages.get(key)
        if page is not None:
            self.hits += 1
            self._touch(key)
            return page
        self.misses += 1
        yield from self._ensure_room()
        inflight = self._wb_inflight.get(key)
        if inflight is not None:
            page = CachedPage(bytearray(inflight), dirty=False)
        elif fill_if_missing:
            data = yield self.env.process(self._fill(file_id, page_no))
            page = CachedPage(bytearray(data))
        else:
            page = CachedPage(bytearray(PAGE_SIZE))
        self._pages[key] = page
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
            page.data[in_page : in_page + chunk] = data[pos : pos + chunk]
            page.dirty = True
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
                if (file_id, p) in self._pages:
                    self._touch((file_id, p))
                    self.hits += 1
            missing = []
            for p in range(win_first, win_last + 1):
                key = (file_id, p)
                if key in self._pages:
                    continue
                inflight = self._wb_inflight.get(key)
                if inflight is not None:
                    yield from self._ensure_room()
                    self._pages[key] = CachedPage(bytearray(inflight))
                else:
                    missing.append(p)
            if missing:
                for _ in missing:
                    yield from self._ensure_room()
                procs = [self.env.process(self._fill(file_id, p)) for p in missing]
                yield self.env.all_of(procs)
                self.misses += len(missing)
                for p, proc in zip(missing, procs):
                    self._pages[(file_id, p)] = CachedPage(bytearray(proc.value))
            win_end_byte = min(size, (win_last + 1) * PAGE_SIZE - offset)
            while pos < win_end_byte:
                page_no, in_page = divmod(offset + pos, PAGE_SIZE)
                chunk = min(PAGE_SIZE - in_page, size - pos)
                page = self._pages[(file_id, page_no)]
                out[pos : pos + chunk] = page.data[in_page : in_page + chunk]
                pos += chunk
        return bytes(out)

    def fsync(self, file_id: int):
        """Write back every dirty page belonging to ``file_id``.

        Writebacks are submitted concurrently — fsync plugs the block
        queue and flushes the whole dirty set in one batch, which is why
        a 64KB fsync does not pay 16 serial device round trips.
        """
        pairs = [(key, page) for key, page in self._pages.items()
                 if key[0] == file_id and page.dirty]
        yield from self._flush_pairs(pairs)

    def sync_all(self):
        """Write back every dirty page (umount / global sync)."""
        yield from self._flush_pairs(list(self._pages.items()))

    def invalidate(self, file_id: int) -> None:
        """Drop all pages of a file (unlink); dirty pages are discarded."""
        for key in [k for k in self._pages if k[0] == file_id]:
            del self._pages[key]
