"""A striped parallel filesystem in the OrangeFS mold (paper Fig 9(a)).

One metadata server (MDS) tracks stripe placement; N data servers store
64KB stripes round-robin.  Every server runs a *local* I/O stack behind
the uniform FsApi adapter — that local stack is exactly what the paper
customizes: the MDS runs on NVMe with ext4 / LabFS-All / LabFS-Min, the
data servers run on HDD / SSD / NVMe.

The network is modelled as a per-message latency plus a bandwidth term
(defaults approximating the 10GbE Chameleon fabric).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import Environment
from ..units import KiB, sec, usec

__all__ = ["OrangeFs", "PfsResult"]


@dataclass
class PfsResult:
    bytes_moved: int
    metadata_ops: int
    elapsed_ns: int

    @property
    def bandwidth_MBps(self) -> float:
        return self.bytes_moved / 1e6 / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0


class OrangeFs:
    def __init__(
        self,
        env: Environment,
        mds_api,
        data_apis: list,
        *,
        stripe_size: int = 64 * KiB,
        net_lat_ns: int = usec(30.0),
        net_bw: float = 1.2e9,  # ~10GbE payload rate, bytes/sec
        layout_batch: int = 4,  # stripes covered by one MDS layout record
        transport=None,
    ) -> None:
        self.env = env
        self.mds = mds_api
        self.data = list(data_apis)
        if not self.data:
            raise ValueError("need at least one data server")
        self.stripe_size = stripe_size
        self.net_lat_ns = net_lat_ns
        self.net_bw = net_bw
        #: pluggable network: an object with ``transfer(peer, nbytes)``
        #: (a process generator), e.g. repro.cluster's FabricTransport.
        #: None keeps the built-in latency+bandwidth model, byte-identical
        #: to the pre-seam behavior.  Peers: "mds" or a data-server index.
        self.transport = transport
        self.layout_batch = max(1, layout_batch)
        self.metadata_ops = 0
        self.bytes_moved = 0
        self._stripe_maps: dict[str, int] = {}  # path -> stripe count

    # -- network model ------------------------------------------------------
    def _net(self, nbytes: int, peer="mds"):
        if self.transport is not None:
            yield from self.transport.transfer(peer, nbytes)
            return
        yield self.env.timeout(self.net_lat_ns + round(nbytes / self.net_bw * 1e9))

    # -- metadata path ------------------------------------------------------
    def _mds_record_stripe(self, path: str, stripe_no: int):
        """Record where a stripe lives.  One layout object on the MDS
        covers ``layout_batch`` stripes (clients cache the layout), so only
        every batch-leading stripe pays a full metadata create."""
        self.metadata_ops += 1
        yield from self._net(256)
        if stripe_no % self.layout_batch == 0:
            fd = yield from self.mds.open(f"/meta{path}.s{stripe_no}", create=True)
            yield from self.mds.close(fd)

    def _mds_lookup_stripe(self, path: str, stripe_no: int):
        self.metadata_ops += 1
        yield from self._net(256)
        if stripe_no % self.layout_batch == 0:
            st = yield from self.mds.stat(f"/meta{path}.s{stripe_no}")
            return st
        return None

    # -- client operations ----------------------------------------------------
    def write_file(self, path: str, data: bytes):
        """Stripe ``data`` across the data servers."""
        nstripes = max(1, -(-len(data) // self.stripe_size))
        self._stripe_maps[path] = nstripes
        for s in range(nstripes):
            yield from self._mds_record_stripe(path, s)
            chunk = data[s * self.stripe_size : (s + 1) * self.stripe_size]
            server = self.data[s % len(self.data)]
            yield from self._net(len(chunk), peer=s % len(self.data))
            fd = yield from server.open(f"/data{path}.s{s}", create=True)
            yield from server.write(fd, chunk, offset=0)
            # the data server acknowledges durable stripes (PFS semantics)
            yield from server.fsync(fd)
            yield from server.close(fd)
            self.bytes_moved += len(chunk)
        return nstripes

    def drop_data_caches(self) -> None:
        """Invalidate the data servers' page caches (BD-CATS runs cold)."""
        for server in self.data:
            cache = getattr(getattr(server, "fs", None), "cache", None)
            if cache is not None:
                cache.pages.drop_clean()

    def read_file(self, path: str):
        nstripes = self._stripe_maps.get(path)
        if nstripes is None:
            raise KeyError(f"PFS: unknown file {path}")
        out = bytearray()
        for s in range(nstripes):
            yield from self._mds_lookup_stripe(path, s)
            server = self.data[s % len(self.data)]
            fd = yield from server.open(f"/data{path}.s{s}")
            st = yield from server.stat(f"/data{path}.s{s}")
            chunk = yield from server.read(fd, st["size"], offset=0)
            yield from server.close(fd)
            yield from self._net(len(chunk), peer=s % len(self.data))
            out.extend(chunk)
            self.bytes_moved += len(chunk)
        return bytes(out)
