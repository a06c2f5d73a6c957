"""FxMark-style filesystem scalability microbenchmarks.

The paper's Fig 7 uses FxMark's file-creation stress (each thread creates
files in a private directory) to expose metadata-path scaling.  We
implement the same MWCL-style pattern over the uniform
:mod:`repro.workloads.fsapi` adapter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import Environment
from ..units import sec

__all__ = ["run_create"]


@dataclass
class FxmarkResult:
    ops: int
    elapsed_ns: int
    nthreads: int

    @property
    def ops_per_sec(self) -> float:
        return self.ops / (self.elapsed_ns / sec(1)) if self.elapsed_ns else 0.0


def run_create(env: Environment, fsapi_factory, nthreads: int, files_per_thread: int) -> FxmarkResult:
    """MWCL: every thread creates files in its own directory.

    ``fsapi_factory(tid)`` returns the FsApi the thread drives (LabStor
    needs one client per thread; kernel FS can share).
    """
    total = nthreads * files_per_thread

    def worker(tid: int, api):
        for i in range(files_per_thread):
            fd = yield from api.open(f"/t{tid}/f{i}", create=True)
            yield from api.close(fd)

    start = env.now
    procs = [env.process(worker(t, fsapi_factory(t))) for t in range(nthreads)]
    env.run(env.all_of(procs))
    return FxmarkResult(ops=total, elapsed_ns=env.now - start, nthreads=nthreads)

