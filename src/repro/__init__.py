"""repro — a Python reproduction of LabStor (SC 2022).

LabStor is a modular, extensible platform for developing high-performance,
customized I/O stacks in userspace.  This package rebuilds the full
platform — LabMods, LabStacks, the LabStor Runtime, driver/kernel
substrates, and every workload from the paper's evaluation — on top of a
deterministic discrete-event simulation with nanosecond virtual time and
real (byte-accurate) storage backing.

Quickstart::

    from repro.core import LabStorSystem, StackSpec

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from .errors import ReproError
from .units import GiB, KiB, MiB, msec, sec, usec

__version__ = "1.0.0"

__all__ = ["ReproError", "KiB", "MiB", "GiB", "usec", "msec", "sec"]
