"""Workload generators reproducing the paper's evaluation drivers."""

from .filebench import PERSONALITIES, run_personality
from .fio import FioJob, FioResult, LabStackEngine, RawDeviceEngine, run_fio
from .fsapi import FsApi, GenericFsAdapter, KernelFsAdapter
from .fxmark import run_create
from .labios import run_labios_fs, run_labios_kvs
from .vpic import VpicConfig, run_bdcats, run_vpic

__all__ = [
    "FioJob",
    "FioResult",
    "RawDeviceEngine",
    "LabStackEngine",
    "run_fio",
    "FsApi",
    "KernelFsAdapter",
    "GenericFsAdapter",
    "run_create",
    "PERSONALITIES",
    "run_personality",
    "run_labios_fs",
    "run_labios_kvs",
    "VpicConfig",
    "run_vpic",
    "run_bdcats",
]
