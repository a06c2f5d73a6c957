"""LabStor core: LabMods, LabStacks, the Runtime, Orchestrator, Client."""

from .client import LabStorClient
from .komgr import KernelOpsManager, KthreadState
from .labmod import ExecContext, LabMod, ModContext
from .labstack import LabStack, NodeSpec, StackRules, StackSpec
from .module_manager import UpgradeRequest
from .namespace import StackNamespace
from .orchestrator import DynamicPolicy, RoundRobinPolicy, WorkOrchestrator
from .registry import ModuleRegistry
from .requests import LabRequest
from .runtime import LabStorRuntime, RuntimeConfig
from .spec import SpecParseError, parse_spec
from .workers import Worker

__all__ = [
    "LabMod",
    "ModContext",
    "ExecContext",
    "LabRequest",
    "ModuleRegistry",
    "LabStack",
    "StackSpec",
    "NodeSpec",
    "StackRules",
    "StackNamespace",
    "Worker",
    "WorkOrchestrator",
    "RoundRobinPolicy",
    "DynamicPolicy",
    "UpgradeRequest",
    "KernelOpsManager",
    "KthreadState",
    "LabStorRuntime",
    "RuntimeConfig",
    "LabStorClient",
    "parse_spec",
    "SpecParseError",
]
