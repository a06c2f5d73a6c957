"""repro.faults: deterministic fault injection, recovery policies, and
chaos scenarios for LabStor deployments.

Three layers (see DESIGN.md "Fault injection & resilience"):

- :class:`FaultPlan` / :class:`FaultSpec` — declarative, RNG-seeded
  injection schedules (``repro.faults.plan``);
- :class:`FaultEngine` — compiles a plan onto the device / queue-pair /
  orchestrator / runtime seams (``repro.faults.engine``);
- :class:`RetryPolicy` + :class:`CrashConsistencyChecker` — the
  resilience and verification side (``repro.faults.policies`` /
  ``repro.faults.consistency``).

Arm a plan via ``LabStorSystem(fault_plan=...)``, the fluent
``system.stack(...).faults(plan)``, or ``REPRO_FAULTS=...`` in the
process environment.  ``python -m repro report faults`` runs the canned
power-cut scenario and prints the recovery report.
"""

from .consistency import CrashConsistencyChecker, torn_prefix_len
from .engine import FaultEngine
from .plan import FAULTS_ENV_VAR, FaultPlan, FaultSpec, plan_from_env
from .policies import DEFAULT_RETRYABLE, RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultEngine",
    "RetryPolicy",
    "DEFAULT_RETRYABLE",
    "CrashConsistencyChecker",
    "torn_prefix_len",
    "plan_from_env",
    "FAULTS_ENV_VAR",
]
