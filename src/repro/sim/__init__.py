"""Discrete-event simulation substrate for the LabStor reproduction."""

from .core import (
    LOW,
    NORMAL,
    URGENT,
    Environment,
    Event,
    Interrupt,
    Process,
    StopSimulation,
)
from .resources import Container, FilterStore, PriorityResource, Resource, Store
from .rng import RngRegistry
from .sanitizer import Sanitizer, SanitizerError
from .stats import Counter, Histogram, LatencyRecorder, OnlineStats, percentile
from .trace import SpanAccumulator, Tracer

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Interrupt",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "LOW",
    "Resource",
    "PriorityResource",
    "Store",
    "FilterStore",
    "Container",
    "RngRegistry",
    "OnlineStats",
    "LatencyRecorder",
    "Histogram",
    "Counter",
    "percentile",
    "SpanAccumulator",
    "Tracer",
    "Sanitizer",
    "SanitizerError",
]
