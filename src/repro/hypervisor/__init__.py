"""Hypervisor: domains, vCPUs, cpupools, executors (schedulers live in
:mod:`repro.sched`)."""

from .cpupool import CpuPool
from .domain import Domain
from .executor import (
    STOP_IDLE,
    STOP_IPI_WAIT,
    STOP_PARK,
    STOP_PLE,
    STOP_PREEMPT,
    STOP_SLICE,
    PCpu,
)
from .hypervisor import Hypervisor, NullPolicy
from .stats import YIELD_CAUSES, YIELD_HALT, YIELD_IPI, YIELD_OTHER, YIELD_SPINLOCK, HvStats
from .vcpu import BLOCKED, RUNNABLE, RUNNING, VCpu

__all__ = [
    "BLOCKED",
    "CpuPool",
    "Domain",
    "HvStats",
    "Hypervisor",
    "NullPolicy",
    "PCpu",
    "RUNNABLE",
    "RUNNING",
    "STOP_IDLE",
    "STOP_IPI_WAIT",
    "STOP_PARK",
    "STOP_PLE",
    "STOP_PREEMPT",
    "STOP_SLICE",
    "VCpu",
    "YIELD_CAUSES",
    "YIELD_HALT",
    "YIELD_IPI",
    "YIELD_OTHER",
    "YIELD_SPINLOCK",
]
