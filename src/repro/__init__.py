"""repro — a simulation-based reproduction of "Accelerating Critical OS
Services in Virtualized Systems with Flexible Micro-sliced Cores"
(Ahn, Park, Heo, Huh — EuroSys 2018).

Public surface:

* :mod:`repro.sim` — discrete-event kernel;
* :mod:`repro.hw` — hardware models (topology, PLE, cache warmth, NIC);
* :mod:`repro.hypervisor` — Xen-credit-style hypervisor;
* :mod:`repro.guest` — guest kernel services (locks, TLB, IPIs, net);
* :mod:`repro.core` — the paper's contribution (detection, micro-sliced
  pool, Algorithm-1 adaptive sizing);
* :mod:`repro.workloads` — synthetic PARSEC/MOSBENCH/iPerf models;
* :mod:`repro.experiments` — scenario builders + per-table/figure
  harnesses.
"""

from .experiments.scenarios import (
    Scenario,
    corun_scenario,
    mixed_io_scenario,
    solo_io_scenario,
    solo_scenario,
)
from .runner import baseline_policy, dynamic_policy, static_policy
from .runner import vtrs_policy, vturbo_policy, yield_only_policy

__version__ = "1.0.0"

__all__ = [
    "Scenario",
    "__version__",
    "baseline_policy",
    "corun_scenario",
    "dynamic_policy",
    "mixed_io_scenario",
    "solo_io_scenario",
    "solo_scenario",
    "static_policy",
    "vtrs_policy",
    "vturbo_policy",
    "yield_only_policy",
]
