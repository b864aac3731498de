"""Reproduction of "Generic Database Cost Models for Hierarchical Memory
Systems" (S. Manegold, P. A. Boncz, M. L. Kersten; CWI INS-R0203 / VLDB 2002).

The package provides:

* :mod:`repro.hardware` — the unified hardware model (cache levels, TLBs,
  machine profiles including the paper's SGI Origin2000).
* :mod:`repro.simulator` — a trace-driven cache-hierarchy simulator used as
  the measurement substrate in place of hardware event counters.
* :mod:`repro.core` — data regions, the basic/compound access-pattern
  language, and the automatically combined cost functions (the paper's
  contribution).
* :mod:`repro.db` — a column-oriented main-memory engine whose operators
  execute against the simulator (the Monet stand-in).
* :mod:`repro.calibrator` — the parameter-measurement micro-benchmarks.
* :mod:`repro.optimizer` — a cost-based algorithm advisor built on the model.
* :mod:`repro.session` — the public façade: fluent/text query frontends,
  prepared statements, and a profile-keyed plan cache.
* :mod:`repro.validation` — the model-vs-measurement experiment harness.
* :mod:`repro.server` — an asyncio multi-tenant query server serving
  open-loop traffic with ⊙-guided admission control and SLO tracking.
* :mod:`repro.obs` — dual-clock tracing spans (Chrome ``trace_event``
  export), a labeled metrics registry (Prometheus exposition), and an
  EWMA predicted-vs-measured drift monitor.
* :mod:`repro.whatif` — parametric hardware sweeps and
  capacity-planning reports: price a workload on machines you don't
  have, find the Pareto frontier, recommend the smallest config
  meeting an SLO.
"""

from .hardware import (
    CacheLevel,
    MemoryHierarchy,
    disk_extended,
    modern_x86,
    origin2000,
    origin2000_scaled,
    tiny_test_machine,
)
from .simulator import MemorySystem

__version__ = "2.1.0"


def __getattr__(name):
    # Lazy: `import repro` stays light; the session façade pulls in the
    # whole query/optimizer stack only when asked for.
    if name == "Session":
        from .session import Session
        return Session
    if name == "QueryServer":
        from .server import QueryServer
        return QueryServer
    if name == "Tracer":
        from .obs import Tracer
        return Tracer
    if name == "Recalibrator":
        from .calibrator import Recalibrator
        return Recalibrator
    if name == "ProfileSpace":
        from .whatif import ProfileSpace
        return ProfileSpace
    if name == "WhatIfSweep":
        from .whatif import WhatIfSweep
        return WhatIfSweep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Session",
    "QueryServer",
    "Tracer",
    "Recalibrator",
    "ProfileSpace",
    "WhatIfSweep",
    "CacheLevel",
    "MemoryHierarchy",
    "MemorySystem",
    "origin2000",
    "origin2000_scaled",
    "modern_x86",
    "disk_extended",
    "tiny_test_machine",
    "__version__",
]
