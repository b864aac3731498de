"""Trace-driven cache-hierarchy simulator (measurement substrate).

Replaces the hardware performance counters of the paper's SGI Origin2000
testbed: database operators run their real algorithms while reporting
every data access to a :class:`MemorySystem`, whose per-level miss
counters and latency account provide the "measured" series of every
experiment.
"""

from .bufferpool import BufferPoolSim
from .cache import CacheSim
from .counters import CounterSnapshot, LevelCounters
from .memory import MemorySystem, canonical_trace

__all__ = ["BufferPoolSim", "CacheSim", "CounterSnapshot", "LevelCounters",
           "MemorySystem", "canonical_trace"]
