"""Async multi-tenant query serving over the cost-model stack.

The :class:`QueryServer` is the repo's online tier: seeded open-loop
traffic (:class:`PoissonArrivals` / :class:`BurstArrivals`) flows
through per-tenant sessions and plan caches (:class:`Tenant`), a
bounded ⊙-guided admission controller (:class:`AdmissionController`)
forms co-run batches, and sliding-window SLOs (:class:`SloTracker`)
watch the tail.  Everything runs on the simulated clock, so serving
experiments are deterministic and replayable: the server is a thread
hand-off around a :class:`Dispatcher`, which makes every decision and
can be stepped without threads.
"""

from ..service.admission import AdmissionController
from .arrivals import ArrivalProcess, BurstArrivals, PoissonArrivals
from .dispatcher import Dispatcher, ServerResponse, ServingReport
from .server import QueryServer
from .slo import (
    DEFAULT_WINDOW_NS,
    SlidingWindow,
    SloBreach,
    SloTarget,
    SloTracker,
)
from .tenant import TENANT_ADDRESS_STRIDE, Tenant, TenantQuota

__all__ = [
    "QueryServer",
    "Dispatcher",
    "ServerResponse",
    "ServingReport",
    "Tenant",
    "TenantQuota",
    "TENANT_ADDRESS_STRIDE",
    "AdmissionController",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstArrivals",
    "SloTarget",
    "SloTracker",
    "SloBreach",
    "SlidingWindow",
    "DEFAULT_WINDOW_NS",
]
