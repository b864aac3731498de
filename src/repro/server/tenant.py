"""Per-tenant state: catalog, plan cache, quotas, the worker session.

A tenant is a *hard isolation* unit: it owns a root
:class:`~repro.session.Session` with its own
:class:`~repro.db.Database` (catalog and simulated address space) and
its own :class:`~repro.session.PlanCache` — so one tenant's profile
switch retires only its own cached plans, and its cache churn can
never evict another tenant's entries.  All tenants share the one
machine (the server's :class:`~repro.hardware.MemoryHierarchy`), which
is exactly the multi-tenant bargain: isolated state, contended
hardware.

The server's one worker thread compiles through a
:meth:`~repro.session.Session.spawn`-ed client session over the
tenant's engine, cache and registries, so compile provenance
(hit/miss) is the worker's own while plans are shared tenant-wide.  A
spawned session shares its root's predicate registry and ``sorted``
flags, so whatever is registered on :attr:`Tenant.session` is what the
server compiles against.

Because every :class:`~repro.db.Database` allocates from the same base
address, different tenants' traces would alias in a co-run replay —
two tenants' tables are *not* the same memory.  Each tenant therefore
carries an :attr:`address_offset` (``index × 8 GiB``) the server adds
to its trace addresses before interleaved replay: line/page alignment
is preserved (the stride is a multiple of every line and page size),
but tags differ, so tenants genuinely compete instead of accidentally
sharing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.hierarchy import MemoryHierarchy
from ..session import PlanCache, Session

__all__ = ["TenantQuota", "Tenant", "TENANT_ADDRESS_STRIDE"]

#: Address-space stride between tenants in co-run replays (8 GiB — a
#: power of two far above any simulated allocation, so offset traces
#: keep their alignment and never overlap).
TENANT_ADDRESS_STRIDE = 1 << 33


@dataclass(frozen=True)
class TenantQuota:
    """Resource bounds one tenant may consume.

    ``max_queued`` caps the tenant's share of the admission queue
    (its excess load is shed, not everyone's); ``plan_cache_entries``
    sizes the tenant's private plan cache.
    """

    max_queued: int = 16
    plan_cache_entries: int = 64

    def __post_init__(self) -> None:
        if self.max_queued < 1:
            raise ValueError("max_queued must be positive")
        if self.plan_cache_entries < 1:
            raise ValueError("plan_cache_entries must be positive")


class Tenant:
    """One tenant's sessions, cache, quota, and serving counters."""

    def __init__(self, name: str, index: int,
                 hierarchy: MemoryHierarchy,
                 quota: TenantQuota | None = None) -> None:
        if not name:
            raise ValueError("tenant name must be non-empty")
        if index < 0:
            raise ValueError("tenant index must be non-negative")
        self.name = name
        self.index = index
        self.quota = quota if quota is not None else TenantQuota()
        self.session = Session(
            hierarchy=hierarchy,
            cache=PlanCache(max_entries=self.quota.plan_cache_entries))
        self._worker: Session | None = None
        # serving counters (maintained by the server)
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        #: Profiles republished for this tenant by the server's online
        #: recalibration loop (each swap retires the plan cache).
        self.recalibrations = 0

    # ------------------------------------------------------------------
    @property
    def db(self):
        return self.session.db

    @property
    def plan_cache(self) -> PlanCache:
        return self.session.plan_cache

    @property
    def address_offset(self) -> int:
        """Offset added to this tenant's trace addresses in co-run
        replays (see the module docstring)."""
        return self.index * TENANT_ADDRESS_STRIDE

    def worker_session(self) -> Session:
        """The :meth:`~repro.session.Session.spawn`-ed client session
        every compile of this tenant's queries goes through, over its
        engine, plan cache and registries — spawned on first use and
        never again (one thread compiles, so nothing is locked)."""
        if self._worker is None:
            self._worker = self.session.spawn()
        return self._worker

    def set_hierarchy(self, hierarchy: MemoryHierarchy) -> None:
        """Switch *this tenant's* machine profile (e.g. after a
        re-calibration).  Only this tenant's plan-cache keys stop
        matching — its prepared statements recompile transparently,
        every other tenant's cache is untouched (they are different
        objects)."""
        self.session.set_hierarchy(hierarchy)

    def stats(self) -> dict:
        return {
            "name": self.name,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "recalibrations": self.recalibrations,
            "plan_cache": self.plan_cache.stats(),
            "profile": self.session.fingerprint,
        }

    def __repr__(self) -> str:
        return (f"Tenant({self.name!r}, index={self.index}, "
                f"tables={sorted(self.db.catalog)})")
