"""What-if capacity planning: price workloads on machines you don't
have.

The paper's calibrated cost model (Sections 4–6) needs only a
described :class:`~repro.hardware.MemoryHierarchy` to price an access
pattern — so a parametric space of *hypothetical* machines
(:class:`ProfileSpace`) can be swept (:class:`WhatIfSweep`) against a
fixed workload with pure arithmetic, and the resulting
:class:`WhatIfReport` answers capacity questions ("smallest config
meeting p95 ≤ X at N clients") with baseline deltas, a Pareto
frontier, and optional trace-driven simulator spot checks on the
interesting rows.

Also runnable as ``python -m repro.whatif``; a live
:class:`~repro.server.QueryServer` exposes the same machinery through
:meth:`~repro.server.QueryServer.capacity_plan`.
"""

from .report import Recommendation, WhatIfReport, derive_admission_slack
from .space import (
    CONFIG_AXES,
    PROFILE_AXES,
    TINY_POOL_BASE,
    Candidate,
    ProfileSpace,
    SpaceExpansion,
    cost_proxy,
)
from .sweep import (
    MIXES,
    CandidateOutcome,
    CapturedWorkload,
    GeneratedWorkload,
    SpotCheck,
    WhatIfSweep,
)

__all__ = [
    "ProfileSpace",
    "Candidate",
    "SpaceExpansion",
    "cost_proxy",
    "PROFILE_AXES",
    "CONFIG_AXES",
    "TINY_POOL_BASE",
    "WhatIfSweep",
    "GeneratedWorkload",
    "CapturedWorkload",
    "CandidateOutcome",
    "SpotCheck",
    "WhatIfReport",
    "Recommendation",
    "derive_admission_slack",
    "MIXES",
]
