"""Ablation: footprint-proportional cache sharing (Eq. 5.3).

The ⊙ cache-division rule (PAPER.md, "Pattern algebra") is a design
choice.  The cleanest stress for it: two concurrent random-access
patterns whose regions each *almost* fit the cache alone but cannot fit
together.  A no-sharing model (each part evaluated with the full cache)
predicts compulsory misses only; the Eq. 5.3 rule halves each part's
cache and predicts the thrashing the simulator actually measures.
"""

import random

from repro.core import Conc, CostModel, DataRegion, RAcc
from repro.hardware import origin2000_scaled
from repro.simulator import MemorySystem


def _interleaved_random_accesses(hierarchy, region_bytes: int, w: int,
                                 hits_each: int, seed: int = 17):
    """Alternate random hits between two disjoint regions."""
    mem = MemorySystem(hierarchy)
    n = region_bytes // w
    base_a = 1 << 20
    base_b = base_a + region_bytes + (1 << 16)
    rng = random.Random(seed)
    for _ in range(hits_each):
        mem.access(base_a + rng.randrange(n) * w, w)
        mem.access(base_b + rng.randrange(n) * w, w)
    return mem.cache("L2").misses


def test_ablation_cache_sharing(benchmark, save_result):
    hierarchy = origin2000_scaled()
    model = CostModel(hierarchy)
    l2 = hierarchy.level("L2")
    region_bytes = int(l2.capacity * 0.75)   # each fits alone, not together
    w, hits = 16, 20_000

    def run():
        measured = _interleaved_random_accesses(hierarchy, region_bytes, w, hits)
        A = DataRegion("A", n=region_bytes // w, w=w)
        B = DataRegion("B", n=region_bytes // w, w=w)
        pattern = Conc.of(RAcc(A, r=hits), RAcc(B, r=hits))
        shared = model.level_misses(pattern, l2).total
        unshared = sum(
            model.level_misses(RAcc(r, r=hits), l2).total for r in (A, B)
        )
        return measured, shared, unshared

    measured, shared, unshared = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("ablation_sharing", "\n".join([
        "== Ablation: Eq. 5.3 footprint cache sharing "
        "(2 concurrent r_acc over 0.75*C2 each, L2) ==",
        f"simulator measured:        {measured:10.0f} misses",
        f"model with sharing:        {shared:10.0f} misses",
        f"model without sharing:     {unshared:10.0f} misses",
    ]))
    # Without sharing both regions "fit": compulsory misses only, a
    # massive under-prediction.  The sharing rule must land far closer.
    assert unshared < 0.3 * measured
    assert abs(shared - measured) < abs(unshared - measured)