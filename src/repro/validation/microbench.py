"""Figure 5 and Figure 6: micro-validation of the traversal formulas.

Figure 5 measures the impact of the used-bytes parameter ``u`` and of
item alignment on the misses of single sequential and random traversals;
Figure 6 the impact of item width ``R.w`` and region size ``||R||``.
The "measured" side issues raw traversal traces into the simulator; the
"predicted" side evaluates Eqs. 4.2-4.5.  All sizes are expressed on the
scaled Origin2000 profile (:func:`~repro.hardware.origin2000_scaled` says
why scaling keeps the paper's crossovers).
"""

from __future__ import annotations

import random

from ..core.cost import CostModel
from ..core.patterns import RTrav, STrav
from ..core.regions import DataRegion
from ..hardware.hierarchy import MemoryHierarchy
from ..hardware.profiles import origin2000_scaled
from ..simulator.memory import MemorySystem
from .reporting import ExperimentResult, ExperimentRow, size_label

__all__ = [
    "measure_traversal",
    "figure5",
    "figure6",
]


def measure_traversal(hierarchy: MemoryHierarchy, n: int, w: int, u: int,
                      align: int = 0, randomized: bool = False,
                      seed: int = 7) -> dict[str, float]:
    """Run one (sequential or random) traversal trace; return per-level
    misses and elapsed time.

    ``align`` shifts the region start within a cache line (the paper's
    Figure 4/5 alignment experiments); ``-1`` aligns the first item to
    the last byte of a line.
    """
    mem = MemorySystem(hierarchy)
    line = hierarchy.levels[0].line_size
    if align == -1:
        offset = line - 1
    elif align < 0:
        raise ValueError("align must be >= 0 (or -1 for end-of-line)")
    else:
        offset = align
    base = (1 << 20) + offset
    indices = range(n)
    if randomized:
        order = list(indices)
        random.Random(seed).shuffle(order)
        indices = order
    for i in indices:
        mem.access(base + i * w, u)
    snap = mem.snapshot()
    out = {lvl.name: float(lvl.misses) for lvl in snap.levels}
    out["time_us"] = snap.elapsed_ns / 1e3
    return out


def _predict_traversal(hierarchy: MemoryHierarchy, n: int, w: int, u: int,
                       randomized: bool) -> dict[str, float]:
    region = DataRegion("R", n=n, w=w)
    misses = CostModel(hierarchy).misses(
        (RTrav if randomized else STrav)(region, u))
    out: dict[str, float] = {}
    time_ns = 0.0
    for level in hierarchy.all_levels:
        count = misses[level.name].total
        if randomized:
            time_ns += count * level.rand_miss_latency_ns
        else:
            # The s_trav+ variant (EDO sequential latency) applies only
            # while misses hit successive lines, i.e. while the
            # untouched gap is below the line size; a line-skipping
            # stride behaves as s_trav- (Section 4.1).
            if region.w - u < level.line_size:
                time_ns += count * level.seq_miss_latency_ns
            else:
                time_ns += count * level.rand_miss_latency_ns
        out[level.name] = count
    out["time_us"] = time_ns / 1e3
    return out


def figure5(hierarchy: MemoryHierarchy | None = None,
            n: int = 1024, w: int = 256,
            u_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
            randomized: bool = False) -> ExperimentResult:
    """Misses vs bytes-used ``u`` under three alignments (Figure 5).

    For each ``u``: measured misses at alignment 0 (best case), at
    alignment -1 (worst case; last byte of an L1 line), and averaged
    over *every* alignment within the largest data-cache line — the
    paper averages over all possible alignments, and the Eq. 4.3
    alignment term is exactly that average.
    """
    hierarchy = hierarchy or origin2000_scaled()
    line = hierarchy.levels[0].line_size
    result = ExperimentResult(
        experiment_id="F5" + ("r" if randomized else "s"),
        title=("Impact of u and alignment on "
               + ("r_trav" if randomized else "s_trav")
               + f" misses (R.n={n}, R.w={w})"),
        x_name="u [bytes]",
    )
    largest_line = max(lvl.line_size for lvl in hierarchy.levels)
    sample_aligns = tuple(range(largest_line))
    for u in u_values:
        if u > w:
            continue
        aligned = measure_traversal(hierarchy, n, w, u, align=0,
                                    randomized=randomized)
        worst = measure_traversal(hierarchy, n, w, u, align=-1,
                                  randomized=randomized)
        averages: dict[str, float] = {}
        for a in sample_aligns:
            sample = measure_traversal(hierarchy, n, w, u, align=a,
                                       randomized=randomized)
            for key, value in sample.items():
                averages[key] = averages.get(key, 0.0) + value / len(sample_aligns)
        predicted = _predict_traversal(hierarchy, n, w, u, randomized)
        measured = {
            "L1 avg": averages["L1"],
            "L1 align0": aligned["L1"],
            "L1 align-1": worst["L1"],
            "L2 avg": averages["L2"],
            "time_us": averages["time_us"],
        }
        pred = {
            "L1 avg": predicted["L1"],
            "L1 align0": predicted["L1"],
            "L1 align-1": predicted["L1"],
            "L2 avg": predicted["L2"],
            "time_us": predicted["time_us"],
        }
        result.rows.append(ExperimentRow(
            x_label=str(u), measured=measured, predicted=pred,
        ))
    return result


def figure6(hierarchy: MemoryHierarchy | None = None,
            level: str = "L1",
            sizes: tuple[int, ...] | None = None,
            widths: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256),
            randomized: bool = False) -> ExperimentResult:
    """Misses vs item width for several region sizes (Figure 6).

    Paper panels: (a) ``s_trav`` L1, (b) ``s_trav`` L2, (c) ``r_trav``
    L1, (d) ``r_trav`` L2 — select with ``level`` and ``randomized``.
    Region sizes default to a bracket around the chosen level's capacity
    (the paper uses 16-64 KB around C1 and 2-16 MB around C2).
    """
    hierarchy = hierarchy or origin2000_scaled()
    cap = hierarchy.level(level).capacity
    if sizes is None:
        sizes = (cap // 2, (3 * cap) // 4, cap, (3 * cap) // 2, 2 * cap)
    result = ExperimentResult(
        experiment_id="F6" + ("r" if randomized else "s") + level,
        title=(f"Impact of R.w and ||R|| on {level} misses of "
               + ("r_trav" if randomized else "s_trav")),
        x_name="R.w [bytes]",
    )
    for w in widths:
        measured: dict[str, float] = {}
        predicted: dict[str, float] = {}
        for size in sizes:
            n = max(1, size // w)
            meas = measure_traversal(hierarchy, n, w, u=w,
                                     randomized=randomized)
            pred = _predict_traversal(hierarchy, n, w, u=w,
                                      randomized=randomized)
            key = size_label(size)
            measured[key] = meas[level]
            predicted[key] = pred[level]
        result.rows.append(ExperimentRow(
            x_label=str(w), measured=measured, predicted=predicted,
        ))
    return result
