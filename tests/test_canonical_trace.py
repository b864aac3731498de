"""The canonical trace of each basic pattern
(:func:`repro.simulator.canonical_trace`): held to the pattern's
longhand definition, its replay held to an access loop to the bit, and
the forms it refuses pinned."""

import random

import pytest

from repro.core import (BI, RANDOM, SEQUENTIAL, UNI, DataRegion, Nest,
                        QuickSort, RAcc, RRTrav, RSTrav, RTrav, STrav)
from repro.hardware import origin2000_scaled, tiny_test_machine
from repro.simulator import MemorySystem, canonical_trace
from repro.simulator.memory import Segment

BASE = 4096 + 5  # on no stock machine's line boundary
R = DataRegion("R", n=48, w=12)


def shuffled_rounds(rng, r):
    """``r`` rounds, each a shuffle of the previous round's order."""
    order, rounds = list(range(R.n)), []
    for _ in range(r):
        rng.shuffle(order)
        rounds += order
    return rounds


def cursors(rng, m):
    """``m`` sequential cursors, one picked at random per step."""
    sub, fills, order = R.n // m, [0] * m, []
    for _ in range(R.n):
        j = rng.choice([j for j in range(m) if fills[j] < sub])
        order.append(j * sub + fills[j])
        fills[j] += 1
    return order


#: Every supported form, with its item order written out for an rng.
LONGHAND = [
    (STrav(R), lambda rng: range(R.n)),
    (RTrav(R, u=1), lambda rng: shuffled_rounds(rng, 1)),
    (RSTrav(R, r=3, direction=UNI), lambda rng: [*range(R.n)] * 3),
    (RSTrav(R, r=3, direction=BI, u=7),
     lambda rng: [*range(R.n), *range(R.n - 1, -1, -1), *range(R.n)]),
    (RRTrav(R, r=3), lambda rng: shuffled_rounds(rng, 3)),
    (RAcc(R, r=100, u=3),
     lambda rng: [rng.randrange(R.n) for _ in range(100)]),
    (Nest(R, m=4, local="s_trav", order=RANDOM),
     lambda rng: cursors(rng, 4)),
    (Nest(R, m=16, local="s_trav", order=RANDOM, u=2),
     lambda rng: cursors(rng, 16)),
]
PATTERNS = [pattern for pattern, _ in LONGHAND]


@pytest.mark.parametrize("pattern, order", LONGHAND,
                         ids=[repr(pattern) for pattern in PATTERNS])
@pytest.mark.parametrize("seed", [1, 7])
def test_the_entries_are_the_longhand_definition(pattern, order, seed):
    expected = [(BASE + i * R.w, pattern.used_bytes)
                for i in order(random.Random(seed))]
    assert canonical_trace(pattern, BASE, seed).entries() == expected


@pytest.mark.parametrize("machine", [tiny_test_machine, origin2000_scaled])
@pytest.mark.parametrize("pattern", PATTERNS, ids=repr)
def test_the_replay_is_the_access_loop_to_the_bit(machine, pattern):
    trace = canonical_trace(pattern, BASE, seed=5)
    looped, replayed = MemorySystem(machine()), MemorySystem(machine())
    for addr, nbytes in trace.entries():
        looped.access(addr, nbytes)
    replayed.replay(Segment(trace))
    assert replayed.snapshot() == looped.snapshot()  # elapsed_ns included


def test_one_round_of_rrtrav_is_rtrav():
    for seed in (0, 3):
        assert (canonical_trace(RRTrav(R, r=1), BASE, seed).entries()
                == canonical_trace(RTrav(R), BASE, seed).entries())


@pytest.mark.parametrize("pattern", [
    QuickSort(DataRegion("Q", n=64, w=8)),
    STrav(R) + RTrav(R),
    STrav(R) * RAcc(R, r=4),
    Nest(R, m=4, local="r_trav", order=RANDOM),
    Nest(R, m=4, local="r_acc", order=RANDOM, r=10),
    Nest(R, m=4, local="s_trav", order=SEQUENTIAL),
    Nest(R, m=5, local="s_trav", order=RANDOM),  # 5 does not divide 48
], ids=["quick_sort", "seq", "conc", "nest_r_trav", "nest_r_acc",
        "nest_seq_order", "nest_m_not_dividing_n"])
def test_an_unsupported_form_raises_naming_it(pattern):
    with pytest.raises(ValueError, match="no canonical trace for") as err:
        canonical_trace(pattern, BASE)
    assert repr(pattern) in str(err.value)
