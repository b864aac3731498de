"""The enumerator's whole output, pinned: every candidate in rank order.

The explain goldens pin only the *chosen* plan.  This table pins what
the enumerator offered and how it priced each offer — one line per
candidate, ``repr(total_ns) repr(memory_ns) signature``, cheapest first
— plus the budget every spilling node of the best plan was built with.

Queries: the five explain-golden shapes (``method="auto"``), a
three-relation join under ``method="exhaustive"`` and ``method="dp"``,
and a positional-``key_of`` aggregate over a join (the canonical,
order-preserving plan).  Configurations: the scaled Origin2000 without
a budget and the disk-extended profile at 1024 / 1536 / 4096 bytes,
each with nested-loop joins off and on.

When a change to enumeration or pricing is *intentional*, regenerate
with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_enumeration_golden.py

and review the diff like any other code change.
"""

import functools
import json
import os
import pathlib

import pytest

from repro.hardware import disk_extended_scaled, origin2000_scaled
from repro.query import Aggregate, Optimizer, PlannerConfig
from test_explain_golden import QUERIES, make_session

TABLE = pathlib.Path(__file__).parent / "golden" / "enumeration.json"

#: profile name -> (machine, memory budget)
PROFILES = {
    "origin2000_scaled": (origin2000_scaled, None),
    "disk_1024": (disk_extended_scaled, 1024),
    "disk_1536": (disk_extended_scaled, 1536),
    "disk_4096": (disk_extended_scaled, 4096),
}

JOIN3 = "join(join(orders, customers), events)"


def _first_key_mod8(pair):
    return pair[0] % 8


#: query name -> enumeration method (``"auto"`` unless named here)
SHAPES = {**{name: "auto" for name in QUERIES},
          "join3_exhaustive": "exhaustive",
          "join3_dp": "dp",
          "keyed_aggregate_over_join": "auto"}


def _logical(session, shape):
    if shape == "keyed_aggregate_over_join":
        return Aggregate(session.as_logical("join(orders, customers)"),
                         groups=8, key_of=_first_key_mod8)
    return session.as_logical(QUERIES.get(shape, JOIN3))


CASES = [f"{profile}/{nlj}/{shape}"
         for profile in PROFILES
         for nlj in ("no_nlj", "nlj")
         for shape in SHAPES]


@functools.cache
def _session(machine):
    return make_session(machine())


def _case(name: str) -> dict:
    profile, nlj, shape = name.split("/")
    machine, budget = PROFILES[profile]
    session = _session(machine)
    optimizer = Optimizer(session.hierarchy, PlannerConfig(
        include_nested_loop=(nlj == "nlj"), memory_budget=budget))
    planned = optimizer.optimize(_logical(session, shape),
                                 method=SHAPES[shape])
    return {
        "candidates": [f"{c.total_ns!r} {c.memory_ns!r} {c.signature}"
                       for c in planned],
        "spilling": [f"{type(node).__name__} budget={node.memory_budget}"
                     for node in planned.plan.root.walk() if node.spills],
    }


def test_table_is_complete():
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        TABLE.parent.mkdir(exist_ok=True)
        TABLE.write_text(json.dumps({name: _case(name) for name in CASES},
                                    indent=1, sort_keys=True) + "\n")
    assert sorted(json.loads(TABLE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_enumeration_matches_golden(name):
    assert _case(name) == json.loads(TABLE.read_text())[name]


def test_spilling_nodes_carry_the_config_budget():
    """The table covers the spill path at every budget."""
    table = json.loads(TABLE.read_text())
    for profile, (_, budget) in PROFILES.items():
        spilling = [row for name, entry in table.items()
                    if name.startswith(profile + "/")
                    for row in entry["spilling"]]
        if budget is None:
            assert spilling == []
        else:
            assert spilling
            assert all(row.endswith(f"budget={budget}") for row in spilling)


class TestCacheKey:
    def test_equal_profile_and_config_share_a_key(self):
        session = _session(disk_extended_scaled)
        logical = session.as_logical(QUERIES["join_aggregate"])
        first = Optimizer(disk_extended_scaled(),
                          PlannerConfig(memory_budget=1536))
        second = Optimizer(disk_extended_scaled(),
                           PlannerConfig(memory_budget=1536))
        assert first.cache_key(logical) == second.cache_key(logical)

    def test_budgets_key_separately(self):
        session = _session(disk_extended_scaled)
        logical = session.as_logical(QUERIES["join_aggregate"])
        keys = {Optimizer(disk_extended_scaled(),
                          PlannerConfig(memory_budget=budget))
                .cache_key(logical)
                for budget in (None, 1024, 1536, 4096)}
        assert len(keys) == 4
