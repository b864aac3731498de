"""Golden ``explain`` snapshots for a fixed set of session queries.

The rendered plan — chosen operators, spill markers, per-node pattern
notation, per-level cost rows — is this repo's optimizer-facing user
interface.  These tests pin it byte-for-byte for representative
in-memory and spilling queries, so an optimizer ranking change, a
pattern-derivation change, or a rendering change fails loudly instead
of silently shifting plans.

When a change is *intentional*, regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_explain_golden.py

and review the golden diffs like any other code change.
"""

import difflib
import os
import pathlib

import pytest

from repro import Session
from repro.db import grouped_keys, random_permutation
from repro.hardware import disk_extended_scaled, origin2000_scaled

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
        return
    assert path.exists(), (
        f"golden file {path} missing — generate it with "
        "REPRO_UPDATE_GOLDEN=1")
    expected = path.read_text().rstrip("\n")
    if text != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), text.splitlines(),
            fromfile=f"golden/{name}.txt", tofile="rendered",
            lineterm=""))
        pytest.fail(f"explain output drifted from golden {name}:\n{diff}")


def make_session(hierarchy, memory_budget=None) -> Session:
    s = Session(hierarchy=hierarchy, memory_budget=memory_budget)
    s.create_table("orders", random_permutation(1024, seed=1))
    s.create_table("customers", random_permutation(1024, seed=2))
    s.create_table("events", grouped_keys(1024, groups=64, seed=3))
    s.predicate("even", lambda v: v % 2 == 0)
    return s


def rendered_plan(session: Session, query: str) -> str:
    plan = session.compile(query).plan
    return plan.explain(session.model)


QUERIES = {
    "select": "filter(orders, even, sel=0.5)",
    "sort": "sort(orders)",
    "join": "join(orders, customers)",
    "aggregate": "aggregate(events, groups=64)",
    "join_aggregate":
        "aggregate(join(filter(orders, even, sel=0.5), customers), "
        "groups=512)",
}


class TestInMemoryGolden:
    """Chosen plans on the scaled Origin2000 (no budget)."""

    @pytest.fixture(scope="class")
    def session(self):
        return make_session(origin2000_scaled())

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_explain_matches_golden(self, session, name):
        check_golden(f"mem_{name}", rendered_plan(session, QUERIES[name]))


class TestSpillingGolden:
    """Chosen plans on the disk-extended profile under a 1.5 KB
    working-memory budget — the spilling variants."""

    @pytest.fixture(scope="class")
    def session(self):
        return make_session(disk_extended_scaled(), memory_budget=1536)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_explain_matches_golden(self, session, name):
        check_golden(f"disk_{name}", rendered_plan(session, QUERIES[name]))

    def test_spilling_goldens_record_spill_decisions(self, session):
        """The snapshot set genuinely covers the spill path."""
        spilling = [name for name in QUERIES
                    if "[spill]" in rendered_plan(session, QUERIES[name])]
        assert "sort" in spilling
        assert "join_aggregate" in spilling
