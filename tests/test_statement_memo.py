"""A repeated query text compiles exactly as a fresh parse would.

``Session.as_logical(text)`` may serve a remembered parse of ``text``
instead of running the text frontend again.  That is sound only while
every name the parse resolved still resolves to the same thing: a table
name to the identical catalog column with an equal ``sorted`` flag, a
predicate/key name to the identical function.  The property drives two
identically seeded sessions (each with a spawned sibling over its shared
catalog) through one random sequence of compiles and rebinds.  One side
compiles the text itself, which may take the memo; the other compiles
``session.query(text)``, which parses afresh on every call.  After every
step both sides must report the same plan-cache provenance, the same
chosen plan and the same plan-cache counters, and a remembered tree must
have the canonical key a fresh parse gives.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro import Session  # noqa: E402
from repro.hardware import (  # noqa: E402
    disk_extended_scaled,
    origin2000_scaled,
    tiny_test_machine,
)
from repro.service import WorkloadGenerator  # noqa: E402
from repro.service.workload import KINDS  # noqa: E402

SCALE = 64
TABLES = ("orders", "customers", "parts", "events")
PREDICATES = ("even", "quarter", "rare")
MACHINES = (origin2000_scaled(), tiny_test_machine(), disk_extended_scaled())
ACTORS = ("main", "sibling")


def _texts() -> tuple[str, ...]:
    generator = WorkloadGenerator(Session(), seed=0, scale=SCALE)
    return tuple(text for kind in KINDS
                 for text in generator._templates(kind))


TEXTS = _texts()


class Side:
    """One session and its spawned sibling, plus the ``sorted`` flag of
    every table (siblings share the flags, as they share the catalog
    and the predicate registry, so either one's flip is both's)."""

    def __init__(self, memo: bool) -> None:
        self.memo = memo
        main = Session(origin2000_scaled())
        WorkloadGenerator(main, seed=3, scale=SCALE)
        self.sessions = {"main": main, "sibling": main.spawn()}
        self.flags = dict.fromkeys(TABLES, False)

    def compile(self, actor: str, text: str):
        session = self.sessions[actor]
        if self.memo:
            planned = session.compile(text)
        else:
            planned = session.compile(session.query(text))
        return planned.best.signature

    def check_keys(self, texts) -> None:
        """A remembered tree has the canonical key of a fresh parse
        (reading it does not touch the plan cache)."""
        for session in self.sessions.values():
            for text in texts:
                assert (session.as_logical(text).canonical_key()
                        == session.query(text).logical().canonical_key())

    def rebind(self, actor: str, table: str) -> None:
        """Register a new column with the same values under ``table``
        in the catalog every sibling shares."""
        session = self.sessions[actor]
        values = list(session.db.column(table).values)
        session.create_table(table, values, sorted=self.flags[table])

    def flip(self, actor: str, table: str) -> None:
        """Re-register the same column with the other ``sorted`` flag."""
        session = self.sessions[actor]
        flag = self.flags[table] = not self.flags[table]
        session.register_table(session.db.column(table), table, sorted=flag)

    def rebind_predicate(self, actor: str, name: str) -> None:
        """A new function object with the same behaviour."""
        modulus = {"even": 2, "quarter": 4, "rare": 16}[name]
        self.sessions[actor].predicate(
            name, lambda v, m=modulus: v % m == 0)

    def set_hierarchy(self, machine: int) -> None:
        self.sessions["main"].set_hierarchy(MACHINES[machine])

    def observed(self) -> tuple:
        return tuple((s.last_compile_cached, s.compile_hits,
                      s.compile_misses) for s in self.sessions.values()
                     ) + (self.sessions["main"].plan_cache.stats(),)


@st.composite
def programs(draw):
    """A random interleaving of compiles and rebinds.  The compiles
    draw from a pool of one to three templates, so a text is compiled
    again after a rebind often enough to meet every kind of rebind."""
    pool = draw(st.lists(st.sampled_from(TEXTS), min_size=1, max_size=3,
                         unique=True))
    actors = st.sampled_from(ACTORS)
    compiles = st.tuples(st.just("compile"), actors, st.sampled_from(pool))
    step = st.one_of(
        compiles, compiles, compiles,
        st.tuples(st.just("rebind"), actors, st.sampled_from(TABLES)),
        st.tuples(st.just("flip"), actors, st.sampled_from(TABLES)),
        st.tuples(st.just("rebind_predicate"), actors,
                  st.sampled_from(PREDICATES)),
        st.tuples(st.just("set_hierarchy"),
                  st.integers(0, len(MACHINES) - 1)),
    )
    return pool, draw(st.lists(step, min_size=1, max_size=24))


@given(programs())
def test_memoized_text_compiles_as_a_fresh_parse(program):
    pool, steps = program
    memo, fresh = Side(memo=True), Side(memo=False)
    for step in steps:
        op, *args = step
        if op == "compile":
            assert memo.compile(*args) == fresh.compile(*args), step
        else:
            getattr(memo, op)(*args)
            getattr(fresh, op)(*args)
        assert memo.observed() == fresh.observed(), step
        memo.check_keys(pool)


@pytest.mark.parametrize("op, actor, name, compiler", [
    ("rebind", "main", "orders", "main"),
    ("rebind", "sibling", "orders", "main"),
    ("rebind", "main", "customers", "sibling"),
    ("flip", "main", "orders", "main"),
    ("rebind_predicate", "main", "even", "main"),
])
def test_a_rebound_name_is_parsed_again(op, actor, name, compiler):
    """Each rebind the hit rule checks, by this session or through the
    catalog a sibling shares, turns the next compile of a remembered
    text into a plan-cache miss under the new binding."""
    text = TEXTS[-2]  # orders, customers and even
    side = Side(memo=True)
    session = side.sessions[compiler]
    session.compile(text)
    session.compile(text)
    assert session.last_compile_cached
    getattr(side, op)(actor, name)
    session.compile(text)
    assert not session.last_compile_cached
    side.check_keys([text])


def test_the_statement_memo_counts_hits_and_misses():
    """A text compiled twice is parsed once (the compile's second look
    at the memo, for the tree key, is not counted); after a rebind the
    stale entry counts as a hit and its parse as a miss."""
    text = TEXTS[-2]  # orders, customers and even
    side = Side(memo=True)
    session = side.sessions["main"]
    memo = session._statements
    session.compile(text)
    session.compile(text)
    assert (memo.hits, memo.misses, memo.evictions, len(memo)) == (1, 1, 0, 1)
    side.rebind("main", "orders")
    session.compile(text)
    assert (memo.hits, memo.misses, len(memo)) == (2, 2, 1)
