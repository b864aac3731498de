"""Typed observability surface: explanations and measured results.

The paper's central deliverable is *per-formula* validation — every cost
function is judged by predicted-vs-measured curves, not whole-plan
totals.  This module gives the repro's public surface exactly that
granularity as machine-readable objects instead of opaque strings and
bare tuples:

* :class:`Explanation` — a tree mirroring the physical plan.  Per node:
  operator label, pattern notation, spill flag, and the per-cache-level
  seq/rand/time predictions, both *standalone* (the node's own pattern
  on a cold cache, which is what the classic ``explain`` text prints)
  and *attributed* (state-threaded in execution order, Eqs. 5.1/5.2 —
  what a measured materialized execution should match).
  :meth:`Explanation.to_text` reproduces the legacy ``explain`` string
  byte for byte; :meth:`Explanation.to_json` /
  :meth:`Explanation.from_json` round-trip losslessly.
* :class:`QueryResult` — the result column plus plan provenance
  (explanation, signature, plan-cache hit/miss) and wall/simulated time.
* :class:`MeasuredResult` — a :class:`QueryResult` that additionally
  carries the whole-plan counter delta and a per-operator measured
  attribution (:class:`OperatorMeasurement`), captured by scoping every
  :meth:`PlanNode.execute <repro.query.PlanNode.execute>` in simulator
  snapshot deltas — every query becomes a paper-style model-vs-measured
  experiment at operator granularity.  Per-operator *exclusive* deltas
  sum exactly to the whole-plan counters.

The module is deliberately independent of the optimizer: plans are
duck-typed (``root``/``walk``/``pattern``/``estimate``), signatures are
passed in by callers that know them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..core.cost import CostEstimate, CostModel
from ..db.column import Column
from ..db.context import Database
from ..simulator.counters import CounterSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .physical import QueryPlan

__all__ = [
    "LevelPrediction",
    "ExplanationNode",
    "Explanation",
    "OperatorMeasurement",
    "QueryResult",
    "MeasuredResult",
    "measure_plan",
    "capture_measured",
]


# ----------------------------------------------------------------------
# predictions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LevelPrediction:
    """Predicted sequential/random misses and time of one cache level."""

    name: str
    seq: float
    rand: float
    time_ns: float

    @property
    def total(self) -> float:
        """Total predicted misses (seq + rand)."""
        return self.seq + self.rand

    def to_json(self) -> dict:
        return {"name": self.name, "seq": self.seq, "rand": self.rand,
                "time_ns": self.time_ns}

    @classmethod
    def from_json(cls, data: dict) -> "LevelPrediction":
        return cls(name=data["name"], seq=data["seq"], rand=data["rand"],
                   time_ns=data["time_ns"])


def _levels_of(estimate: CostEstimate) -> tuple[LevelPrediction, ...]:
    return tuple(
        LevelPrediction(name=lc.name, seq=lc.misses.seq,
                        rand=lc.misses.rand, time_ns=lc.time_ns)
        for lc in estimate.levels
    )


@dataclass(frozen=True)
class ExplanationNode:
    """One operator of an explained plan.

    ``memory_ns``/``levels`` price the node's own pattern standalone on
    a cold cache — the numbers the classic ``explain`` text prints.
    ``attributed_memory_ns``/``attributed_levels`` price the same
    pattern with the cache state every *preceding* operator (in
    execution order) left behind, which is the prediction a measured
    cold materialized execution should match per operator.
    """

    operator: str
    pattern: str | None
    spill: bool
    output_n: int
    memory_ns: float
    levels: tuple[LevelPrediction, ...]
    attributed_memory_ns: float
    attributed_levels: tuple[LevelPrediction, ...]
    children: tuple["ExplanationNode", ...] = ()

    def nodes(self) -> Iterator["ExplanationNode"]:
        """All nodes of this subtree, post-order (execution order —
        aligned with :meth:`repro.query.PlanNode.walk`)."""
        for child in self.children:
            yield from child.nodes()
        yield self

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "pattern": self.pattern,
            "spill": self.spill,
            "output_n": self.output_n,
            "memory_ns": self.memory_ns,
            "levels": [lv.to_json() for lv in self.levels],
            "attributed_memory_ns": self.attributed_memory_ns,
            "attributed_levels": [lv.to_json()
                                  for lv in self.attributed_levels],
            "children": [child.to_json() for child in self.children],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExplanationNode":
        return cls(
            operator=data["operator"],
            pattern=data["pattern"],
            spill=data["spill"],
            output_n=data["output_n"],
            memory_ns=data["memory_ns"],
            levels=tuple(LevelPrediction.from_json(lv)
                         for lv in data["levels"]),
            attributed_memory_ns=data["attributed_memory_ns"],
            attributed_levels=tuple(LevelPrediction.from_json(lv)
                                    for lv in data["attributed_levels"]),
            children=tuple(cls.from_json(child)
                           for child in data["children"]),
        )


@dataclass(frozen=True)
class Explanation:
    """A physical plan's predicted cost breakdown, as a typed tree.

    ``levels``/``memory_ns`` are the pipeline-aware whole-plan totals
    (``⊙`` across pipelined edges, ``⊕`` across materialized ones);
    ``cpu_ns`` is the calibrated pure-CPU term (Eq. 6.1).
    ``cache_hit`` records the compile's plan-cache provenance when the
    explaining caller knows it (``None`` otherwise — e.g. a bare
    :meth:`QueryPlan.explain <repro.query.QueryPlan.explanation>`).
    """

    root: ExplanationNode
    memory_ns: float
    cpu_ns: float
    levels: tuple[LevelPrediction, ...]
    signature: str | None = None
    cache_hit: bool | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan: "QueryPlan", model: CostModel,
                  signature: str | None = None,
                  cache_hit: bool | None = None) -> "Explanation":
        """Explain ``plan`` under ``model``.

        Builds per-node standalone estimates (what the text rendering
        prints), per-node state-threaded attribution
        (:meth:`CostModel.sequential_estimates
        <repro.core.CostModel.sequential_estimates>` over the operators
        in execution order), and the pipeline-aware whole-plan totals.
        """
        # One attribution slot per *tree position* (walk may yield a
        # shared node instance once per position — it executes once per
        # position too), threaded in execution order.
        attributed = model.sequential_estimates(
            [node.pattern() for node in plan.root.walk()])
        position = iter(attributed)

        def build(node) -> ExplanationNode:
            # children first: build() assigns post-order positions,
            # matching walk() and the execution order exactly
            children = tuple(build(child) for child in node.children())
            own = node.pattern()
            if own is None:
                standalone = CostEstimate(levels=())
                notation = None
            else:
                standalone = model.estimate(own)
                notation = own.notation()
            threaded = next(position)
            return ExplanationNode(
                operator=node.label(),
                pattern=notation,
                spill=node.spills,
                output_n=node.output_region().n,
                memory_ns=standalone.memory_ns,
                levels=_levels_of(standalone),
                attributed_memory_ns=threaded.memory_ns,
                attributed_levels=_levels_of(threaded),
                children=children,
            )

        total = plan.estimate(model, cpu_ns=0.0)
        return cls(
            root=build(plan.root),
            memory_ns=total.memory_ns,
            cpu_ns=model.hierarchy.nanoseconds(plan.cpu_cycles()),
            levels=_levels_of(total),
            signature=signature,
            cache_hit=cache_hit,
        )

    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[ExplanationNode]:
        """All operator nodes, post-order (execution order)."""
        return self.root.nodes()

    def level(self, name: str) -> LevelPrediction:
        """The whole-plan prediction for the named cache level."""
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise KeyError(f"no level named {name!r}")

    @property
    def total_ns(self) -> float:
        """Predicted total time ``T = T_mem + T_cpu`` (Eq. 6.1)."""
        return self.memory_ns + self.cpu_ns

    # ------------------------------------------------------------------
    def to_text(self, notation_width: int = 48) -> str:
        """The classic ``explain`` rendering, byte-identical to the
        string API it replaces: per-operator standalone cost and
        (clipped) pattern notation post-order, ``[spill]`` markers, the
        pipeline-aware total broken down per cache level, and — when
        provenance is known — the plan-cache hit/miss line."""
        lines = ["plan (post-order):"]

        def clip(text: str) -> str:
            if len(text) <= notation_width:
                return text
            return text[: notation_width - 1] + "…"

        def visit(node: ExplanationNode, depth: int) -> None:
            for child in node.children:
                visit(child, depth + 1)
            notation = "—" if node.pattern is None else clip(node.pattern)
            marker = "[spill] " if node.spill else ""
            lines.append(f"  {'  ' * depth}{node.operator:<28}"
                         f"T_mem {node.memory_ns / 1e3:>10.1f} us   "
                         f"out n={node.output_n:<8} "
                         f"{marker}{notation}")

        visit(self.root, 0)
        lines.append(f"  {'total':<30}T_mem "
                     f"{self.memory_ns / 1e3:>10.1f} us")
        for lv in self.levels:
            lines.append(f"    {lv.name:<12} seq {lv.seq:>10.0f}  "
                         f"rand {lv.rand:>10.0f}  "
                         f"T {lv.time_ns / 1e3:>10.1f} us")
        if self.cache_hit is not None:
            lines.append(
                f"  plan cache: {'hit' if self.cache_hit else 'miss'}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """A JSON-serializable dict; :meth:`from_json` inverts it."""
        return {
            "kind": "explanation",
            "signature": self.signature,
            "cache_hit": self.cache_hit,
            "memory_ns": self.memory_ns,
            "cpu_ns": self.cpu_ns,
            "levels": [lv.to_json() for lv in self.levels],
            "root": self.root.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Explanation":
        if data.get("kind") != "explanation":
            raise ValueError(
                f"not an explanation payload: kind={data.get('kind')!r}")
        return cls(
            root=ExplanationNode.from_json(data["root"]),
            memory_ns=data["memory_ns"],
            cpu_ns=data["cpu_ns"],
            levels=tuple(LevelPrediction.from_json(lv)
                         for lv in data["levels"]),
            signature=data["signature"],
            cache_hit=data["cache_hit"],
        )


# ----------------------------------------------------------------------
# measurements
# ----------------------------------------------------------------------

def _counters_json(snapshot: CounterSnapshot) -> dict:
    return {
        "elapsed_ns": snapshot.elapsed_ns,
        "accesses": snapshot.accesses,
        "levels": snapshot.as_dict(),
    }


@dataclass(frozen=True)
class OperatorMeasurement:
    """One operator's measured counters next to its model prediction.

    ``counters`` is the operator's *exclusive* delta — its own accesses,
    children subtracted — so a plan's measurements sum to the whole-plan
    counters.  The prediction is the state-threaded attribution
    (:attr:`ExplanationNode.attributed_levels`), i.e. what this operator
    should cost given everything that ran before it.
    """

    operator: str
    spill: bool
    predicted_memory_ns: float
    predicted_levels: tuple[LevelPrediction, ...]
    counters: CounterSnapshot

    @property
    def measured_ns(self) -> float:
        """Measured memory-access time of this operator alone."""
        return self.counters.elapsed_ns

    def to_json(self) -> dict:
        return {
            "operator": self.operator,
            "spill": self.spill,
            "predicted_memory_ns": self.predicted_memory_ns,
            "predicted_levels": [lv.to_json()
                                 for lv in self.predicted_levels],
            "measured": _counters_json(self.counters),
        }


class QueryResult:
    """A query's result column plus its provenance and timing.

    Parameters
    ----------
    column:
        The result :class:`~repro.db.Column`.
    explanation:
        The chosen plan's :class:`Explanation` (carries the signature
        and the per-operator predictions).
    cache_hit:
        Whether the compile was served from the plan cache (``None``
        when unknown, e.g. constructed outside a session).
    wall_seconds:
        Real (Python-level) execution time.
    simulated_ns:
        Simulated memory-access time the execution added to the
        engine's clock.
    """

    def __init__(self, column: Column, explanation: Explanation,
                 cache_hit: bool | None, wall_seconds: float,
                 simulated_ns: float) -> None:
        self.column = column
        self.explanation = explanation
        self.cache_hit = cache_hit
        self.wall_seconds = wall_seconds
        self.simulated_ns = simulated_ns

    # ------------------------------------------------------------------
    @property
    def values(self) -> list:
        """The result values (result-column convenience)."""
        return self.column.values

    @property
    def signature(self) -> str | None:
        """The chosen plan's one-line shape."""
        return self.explanation.signature

    @property
    def predicted_ns(self) -> float:
        """The pipeline-aware predicted memory time of the plan."""
        return self.explanation.memory_ns

    def __len__(self) -> int:
        return len(self.column.values)

    def _json_values(self) -> list:
        return [list(v) if isinstance(v, tuple) else v
                for v in self.column.values]

    def to_json(self, include_values: bool = False) -> dict:
        """A JSON-serializable dict of the result: row count, timing,
        provenance, and the full explanation (the one serialization
        path results, benches, and reports share).  ``include_values``
        embeds the result values (join pairs become 2-lists)."""
        out = {
            "kind": "query_result",
            "rows": len(self.column.values),
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
            "simulated_ns": self.simulated_ns,
            "explanation": self.explanation.to_json(),
        }
        if include_values:
            out["values"] = self._json_values()
        return out

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.signature!r}, "
                f"rows={len(self.column.values)}, "
                f"simulated={self.simulated_ns / 1e3:.1f}us)")


class MeasuredResult(QueryResult):
    """A :class:`QueryResult` with measured counters attached.

    ``counters`` is the whole-plan delta; ``operators`` the per-operator
    exclusive attribution in execution (post-order) order.
    """

    def __init__(self, column: Column, explanation: Explanation,
                 cache_hit: bool | None, wall_seconds: float,
                 counters: CounterSnapshot,
                 operators: tuple[OperatorMeasurement, ...]) -> None:
        super().__init__(column, explanation, cache_hit, wall_seconds,
                         simulated_ns=counters.elapsed_ns)
        self.counters = counters
        self.operators = operators

    @property
    def measured_ns(self) -> float:
        """Measured whole-plan memory-access time."""
        return self.counters.elapsed_ns

    @property
    def error(self) -> float:
        """Relative error of the predicted memory time against the
        measurement (0 when nothing was measured)."""
        if self.measured_ns <= 0:
            return 0.0
        return abs(self.predicted_ns - self.measured_ns) / self.measured_ns

    def attribution_table(self) -> str:
        """A per-operator predicted-vs-measured text table (T_mem)."""
        lines = [f"{'operator':<44}{'pred us':>10}{'meas us':>10}"
                 f"{'error':>8}"]
        for op in self.operators:
            if op.predicted_memory_ns == 0.0 and op.measured_ns == 0.0:
                continue
            err = (abs(op.predicted_memory_ns - op.measured_ns)
                   / op.measured_ns if op.measured_ns > 0 else 0.0)
            marker = "[spill] " if op.spill else ""
            lines.append(f"{marker + op.operator:<44}"
                         f"{op.predicted_memory_ns / 1e3:>10.1f}"
                         f"{op.measured_ns / 1e3:>10.1f}"
                         f"{err * 100:>7.1f}%")
        lines.append(f"{'whole plan (pipeline-aware)':<44}"
                     f"{self.predicted_ns / 1e3:>10.1f}"
                     f"{self.measured_ns / 1e3:>10.1f}"
                     f"{self.error * 100:>7.1f}%")
        return "\n".join(lines)

    def to_json(self, include_values: bool = False) -> dict:
        out = super().to_json(include_values=include_values)
        out["kind"] = "measured_result"
        out["measured"] = _counters_json(self.counters)
        out["operators"] = [op.to_json() for op in self.operators]
        return out


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------

def _exclusive_deltas(records) -> list[tuple[object, CounterSnapshot]]:
    """Per-execution exclusive counter deltas, in post-order.

    ``records`` holds one ``(node, inclusive delta)`` pair per operator
    *execution*, appended at completion — which is exactly the order
    :meth:`PlanNode.walk <repro.query.PlanNode.walk>` yields tree
    positions, including a shared node instance executed once per
    position.  A stack reconstruction subtracts each execution's own
    children, so attribution never keys on object identity (a node
    reused across tree positions gets each execution attributed to its
    position, not last-write-wins)."""
    stack: list[tuple[object, CounterSnapshot]] = []
    out: list[tuple[object, CounterSnapshot]] = []
    for node, inclusive in records:
        children = node.children()
        exclusive = inclusive
        if children:
            tail = stack[-len(children):]
            if len(tail) != len(children) or any(
                    recorded is not child
                    for (recorded, _), child in zip(tail, children)):
                raise ValueError(
                    f"per-operator measurement incomplete under "
                    f"{node.label()}: a child execution did not report "
                    "to the operator probe (PlanNode subclasses must "
                    "implement _run(); execute() is the instrumented "
                    "wrapper)")
            for _, child_inclusive in tail:
                exclusive = exclusive - child_inclusive
            del stack[-len(children):]
        stack.append((node, inclusive))
        out.append((node, exclusive))
    if len(stack) != 1 and records:
        raise ValueError(
            "per-operator measurement incomplete: "
            f"{len(stack)} unconsumed operator records")
    return out


def capture_measured(db: Database, plan: "QueryPlan",
                     explanation: Explanation,
                     cold: bool = True) -> MeasuredResult:
    """Execute ``plan`` with whole-plan *and* per-operator measurement.

    Activates the database's operator probe so every
    :meth:`PlanNode.execute <repro.query.PlanNode.execute>` wraps its
    run in simulator snapshots, then pairs each operator's exclusive
    delta (children subtracted) with the matching node of
    ``explanation`` — which must have been built from the same plan.
    ``cold=True`` resets caches and counters first (the model's
    empty-initial-state setting, which the attributed predictions
    assume).
    """
    start = time.perf_counter()
    if cold:
        db.reset()
    with db.operator_measurement() as records:
        with db.measure() as result:
            column = plan.execute(db)
    return measured_result(column, explanation,
                           time.perf_counter() - start, result[0], records)


def measured_result(column: Column, explanation: Explanation,
                    wall_seconds: float, counters: CounterSnapshot,
                    records) -> MeasuredResult:
    """The :class:`MeasuredResult` of one measured execution: the
    whole-plan ``counters`` and, from the operator probe's ``(node,
    inclusive delta)`` ``records``, each operator's exclusive delta
    paired with the matching node of ``explanation`` (built from the
    same plan) — the assembly :func:`capture_measured` and the
    record-and-replay measured path
    (:func:`repro.service.executor.measure`) share."""
    exclusives = _exclusive_deltas(records)
    explained_nodes = list(explanation.nodes())
    if len(exclusives) != len(explained_nodes):
        raise ValueError(
            f"per-operator measurement incomplete: {len(exclusives)} "
            f"operator executions reported for {len(explained_nodes)} "
            "plan operators (PlanNode subclasses must implement _run(); "
            "execute() is the instrumented wrapper)")
    operators = []
    for (node, exclusive), explained in zip(exclusives, explained_nodes):
        operators.append(OperatorMeasurement(
            operator=explained.operator,
            spill=explained.spill,
            predicted_memory_ns=explained.attributed_memory_ns,
            predicted_levels=explained.attributed_levels,
            counters=exclusive,
        ))
    return MeasuredResult(
        column=column,
        explanation=explanation,
        cache_hit=explanation.cache_hit,
        wall_seconds=wall_seconds,
        counters=counters,
        operators=tuple(operators),
    )


def measure_plan(db: Database, plan: "QueryPlan", model: CostModel,
                 cold: bool = True, signature: str | None = None,
                 cache_hit: bool | None = None) -> MeasuredResult:
    """Explain and execute ``plan`` in one measured pass — the
    session-less entry point (benches, the workload service) to the
    same typed result the session façade returns."""
    explanation = Explanation.from_plan(plan, model, signature=signature,
                                        cache_hit=cache_hit)
    return capture_measured(db, plan, explanation, cold=cold)
