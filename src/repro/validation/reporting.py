"""Result containers and text rendering for the validation experiments.

Each experiment produces, per x-axis point, the simulator-measured and
model-predicted misses of every cache level plus elapsed time — the same
series the paper's figures plot (points = measured, lines = predicted).
The renderer emits aligned text tables; EXPERIMENTS.md is generated from
the same structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cost import CostEstimate
    from ..simulator.counters import CounterSnapshot

__all__ = ["ExperimentRow", "ExperimentResult", "geometric_mean_ratio"]


def size_label(size: int) -> str:
    """``size`` bytes as a sweep's x label: in MB or kB from one unit
    up, with every decimal it needs (1 536 B is ``1.5kB``, 2 048 B is
    ``2kB``), so two sizes never share a label — dividing by a power of
    two is exact, and a float's ``str`` tells it from every other."""
    for unit, scale in (("MB", 1 << 20), ("kB", 1 << 10)):
        if size >= scale:
            return f"{str(size / scale).removesuffix('.0')}{unit}"
    return f"{size}B"


@dataclass(frozen=True)
class ExperimentRow:
    """One x-axis point of an experiment."""

    x_label: str
    measured: dict[str, float]      # level name -> misses (plus "time_us")
    predicted: dict[str, float]

    @classmethod
    def from_comparison(cls, x_label: str, measured: "CounterSnapshot",
                        predicted: "CostEstimate") -> "ExperimentRow":
        """One x point from a simulator counter delta and a model
        estimate — the per-level miss dicts (plus ``time_us``) every
        figure experiment tabulates, derived in one place."""
        meas = {lvl.name: float(lvl.misses) for lvl in measured.levels}
        meas["time_us"] = measured.elapsed_ns / 1e3
        pred = {lc.name: lc.misses.total for lc in predicted.levels}
        pred["time_us"] = predicted.memory_ns / 1e3
        return cls(x_label=x_label, measured=meas, predicted=pred)

    def ratio(self, key: str) -> float:
        """predicted / measured (inf-safe)."""
        meas = self.measured.get(key, 0.0)
        pred = self.predicted.get(key, 0.0)
        if meas <= 0.0:
            return float("inf") if pred > 0 else 1.0
        return pred / meas

    def to_json(self) -> dict:
        return {"x": self.x_label, "measured": dict(self.measured),
                "predicted": dict(self.predicted)}


@dataclass
class ExperimentResult:
    """A complete experiment: id, title and the series of rows."""

    experiment_id: str
    title: str
    x_name: str
    rows: list[ExperimentRow] = field(default_factory=list)

    @property
    def level_keys(self) -> list[str]:
        keys: list[str] = []
        for row in self.rows:
            for key in row.measured:
                if key not in keys:
                    keys.append(key)
        return keys

    def render(self) -> str:
        """Aligned text table: one line per x point, measured/predicted
        pairs per level."""
        keys = self.level_keys
        header = [self.x_name.ljust(14)]
        for key in keys:
            header.append(f"{key} meas".rjust(12))
            header.append(f"{key} pred".rjust(12))
        lines = [f"== {self.experiment_id}: {self.title} ==",
                 "  ".join(header)]
        for row in self.rows:
            cells = [row.x_label.ljust(14)]
            for key in keys:
                cells.append(_fmt(row.measured.get(key)).rjust(12))
                cells.append(_fmt(row.predicted.get(key)).rjust(12))
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def band_errors(self, keys: "list[str] | None" = None,
                    skip_small: float = 16.0) -> dict[str, float]:
        """Worst predicted/measured band error per key (``inf``-safe
        ``|log2|`` form, as :meth:`max_ratio_error`), for every level
        key by default — the summary the bench JSON embeds."""
        out: dict[str, float] = {}
        for key in (keys if keys is not None else self.level_keys):
            out[key] = self.max_ratio_error(key, skip_small=skip_small)
        return out

    def to_json(self) -> dict:
        """The experiment as a JSON-serializable dict (the same
        serialization path query results use; see
        ``BENCH_*.json`` under ``benchmarks/results/``)."""
        return {
            "kind": "experiment",
            "experiment_id": self.experiment_id,
            "title": self.title,
            "x_name": self.x_name,
            "rows": [row.to_json() for row in self.rows],
            # strict JSON has no Infinity: degenerate bands become null
            "band_errors": {
                key: (None if error == float("inf") else error)
                for key, error in self.band_errors().items()
            },
        }

    def max_ratio_error(self, key: str, skip_small: float = 16.0) -> float:
        """Worst |log2(pred/meas)| over rows where the measurement is
        large enough to be meaningful (tiny absolute counts are noise)."""
        import math
        worst = 0.0
        for row in self.rows:
            if row.measured.get(key, 0.0) < skip_small:
                continue
            ratio = row.ratio(key)
            if ratio in (0.0, float("inf")):
                return float("inf")
            worst = max(worst, abs(math.log2(ratio)))
        return worst


def _fmt(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    if value >= 100:
        return f"{value:.0f}"
    return f"{value:.1f}"


def geometric_mean_ratio(rows: list[ExperimentRow], key: str,
                         skip_small: float = 16.0) -> float:
    """Geometric mean of predicted/measured over meaningful rows."""
    import math
    logs = []
    for row in rows:
        if row.measured.get(key, 0.0) < skip_small:
            continue
        ratio = row.ratio(key)
        if 0 < ratio < float("inf"):
            logs.append(math.log(ratio))
    if not logs:
        return 1.0
    return math.exp(sum(logs) / len(logs))
