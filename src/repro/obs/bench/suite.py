"""Declarative scaling-experiment suites for ``repro bench``.

A :class:`Suite` is a named tuple of :class:`Experiment` declarations; each
experiment names a runner ``kind`` (registered in
:mod:`repro.obs.bench.runner`), its parameters, and the per-metric
:class:`Threshold` rules the regression gate (``repro bench --check``)
enforces against the committed trajectory.

Threshold philosophy: deterministic metrics (row checksums, cell counts,
serial cache hit-rates) are gated tightly or exactly — any drift there is a
semantic change, not noise; wall-clock metrics carry generous ratios
(2–3x) so the gate catches the "algorithm went quadratic" class of
regression without flaking on CI runner variance.  A threshold with neither
``ratio`` nor ``delta`` is informational: the metric is tracked and
reported but never fails the gate (worker-scaling speedup is the canonical
example — spawn overhead dominates at smoke scale).

This module reads no clocks: declarations are pure data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["Threshold", "Experiment", "Suite", "SUITES", "suite_named"]


@dataclass(frozen=True)
class Threshold:
    """A per-metric regression rule.

    ``direction`` says which way is bad: ``"higher-is-worse"`` (wall time),
    ``"lower-is-worse"`` (hit-rates, speedups), or ``"exact"`` (checksums —
    any change at all trips the gate).  For the directional kinds, the
    allowed worsening is ``max(ratio * |baseline|, delta)`` over the
    baseline value; with both ``None`` the metric is informational only.
    """

    metric: str
    direction: str = "higher-is-worse"
    ratio: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.direction not in ("higher-is-worse", "lower-is-worse", "exact"):
            raise ValueError(f"unknown threshold direction: {self.direction!r}")

    @property
    def informational(self) -> bool:
        return self.direction != "exact" and self.ratio is None and self.delta is None

    def judge(self, baseline, current) -> Optional[str]:
        """``None`` when ``current`` passes against ``baseline``, else the
        human-readable reason it does not."""
        if self.direction == "exact":
            if current != baseline:
                return f"changed from {baseline!r} to {current!r} (exact metric)"
            return None
        if self.informational:
            return None
        if not isinstance(baseline, (int, float)) or not isinstance(current, (int, float)):
            return (
                f"not comparable: baseline {baseline!r} vs current {current!r}"
                if current != baseline
                else None
            )
        worsening = (
            current - baseline
            if self.direction == "higher-is-worse"
            else baseline - current
        )
        allowed = 0.0
        if self.ratio is not None:
            allowed = max(allowed, self.ratio * abs(baseline))
        if self.delta is not None:
            allowed = max(allowed, self.delta)
        if worsening > allowed:
            return (
                f"worsened by {worsening:.4g} "
                f"({baseline!r} -> {current!r}, allowed {allowed:.4g})"
            )
        return None


@dataclass(frozen=True)
class Experiment:
    """One scaling experiment: a runner kind, its params, its gates."""

    name: str
    kind: str
    title: str
    params: Mapping = field(default_factory=dict)
    thresholds: Tuple[Threshold, ...] = ()

    def threshold_for(self, metric: str) -> Optional[Threshold]:
        for threshold in self.thresholds:
            if threshold.metric == metric:
                return threshold
        return None


@dataclass(frozen=True)
class Suite:
    """A named, ordered collection of experiments."""

    name: str
    experiments: Tuple[Experiment, ...]

    def experiment_named(self, name: str) -> Optional[Experiment]:
        for experiment in self.experiments:
            if experiment.name == name:
                return experiment
        return None


def _delta_scaling(name: str, deltas: Tuple[int, ...]) -> Experiment:
    return Experiment(
        name=name,
        kind="delta-scaling",
        title=f"E1 sweep wall time vs Δ ∈ {{{', '.join(map(str, deltas))}}}",
        params={"algorithms": ("greedy", "proposal"), "deltas": deltas},
        thresholds=(
            Threshold("wall_s", "higher-is-worse", ratio=2.0),
            Threshold("rows_sha256", "exact"),
            Threshold("cells", "exact"),
            Threshold("refuted", "exact"),
            Threshold("cache_hit_rate", "lower-is-worse", delta=0.02),
            Threshold("rows_per_s", "lower-is-worse"),  # informational
        ),
    )


def _worker_scaling(name: str, deltas: Tuple[int, ...], workers: Tuple[int, ...]) -> Experiment:
    return Experiment(
        name=name,
        kind="worker-scaling",
        title=f"engine.pool scaling over workers ∈ {{{', '.join(map(str, workers))}}}",
        params={"deltas": deltas, "workers": workers},
        thresholds=(
            Threshold("rows_match", "exact"),
            Threshold("wall_s_serial", "higher-is-worse", ratio=2.0),
            # parallel wall time is spawn-dominated at smoke scale: track,
            # gate only against a 3x blowup
            Threshold(f"wall_s_w{max(workers)}", "higher-is-worse", ratio=3.0),
            Threshold("speedup", "lower-is-worse"),  # informational
        ),
    )


def _canonical_microbench(name: str, nodes: int, seeds: Tuple[int, ...]) -> Experiment:
    return Experiment(
        name=name,
        kind="canonical-microbench",
        title=f"SoA canonicaliser over {len(seeds)} loopy trees of {nodes} nodes",
        params={"nodes": nodes, "loops": 2, "seeds": seeds},
        thresholds=(
            Threshold("wall_s", "higher-is-worse", ratio=2.0),
            Threshold("forms_sha256", "exact"),
            Threshold("forms", "exact"),
            # a warm repeat must resolve every root from the shape-plan
            # cache — losing that is losing the plan cache itself
            Threshold("warm_plan_hit_rate", "lower-is-worse", delta=0.02),
            Threshold("forms_per_s", "lower-is-worse"),  # informational
        ),
    )


#: the declared suites; ``smoke`` is the CI gate, ``full`` the E1-scale run
SUITES: Dict[str, Suite] = {
    "smoke": Suite(
        name="smoke",
        experiments=(
            _delta_scaling("sweep.delta_scaling", deltas=(3, 4, 5)),
            _worker_scaling("sweep.worker_scaling", deltas=(3, 4, 5), workers=(0, 2)),
            _canonical_microbench(
                "canonical.microbench", nodes=24, seeds=(0, 1, 2, 3, 4, 5, 6, 7)
            ),
        ),
    ),
    "full": Suite(
        name="full",
        experiments=(
            _delta_scaling("sweep.delta_scaling", deltas=(3, 4, 5, 6, 7, 8)),
            _worker_scaling(
                "sweep.worker_scaling", deltas=(3, 4, 5, 6, 7, 8), workers=(0, 2, 4)
            ),
            _canonical_microbench(
                "canonical.microbench", nodes=48, seeds=tuple(range(16))
            ),
        ),
    ),
}


def suite_named(name: str) -> Suite:
    """Look a suite up by name; raises ``ValueError`` naming the options."""
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; declared suites: {', '.join(sorted(SUITES))}"
        ) from None
