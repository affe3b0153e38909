"""Orchestration: gate -> hypothesis refinement -> selection -> final mask.

Each ablation row is one entry of :data:`MODE_TABLE`, and :func:`run_case`
takes one path for all of them.  A gated mode returns the baseline
binarization untouched for an unflagged case; otherwise the mode's
hypotheses are refined, and the texture selector picks between them when
both ran.  ``no_gatekeeper`` still records the gate verdict, and
``no_edge_map`` gives the diffuse loss g identically 1.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import losses, optim
from .gatekeeper import GateThresholds, GateVerdict, gate
from .selector import SelectionResult, SelectorConfig, select
from .volume import Case, Mask, Volume, sigmoid, threshold


class Mode(NamedTuple):
    """One ablation row: what :func:`run_case` does to a case in that mode."""

    gated: bool                      # unflagged cases keep the baseline mask
    hypotheses: tuple[str, ...]      # refined otherwise, in this order
    edge_map: bool                   # diffuse sees the image edge map, not g == 1


MODE_TABLE = {
    "full": Mode(gated=True, hypotheses=("compact", "diffuse"), edge_map=True),
    "no_gatekeeper": Mode(gated=False, hypotheses=("compact", "diffuse"), edge_map=True),
    "no_edge_map": Mode(gated=True, hypotheses=("compact", "diffuse"), edge_map=False),
    "only_compact": Mode(gated=True, hypotheses=("compact",), edge_map=True),
    "only_diffuse": Mode(gated=True, hypotheses=("diffuse",), edge_map=True),
}
MODES = tuple(MODE_TABLE)


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "full"
    gate: GateThresholds = field(default_factory=GateThresholds)
    compact: losses.CompactWeights = field(default_factory=losses.CompactWeights)
    diffuse: losses.DiffuseWeights = field(default_factory=losses.DiffuseWeights)
    protocol: optim.OptimizerProtocol = field(default_factory=optim.OptimizerProtocol)
    selector: SelectorConfig = field(default_factory=SelectorConfig)
    edge: losses.EdgeMapConfig = field(default_factory=losses.EdgeMapConfig)
    parallel_hypotheses: bool = True  # run the two refinements concurrently

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


class CaseFailure(optim.NumericalFailure):
    """A refinement in :func:`run_case` failed numerically; carries the gate
    verdict computed before it, for the cohort's error report."""

    def __init__(self, message: str, verdict: GateVerdict):
        super().__init__(message)
        self.verdict = verdict


@dataclass(frozen=True)
class TraceSummary:
    initial_loss: float
    final_loss: float
    steps: int

    @classmethod
    def of(cls, trace: optim.RefinementTrace) -> "TraceSummary":
        return cls(trace.initial_loss, trace.final_loss, trace.steps)


@dataclass
class RunReport:
    """Complete decision trace for one case."""

    case_id: str
    mode: str
    gate: GateVerdict
    mask_source: str                      # baseline | compact | diffuse
    final_mask: Mask | None
    compact_trace: TraceSummary | None = None
    diffuse_trace: TraceSummary | None = None
    selection: SelectionResult | None = None
    timings_s: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    config: PipelineConfig | None = None


def run_case(case: Case, cfg: PipelineConfig = PipelineConfig()) -> RunReport:
    """Apply the decision pipeline to one case: gate, refine the hypotheses
    the mode's row of :data:`MODE_TABLE` names (none when the gate applies and
    does not flag the case), and select when both ran."""
    row = MODE_TABLE[cfg.mode]
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    p0 = sigmoid(case.logits0)
    verdict = gate(p0, cfg.gate)
    timings["gate_s"] = time.perf_counter() - t0

    def refine(hypothesis: str) -> optim.RefinementTrace:
        t1 = time.perf_counter()
        if hypothesis == "compact":
            kwargs = dict(weights=cfg.compact)
        else:
            g_override = None if row.edge_map else Volume(np.ones(case.dims), case.spacing)
            kwargs = dict(weights=cfg.diffuse, edge_cfg=cfg.edge, g_override=g_override)
        try:
            trace = optim.refine(case, hypothesis, protocol=cfg.protocol, **kwargs)
        except optim.NumericalFailure as exc:
            raise CaseFailure(f"case {case.case_id!r}, hypothesis {hypothesis}: {exc}",
                              verdict) from exc
        timings[f"{hypothesis}_s"] = time.perf_counter() - t1
        return trace

    hypotheses = row.hypotheses if verdict.flagged or not row.gated else ()
    # the refinements share only immutable inputs, so one worker or two give
    # identical traces
    with ThreadPoolExecutor(max_workers=2 if cfg.parallel_hypotheses else 1) as pool:
        traces = dict(zip(hypotheses, pool.map(refine, hypotheses)))

    source, selection = next(iter(traces), "baseline"), None
    if len(traces) == 2:
        t1 = time.perf_counter()
        selection = select(case, traces["compact"].final_z, traces["diffuse"].final_z, cfg.selector)
        timings["select_s"] = time.perf_counter() - t1
        source = selection.chosen
    final_p = sigmoid(traces[source].final_z) if traces else p0
    summaries = {h: TraceSummary.of(t) for h, t in traces.items()}

    timings["total_s"] = time.perf_counter() - t0
    return RunReport(
        case_id=case.case_id,
        mode=cfg.mode,
        gate=verdict,
        mask_source=source,
        final_mask=threshold(final_p, 0.5),
        compact_trace=summaries.get("compact"),
        diffuse_trace=summaries.get("diffuse"),
        selection=selection,
        timings_s=timings,
        config=cfg,
    )


def run_cohort(
    cases: Sequence[Case],
    cfg: PipelineConfig = PipelineConfig(),
    workers: int = 1,
) -> list[RunReport]:
    """Order-preserving run over a cohort; a case whose refinement fails
    numerically is recorded in its report's ``error`` field and the cohort
    continues.  Any other exception propagates."""
    if len(cases) < 1:
        raise ValueError("cohort needs at least one case")

    def one(case: Case) -> RunReport:
        try:
            return run_case(case, cfg)
        except optim.NumericalFailure as exc:
            # a bare NumericalFailure comes only from a substituted run_case
            if isinstance(exc, CaseFailure):
                verdict = exc.verdict
            else:
                verdict = gate(sigmoid(case.logits0), cfg.gate)
            return RunReport(
                case_id=case.case_id,
                mode=cfg.mode,
                gate=verdict,
                mask_source="baseline",
                final_mask=None,
                error=f"{case.case_id}: {exc}",
                config=cfg,
            )

    with ThreadPoolExecutor(max_workers=max(workers, 1)) as pool:
        return list(pool.map(one, cases))
