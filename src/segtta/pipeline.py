"""Orchestration: gate -> hypothesis refinement -> selection -> final mask.

Modes mirror the ablation rows:

* ``full``          — gate; unflagged cases return the baseline binarization
                      untouched; flagged cases refine both hypotheses and select.
* ``no_gatekeeper`` — always refine and select (the gate verdict is still
                      recorded for the report, but ignored).
* ``no_edge_map``   — the diffuse loss sees g identically 1.
* ``only_compact`` / ``only_diffuse`` — the gate still applies, but selection is
                      skipped and the named hypothesis is used directly.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import losses, optim
from .gatekeeper import GateThresholds, GateVerdict, gate
from .selector import SelectionResult, SelectorConfig, select
from .volume import Case, Mask, Volume, sigmoid, threshold

MODES = ("full", "no_gatekeeper", "no_edge_map", "only_compact", "only_diffuse")


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
    """Apply the decision pipeline to one case."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    p0 = sigmoid(case.logits0)
    verdict = gate(p0, cfg.gate)
    timings["gate_s"] = time.perf_counter() - t0

    adapt = verdict.flagged or cfg.mode == "no_gatekeeper"
    if not adapt:
        timings["total_s"] = time.perf_counter() - t0
        return RunReport(
            case_id=case.case_id,
            mode=cfg.mode,
            gate=verdict,
            mask_source="baseline",
            final_mask=threshold(p0, 0.5),
            timings_s=timings,
            config=cfg,
        )

    def refine_named(hypothesis, **kwargs):
        t1 = time.perf_counter()
        try:
            trace = optim.refine(case, hypothesis, protocol=cfg.protocol, **kwargs)
        except optim.NumericalFailure as exc:
            raise optim.NumericalFailure(
                f"case {case.case_id!r}, hypothesis {hypothesis}: {exc}"
            ) from exc
        timings[f"{hypothesis}_s"] = time.perf_counter() - t1
        return trace

    def run_diffuse():
        g_override = None
        if cfg.mode == "no_edge_map":
            g_override = Volume(np.ones(case.dims), case.spacing)
        return refine_named(
            "diffuse", weights=cfg.diffuse, edge_cfg=cfg.edge, g_override=g_override
        )

    compact_trace = diffuse_trace = None
    if cfg.mode == "only_compact":
        compact_trace = refine_named("compact", weights=cfg.compact)
    elif cfg.mode == "only_diffuse":
        diffuse_trace = run_diffuse()
    elif cfg.parallel_hypotheses:
        # the two refinements share only immutable inputs; results are
        # identical to sequential execution
        with ThreadPoolExecutor(max_workers=2) as pool:
            compact_future = pool.submit(refine_named, "compact", weights=cfg.compact)
            diffuse_future = pool.submit(run_diffuse)
            compact_trace = compact_future.result()
            diffuse_trace = diffuse_future.result()
    else:
        compact_trace = refine_named("compact", weights=cfg.compact)
        diffuse_trace = run_diffuse()

    selection = None
    if cfg.mode == "only_compact":
        source, final_z = "compact", compact_trace.final_z
    elif cfg.mode == "only_diffuse":
        source, final_z = "diffuse", diffuse_trace.final_z
    else:
        t1 = time.perf_counter()
        selection = select(case, compact_trace.final_z, diffuse_trace.final_z, cfg.selector)
        timings["select_s"] = time.perf_counter() - t1
        source = selection.chosen
        final_z = compact_trace.final_z if source == "compact" else diffuse_trace.final_z

    timings["total_s"] = time.perf_counter() - t0
    return RunReport(
        case_id=case.case_id,
        mode=cfg.mode,
        gate=verdict,
        mask_source=source,
        final_mask=threshold(sigmoid(final_z), 0.5),
        compact_trace=TraceSummary.of(compact_trace) if compact_trace else None,
        diffuse_trace=TraceSummary.of(diffuse_trace) if diffuse_trace else None,
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
            return RunReport(
                case_id=case.case_id,
                mode=cfg.mode,
                gate=gate(sigmoid(case.logits0), cfg.gate),
                mask_source="baseline",
                final_mask=None,
                error=f"{case.case_id}: {exc}",
                config=cfg,
            )

    if workers <= 1:
        return [one(c) for c in cases]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, cases))
