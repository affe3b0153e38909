"""Orchestration: gate -> hypothesis refinement -> selection -> final mask.

Each ablation row is one entry of :data:`MODE_TABLE`, and :func:`run_modes`
is the one path for all of them: it gates each case once, refines each
distinct input once on one thread pool, and builds every mode's report from
those results.  Refinements are keyed by what :func:`optim.refine` reads, so
cases with equal baseline logits share their compact refinement and their
g == 1 diffuse one.  A gated mode returns the baseline binarization untouched
for an unflagged case; otherwise the mode's hypotheses are refined, and the
texture selector picks between them when both ran.  ``no_gatekeeper`` still
records the gate verdict, and ``no_edge_map`` gives the diffuse loss g
identically 1.  :func:`run_case` and :func:`run_cohort` are its one-mode views.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

from . import optim
from .gatekeeper import GateVerdict, gate
from .selector import SelectionResult, select
from .volume import Case, Mask, check_fields, sigmoid, threshold


class Mode(NamedTuple):
    """One ablation row: what :func:`run_modes` does to a case in that mode."""

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
    protocol: optim.OptimizerProtocol = field(default_factory=optim.OptimizerProtocol)
    parallel_hypotheses: bool = True  # a pool thread per hypothesis per worker

    def __post_init__(self):
        check_fields(self)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class TraceSummary:
    initial_loss: float
    final_loss: float
    steps: int


@dataclass
class RunReport:
    """Complete decision trace for one case."""

    case_id: str
    mode: str
    gate: GateVerdict
    mask_source: str                      # baseline | compact | diffuse
    final_mask: Mask | None
    config: PipelineConfig
    compact_trace: TraceSummary | None = None
    diffuse_trace: TraceSummary | None = None
    selection: SelectionResult | None = None
    timings_s: dict[str, float] = field(default_factory=dict)
    error: str | None = None


def run_modes(
    cases: Sequence[Case],
    modes: Sequence[str],
    cfg: PipelineConfig = PipelineConfig(),
    workers: int = 1,
) -> dict[str, list[RunReport]]:
    """Every case under every mode in ``modes`` (``cfg.mode`` is ignored),
    with each report in case order.  Each case is gated once, and each
    distinct refinement runs once, on one pool of ``workers`` threads, times
    the most hypotheses a mode refines when ``cfg.parallel_hypotheses`` is
    set, and at most one thread per usable CPU.  A refinement is keyed by
    what it reads: the hypothesis, whether diffuse sees the edge map, and
    z0's dims, spacing and sha256; diffuse with the edge map reads the image
    too, so it is keyed by its case and never shared.  Cases with equal
    baseline logits thus share a compact refinement and a g == 1 diffuse
    one, and each gets the report it would get alone.  Any thread count
    gives identical reports, timings aside.  A refinement that fails
    numerically gives every case that uses it an error report, naming that
    case, in every mode that needed it, and the run continues; any other
    exception propagates."""
    if len(cases) < 1:
        raise ValueError("cohort needs at least one case")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    cfgs = {mode: replace(cfg, mode=mode) for mode in modes}

    def needs(mode: str, verdict: GateVerdict) -> list[tuple[str, bool]]:
        row = MODE_TABLE[mode]
        if row.gated and not verdict.flagged:
            return []
        return [(h, h == "compact" or row.edge_map) for h in row.hypotheses]

    gates = [_gate(case) for case in cases]
    # each need of a case maps to the key of what optim.refine reads for it:
    # z0's grid and bytes, or, for diffuse with the edge map, which also
    # reads the image, the case's index; equal keys are refined once
    plan, jobs = [], {}  # per case {need: key}; key -> its first case
    for i, (case, (verdict, _, _)) in enumerate(zip(cases, gates)):
        wanted = dict.fromkeys(k for mode in cfgs for k in needs(mode, verdict))
        if any(need != ("diffuse", True) for need in wanted):
            z0 = case.logits0.dims, case.spacing, hashlib.sha256(case.logits0.data).digest()
        keys = {need: need + (i if need == ("diffuse", True) else z0,) for need in wanted}
        for key in keys.values():
            jobs.setdefault(key, case)
        plan.append(keys)
    last_use = {key: i for i, keys in enumerate(plan) for key in keys.values()}

    def refine(job) -> tuple[optim.RefinementTrace, float] | str:
        (hypothesis, edge_map, _), case = job
        t0 = time.perf_counter()
        try:
            trace = optim.refine(case, hypothesis, protocol=cfg.protocol, edge_map=edge_map)
        except optim.NumericalFailure as exc:
            return str(exc)
        return trace, time.perf_counter() - t0

    reports: dict[str, list[RunReport]] = {mode: [] for mode in cfgs}
    # per worker, one thread per hypothesis a case runs (in the one-hypothesis
    # modes a second one only oversubscribes the cores), and no more threads
    # than usable CPUs: more only switch contexts.  Refinements share only
    # immutable inputs, so any thread count gives identical traces; results
    # come back in the order of their keys' first use, and each is dropped
    # once the last case that uses it is reported
    per_worker = max((len(MODE_TABLE[m].hypotheses) for m in cfgs), default=1)
    threads = min(workers * (per_worker if cfg.parallel_hypotheses else 1), _usable_cpus())
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(refine, jobs.items())
        done = {}
        for i, (case, (verdict, gate_s, baseline), keys) in enumerate(zip(cases, gates, plan)):
            for key in keys.values():
                if key not in done:
                    done[key] = next(results)
            for mode, c in cfgs.items():
                runs = {h: done[keys[h, e]] for h, e in needs(mode, verdict)}
                reports[mode].append(_report(case, c, verdict, gate_s, baseline, runs))
            for key in keys.values():
                if last_use[key] == i:
                    del done[key]
    return reports


def _gate(case: Case) -> tuple[GateVerdict, float, Mask | None]:
    """The case's gate verdict, its seconds, and the baseline mask when it is
    not flagged.  The probability grid lives only here, so no refinement
    holds it."""
    t0 = time.perf_counter()
    p0 = sigmoid(case.logits0)
    verdict = gate(p0)
    gate_s = time.perf_counter() - t0
    return verdict, gate_s, None if verdict.flagged else threshold(p0, 0.5)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _report(case, cfg, verdict, gate_s, baseline, runs) -> RunReport:
    """One mode's report from the case's shared gate verdict and refinements,
    selecting only when both hypotheses ran.  A failed refinement is its bare
    failure text, which the error names with this case's id."""
    failure = next(((h, r) for h, r in runs.items() if isinstance(r, str)), None)
    if failure is not None:
        error = f"case {case.case_id!r}, hypothesis {failure[0]}: {failure[1]}"
        return RunReport(case_id=case.case_id, mode=cfg.mode, gate=verdict, mask_source="baseline",
                         final_mask=None, error=error, config=cfg)
    timings = {"gate_s": gate_s} | {f"{h}_s": seconds for h, (_, seconds) in runs.items()}
    traces = {h: trace for h, (trace, _) in runs.items()}
    source, selection = next(iter(traces), "baseline"), None
    if len(traces) == 2:
        t0 = time.perf_counter()
        selection = select(case, traces["diffuse"].final_z)
        timings["select_s"] = time.perf_counter() - t0
        source = selection.chosen
    summaries = {h: TraceSummary(t.initial_loss, t.final_loss, t.steps) for h, t in traces.items()}
    timings["total_s"] = sum(timings.values())  # a shared stage counts in every report
    return RunReport(
        case_id=case.case_id,
        mode=cfg.mode,
        gate=verdict,
        mask_source=source,
        final_mask=threshold(sigmoid(traces[source].final_z), 0.5) if traces else baseline,
        compact_trace=summaries.get("compact"),
        diffuse_trace=summaries.get("diffuse"),
        selection=selection,
        timings_s=timings,
        config=cfg,
    )


def run_case(case: Case, cfg: PipelineConfig = PipelineConfig()) -> RunReport:
    """One case in ``cfg.mode``; raises :class:`optim.NumericalFailure` when
    a refinement fails numerically."""
    report = run_modes([case], [cfg.mode], cfg)[cfg.mode][0]
    if report.error is not None:
        raise optim.NumericalFailure(report.error)
    return report


def run_cohort(
    cases: Sequence[Case],
    cfg: PipelineConfig = PipelineConfig(),
    workers: int = 1,
) -> list[RunReport]:
    """``cfg.mode`` over a cohort, in case order; see :func:`run_modes`."""
    return run_modes(cases, [cfg.mode], cfg, workers)[cfg.mode]
