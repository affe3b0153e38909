"""The three workloads: inputs made from the seed, one timed pass, and the
checks on that pass's outputs.

Workload flows call segtta through module attributes (``pipeline.run_case``,
``fileio.write_volume``, ...) so a traced pass sees them; the checks use the
names bound below at import, which the tracer never replaces.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from segtta import fileio, gatekeeper, metrics, optim, phantom, pipeline, volume
from segtta.metrics import dice as _dice
from segtta.volume import sigmoid as _sigmoid, threshold as _threshold

# refine_64 at full protocol is ~57 s on 2 cores, so a traced run (untraced
# pass, traced pass, serial/parallel probe) could not fit 180 s at 1000 steps.
# Per-call and per-step figures do not depend on the step count.
REFINE_TRACE_STEPS = 200
# At 100 steps one ablate pass takes ~25 s, and with cohort threads nested over
# hypothesis and BLAS threads a single pass varied by 25% between processes.
# At 25 steps (~7 s) a 30 s run holds four passes and reports their median; the
# step count does not change the 44 refinements or the 24 distinct ones.
ABLATE_STEPS = 25
ABLATE_MIX = (
    ("clean_confident", 6),
    ("noise_island", 1),
    ("under_segmented_matched", 1),
    ("under_segmented_mismatched", 1),
    ("fragmented_small", 1),
)
GATED_MODES = ("full", "no_edge_map", "only_compact", "only_diffuse")
TRIAGE_CASES_PER_PASS = 40
# The flagged half cycles through this list.  Case latencies fall in three
# clusters: clean and fragmented_small cases (~10 ms), the other flagged
# scenarios (~20 ms) and the 64^3 clean cases (~67 ms).  With half of the
# flagged cases fragmented_small, 25 of every 40 cases are fast, so the median
# lies well inside the fast cluster; with fewer, it sat on the lower edge of
# the 20 ms cluster, which is made of the fastest passes' cases and spread
# twice as much from run to run as the pass walls did.
TRIAGE_FLAGGED = (
    ("fragmented_small",) * 10
    + ("noise_island",) * 4
    + ("under_segmented_matched",) * 3
    + ("under_segmented_mismatched",) * 3
)


@dataclass
class PassResult:
    wall_s: float
    attempted: int  # cases
    latency_ms: list[float]  # samples for case_ms_p50/p95
    voxel_steps: int
    dice: list[float]
    failures: list[tuple[str, str]] = field(default_factory=list)  # (case, why)
    # seed-independent outcome of each case run: scenario, mode, verdict, source
    decisions: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len({key for key, _ in self.failures})


def _span(tracer, name, case=None):
    return tracer.span(name, case) if tracer is not None else contextlib.nullcontext()


def _decision(gen, report) -> str:
    return f"{gen.annotations.scenario}/{report.mode}: {report.gate.trigger} -> {report.mask_source}"


def _baseline(case) -> volume.Mask:
    return _threshold(_sigmoid(case.logits0), 0.5)


# ---------------------------------------------------------------------------
# refine_64: the 64^3 headline case in full mode; the refinement loop is
# nearly all of the work


class Refine64:
    name = "refine_64"

    def __init__(self, trace: bool):
        steps = REFINE_TRACE_STEPS if trace else optim.OptimizerProtocol().steps
        self.cfg = pipeline.PipelineConfig(protocol=optim.OptimizerProtocol(steps=steps))

    def setup(self, seed: int):
        spec = phantom.scenario_spec("under_segmented_matched", seed, dims=(64, 64, 64))
        self.gen = phantom.generate(spec)
        self.probe_spec = spec

    def run_pass(self, index: int, tracer=None) -> PassResult:
        case = self.gen.case
        t0 = time.perf_counter()
        report = pipeline.run_case(case, self.cfg)
        wall = time.perf_counter() - t0
        final, base = _dice(report.final_mask, self.gen.gt), _dice(_baseline(case), self.gen.gt)
        failures = []
        if not (report.gate.flagged and report.gate.trigger == "high_uncertainty"):
            failures.append((case.case_id, f"gate {report.gate}"))
        if report.mask_source != "diffuse":
            failures.append((case.case_id, f"source {report.mask_source}, expected diffuse"))
        if not (final >= 0.99 and final - base >= 0.3):
            failures.append((case.case_id, f"dice {base:.4f} -> {final:.4f}"))
        return PassResult(wall, 1, [1e3 * wall], case.logits0.nvox * self.cfg.protocol.steps,
                          [final], failures, [_decision(self.gen, report)])


# ---------------------------------------------------------------------------
# ablate_mix: `segtta ablate` over all five modes; refinements repeat across
# modes and cohort threads nest over hypothesis threads


class AblateMix:
    name = "ablate_mix"

    def __init__(self, trace: bool):
        protocol = optim.OptimizerProtocol(steps=ABLATE_STEPS)
        self.cfgs = {m: pipeline.PipelineConfig(mode=m, protocol=protocol) for m in pipeline.MODES}

    def setup(self, seed: int):
        self.gens = phantom.cohort(phantom.mixed_cohort_specs(ABLATE_MIX, base_seed=seed))
        self.probe_spec = phantom.scenario_spec("under_segmented_matched", seed)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        cases = [g.case for g in self.gens]
        reports, sets, mode_ms = {}, {}, []
        t0 = time.perf_counter()
        for mode, cfg in self.cfgs.items():
            m0 = time.perf_counter()
            reports[mode] = pipeline.run_cohort(cases, cfg, workers=2)
            sets[mode] = [metrics.evaluate(r.final_mask, g.gt)
                          for r, g in zip(reports[mode], self.gens)]
            mode_ms.append(1e3 * (time.perf_counter() - m0))
        wall = time.perf_counter() - t0
        runs = [(r, g) for mode in reports for r, g in zip(reports[mode], self.gens)]
        # A case is one phantom through all five modes.  The latency samples are
        # the five mode rows of the ablation (cohort run plus scoring): a single
        # case's wall is set by which case shares the two cohort threads with it.
        return PassResult(
            wall,
            len(self.gens),
            mode_ms,
            sum(r.config.protocol.steps * g.case.logits0.nvox for r, g in runs),
            [m.dice for m in sets["full"]],
            self.check(reports),
            [_decision(g, r) for r, g in runs],
        )

    def check(self, reports) -> list[tuple[str, str]]:
        failures = []
        for i, g in enumerate(self.gens):
            cid, expected = g.case.case_id, g.annotations.expected_flagged
            by_mode = {mode: reports[mode][i] for mode in reports}
            for mode, r in by_mode.items():
                if r.error is not None:
                    failures.append((cid, f"{mode}: error {r.error}"))
                    continue
                if r.gate.flagged != expected:
                    failures.append((cid, f"{mode}: flagged={r.gate.flagged}, expected {expected}"))
            if any(r.error is not None for r in by_mode.values()):
                continue
            full = by_mode["full"]
            if full.mask_source == "compact" and not np.array_equal(
                full.final_mask.data, by_mode["only_compact"].final_mask.data
            ):
                failures.append((cid, "full chose compact but differs from only_compact"))
            if expected and (
                full.mask_source != by_mode["no_gatekeeper"].mask_source
                or not np.array_equal(full.final_mask.data,
                                      by_mode["no_gatekeeper"].final_mask.data)
            ):
                failures.append((cid, "flagged case differs between full and no_gatekeeper"))
            if not expected:
                base = _baseline(g.case).data
                for mode in GATED_MODES:
                    r = by_mode[mode]
                    if r.mask_source != "baseline" or not np.array_equal(r.final_mask.data, base):
                        failures.append((cid, f"{mode}: unflagged case did not return the baseline"))
        return failures


# ---------------------------------------------------------------------------
# phantom_triage: the screening pass of a mostly confident cohort: generate,
# store and reload, gate, binarize, store the mask, score; no refinement


def screen(spec: phantom.PhantomSpec, workdir: Path, tracer=None):
    """One case through the screening steps; returns (baseline dice, failures,
    decision).

    Each case writes files of its own and removes them once read, as a cohort
    with one file per case and volume would, minus the keeping.  Rewriting one
    fixed name instead makes ext4 flush the replaced file on close, so every
    case would wait on the shared disk."""
    case_id = f"{spec.scenario}-{spec.seed}"
    paths = {key: workdir / f"{case_id}-{key}.vol" for key in ("image", "logits", "gt", "mask")}
    with _span(tracer, "bench.case", case_id):
        gen = phantom.generate(spec)
        case = gen.case
        written = {"image": case.image[0], "logits": case.logits0, "gt": gen.gt}
        for key, v in written.items():
            fileio.write_volume(paths[key], v)
        back = {key: fileio.read_volume(paths[key]) for key in written}
        p0 = volume.sigmoid(back["logits"])
        verdict = gatekeeper.gate(p0)
        mask = volume.threshold(p0, 0.5)
        fileio.write_volume(paths["mask"], mask)
        scores = metrics.evaluate(mask, back["gt"])
    for path in paths.values():
        path.unlink()
    failures = [
        (case.case_id, f"{key} read-back differs")
        for key, v in written.items()
        if type(back[key]) is not type(v) or back[key].spacing != v.spacing
        or back[key].data.dtype != v.data.dtype or back[key].data.tobytes() != v.data.tobytes()
    ]
    if verdict.flagged != gen.annotations.expected_flagged:
        failures.append((case.case_id, f"flagged={verdict.flagged}, "
                                       f"expected {gen.annotations.expected_flagged}"))
    return scores.dice, failures, f"{spec.scenario}{spec.dims}: {verdict.trigger}"


class PhantomTriage:
    name = "phantom_triage"

    def __init__(self, trace: bool):
        self.workdir: Path | None = None  # set by the runner before the first pass

    def spec(self, k: int) -> phantom.PhantomSpec:
        """k-th case of the stream: even k clean (every 4th clean one at
        64^3), odd k cycling through ``TRIAGE_FLAGGED``."""
        seed = self.seed * 1_000_003 + k
        if k % 2 == 0:
            dims = {"dims": (64, 64, 64)} if (k // 2) % 4 == 0 else {}
            return phantom.scenario_spec("clean_confident", seed, **dims)
        return phantom.scenario_spec(TRIAGE_FLAGGED[(k // 2) % len(TRIAGE_FLAGGED)], seed)

    def setup(self, seed: int):
        self.seed = seed
        self.probe_spec = phantom.scenario_spec("under_segmented_matched", seed)

    def run_pass(self, index: int, tracer=None) -> PassResult:
        specs = [self.spec(index * TRIAGE_CASES_PER_PASS + k) for k in range(TRIAGE_CASES_PER_PASS)]
        result = PassResult(0.0, len(specs), [], 0, [])
        t0 = time.perf_counter()
        for spec in specs:
            c0 = time.perf_counter()
            try:
                score, failures, decision = screen(spec, self.workdir, tracer)
                result.dice.append(score)
                result.decisions.append(decision)
            except Exception as exc:  # one broken case must not end the stream
                failures = [(f"{spec.scenario}-{spec.seed}", repr(exc))]
            result.latency_ms.append(1e3 * (time.perf_counter() - c0))
            result.voxel_steps += int(np.prod(spec.dims))
            result.failures += failures
        result.wall_s = time.perf_counter() - t0
        return result


WORKLOADS = {w.name: w for w in (Refine64, AblateMix, PhantomTriage)}
