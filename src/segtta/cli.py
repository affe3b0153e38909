"""Command-line surface exposing every pipeline stage.

Subcommands: run, gatekeep, select, metrics, phantom, ablate, gradcheck.
Exit codes: 0 success, 1 input error, 2 numerical failure.  With --no-timing
all outputs are byte-identical across reruns with the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import fileio, gradcheck, metrics, optim, phantom, pipeline
from .gatekeeper import gate
from .selector import select
from .volume import Case, Mask, Volume, sigmoid

DEFAULT_MIX = "clean_confident=30,noise_island=4,under_segmented_matched=4,under_segmented_mismatched=2"


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # reject unknown flags with exit code 1, not 2
        raise CliInputError(message)


def _load_volume(path) -> Volume:
    v = fileio.read_volume(path)
    if not isinstance(v, Volume):
        raise CliInputError(f"{path}: expected a scalar volume, found a mask")
    return v


def _load_mask(path) -> Mask:
    m = fileio.read_volume(path)
    if isinstance(m, Mask):
        return m
    raise CliInputError(f"{path}: expected a mask volume (u8 payload)")


def _load_case(image_paths, logits_path) -> Case:
    channels = tuple(_load_volume(p) for p in image_paths)
    logits = _load_volume(logits_path)
    return Case(image=channels, logits0=logits, case_id=Path(logits_path).stem)


def _emit(payload, path=None) -> None:
    """Print ``payload`` as JSON and, given a path, write the same text there."""
    text = fileio.dumps_json(payload)
    if path:
        Path(path).write_text(text)
    print(text, end="")


def _case_row(case_id, m: metrics.MetricSet, flagged, source) -> dict:
    """One row of the case CSV (``metrics.CASE_CSV_FIELDS``)."""
    return {"case_id": case_id, **dataclasses.asdict(m), "flagged": flagged, "source": source}


def _cmd_run(args) -> int:
    case = _load_case(args.image, args.logits)
    cfg = pipeline.PipelineConfig(mode=args.mode, protocol=optim.OptimizerProtocol(steps=args.steps))
    report = pipeline.run_case(case, cfg)
    if args.out_mask:
        fileio.write_volume(args.out_mask, report.final_mask)
    if args.report:
        Path(args.report).write_text(fileio.dumps_report(report, include_timings=not args.no_timing))
    _emit({"case_id": report.case_id, "flagged": report.gate.flagged,
           "source": report.mask_source, "final_mask_voxels": report.final_mask.count})
    return 0


def _cmd_gatekeep(args) -> int:
    p0 = sigmoid(_load_volume(args.logits))
    _emit(dataclasses.asdict(gate(p0)), args.report)
    return 0


def _cmd_select(args) -> int:
    case = _load_case(args.image, args.logits)
    _emit(dataclasses.asdict(select(case, _load_volume(args.diffuse))))
    return 0


def _cmd_metrics(args) -> int:
    pred = _load_mask(args.pred)
    gt = _load_mask(args.gt)
    m = metrics.evaluate(pred, gt)
    if args.csv:
        Path(args.csv).write_text(metrics.case_rows_csv([_case_row(Path(args.pred).stem, m, "", "")]))
    _emit(dataclasses.asdict(m), args.json)
    return 0


def _cmd_phantom(args) -> int:
    if args.spec:
        spec = fileio.spec_from_json(Path(args.spec).read_text(), phantom.PhantomSpec)
    else:
        if not args.scenario:
            raise CliInputError("phantom needs --scenario or --spec")
        spec = phantom.scenario_spec(args.scenario, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    case, gt, ann = phantom.generate(spec)
    files = {}
    for i, ch in enumerate(case.image):
        name = f"image_c{i:02d}.vol"
        fileio.write_volume(out / name, ch)
        files[f"image_c{i:02d}"] = name
    fileio.write_volume(out / "logits0.vol", case.logits0)
    files["logits0"] = "logits0.vol"
    fileio.write_volume(out / "gt.vol", gt)
    files["gt"] = "gt.vol"
    for name, mask in vars(ann).items():
        if isinstance(mask, Mask):
            fileio.write_volume(out / f"{name}.vol", mask)
            files[name] = f"{name}.vol"
    (out / "spec.json").write_text(fileio.spec_to_json(spec))
    manifest = {
        "case_id": case.case_id,
        "scenario": ann.scenario,
        "expected_flagged": ann.expected_flagged,
        "files": files,
    }
    _emit(manifest, out / "case.json")
    return 0


def _parse_mix(text: str) -> list[tuple[str, int]]:
    mix = []
    for part in text.split(","):
        if not part:
            continue
        name, _, count = part.partition("=")
        try:
            mix.append((name.strip(), int(count)))
        except ValueError:  # no count, or not an integer
            raise CliInputError(f"bad mix entry {part!r}; expected scenario=integer count") from None
    return mix


def _cmd_ablate(args) -> int:
    if args.threads < 1:  # checked before the cohort is generated
        raise CliInputError(f"threads must be >= 1, got {args.threads!r}")
    specs = phantom.mixed_cohort_specs(_parse_mix(args.mix), base_seed=args.seed)
    generated = phantom.cohort(specs)
    cases = [g.case for g in generated]
    gts = [g.gt for g in generated]
    cfg = pipeline.PipelineConfig(protocol=optim.OptimizerProtocol(steps=args.steps))
    runs = pipeline.run_modes(cases, pipeline.MODES, cfg, workers=args.threads)
    failed = next((r for reports in runs.values() for r in reports if r.error is not None), None)
    if failed is not None:  # an error report has no mask to score
        raise optim.NumericalFailure(failed.error)
    per_mode = {mode: [metrics.evaluate(r.final_mask, g) for r, g in zip(reports, gts)]
                for mode, reports in runs.items()}
    table = {mode: metrics.aggregate(sets) for mode, sets in per_mode.items()}
    if args.csv:
        rows = [_case_row(r.case_id, m, r.gate.flagged, r.mask_source)
                for r, m in zip(runs["full"], per_mode["full"])]
        Path(args.csv).write_text(metrics.case_rows_csv(rows))
    print(f"{'mode':<16} " + " ".join(f"{k:>18}" for k in metrics.METRICS))
    for mode, st in table.items():
        print(f"{mode:<16} " + " ".join(
            f"{getattr(st.mean, k):9.4f} ± {getattr(st.std, k):6.4f}" for k in metrics.METRICS))
    _print_full_vs_ablations(per_mode)
    if args.json:
        payload = {mode: metrics.summary(st) for mode, st in table.items()}
        Path(args.json).write_text(fileio.dumps_json(payload))
    return 0


def _print_full_vs_ablations(per_mode) -> None:
    # metric name -> (MetricSet field, alternative for full minus ablation)
    tests = {"dice": ("dice", "greater"), "hd95": ("hd95_mm", "less"), "precision": ("precision", "greater")}
    print("\nfull vs ablations (one-sided paired Wilcoxon, Holm-adjusted):")
    for mode in pipeline.MODES[1:]:
        diffs = {
            name: [getattr(f, field) - getattr(a, field) for f, a in zip(per_mode["full"], per_mode[mode])]
            for name, (field, _) in tests.items()
        }
        try:
            results = metrics.wilcoxon_holm(diffs, {name: alt for name, (_, alt) in tests.items()})
        except ValueError as exc:  # too few nonzero differences for the test
            print(f"  vs {mode:<14} skipped ({exc})")
            continue
        print(f"  vs {mode:<14} " + "  ".join(
            f"{m}: p={r.p_adjusted:.3g}{'*' if r.p_adjusted < 0.05 else ''}" for m, r in results.items()))


def _cmd_gradcheck(args) -> int:
    results = gradcheck.check_all(seed=args.seed, volumes=args.volumes, dims=tuple(args.dims))
    worst = 0.0
    for term, res in results.items():
        print(f"{term:<10} max rel err {res.max_rel_err:.3e}  "
              f"(checked {res.checked_voxels}, excluded {res.excluded_voxels})")
        worst = max(worst, res.max_rel_err)
    if worst >= gradcheck.TOLERANCE:
        print(f"FAIL: worst relative error {worst:.3e} >= {gradcheck.TOLERANCE:.1e}", file=sys.stderr)
        return 2
    print(f"OK: all gradients within {gradcheck.TOLERANCE:.1e}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="segtta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("run", help="gate + refine + select one case")
    p.add_argument("--image", action="append", required=True, help="image channel volume (repeatable)")
    p.add_argument("--logits", required=True, help="initial logits volume")
    p.add_argument("--out-mask", help="write the final mask here")
    p.add_argument("--report", help="write the decision-trace JSON here")
    p.add_argument("--mode", default="full", choices=pipeline.MODES)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--no-timing", action="store_true", help="omit wall-times from the report")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("gatekeep", help="gate verdict for one case")
    p.add_argument("--logits", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_gatekeep)

    p = sub.add_parser("select", help="accept or veto a refined diffuse result on texture")
    p.add_argument("--image", action="append", required=True)
    p.add_argument("--logits", required=True, help="baseline logits")
    p.add_argument("--diffuse", required=True, help="refined diffuse logits volume")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("metrics", help="dice / hd95 / precision of a mask pair")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--csv", help="write a one-row case CSV here")
    p.add_argument("--json", help="write the metric JSON here")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("phantom", help="generate a synthetic case")
    p.add_argument("--scenario", choices=phantom.SCENARIOS)
    p.add_argument("--spec", help="JSON spec file (overrides --scenario/--seed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("ablate",
                       help="run a phantom cohort under all five modes and tabulate")
    p.add_argument("--mix", default=DEFAULT_MIX, help="scenario=count list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", help="write the aggregated table here")
    p.add_argument("--csv", help="write per-case full-mode rows here")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every loss gradient")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--volumes", type=int, default=20)
    p.add_argument("--dims", type=int, nargs=3, default=[4, 4, 4], metavar=("NX", "NY", "NZ"),
                   help="grid of each random volume")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except optim.NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (CliInputError, fileio.VolumeFileError, phantom.GeometryError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
