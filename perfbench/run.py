#!/usr/bin/env python3
"""segtta benchmark: one workload, one closed-loop client, one fresh process.

    python3 perfbench/run.py --workload refine_64 --seed 0 --seconds 10 --trace 0

Builds nothing: it imports segtta from ``src/`` of the checkout it sits in and
exits with code 2, printing no result, when that tree is missing.  Passes of
the workload repeat while the next one is expected to end within
``--seconds`` (there is always at least one).  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate, a probe phase follows, and the last line holds the
per-layer metrics.  Spans go
to ``.bench_out/trace-<workload>-seed<n>.jsonl``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
PROBE_STEPS = 100
KERNEL_REPEATS = 11
SCREEN_REPEATS = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TRIAGE_LAYERS = ("phantom.generate", "fileio.write_volume", "fileio.read_volume",
                 "gatekeeper.gate", "volume.sigmoid", "volume.threshold", "metrics.evaluate")


def environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{k: os.environ.get(k) for k in BLAS_ENV},
    }
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None
            )
    except OSError:
        env["cpu_model"] = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                env[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    return env


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def one_pass(workload, index: int, tracer=None):
    from workloads import PassResult

    t0 = time.perf_counter()
    if tracer is not None:
        patch_layers(tracer)
    try:
        return workload.run_pass(index, tracer)
    except Exception as exc:  # a crashed pass is one failed operation, not a crash
        wall = time.perf_counter() - t0
        return PassResult(wall, 1, [1e3 * wall], 0, [], [(f"pass{index}", repr(exc))])
    finally:
        if tracer is not None:
            tracer.restore()


def run_passes(workload, seconds: float, tracer=None):
    """Closed loop: the next pass starts when the previous one has finished.
    With a tracer, untraced and traced passes alternate, so host drift hits
    both alike.  Stops before a round that would end past ``seconds``."""
    untraced, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        untraced.append(one_pass(workload, len(untraced) + len(traced)))
        if tracer is not None:
            traced.append(one_pass(workload, len(untraced) + len(traced), tracer))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced


def end_to_end(results, setup_s: float) -> dict:
    """Rates are medians over passes too, so one stalled pass moves none of them."""
    latency_ms = [ms for r in results for ms in r.latency_ms]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    dice = [d for r in results for d in r.dice]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(r.wall_s for r in results), "s"),
        "voxel_steps_per_s": (statistics.median(r.voxel_steps / r.wall_s for r in results), "1/s"),
        "cases_per_s": (statistics.median(r.attempted / r.wall_s for r in results), "1/s"),
        "case_ms_p50": (percentile(latency_ms, 50), "ms"),
        "case_ms_p95": (percentile(latency_ms, 95), "ms"),
        "dice_mean": (statistics.fmean(dice) if dice else float("nan"), "dice"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def kernel_times(case, repeats: int) -> dict[str, float]:
    """Standalone median-of-k per call (ms) of each loss kernel and objective,
    after one warm-up call each (which also fills the coordinate cache)."""
    from segtta import losses

    z = case.logits0
    g = losses.edge_map(case.image)
    compact = losses.compact_objective(z.data, z.spacing, losses.CompactWeights())
    diffuse = losses.diffuse_objective(z.data, g.data, losses.DiffuseWeights())
    calls = {
        "losses.entropy_term": lambda: losses.entropy_term(z),
        "losses.tv_term": lambda: losses.tv_term(z),
        "losses.geodesic_term": lambda: losses.geodesic_term(z, g),
        "losses.gravity_term": lambda: losses.gravity_term(z),
        "losses.inflation_term": lambda: losses.inflation_term(z),
        "losses.anchor_term": lambda: losses.anchor_term(z, z),
        "losses.compact_objective": lambda: compact(z.data),
        "losses.diffuse_objective": lambda: diffuse(z.data),
    }
    samples = {name: [] for name in calls}
    for rep in range(repeats + 1):
        for name, fn in calls.items():  # round-robin, so drift hits every kernel alike
            t0 = time.perf_counter()
            fn()
            if rep:
                samples[name].append(time.perf_counter() - t0)
    return {name: 1e3 * statistics.median(s) for name, s in samples.items()}


def probe(workload, tracer) -> float:
    """Traced standalone calls at the workload's grid, so every layer has
    spans even where the workload's own pass never calls it.  Returns the
    serial over parallel wall time of ``run_case`` on the probe case."""
    import dataclasses

    from segtta import optim, phantom, pipeline
    from workloads import screen

    tracer.phase = "probe"
    case = phantom.generate(workload.probe_spec).case
    par = pipeline.PipelineConfig(protocol=optim.OptimizerProtocol(steps=PROBE_STEPS))
    walls = {}
    for cfg in (par, dataclasses.replace(par, parallel_hypotheses=False)):
        t0 = time.perf_counter()
        pipeline.run_case(case, cfg)
        walls[cfg.parallel_hypotheses] = time.perf_counter() - t0
    for _ in range(SCREEN_REPEATS):
        screen(workload.probe_spec, workload.workdir, tracer)
    return walls[False] / walls[True]


def patch_layers(tracer) -> None:
    from segtta import fileio, gatekeeper, losses, metrics, optim, phantom, pipeline, volume

    def volume_bytes(args, result):
        v = result if isinstance(result, (volume.Volume, volume.Mask)) else args[1]
        return v.data.size * (1 if isinstance(v, volume.Mask) else 8)

    for module, attr, name in (
        (optim, "refine", "optim.refine"),
        (optim, "adam_step", "optim.adam_step"),
        (losses, "edge_map", "losses.edge_map"),
        (pipeline, "run_case", "pipeline.run_case"),
        (pipeline, "gate", "gatekeeper.gate"),
        (pipeline, "select", "selector.select"),
        (gatekeeper, "gate", "gatekeeper.gate"),
        (phantom, "generate", "phantom.generate"),
        (volume, "sigmoid", "volume.sigmoid"),
        (volume, "threshold", "volume.threshold"),
        (metrics, "evaluate", "metrics.evaluate"),
        (metrics, "hd95", "metrics.hd95"),
    ):
        tracer.patch(module, attr, name)
    tracer.patch(fileio, "write_volume", "fileio.write_volume", volume_bytes)
    tracer.patch(fileio, "read_volume", "fileio.read_volume", volume_bytes)
    tracer.patch_factory(losses, "compact_objective", "losses.compact_objective")
    tracer.patch_factory(losses, "diffuse_objective", "losses.diffuse_objective")


def per_layer(tracer, untraced, traced, speedup: float, kernels: dict) -> dict:
    from spans import union_length

    def spans(*names):
        """Spans of the traced passes; the probe's where the passes made none."""
        for phase in ("pass", "probe"):
            found = [s for n in names for s in tracer.of(n, phase)]
            if found:
                return found
        return []

    def median_ms(name):
        return 1e3 * statistics.median(s.duration for s in spans(name))

    selfs = tracer.self_times()

    def self_ms(*names):
        return 1e3 * sum(selfs[s.id] for s in spans(*names))

    def mb_per_s(name):
        found = spans(name)
        return sum(s.nbytes for s in found) / sum(s.duration for s in found) / 1e6

    steps = []  # start-to-start interval of consecutive Adam steps within one refine
    by_refine: dict[int, list[float]] = {}
    for s in spans("optim.adam_step"):
        by_refine.setdefault(s.parent, []).append(s.start)
    for starts in by_refine.values():
        starts.sort()
        steps += [b - a for a, b in zip(starts, starts[1:])]

    covering = ("optim.refine",) if tracer.of("optim.refine", "pass") else TRIAGE_LAYERS
    covered = union_length((s.start, s.end) for n in covering for s in tracer.of(n, "pass"))
    traced_wall = sum(r.wall_s for r in traced)

    out = {f"{name}_ms": (ms, "ms") for name, ms in kernels.items()}
    out.update({
        "losses.edge_map_ms": (median_ms("losses.edge_map"), "ms"),
        "optim.adam_step_ms": (median_ms("optim.adam_step"), "ms"),
        "optim.step_ms": (1e3 * statistics.median(steps), "ms"),
        "optim.objective_self_ms": (
            self_ms("losses.compact_objective", "losses.diffuse_objective"), "ms"),
        "optim.adam_self_ms": (self_ms("optim.adam_step"), "ms"),
        "optim.refine_calls": (len(tracer.of("optim.refine", "pass")) / len(traced), "count"),
        "pipeline.parallel_speedup": (speedup, "x"),
        "selector.select_ms": (median_ms("selector.select"), "ms"),
        "gatekeeper.gate_ms": (median_ms("gatekeeper.gate"), "ms"),
        "phantom.generate_ms": (median_ms("phantom.generate"), "ms"),
        "fileio.write_volume_ms": (median_ms("fileio.write_volume"), "ms"),
        "fileio.read_volume_ms": (median_ms("fileio.read_volume"), "ms"),
        "fileio.write_mb_per_s": (mb_per_s("fileio.write_volume"), "MB/s"),
        "fileio.read_mb_per_s": (mb_per_s("fileio.read_volume"), "MB/s"),
        "metrics.evaluate_ms": (median_ms("metrics.evaluate"), "ms"),
        "metrics.hd95_ms": (median_ms("metrics.hd95"), "ms"),
        "volume.sigmoid_ms": (median_ms("volume.sigmoid"), "ms"),
        "volume.threshold_ms": (median_ms("volume.threshold"), "ms"),
        "trace.overhead_frac": (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced) - 1.0, "frac"),
        "trace.coverage_frac": (covered / traced_wall, "frac"),
    })
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "segtta" / "__init__.py").is_file():
        print(f"error: no segtta source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import segtta  # noqa: F401  (import cost is part of set-up)
    from spans import Tracer
    from workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    if not Path(segtta.__file__).resolve().is_relative_to(src):
        print(f"error: segtta imported from {segtta.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    workload = WORKLOADS[args.workload](trace=bool(args.trace))
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(args.seed)
        gen_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(gen_s)

    # a terminated run still removes its work directory on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = ROOT / ".bench_out"
    workload.workdir = out_dir / f"work-{os.getpid()}"
    workload.workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        untraced, traced = run_passes(workload, args.seconds, tracer)
        results = untraced + traced
        if tracer is not None:
            patch_layers(tracer)
            try:
                speedup = probe(workload, tracer)
            finally:
                tracer.restore()
            from segtta import phantom

            kernels = kernel_times(phantom.generate(workload.probe_spec).case, KERNEL_REPEATS)
            metrics = per_layer(tracer, untraced, traced, speedup, kernels)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for key, why in r.failures:
            print(f"FAIL {key}: {why}", file=sys.stderr)
    case_count = sum(r.attempted for r in untraced)
    sample_count = sum(len(r.latency_ms) for r in untraced)
    decisions = "\n".join(untraced[0].decisions)
    print(f"decisions of pass 0: {len(untraced[0].decisions)} case runs, sha256 "
          f"{hashlib.sha256(decisions.encode()).hexdigest()[:16]}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced passes, "
          f"{case_count} cases, {sample_count} latency samples, pass walls "
          + " ".join(f"{r.wall_s:.3f}" for r in untraced) + " s")
    if args.trace:
        table = tracer.layer_table("pass")
        for name, row in table.items():
            print(f"  {name:<28} calls {row['calls']:>7}  total {row['total_ms']:>11.1f} ms"
                  f"  self {row['self_ms']:>11.1f} ms  median {row['median_ms']:>9.3f} ms")
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl",
                    {"workload": args.workload, "seed": args.seed, "env": env,
                     "layers": table, "probe_layers": tracer.layer_table("probe")})
    else:
        metrics = end_to_end(untraced, setup_s)
    print(f"wall {time.perf_counter() - t_start:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
