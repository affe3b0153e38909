import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segtta
from segtta import fileio, gradcheck, optim, phantom, pipeline
from segtta.cli import main
from segtta.volume import Mask


def write_phantom_files(tmp_path, scenario="clean_confident", seed=0, **overrides):
    tmp_path.mkdir(parents=True, exist_ok=True)
    case, gt, ann = phantom.generate(phantom.scenario_spec(scenario, seed, **overrides))
    paths = {}
    for i, ch in enumerate(case.image):
        p = tmp_path / f"img{i}.vol"
        fileio.write_volume(p, ch)
        paths.setdefault("image", []).append(str(p))
    paths["logits"] = str(tmp_path / "logits.vol")
    fileio.write_volume(paths["logits"], case.logits0)
    paths["gt"] = str(tmp_path / "gt.vol")
    fileio.write_volume(paths["gt"], gt)
    return paths


class TestRunCommand:
    def test_gate_skip_run(self, tmp_path, capsys):
        paths = write_phantom_files(tmp_path)
        mask_out = tmp_path / "mask.vol"
        report_out = tmp_path / "report.json"
        code = main([
            "run", "--image", paths["image"][0], "--logits", paths["logits"],
            "--out-mask", str(mask_out), "--report", str(report_out),
            "--steps", "20", "--no-timing",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["source"] == "baseline" and summary["flagged"] is False
        report = json.loads(report_out.read_text())
        assert report["mask_source"] == "baseline"
        assert isinstance(fileio.read_volume(mask_out), Mask)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        paths = write_phantom_files(tmp_path, scenario="fragmented_small", seed=4)
        outs = []
        for tag in ("a", "b"):
            mask_out = tmp_path / f"mask_{tag}.vol"
            report_out = tmp_path / f"report_{tag}.json"
            code = main([
                "run", "--image", paths["image"][0], "--logits", paths["logits"],
                "--out-mask", str(mask_out), "--report", str(report_out),
                "--steps", "40", "--no-timing",
            ])
            assert code == 0
            outs.append((mask_out.read_bytes(), report_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count once at start-up, so each setting
        # needs its own process; a reduction split across threads sums in
        # another order and would change the report's loss digits
        paths = write_phantom_files(tmp_path, scenario="fragmented_small", seed=4)
        outs = []
        for threads in ("1", "2"):
            mask_out = tmp_path / f"mask_{threads}.vol"
            report_out = tmp_path / f"report_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=_pythonpath())
            subprocess.run([
                sys.executable, "-m", "segtta.cli",
                "run", "--image", paths["image"][0], "--logits", paths["logits"],
                "--out-mask", str(mask_out), "--report", str(report_out),
                "--steps", "40", "--no-timing",
            ], env=env, check=True, capture_output=True, timeout=300)
            outs.append((mask_out.read_bytes(), report_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_report_does_not_depend_on_loss_sampling(self, tmp_path, monkeypatch):
        # the loss curve is sampled every 50th step by default; the report
        # keeps its first and last value, which every sampling includes
        paths = write_phantom_files(tmp_path, scenario="fragmented_small", seed=4)
        outs = []
        for loss_every in (50, 1, 7):
            monkeypatch.setattr(optim, "LOSS_EVERY", loss_every)
            mask_out = tmp_path / f"mask_{loss_every}.vol"
            report_out = tmp_path / f"report_{loss_every}.json"
            code = main([
                "run", "--image", paths["image"][0], "--logits", paths["logits"],
                "--out-mask", str(mask_out), "--report", str(report_out),
                "--steps", "60", "--no-timing",
            ])
            assert code == 0
            outs.append((mask_out.read_bytes(), report_out.read_bytes()))
        assert json.loads(outs[0][1])["mask_source"] != "baseline"
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("flag, value", [("--steps", "-3")])
    def test_invalid_protocol_exits_1(self, tmp_path, capsys, flag, value):
        paths = write_phantom_files(tmp_path)
        code = main(["run", "--image", paths["image"][0], "--logits", paths["logits"], flag, value])
        assert code == 1
        assert flag.lstrip("-") in capsys.readouterr().err

    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        paths = write_phantom_files(tmp_path, scenario="noise_island", seed=1)

        def failing(case, hypothesis, **kwargs):
            raise optim.NumericalFailure("non-finite gradient at step 7")

        monkeypatch.setattr(optim, "refine", failing)
        code = main(["run", "--image", paths["image"][0], "--logits", paths["logits"],
                     "--steps", "5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "case 'logits', hypothesis compact" in err and "step 7" in err
        case = phantom.generate(phantom.scenario_spec("noise_island", 1)).case
        with pytest.raises(optim.NumericalFailure, match="hypothesis compact"):
            pipeline.run_case(case)

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code = main(["run", "--image", str(tmp_path / "nope.vol"),
                     "--logits", str(tmp_path / "nope2.vol")])
        assert code == 1
        assert "nope.vol" in capsys.readouterr().err


class TestOtherCommands:
    def test_gatekeep_verdict_json(self, tmp_path, capsys):
        paths = write_phantom_files(tmp_path, scenario="fragmented_small", seed=1)
        assert main(["gatekeep", "--logits", paths["logits"]]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["flagged"] is True and verdict["trigger"] == "small_volume"

    def test_select_command(self, tmp_path, capsys):
        paths = write_phantom_files(tmp_path, scenario="clean_confident", seed=2)
        code = main([
            "select", "--image", paths["image"][0], "--logits", paths["logits"],
            "--diffuse", paths["logits"],
        ])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["chosen"] == "compact"  # delta empty -> safe default
        assert result["texture_score"] is None

    def test_metrics_command(self, tmp_path, capsys):
        paths = write_phantom_files(tmp_path, seed=3)
        csv_out = tmp_path / "m.csv"
        code = main(["metrics", "--pred", paths["gt"], "--gt", paths["gt"],
                     "--csv", str(csv_out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"dice": 1.0, "hd95_mm": 0.0, "precision": 1.0}
        assert csv_out.read_text().startswith("case_id,dice,hd95_mm,precision")

    def test_metrics_dimension_mismatch_exits_1(self, tmp_path, capsys):
        paths_a = write_phantom_files(tmp_path / "a", scenario="clean_confident", seed=0)
        paths_b = write_phantom_files(tmp_path / "b", scenario="noise_island", seed=0)
        code = main(["metrics", "--pred", paths_a["gt"], "--gt", paths_b["gt"]])
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_phantom_command_writes_case_files(self, tmp_path, capsys):
        out = tmp_path / "case"
        code = main(["phantom", "--scenario", "noise_island", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "case.json").read_text())
        assert manifest["expected_flagged"] is True
        for name in ("logits0.vol", "gt.vol", "island.vol", "spec.json"):
            assert (out / name).exists()
        spec = fileio.spec_from_json((out / "spec.json").read_text(), phantom.PhantomSpec)
        assert spec == phantom.scenario_spec("noise_island", 7)
        ann = phantom.generate(spec).annotations
        for name in ("halo", "leak_band"):
            assert manifest["files"][name] == f"{name}.vol"
            assert np.array_equal(fileio.read_volume(out / f"{name}.vol").data, getattr(ann, name).data)

    def test_phantom_from_spec_file(self, tmp_path):
        spec = phantom.scenario_spec("fragmented_small", seed=9)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(fileio.spec_to_json(spec))
        out = tmp_path / "case"
        assert main(["phantom", "--spec", str(spec_path), "--out", str(out)]) == 0
        logits = fileio.read_volume(out / "logits0.vol")
        direct = phantom.generate(spec)
        assert np.array_equal(logits.data, direct.case.logits0.data)

    def test_phantom_spec_with_an_integer_confidence_scale(self, tmp_path):
        # an integer field must not turn the logits into integers
        spec = json.loads(fileio.spec_to_json(phantom.scenario_spec("noise_island", seed=2)))
        for name, scale in (("float", 4.0), ("int", 4)):
            (tmp_path / f"{name}.json").write_text(json.dumps(dict(spec, confidence_scale=scale)))
            assert main(["phantom", "--spec", str(tmp_path / f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0
        for vol in ("image_c00.vol", "logits0.vol", "gt.vol", "uncertain.vol", "halo.vol"):
            assert (tmp_path / "int" / vol).read_bytes() == (tmp_path / "float" / vol).read_bytes()

    @pytest.mark.parametrize("edit, named", [
        (lambda spec: [], "spec"),
        (lambda spec: {"seed": 1}, "scenario"),
        (lambda spec: dict(spec, seed="x"), "seed"),
        (lambda spec: dict(spec, channels="2"), "channels"),
        (lambda spec: dict(spec, dims=[8.5, 8, 8]), "dims"),
        (lambda spec: dict(spec, radii_mm="abc"), "radii_mm"),
        (lambda spec: dict(spec, rim_offset_sigma="0.1"), "rim_offset_sigma"),
        (lambda spec: dict(spec, channels=0), "channels"),
        (lambda spec: dict(spec, radii_mm=[3.0, 0, 3.0]), "radii_mm"),
        (lambda spec: dict(spec, radii_mm=[3.0, -3.0, 3.0]), "radii_mm"),
        (lambda spec: dict(spec, confidence_scale=-4), "confidence_scale"),
    ], ids=["list", "missing-scenario", "string-seed", "string-channels",
            "fractional-dims", "string-radii", "string-std", "zero-channels",
            "zero-radius", "negative-radius", "negative-confidence"])
    def test_bad_spec_exits_1(self, tmp_path, capsys, edit, named):
        spec = json.loads(fileio.spec_to_json(phantom.scenario_spec("fragmented_small", seed=9)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(edit(spec)))
        assert main(["phantom", "--spec", str(spec_path), "--out", str(tmp_path / "case")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck", "--seed", "0", "--volumes", "2"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "entropy" in out

    def test_gradcheck_off_the_cube(self, capsys):
        # a singleton axis and unequal extents, on the checker's anisotropic
        # spacing, at the default tolerance and volume count
        assert main(["gradcheck", "--dims", "5", "1", "3"]) == 0
        out = capsys.readouterr().out
        assert "OK: all gradients within 1.0e-03" in out
        for term in ("entropy", "tv", "gravity", "geodesic", "inflation", "anchor",
                     "compact", "diffuse"):
            assert f"{term:<10} max rel err" in out and "(checked 300, excluded" in out

    @pytest.mark.parametrize("volumes", ["0", "-2"])
    def test_gradcheck_without_volumes_exits_1(self, capsys, volumes):
        assert main(["gradcheck", "--volumes", volumes]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "volumes" in err

    @pytest.mark.parametrize("flag,values,field", [
        ("--dims", ["-1", "4", "4"], "dims"),
        ("--dims", ["4", "0", "4"], "dims"),
    ], ids=["negative-dims", "zero-dims"])
    def test_gradcheck_bad_input_exits_1(self, capsys, flag, values, field):
        assert main(["gradcheck", "--volumes", "1", flag, *values]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be") and "OK" not in captured.out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_ablate_without_threads_exits_1(self, capsys, threads):
        assert main(["ablate", "--mix", "clean_confident=1", "--steps", "2",
                     "--threads", threads]) == 1
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"

    @pytest.mark.parametrize("mix, named", [
        ("clean_confident=-3,noise_island=0,clean_confident=6",
         "count of scenario 'clean_confident' must be an integer >= 0, got -3"),
        ("clean_confident=x", "bad mix entry 'clean_confident=x'"),
        ("clean_confident=1.5", "bad mix entry 'clean_confident=1.5'"),
        ("clean_confident", "bad mix entry 'clean_confident'"),
        ("bogus=0,clean_confident=1", "unknown scenario 'bogus'"),
    ], ids=["negative", "not-a-number", "fraction", "no-count", "unknown-scenario-of-count-0"])
    def test_ablate_bad_mix_exits_1(self, capsys, mix, named):
        assert main(["ablate", "--mix", mix, "--steps", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err and captured.out == ""

    @pytest.mark.parametrize("mix, expected", [
        # the flagged case needs compact, diffuse and diffuse with g == 1 over
        # the five modes; the clean one compact and diffuse (no_gatekeeper)
        ("clean_confident=1,under_segmented_matched=1", {"refine": 5, "gate": 2}),
        # equal baseline logits share compact and g == 1 diffuse: the clean
        # twins one compact, the matched and mismatched cases one compact and
        # one g == 1 diffuse; each case still runs its own edge-map diffuse
        ("clean_confident=2,under_segmented_matched=1,under_segmented_mismatched=1",
         {"refine": 7, "gate": 4}),
    ], ids=["distinct", "repeated-scenarios"])
    def test_ablate_gates_and_refines_each_case_once(self, capsys, monkeypatch, mix, expected):
        calls = {"refine": 0, "gate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optim, "refine", counting("refine", optim.refine))
        monkeypatch.setattr(pipeline, "gate", counting("gate", pipeline.gate))
        assert main(["ablate", "--mix", mix, "--steps", "5"]) == 0
        assert calls == expected

    def test_ablate_numerical_failure_exits_2(self, capsys, monkeypatch):
        original = optim.refine

        def failing(case, hypothesis, **kwargs):
            if hypothesis == "diffuse":
                raise optim.NumericalFailure("non-finite gradient at step 2")
            return original(case, hypothesis, **kwargs)

        monkeypatch.setattr(optim, "refine", failing)
        assert main(["ablate", "--mix", "clean_confident=1,noise_island=1", "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: case 'noise_island-1', hypothesis diffuse: "
                                "non-finite gradient at step 2\n")

    def test_ablate_prints_table(self, tmp_path, capsys):
        json_out = tmp_path / "table.json"
        csv_out = tmp_path / "cases.csv"
        code = main([
            "ablate", "--mix", "clean_confident=1,fragmented_small=1",
            "--seed", "0", "--steps", "25", "--json", str(json_out),
            "--csv", str(csv_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for mode in ("full", "no_gatekeeper", "no_edge_map", "only_compact", "only_diffuse"):
            assert mode in out
        table = json.loads(json_out.read_text())
        assert set(table) == {"full", "no_gatekeeper", "no_edge_map",
                              "only_compact", "only_diffuse"}
        assert table["full"]["n"] == 2
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "case_id,dice,hd95_mm,precision,flagged,source"
        assert len(lines) == 3
        assert lines[1].startswith("clean_confident-0") and "baseline" in lines[1]

    def test_ablate_wilcoxon_section(self, tmp_path, capsys):
        # two flagged cases give at most two nonzero paired differences per
        # metric, fewer than the test needs: each ablation that changes a
        # mask is skipped, and no_gatekeeper (identical to full on flagged
        # cases) has no nonzero difference at all, so p = 1
        json_out = tmp_path / "table.json"
        code = main(["ablate", "--mix", "under_segmented_matched=1,under_segmented_mismatched=1",
                     "--seed", "0", "--steps", "5", "--json", str(json_out)])
        assert code == 0
        out = capsys.readouterr().out
        section = out.split("full vs ablations (one-sided paired Wilcoxon, Holm-adjusted):\n")[1]
        lines = section.splitlines()
        assert [line.split()[1] for line in lines] == [
            "no_gatekeeper", "no_edge_map", "only_compact", "only_diffuse"]
        assert lines[0].split()[2:] == ["dice:", "p=1", "hd95:", "p=1", "precision:", "p=1"]
        assert all("skipped (" in line and "nonzero paired differences" in line for line in lines[1:])
        assert set(json.loads(json_out.read_text())) == {
            "full", "no_gatekeeper", "no_edge_map", "only_compact", "only_diffuse"}

    def test_phantom_out_onto_a_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        assert main(["phantom", "--scenario", "clean_confident", "--out", str(tmp_path / "taken")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and "taken" in err

    def test_gatekeep_report_onto_a_directory_exits_1(self, tmp_path, capsys):
        paths = write_phantom_files(tmp_path)
        assert main(["gatekeep", "--logits", paths["logits"], "--report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Is a directory" in captured.err
        assert captured.out == ""

    def test_metrics_json_under_a_file_exits_1(self, tmp_path, capsys):
        paths = write_phantom_files(tmp_path)
        assert main(["metrics", "--pred", paths["gt"], "--gt", paths["gt"],
                     "--json", str(tmp_path / "gt.vol" / "x.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Not a directory" in captured.err
        assert captured.out == ""

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gradcheck", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "--image", "i.vol", "--logits", "z.vol", "--lr", "0.1"],
        ["ablate", "--lr", "0.1"],
        ["gradcheck", "--tolerance", "1e-3"],
        ["select", "--image", "i.vol", "--logits", "z.vol", "--diffuse", "zd.vol", "--compact", "zc.vol"],
    ], ids=["run-lr", "ablate-lr", "gradcheck-tolerance", "select-compact"])
    def test_removed_flags_exit_1(self, capsys, argv):
        # Adam's lr and the audit tolerance are constants, and select reads
        # no compact logits: each old flag is refused before anything runs
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["run", "--image", "i.vol", "--logits", "z.vol", "--steps"],
        ["phantom", "--out", "case", "--seed"],
        ["ablate", "--seed"],
        ["ablate", "--steps"],
        ["ablate", "--threads"],
        ["gradcheck", "--seed"],
        ["gradcheck", "--volumes"],
    ], ids=["run-steps", "phantom-seed", "ablate-seed", "ablate-steps", "ablate-threads",
            "gradcheck-seed", "gradcheck-volumes"])
    def test_exponent_form_negative_to_an_int_option_exits_1(self, capsys, argv):
        # no option takes a float, so argparse reads "-1e3" as a flag: the
        # integer option is left without a value and the run stops at exit 1
        assert main([*argv, "-1e3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: argument {argv[-1]}: expected one argument\n"
        assert captured.out == ""

    def test_gradcheck_pass_line_is_the_tolerance_constant(self, capsys, monkeypatch):
        # the constant is read at call time: at zero every term fails the
        # audit, exit 2, and the FAIL line prints the value in force
        monkeypatch.setattr(gradcheck, "TOLERANCE", 0.0)
        assert main(["gradcheck", "--volumes", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("FAIL: worst relative error ")
        assert captured.err.endswith(" >= 0.0e+00\n")
        assert "OK" not in captured.out

    def test_unknown_command_exits_1(self):
        assert main(["explode"]) == 1


# sha256 of each CLI output, pinned before the JSON and CSV emitters moved
# behind one output layer.  The run report is left out: its loss values are
# einsum reductions, whose last bits may depend on the CPU.
CLI_DIGESTS = {
    "ablate stdout": "e8fb2c4e240a94792a1e858122a236832a47facbb25f7163fd7df2f6a64e50e7",
    "ablate --json": "7f4adab045744e499d256662284d4e22ad246f092369684926dc86a40f1bfc84",
    "ablate --csv": "17c3d894a27d204baecc326fb8a2ef439f13adf2313fd33b618f428618970415",
    "ablate one-case stdout": "d755171eff44c943552ea7c668e46ef597d3b1782e947153b4d08e59d30b2c21",
    "ablate one-case --json": "96e67e5b85f246c36a050dd613285d1d447744ce1fc2c8deb264dd391e486d65",
    "ablate one-case --csv": "a32ddc9044684bd677a2836fd64a5f60c6c4b5771b82868ad06c79b529f0344a",
    "metrics stdout": "7983ec807597dbfe8bf88189b6abacee00f80934ba540a6e03fb3dff8c4b4433",
    "metrics --json": "7983ec807597dbfe8bf88189b6abacee00f80934ba540a6e03fb3dff8c4b4433",
    "metrics --csv": "47a7ac147e7a64b9431faccf394982b709a14db579a845879851ac39be23131c",
    "gatekeep stdout": "e63a42599867dd86ea2915499a7978123887898fe48eaa74e119408bca189911",
    "gatekeep --report": "e63a42599867dd86ea2915499a7978123887898fe48eaa74e119408bca189911",
    "select stdout": "91508c3cd92fdb7a02fbcf3d39fb34902096b34d6c98f5f8893a6cc8e0008e86",
    "phantom stdout": "4eb01d849842c87f750a6636fabb9cbf424ff9191db6bcbe32ab7dda83c95877",
    "phantom case.json": "4eb01d849842c87f750a6636fabb9cbf424ff9191db6bcbe32ab7dda83c95877",
    "phantom spec.json": "191d28308fc14b150ce927c760d1d7bc846882c4f90b8c5bdad112da2aaf143e",
}


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """The bytes of every output that CLI_DIGESTS pins, by key."""
    d = tmp_path_factory.mktemp("cli")
    case, other = d / "case", d / "other"
    outputs = {}

    def run(key, *argv, files=()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([str(a) for a in argv]) == 0
        outputs[f"{key} stdout"] = buf.getvalue().encode()
        for name, path in files:
            outputs[f"{key} {name}"] = path.read_bytes()

    run("phantom", "phantom", "--scenario", "under_segmented_matched", "--seed", 1, "--out", case,
        files=[(name, case / name) for name in ("case.json", "spec.json")])
    run("other phantom", "phantom", "--scenario", "under_segmented_mismatched", "--seed", 2,
        "--out", other)
    run("gatekeep", "gatekeep", "--logits", case / "logits0.vol", "--report", d / "gate.json",
        files=[("--report", d / "gate.json")])
    run("select", "select", "--image", case / "image_c00.vol", "--logits", case / "logits0.vol",
        "--diffuse", other / "logits0.vol")
    run("metrics", "metrics", "--pred", case / "uncertain.vol", "--gt", case / "gt.vol",
        "--json", d / "metrics.json", "--csv", d / "metrics.csv",
        files=[("--json", d / "metrics.json"), ("--csv", d / "metrics.csv")])
    # 13 cases print Wilcoxon p-values; one case prints degenerate std and
    # skipped tests
    for key, mix in (("ablate", "clean_confident=1,noise_island=6,under_segmented_mismatched=6"),
                     ("ablate one-case", "noise_island=1")):
        run(key, "ablate", "--mix", mix, "--seed", 5, "--steps", 40, "--threads", 2,
            "--json", d / "ablate.json", "--csv", d / "ablate.csv",
            files=[("--json", d / "ablate.json"), ("--csv", d / "ablate.csv")])
    return outputs


@pytest.mark.parametrize("key", list(CLI_DIGESTS))
def test_cli_output_bytes_are_pinned(cli_outputs, key):
    assert hashlib.sha256(cli_outputs[key]).hexdigest() == CLI_DIGESTS[key]


def test_one_case_ablate_is_degenerate(cli_outputs):
    table = json.loads(cli_outputs["ablate one-case --json"])
    assert all(row["n"] == 1 and row["degenerate"] for row in table.values())
    assert b"skipped (" in cli_outputs["ablate one-case stdout"]


def _pythonpath() -> str:
    src_dir = str(Path(segtta.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))


@pytest.mark.parametrize("code", [
    "import segtta",
    "import segtta.cli",
    # hd95 included: an under-segmented baseline leaves surface voxels to search
    "from segtta import metrics, phantom, volume; "
    "g = phantom.generate(phantom.scenario_spec('under_segmented_matched', 0)); "
    "assert metrics.evaluate(volume.threshold(volume.sigmoid(g.case.logits0), 0.5), g.gt).hd95_mm > 0",
], ids=["segtta", "segtta.cli", "metrics.evaluate"])
def test_import_leaves_out_scipy_stats(code):
    # scipy costs several times the start-up of numpy and segtta together,
    # and no segtta code needs it; a fresh process shows what a path loads
    code += "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_pythonpath()),
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out == "[]\n"


# makes importing scipy fail in the process that runs it first
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())
"""
# runs the CLI with its arguments in a process where importing scipy fails
WITHOUT_SCIPY = NO_SCIPY + """
from segtta.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_every_command_runs_without_scipy(tmp_path, capsys):
    # a numpy-only install: every command exits 0, run on a flagged case
    # (edge map and both hypotheses) writes the same report and mask as with
    # scipy importable, and metrics and ablate print and write the same bytes
    def without_scipy(*args):
        return subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *args],
                              env=dict(os.environ, PYTHONPATH=_pythonpath()),
                              capture_output=True, text=True, timeout=300)

    # the finder does refuse scipy
    probe = subprocess.run([sys.executable, "-c", NO_SCIPY + "import scipy"],
                           capture_output=True, text=True, timeout=60)
    assert probe.returncode == 1 and "ModuleNotFoundError: No module named 'scipy'" in probe.stderr

    case = tmp_path / "case"
    run_args = ["run", "--image", str(case / "image_c00.vol"), "--logits", str(case / "logits0.vol"),
                "--steps", "40", "--no-timing"]
    metrics_args = ["metrics", "--pred", str(tmp_path / "mask_a.vol"), "--gt", str(case / "gt.vol")]
    ablate_args = ["ablate", "--mix", "clean_confident=2,noise_island=1,under_segmented_matched=1",
                   "--seed", "3", "--steps", "40", "--threads", "2"]
    done = without_scipy("phantom", "--scenario", "noise_island", "--seed", "3", "--out", str(case))
    assert done.returncode == 0, done.stderr
    done = without_scipy(*run_args, "--out-mask", str(tmp_path / "mask_a.vol"),
                         "--report", str(tmp_path / "report_a.json"))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["flagged"] is True
    gatekeep = without_scipy("gatekeep", "--logits", str(case / "logits0.vol"))
    assert gatekeep.returncode == 0, gatekeep.stderr
    done = without_scipy("gradcheck", "--dims", "5", "4", "3")
    assert done.returncode == 0, done.stderr
    assert "OK: all gradients within" in done.stdout

    def tables(stem):  # --json and --csv outputs
        return ["--json", str(tmp_path / f"{stem}.json"), "--csv", str(tmp_path / f"{stem}.csv")]

    scored = without_scipy(*metrics_args, *tables("metrics_a"))
    assert scored.returncode == 0, scored.stderr
    assert json.loads(scored.stdout)["hd95_mm"] > 0
    ablated = without_scipy(*ablate_args, *tables("ablate_a"))
    assert ablated.returncode == 0, ablated.stderr

    assert main([*run_args, "--out-mask", str(tmp_path / "mask_b.vol"),
                 "--report", str(tmp_path / "report_b.json")]) == 0
    capsys.readouterr()
    assert main(["gatekeep", "--logits", str(case / "logits0.vol")]) == 0
    assert capsys.readouterr().out == gatekeep.stdout
    assert main([*metrics_args, *tables("metrics_b")]) == 0
    assert capsys.readouterr().out == scored.stdout
    assert main([*ablate_args, *tables("ablate_b")]) == 0
    assert capsys.readouterr().out == ablated.stdout
    for a, b in (("mask_a.vol", "mask_b.vol"), ("report_a.json", "report_b.json"),
                 ("metrics_a.json", "metrics_b.json"), ("metrics_a.csv", "metrics_b.csv"),
                 ("ablate_a.json", "ablate_b.json"), ("ablate_a.csv", "ablate_b.csv")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
