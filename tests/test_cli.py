import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segtta
from segtta import fileio, optim, phantom, pipeline
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

    @pytest.mark.parametrize("flag, value", [("--steps", "-3"), ("--lr", "nan")])
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
            "--compact", paths["logits"], "--diffuse", paths["logits"],
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
        ("--tolerance", ["nan"], "tolerance"),
        ("--tolerance", ["inf"], "tolerance"),
        ("--tolerance", ["0"], "tolerance"),
        ("--tolerance", ["-0.001"], "tolerance"),
        ("--tolerance", ["-1e-3"], "tolerance"),
        ("--tolerance", ["-1.5E+2"], "tolerance"),
        ("--dims", ["-1", "4", "4"], "dims"),
        ("--dims", ["4", "0", "4"], "dims"),
    ], ids=["nan-tolerance", "inf-tolerance", "zero-tolerance", "negative-tolerance",
            "exponent-tolerance", "signed-exponent-tolerance", "negative-dims", "zero-dims"])
    def test_gradcheck_bad_input_exits_1(self, capsys, flag, values, field):
        assert main(["gradcheck", "--volumes", "1", flag, *values]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be") and "OK" not in captured.out

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_ablate_without_threads_exits_1(self, capsys, threads):
        assert main(["ablate", "--mix", "clean_confident=1", "--steps", "2",
                     "--threads", threads]) == 1
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"

    @pytest.mark.parametrize("lr", ["-0.001", "-1e-3", "-.5e1"])
    def test_ablate_negative_lr_exits_1(self, capsys, lr):
        # exponent form reaches the range check too, not argparse's
        # "expected one argument"
        assert main(["ablate", "--mix", "clean_confident=1", "--steps", "2", "--lr", lr]) == 1
        assert capsys.readouterr().err.startswith(f"error: lr must be finite and > 0, got {float(lr)!r}")

    def test_ablate_gates_and_refines_each_case_once(self, capsys, monkeypatch):
        # the flagged case needs compact, diffuse and diffuse with g == 1 over
        # the five modes; the clean one compact and diffuse (no_gatekeeper)
        calls = {"refine": 0, "gate": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(optim, "refine", counting("refine", optim.refine))
        monkeypatch.setattr(pipeline, "gate", counting("gate", pipeline.gate))
        assert main(["ablate", "--mix", "clean_confident=1,under_segmented_matched=1",
                     "--steps", "5"]) == 0
        assert calls == {"refine": 5, "gate": 2}

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

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gradcheck", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_1(self):
        assert main(["explode"]) == 1


def _pythonpath() -> str:
    src_dir = str(Path(segtta.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))


@pytest.mark.parametrize("module", ["segtta", "segtta.cli"])
def test_import_leaves_out_scipy_stats(module):
    # scipy costs several times the start-up of numpy and segtta together,
    # and only hd95's KD-tree needs it, imported by the first call; a fresh
    # process shows what importing the package loads
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=_pythonpath()),
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out == "[]\n"


# runs the CLI with its arguments in a process where importing scipy fails
WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())
from segtta.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_commands_without_hd95_run_without_scipy(tmp_path, capsys):
    # a numpy-only install: phantom, run on a flagged case (edge map and both
    # hypotheses), gatekeep and gradcheck exit 0, and run writes the same
    # report and mask as with scipy importable
    def without_scipy(*args):
        return subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *args],
                              env=dict(os.environ, PYTHONPATH=_pythonpath()),
                              capture_output=True, text=True, timeout=300)

    case = tmp_path / "case"
    run_args = ["run", "--image", str(case / "image_c00.vol"), "--logits", str(case / "logits0.vol"),
                "--steps", "40", "--no-timing"]
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
    # the finder does refuse scipy: hd95 needs it
    probe = without_scipy("metrics", "--pred", str(case / "gt.vol"), "--gt", str(case / "gt.vol"))
    assert probe.returncode == 1 and "No module named 'scipy" in probe.stderr
    assert probe.stderr.startswith("error: ") and "Traceback" not in probe.stderr

    assert main([*run_args, "--out-mask", str(tmp_path / "mask_b.vol"),
                 "--report", str(tmp_path / "report_b.json")]) == 0
    assert main(["gatekeep", "--logits", str(case / "logits0.vol")]) == 0
    assert capsys.readouterr().out.endswith(gatekeep.stdout)
    for a, b in (("mask_a.vol", "mask_b.vol"), ("report_a.json", "report_b.json")):
        assert (tmp_path / a).read_bytes() == (tmp_path / b).read_bytes()
