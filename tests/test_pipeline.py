import dataclasses
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta import fileio, losses, phantom
from segtta import gatekeeper
from segtta.gatekeeper import gate
from segtta.losses import CompactWeights, DiffuseWeights
from segtta.optim import OptimizerProtocol
from segtta.pipeline import MODE_TABLE, MODES, PipelineConfig, run_case, run_cohort, run_modes
from segtta.volume import Case, Volume, sigmoid, threshold

SHORT = OptimizerProtocol(steps=120)


def quick_cfg(mode="full"):
    return PipelineConfig(mode=mode, protocol=SHORT)


@pytest.fixture(scope="module")
def clean():
    return phantom.generate(phantom.scenario_spec("clean_confident", seed=1))


@pytest.fixture(scope="module")
def clean_twin():
    """A clean case of another seed: other image noise, the same z0 bytes."""
    return phantom.generate(phantom.scenario_spec("clean_confident", seed=2)).case


@pytest.fixture(scope="module")
def island():
    return phantom.generate(phantom.scenario_spec("noise_island", seed=1))


@st.composite
def odd_cases(draw):
    """A small case on a grid with singleton axes or anisotropic spacing,
    with 1-3 channels of constant or noisy image and logits that are noisy,
    confident (+-4) or saturated (+-800)."""
    dims = tuple(draw(st.sampled_from([1, 2, 5])) for _ in range(3))
    spacing = draw(st.sampled_from([(1.0, 1.0, 1.0), (0.5, 1.0, 2.5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constant = draw(st.booleans())
    image = tuple(Volume(np.full(dims, 0.7) if constant else rng.normal(size=dims), spacing)
                  for _ in range(draw(st.integers(1, 3))))
    z = rng.normal(scale=3.0, size=dims)
    level = draw(st.sampled_from([None, 4.0, 800.0]))
    if level is not None:
        z = np.where(z > 0.0, level, -level)
    return Case(image=image, logits0=Volume(z, spacing))


class TestRunCase:
    def test_gate_skip_returns_baseline_bit_identical(self, clean):
        case, gt, _ = clean
        report = run_case(case, quick_cfg("full"))
        assert not report.gate.flagged
        assert report.mask_source == "baseline"
        assert report.compact_trace is None and report.diffuse_trace is None
        assert report.selection is None
        baseline = threshold(sigmoid(case.logits0), 0.5)
        assert np.array_equal(report.final_mask.data, baseline.data)

    def test_flagged_case_records_both_traces_and_selection(self, island):
        case, gt, _ = island
        report = run_case(case, quick_cfg("full"))
        assert report.gate.flagged
        assert report.compact_trace is not None and report.diffuse_trace is not None
        assert report.selection is not None
        assert report.mask_source == report.selection.chosen
        assert report.compact_trace.steps == SHORT.steps

    def test_no_gatekeeper_forces_adaptation(self, clean):
        case, _, _ = clean
        report = run_case(case, quick_cfg("no_gatekeeper"))
        assert not report.gate.flagged          # verdict still recorded
        assert report.mask_source in ("compact", "diffuse")
        assert report.compact_trace is not None

    def test_only_modes_skip_selection(self, island):
        case, _, _ = island
        rep_c = run_case(case, quick_cfg("only_compact"))
        assert rep_c.mask_source == "compact"
        assert rep_c.selection is None and rep_c.diffuse_trace is None
        rep_d = run_case(case, quick_cfg("only_diffuse"))
        assert rep_d.mask_source == "diffuse"
        assert rep_d.selection is None and rep_d.compact_trace is None

    def test_only_modes_still_gate(self, clean):
        case, _, _ = clean
        for mode in ("only_compact", "only_diffuse"):
            report = run_case(case, quick_cfg(mode))
            assert report.mask_source == "baseline"

    def test_no_edge_map_keeps_compact_trace_bit_identical(self, island):
        case, _, _ = island
        full = run_case(case, quick_cfg("full"))
        no_edge = run_case(case, quick_cfg("no_edge_map"))
        assert no_edge.compact_trace == full.compact_trace

    def test_only_compact_matches_full_when_compact_chosen(self, island):
        case, _, _ = island
        full = run_case(case, quick_cfg("full"))
        only_c = run_case(case, quick_cfg("only_compact"))
        if full.mask_source == "compact":
            assert np.array_equal(full.final_mask.data, only_c.final_mask.data)

    def test_timings_recorded(self, clean):
        case, _, _ = clean
        report = run_case(case, quick_cfg())
        assert "gate_s" in report.timings_s and "total_s" in report.timings_s

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fixture", ["island", "clean"])
    def test_one_worker_or_two_give_identical_outputs(self, mode, fixture, request):
        case = request.getfixturevalue(fixture).case
        par = run_case(case, PipelineConfig(mode=mode, protocol=SHORT, parallel_hypotheses=True))
        ser = run_case(case, PipelineConfig(mode=mode, protocol=SHORT, parallel_hypotheses=False))
        assert par.gate.flagged == (fixture == "island")
        # the configs differ only in the flag under test
        assert (fileio.dumps_report(dataclasses.replace(par, config=ser.config), include_timings=False)
                == fileio.dumps_report(ser, include_timings=False))
        assert np.array_equal(par.final_mask.data, ser.final_mask.data)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PipelineConfig(mode="everything")
        assert set(MODES) == {
            "full", "no_gatekeeper", "no_edge_map", "only_compact", "only_diffuse"
        }


class TestRunCohort:
    def test_single_case_matches_run_case(self, clean):
        case, _, _ = clean
        solo = run_case(case, quick_cfg())
        batch = run_cohort([case], quick_cfg())
        assert len(batch) == 1
        assert np.array_equal(batch[0].final_mask.data, solo.final_mask.data)

    def test_identical_cases_identical_reports(self, island):
        case, _, _ = island
        reports = run_cohort([case, case, case], quick_cfg())
        masks = [r.final_mask.data for r in reports]
        assert np.array_equal(masks[0], masks[1]) and np.array_equal(masks[1], masks[2])
        assert reports[0].mask_source == reports[2].mask_source

    def test_order_preserved_and_parallel_equals_serial(self, clean, island):
        cases = [clean.case, island.case, clean.case]
        serial = run_cohort(cases, quick_cfg())
        threaded = run_cohort(cases, quick_cfg(), workers=3)
        assert [r.case_id for r in serial] == [c.case_id for c in cases]
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.final_mask.data, b.final_mask.data)

    def test_per_case_errors_recorded_and_cohort_continues(self, clean, monkeypatch):
        ok_case = clean.case
        bad = Case(
            image=(Volume(np.zeros((4, 4, 4)), (1, 1, 1)),),
            logits0=Volume(np.full((4, 4, 4), 0.6), (1, 1, 1)),
            case_id="bad",
        )
        import segtta.pipeline as pl

        original = pl.optim.refine

        def exploding(case, hypothesis, **kwargs):
            if case.case_id == "bad":
                raise pl.optim.NumericalFailure("boom at step 3")
            return original(case, hypothesis, **kwargs)

        monkeypatch.setattr(pl.optim, "refine", exploding)
        reports = pl.run_cohort([ok_case, bad], quick_cfg())
        assert reports[0].error is None
        assert reports[1].error is not None and "boom" in reports[1].error
        assert reports[1].final_mask is None

    def test_failed_refinement_reports_the_verdict_without_regating(self, clean, island,
                                                                     monkeypatch):
        import segtta.pipeline as pl

        def failing(case, hypothesis, **kwargs):
            raise pl.optim.NumericalFailure("non-finite gradient at step 7")

        calls = []

        def counting(p0):
            calls.append(p0)
            return gate(p0)

        monkeypatch.setattr(pl.optim, "refine", failing)
        monkeypatch.setattr(pl, "gate", counting)
        cases = [island.case, clean.case, island.case]
        reports = pl.run_cohort(cases, quick_cfg("no_gatekeeper"), workers=2)
        assert len(calls) == len(cases)
        for case, report in zip(cases, reports):
            assert report.error is not None and "step 7" in report.error
            assert report.final_mask is None and report.mask_source == "baseline"
            assert report.gate == gate(sigmoid(case.logits0))
        assert reports[0].gate.flagged and not reports[1].gate.flagged

    def test_programming_errors_propagate(self, island, monkeypatch):
        import segtta.pipeline as pl

        def broken(case, hypothesis, **kwargs):
            raise TypeError("bad operand")

        monkeypatch.setattr(pl.optim, "refine", broken)
        with pytest.raises(TypeError, match="bad operand"):
            pl.run_cohort([island.case], quick_cfg())

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            run_cohort([], quick_cfg())


class TestRunModes:
    def test_matches_separate_run_cohort_calls(self, clean, island):
        cases = [island.case, clean.case]
        cfg = PipelineConfig(protocol=OptimizerProtocol(steps=40))
        together = run_modes(cases, MODES, cfg)
        assert list(together) == list(MODES)
        for mode in MODES:
            apart = run_cohort(cases, dataclasses.replace(cfg, mode=mode))
            for a, b in zip(together[mode], apart):
                assert (fileio.dumps_report(a, include_timings=False)
                        == fileio.dumps_report(b, include_timings=False))
                assert a.final_mask.data.tobytes() == b.final_mask.data.tobytes()

    def test_failed_job_errors_only_the_modes_that_need_it(self, clean, island, monkeypatch):
        import segtta.pipeline as pl

        cases = [island.case, clean.case]
        intact = run_modes(cases, ("only_compact", "no_edge_map"), quick_cfg())
        original = pl.optim.refine

        def failing(case, hypothesis, **kwargs):
            if hypothesis == "diffuse" and kwargs["edge_map"]:
                raise pl.optim.NumericalFailure("non-finite gradient at step 5")
            return original(case, hypothesis, **kwargs)

        monkeypatch.setattr(pl.optim, "refine", failing)
        reports = run_modes(cases, MODES, quick_cfg(), workers=2)
        cid = island.case.case_id
        for mode in ("full", "no_gatekeeper", "only_diffuse"):
            assert reports[mode][0].error == (
                f"case {cid!r}, hypothesis diffuse: non-finite gradient at step 5")
            assert reports[mode][0].final_mask is None
        for mode in ("only_compact", "no_edge_map"):
            assert reports[mode][0].error is None
            assert (fileio.dumps_report(reports[mode][0], include_timings=False)
                    == fileio.dumps_report(intact[mode][0], include_timings=False))
        # the unflagged case refines only where the gate is off
        assert reports["no_gatekeeper"][1].error is not None
        assert all(reports[mode][1].error is None for mode in MODES if mode != "no_gatekeeper")

    @given(st.lists(odd_cases(), min_size=1, max_size=3), st.sampled_from([0, 300]))
    @settings(max_examples=30, deadline=None)
    def test_invariants_on_odd_inputs(self, cases, vol_min):
        cases = [dataclasses.replace(c, case_id=f"c{i}") for i, c in enumerate(cases)]
        cfg = PipelineConfig(protocol=OptimizerProtocol(steps=3))
        with pytest.MonkeyPatch.context() as mp:  # per example: a fixture would span them all
            mp.setattr(gatekeeper, "VOL_MIN", vol_min)
            one, two = (run_modes(cases, MODES, cfg, workers=w) for w in (1, 2))
        for mode in MODES:
            for case, a, b in zip(cases, one[mode], two[mode]):
                assert (fileio.dumps_report(a, include_timings=False)
                        == fileio.dumps_report(b, include_timings=False))
                assert a.final_mask.data.tobytes() == b.final_mask.data.tobytes()
                assert a.final_mask.dims == case.logits0.dims
                assert a.final_mask.spacing == case.spacing
                if MODE_TABLE[mode].gated and not a.gate.flagged:
                    assert a.mask_source == "baseline"
                    assert a.compact_trace is None and a.diffuse_trace is None
                    baseline = threshold(sigmoid(case.logits0), 0.5)
                    assert a.final_mask.data.tobytes() == baseline.data.tobytes()
        for full, compact in zip(one["full"], one["only_compact"]):
            if full.mask_source == "compact":
                assert full.compact_trace == compact.compact_trace
                assert full.final_mask.data.tobytes() == compact.final_mask.data.tobytes()

    def test_refinements_do_not_hold_the_gate_probabilities(self, island, monkeypatch):
        # the flagged case's P0 grid is the gate's alone: at the refinement's
        # entry, nothing allocated since the run started holds a grid
        import segtta.pipeline as pl

        held = []

        def measuring(case, hypothesis, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            raise pl.optim.NumericalFailure("stopped at entry")

        monkeypatch.setattr(pl.optim, "refine", measuring)
        tracemalloc.start()
        try:
            reports = run_modes([island.case], ["only_compact"], quick_cfg())
        finally:
            tracemalloc.stop()
        assert reports["only_compact"][0].gate.flagged and len(held) == 1
        assert held[0] < island.case.logits0.data.nbytes // 4

    def test_refinements_build_the_paper_objectives(self, island, monkeypatch):
        # perfbench's traced run wraps both factories on the losses module,
        # as here, and times the objectives they return: every refinement
        # builds its objective through them, at its weight class's defaults
        builds = []

        def recording(name):
            original = getattr(losses, name)

            def factory(*args, **kwargs):
                builds.append((name, type(args[1]), args[2]))
                return original(*args, **kwargs)
            return factory

        for name in ("compact_objective", "diffuse_objective"):
            monkeypatch.setattr(losses, name, recording(name))
        reports = run_modes([island.case], ["full", "no_edge_map"],
                            PipelineConfig(protocol=OptimizerProtocol(steps=2)))
        assert all(r[0].gate.flagged and r[0].error is None for r in reports.values())
        assert sorted(builds, key=repr) == sorted([
            ("compact_objective", tuple, CompactWeights()),
            ("diffuse_objective", np.ndarray, DiffuseWeights()),  # full: the image edge map
            ("diffuse_objective", type(None), DiffuseWeights()),  # no_edge_map: g == 1
        ], key=repr)

    def test_equal_logits_share_compact_and_each_case_reports_as_alone(self, clean, clean_twin,
                                                                       monkeypatch):
        # phantom logits do not depend on the seed: two clean cases share z0,
        # hence the compact refinement, but not the image-reading diffuse one
        import segtta.pipeline as pl

        cases = [clean.case, clean_twin]
        assert cases[0].logits0.data.tobytes() == cases[1].logits0.data.tobytes()
        cfg = quick_cfg("no_gatekeeper")
        alone = [run_cohort([case], cfg)[0] for case in cases]
        calls = []
        original = pl.optim.refine

        def counting(case, hypothesis, **kwargs):
            calls.append((case.case_id, hypothesis))
            return original(case, hypothesis, **kwargs)

        monkeypatch.setattr(pl.optim, "refine", counting)
        together = run_cohort(cases, cfg, workers=2)
        assert sorted(calls) == sorted([(cases[0].case_id, "compact"),
                                        (cases[0].case_id, "diffuse"),
                                        (cases[1].case_id, "diffuse")])
        for a, b in zip(together, alone):
            assert (fileio.dumps_report(a, include_timings=False)
                    == fileio.dumps_report(b, include_timings=False))
            assert a.final_mask.data.tobytes() == b.final_mask.data.tobytes()

    def test_equal_bytes_on_another_grid_are_not_shared(self, monkeypatch):
        import segtta.pipeline as pl

        rng = np.random.default_rng(5)
        z, image = rng.normal(scale=3.0, size=(4, 5, 6)), rng.normal(size=(4, 5, 6))

        def case(case_id, dims, spacing):
            return Case(image=(Volume(image.reshape(dims), spacing),),
                        logits0=Volume(z.reshape(dims), spacing), case_id=case_id)

        cases = [case("a", (4, 5, 6), (1.0, 1.0, 1.0)),
                 case("spacing", (4, 5, 6), (1.0, 1.0, 2.0)),
                 case("shape", (5, 4, 6), (1.0, 1.0, 1.0)),
                 case("twin", (4, 5, 6), (1.0, 1.0, 1.0))]
        calls = []
        original = pl.optim.refine

        def counting(case, hypothesis, **kwargs):
            calls.append((case.case_id, hypothesis, kwargs["edge_map"]))
            return original(case, hypothesis, **kwargs)

        monkeypatch.setattr(pl.optim, "refine", counting)
        reports = run_modes(cases, ["no_gatekeeper", "no_edge_map"],
                            PipelineConfig(protocol=OptimizerProtocol(steps=2)))
        for h, e in [("compact", True), ("diffuse", False)]:
            assert [c for c, *job in calls if tuple(job) == (h, e)] == ["a", "spacing", "shape"]
        assert [c for c, *job in calls if job == ["diffuse", True]] == [c.case_id for c in cases]
        twin, first = reports["no_gatekeeper"][3], reports["no_gatekeeper"][0]
        assert twin.case_id == "twin" and twin.compact_trace == first.compact_trace

    def test_shared_failure_names_each_case(self, clean, clean_twin, monkeypatch):
        import segtta.pipeline as pl

        original = pl.optim.refine
        compact_calls = []

        def failing(case, hypothesis, **kwargs):
            if hypothesis == "compact":
                compact_calls.append(case.case_id)
                raise pl.optim.NumericalFailure("non-finite gradient at step 4")
            return original(case, hypothesis, **kwargs)

        monkeypatch.setattr(pl.optim, "refine", failing)
        cases = [clean.case, clean_twin, clean.case]
        reports = run_cohort(cases, quick_cfg("no_gatekeeper"), workers=2)
        assert len(compact_calls) == 1
        for case, report in zip(cases, reports):
            assert report.error == (f"case {case.case_id!r}, hypothesis compact: "
                                    "non-finite gradient at step 4")
            assert report.final_mask is None

    def test_a_shared_result_is_dropped_after_its_last_case(self, clean, clean_twin, island,
                                                            monkeypatch):
        # the clean cases' compact trace is released before the case after
        # them is reported, so sharing holds no result longer than it is used
        import gc
        import weakref

        import segtta.pipeline as pl

        traces = {}
        original_refine, original_report = pl.optim.refine, pl._report

        def recording(case, hypothesis, **kwargs):
            trace = original_refine(case, hypothesis, **kwargs)
            traces[case.case_id, hypothesis] = weakref.ref(trace)
            return trace

        alive = []

        def reporting(case, *args):
            gc.collect()
            alive.append((case.case_id, traces[clean.case.case_id, "compact"]() is not None))
            return original_report(case, *args)

        monkeypatch.setattr(pl.optim, "refine", recording)
        monkeypatch.setattr(pl, "_report", reporting)
        run_modes([clean.case, clean_twin, island.case], ["no_gatekeeper"],
                  PipelineConfig(protocol=OptimizerProtocol(steps=2)))
        assert alive == [(clean.case.case_id, True), (clean_twin.case_id, True),
                         (island.case.case_id, False)]

    def test_unknown_mode_rejected(self, clean):
        with pytest.raises(ValueError, match="mode"):
            run_modes([clean.case], ["full", "everything"], quick_cfg())

    @pytest.mark.parametrize("workers", [0, -3])
    def test_no_workers_rejected(self, clean, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_modes([clean.case], MODES, quick_cfg(), workers=workers)

    def test_pool_is_capped_at_the_usable_cpus(self, clean, island, monkeypatch):
        import segtta.pipeline as pl

        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(pl, "ThreadPoolExecutor", Recording)
        cases = [island.case, clean.case]
        cfg = PipelineConfig(protocol=OptimizerProtocol(steps=40))
        one, many = (run_modes(cases, MODES, cfg, workers=w) for w in (1, 64))
        cpus = pl._usable_cpus()
        assert sizes == [min(2, cpus), cpus]
        for mode in MODES:
            for a, b in zip(one[mode], many[mode]):
                assert (fileio.dumps_report(a, include_timings=False)
                        == fileio.dumps_report(b, include_timings=False))
                assert a.final_mask.data.tobytes() == b.final_mask.data.tobytes()
        monkeypatch.setattr(pl, "_usable_cpus", lambda: 3)
        run_modes([clean.case], ["only_compact"], cfg, workers=64)
        run_modes([clean.case], ["no_gatekeeper"], dataclasses.replace(cfg, parallel_hypotheses=False))
        assert sizes[2:] == [3, 1]


BAD_CONFIGS = [
    (OptimizerProtocol, dict(steps=-3)),
    (OptimizerProtocol, dict(steps=2.5)),
    (CompactWeights, dict(lambda_tv=float("nan"))),
    (CompactWeights, dict(lambda_grav=float("inf"))),
    (DiffuseWeights, dict(lambda_inf=float("nan"))),
    (DiffuseWeights, dict(lambda_geo=float("inf"))),
    # a bool is not a number, and a string is rejected, not compared
    (OptimizerProtocol, dict(steps=True)),
    (CompactWeights, dict(lambda_tv=True)),
    (CompactWeights, dict(lambda_tv="1")),
    # each pipeline field is an instance of its declared class
    (PipelineConfig, dict(protocol=None)),
    (PipelineConfig, dict(protocol=CompactWeights())),
    (PipelineConfig, dict(parallel_hypotheses="false")),
    (PipelineConfig, dict(parallel_hypotheses=1)),
]


class TestConfigValidation:
    @pytest.mark.parametrize("cls, kwargs", BAD_CONFIGS,
                             ids=[f"{cls.__name__}-{kwargs}" for cls, kwargs in BAD_CONFIGS])
    def test_out_of_range_rejected(self, cls, kwargs):
        with pytest.raises(ValueError):
            cls(**kwargs)

    def test_pipeline_config_error_names_the_field(self):
        with pytest.raises(ValueError, match="^protocol must be of type OptimizerProtocol, got None$"):
            PipelineConfig(protocol=None)
        with pytest.raises(ValueError, match="^parallel_hypotheses must be of type bool, got 'false'$"):
            PipelineConfig(parallel_hypotheses="false")

    def test_boundary_values_accepted(self):
        OptimizerProtocol(steps=0)

    @pytest.mark.parametrize("name, weights", [("compact", CompactWeights()), ("diffuse", DiffuseWeights())],
                             ids=["compact", "diffuse"])
    def test_loss_weights_are_not_a_pipeline_option(self, name, weights):
        # the loss weights are fixed at their classes' defaults: a caller
        # still passing them is refused, not silently run at the defaults
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            PipelineConfig(**{name: weights})

    def test_lr_is_not_a_protocol_option(self):
        # Adam's step size is the constant optim.LR: a caller still passing
        # lr is refused, not silently run at 0.1
        with pytest.raises(TypeError, match="unexpected keyword argument 'lr'"):
            OptimizerProtocol(lr=0.1)

    def test_lr_is_not_a_pipeline_option(self):
        # nor does the pipeline config take it beside mode, protocol and
        # parallel_hypotheses
        with pytest.raises(TypeError, match="unexpected keyword argument 'lr'"):
            PipelineConfig(lr=0.1)


CONFIG_CLASSES = [CompactWeights, DiffuseWeights, OptimizerProtocol, PipelineConfig, phantom.PhantomSpec]
CONFIG_FIELDS = [(cls, name) for cls in CONFIG_CLASSES for name in get_type_hints(cls)]


def example(cls):
    """A valid instance of a config class, with every optional field set."""
    if cls is phantom.PhantomSpec:
        return phantom.scenario_spec("noise_island", seed=3)
    return cls()


def numbers_as(value, int_type, float_type):
    """``value`` with each int as ``int_type`` and each float as
    ``float_type``, inside tuples and nested configs too."""
    if dataclasses.is_dataclass(value):
        return type(value)(**{f.name: numbers_as(getattr(value, f.name), int_type, float_type)
                              for f in dataclasses.fields(value)})
    if isinstance(value, tuple):
        return tuple(numbers_as(v, int_type, float_type) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number)):
        return value
    return int_type(value) if isinstance(value, (int, np.integer)) else float_type(value)


def python_float32(x):
    return float(np.float32(x))


NUMPY_NUMBERS, PYTHON_NUMBERS = (np.int64, np.float32), (int, python_float32)


class TestCheckFields:
    """Every config class checks its fields by their declared types, and
    stores numbers as Python ints and floats."""

    @pytest.mark.parametrize("cls, name", CONFIG_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in CONFIG_FIELDS])
    def test_field_rejects_a_bool_a_string_and_none(self, cls, name):
        base = {f.name: getattr(example(cls), f.name) for f in dataclasses.fields(cls)}
        hint = get_type_hints(cls)[name]
        for bad in (True, "1", None):
            if hint is type(bad):  # a bool field takes True, a str field "1"
                continue
            if bad is None and name == "center_mm":  # the one optional field
                assert cls(**dict(base, center_mm=None)).center_mm is None
                continue
            with pytest.raises(ValueError, match=f"^{name} must be .*, got {bad!r}$"):
                cls(**dict(base, **{name: bad}))

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=[cls.__name__ for cls in CONFIG_CLASSES])
    def test_numpy_numbers_are_stored_as_python_numbers(self, cls):
        def types(value):
            return tuple(map(types, value)) if isinstance(value, tuple) else type(value)

        python = numbers_as(example(cls), *PYTHON_NUMBERS)
        from_numpy = numbers_as(example(cls), *NUMPY_NUMBERS)
        assert from_numpy == python
        for f in dataclasses.fields(cls):
            assert types(getattr(from_numpy, f.name)) == types(getattr(python, f.name))

    def test_numpy_typed_config_gives_the_same_report(self):
        # np.int64 and np.float32 fields once reached the report and the
        # spec file, which json.dumps cannot write
        spec = phantom.scenario_spec("noise_island", seed=3)
        case = phantom.generate(spec).case
        cfg = PipelineConfig(protocol=OptimizerProtocol(steps=3))
        reports = [fileio.dumps_report(run_case(case, numbers_as(cfg, *numbers)), include_timings=False)
                   for numbers in (NUMPY_NUMBERS, PYTHON_NUMBERS)]
        assert reports[0] == reports[1]
        specs = [numbers_as(spec, *numbers) for numbers in (NUMPY_NUMBERS, PYTHON_NUMBERS)]
        assert fileio.spec_to_json(specs[0]) == fileio.spec_to_json(specs[1])
        cases = [phantom.generate(s).case for s in specs]
        assert cases[0].logits0.data.tobytes() == cases[1].logits0.data.tobytes()
        assert cases[0].image[0].data.tobytes() == cases[1].image[0].data.tobytes()
