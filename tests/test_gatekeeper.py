import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta import gatekeeper
from segtta.gatekeeper import GateVerdict, gate
from segtta.volume import Volume


def prob_volume(n_confident, n_uncertain, dims=(16, 16, 16),
                confident=0.99, uncertain=0.6, background=0.01):
    arr = np.full(dims, background)
    flat = arr.ravel()
    flat[:n_confident] = confident
    flat[n_confident:n_confident + n_uncertain] = uncertain
    return Volume(flat.reshape(dims), (1, 1, 1))


class TestGateTriggers:
    def test_small_volume_flags(self):
        v = prob_volume(299, 0)
        verdict = gate(v)
        assert verdict.flagged and verdict.trigger == "small_volume"
        assert verdict.predicted_volume_voxels == 299

    def test_exactly_300_confident_not_flagged(self):
        verdict = gate(prob_volume(300, 0))
        assert not verdict.flagged and verdict.trigger == "none"

    def test_all_uncertain_flags(self):
        verdict = gate(prob_volume(0, 1000))
        assert verdict.flagged and verdict.trigger == "high_uncertainty"
        assert verdict.uncertainty_ratio == 1.0

    def test_ratio_just_below_threshold(self):
        verdict = gate(prob_volume(960, 40))  # 40/1000 = 0.04
        assert verdict.uncertainty_ratio == pytest.approx(0.04)
        assert not verdict.flagged

    def test_ratio_exactly_at_threshold_not_flagged(self):
        verdict = gate(prob_volume(950, 50))  # exactly 0.05, strict >
        assert verdict.uncertainty_ratio == pytest.approx(0.05)
        assert not verdict.flagged

    def test_both_triggers(self):
        verdict = gate(prob_volume(100, 100))
        assert verdict.flagged and verdict.trigger == "both"

    def test_empty_prediction(self):
        verdict = gate(prob_volume(0, 0))
        assert verdict.flagged and verdict.trigger == "small_volume"
        assert verdict.uncertainty_ratio == 0.0
        assert verdict.predicted_volume_voxels == 0

    @pytest.mark.parametrize("dims", [(1, 1, 1), (16, 16, 16)])
    @pytest.mark.parametrize("level", [0.0, 0.3, 0.45, 0.5])
    def test_every_empty_prediction_is_small_volume(self, level, dims):
        # nothing above 0.5, band values and 0.5 itself included: the ratio
        # is 0 and the case is flagged as 0 < VOL_MIN
        verdict = gate(Volume(np.full(dims, level), (1, 1, 1)))
        assert verdict == GateVerdict(True, 0, 0.0, "small_volume")


class TestConstantsReadAtCallTime:
    # 300 confident and 15 band voxels: ratio 15/315 under UNC_MAX, unflagged
    @pytest.mark.parametrize("name, value, field, expected", [
        ("VOL_MIN", 400, "trigger", "small_volume"),
        ("UNC_LO", 0.65, "uncertainty_ratio", 0.0),   # the band voxels sit at 0.6
        ("UNC_HI", 0.55, "uncertainty_ratio", 0.0),
        ("UNC_MAX", 0.04, "trigger", "high_uncertainty"),
    ], ids=["VOL_MIN", "UNC_LO", "UNC_HI", "UNC_MAX"])
    def test_patched_constant_moves_the_verdict(self, name, value, field, expected, monkeypatch):
        v = prob_volume(300, 15)
        base = gate(v)
        assert base.trigger == "none" and base.uncertainty_ratio == 15 / 315
        monkeypatch.setattr(gatekeeper, name, value)
        assert getattr(gate(v), field) == expected


class TestGateProperties:
    @given(st.integers(min_value=300, max_value=2000))
    @settings(max_examples=20, deadline=None)
    def test_confident_predictions_never_flagged(self, n):
        assert not gate(prob_volume(n, 0, confident=0.75)).flagged

    def test_band_boundaries_are_strict(self):
        # P0 exactly at 0.7 is not "uncertain"
        verdict = gate(prob_volume(0, 1000, uncertain=0.7))
        assert verdict.uncertainty_ratio == 0.0

    @given(st.floats(min_value=0.01, max_value=0.29))
    @settings(max_examples=20, deadline=None)
    def test_background_below_band_is_ignored(self, bg):
        base = gate(prob_volume(1000, 0, background=0.01))
        varied = gate(prob_volume(1000, 0, background=bg))
        assert base.flagged == varied.flagged
        assert base.uncertainty_ratio == varied.uncertainty_ratio
        assert base.predicted_volume_voxels == varied.predicted_volume_voxels

    def test_custom_thresholds(self, monkeypatch):
        monkeypatch.setattr(gatekeeper, "VOL_MIN", 501)
        verdict = gate(prob_volume(500, 0))
        assert verdict.flagged and verdict.trigger == "small_volume"

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_verdict_invariants_on_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        v = Volume(rng.uniform(0.0, 1.0, size=(8, 8, 8)), (1, 1, 1))
        verdict = gate(v)
        assert verdict.flagged == (verdict.trigger != "none")
        assert 0.0 <= verdict.uncertainty_ratio <= 1.0
        assert 0 <= verdict.predicted_volume_voxels <= v.nvox
