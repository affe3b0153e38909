import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtta.gatekeeper import GateThresholds, gate
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

    def test_custom_thresholds(self):
        verdict = gate(prob_volume(500, 0), GateThresholds(vol_min=501))
        assert verdict.flagged and verdict.trigger == "small_volume"

    # vol_min=inf would flag every case, and True would read as 1
    @pytest.mark.parametrize("vol_min", [float("inf"), float("nan"), True, 300.5, -1],
                             ids=["inf", "nan", "bool", "fraction", "negative"])
    def test_vol_min_must_be_an_integer(self, vol_min):
        with pytest.raises(ValueError, match="vol_min must be an integer >= 0"):
            GateThresholds(vol_min=vol_min)

    def test_numpy_integer_vol_min_accepted(self):
        assert GateThresholds(vol_min=np.int64(12)).vol_min == 12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_verdict_invariants_on_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        v = Volume(rng.uniform(0.0, 1.0, size=(8, 8, 8)), (1, 1, 1))
        verdict = gate(v)
        assert verdict.flagged == (verdict.trigger != "none")
        assert 0.0 <= verdict.uncertainty_ratio <= 1.0
        assert 0 <= verdict.predicted_volume_voxels <= v.nvox
