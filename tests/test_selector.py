import math

import numpy as np
import pytest

from segtta import selector
from segtta.selector import _channel_score, select
from segtta.volume import Case, Volume

SPACING = (1.0, 1.0, 1.0)
DIMS = (10, 6, 6)

CORE = np.zeros(DIMS, dtype=bool)
CORE[1:4] = True          # 108 voxels
DELTA = np.zeros(DIMS, dtype=bool)
DELTA[5:7] = True         # 72 voxels


def expected_score(offset_sigma, sigma=1.0, gamma=1.5, eps=1e-6):
    ratio = abs(offset_sigma * sigma) / (gamma * (sigma + eps))
    return math.exp(-0.5 * ratio * ratio)


def intensity_channel(core_mean=10.0, core_sigma=1.0, delta_offset_sigma=0.0, background=0.0):
    """Core intensities alternate core_mean +/- core_sigma so the population
    std is exactly core_sigma; delta sits at a controlled offset."""
    arr = np.full(DIMS, background)
    signs = np.where(np.arange(CORE.sum()) % 2 == 0, 1.0, -1.0)
    arr[CORE] = core_mean + core_sigma * signs
    arr[DELTA] = core_mean + delta_offset_sigma * core_sigma
    return Volume(arr, SPACING)


def logits_for(mask, confident=4.0):
    return Volume(np.where(mask, confident, -confident), SPACING)


def make_case(channels):
    return Case(image=tuple(channels), logits0=logits_for(CORE), case_id="fixture")


class TestChannelScore:
    """Statistics over bool regions: the mean, and the population (ddof 0) std."""

    def test_constant_field(self):
        ch = Volume(np.full(DIMS, 7.0), SPACING)
        assert _channel_score(ch, CORE, DELTA) == (1.0, 7.0, 0.0, 7.0)

    def test_population_std(self):
        both = np.ones((2, 1, 1), dtype=bool)
        ch = Volume(np.array([1.0, 3.0]).reshape(2, 1, 1), SPACING)
        _, mu_core, sigma_core, mu_delta = _channel_score(ch, both, both)
        assert (mu_core, sigma_core, mu_delta) == (2.0, 1.0, 2.0)

    def test_full_region_equals_global_stats(self):
        arr = np.random.default_rng(1).normal(size=(4, 3, 2))
        full = np.ones(arr.shape, dtype=bool)
        _, mu_core, sigma_core, _ = _channel_score(Volume(arr, SPACING), full, full)
        assert mu_core == pytest.approx(arr.mean(), abs=1e-12)
        assert sigma_core == pytest.approx(arr.std(), abs=1e-12)


def texture_score(channels):
    """The score select reports for the fixture's core and delta regions."""
    result = select(make_case(channels), logits_for(CORE | DELTA))
    assert (result.core_voxels, result.delta_voxels) == (CORE.sum(), DELTA.sum())
    return result.texture_score


class TestTextureScore:
    def test_matched_means_score_one(self):
        ch = intensity_channel(delta_offset_sigma=0.0)
        assert texture_score([ch]) == pytest.approx(1.0, abs=1e-9)

    def test_offset_of_1p5_sigma(self):
        ch = intensity_channel(delta_offset_sigma=1.5)
        assert texture_score([ch]) == pytest.approx(math.exp(-0.5), abs=1e-4)

    def test_offset_of_5_sigma(self):
        ch = intensity_channel(delta_offset_sigma=5.0)
        assert texture_score([ch]) == pytest.approx(3.9e-3, abs=2e-4)

    def test_min_over_channels(self):
        mild = intensity_channel(delta_offset_sigma=0.213)   # score ~0.99
        harsh = intensity_channel(delta_offset_sigma=2.031)  # score ~0.40
        got = texture_score([mild, harsh])
        assert got == pytest.approx(expected_score(2.031), rel=1e-6)
        assert got == pytest.approx(0.40, abs=5e-3)


class TestSelect:
    def test_empty_delta_reverts_to_compact(self):
        case = make_case([intensity_channel()])
        result = select(case, logits_for(CORE))  # diffuse grew nothing
        assert result.chosen == "compact"
        assert result.texture_score is None
        assert (result.core_voxels, result.delta_voxels) == (CORE.sum(), 0)

    def test_matched_expansion_selects_diffuse(self):
        case = make_case([intensity_channel(delta_offset_sigma=0.0)])
        result = select(case, logits_for(CORE | DELTA))
        assert result.chosen == "diffuse"
        assert result.texture_score > 0.95
        assert result.delta_voxels == int(DELTA.sum())

    def test_mismatched_expansion_reverts_to_compact(self):
        case = make_case([intensity_channel(delta_offset_sigma=5.0)])
        result = select(case, logits_for(CORE | DELTA))
        assert result.chosen == "compact"
        assert result.texture_score == pytest.approx(3.9e-3, abs=2e-4)

    def test_empty_core_reverts_to_compact(self):
        z0 = Volume(np.where(CORE, logit_of(0.79), logit_of(0.1)), SPACING)
        case = Case(image=(intensity_channel(),), logits0=z0)
        result = select(case, logits_for(CORE | DELTA))
        assert result.chosen == "compact"
        assert result.core_voxels == 0
        assert result.texture_score is None

    def test_compact_logits_are_not_an_argument(self):
        # the compact result is the default and is never scored, so the old
        # three-argument call is refused rather than read as (case, diffuse)
        case = make_case([intensity_channel()])
        with pytest.raises(TypeError):
            select(case, logits_for(CORE), logits_for(CORE | DELTA))

    def test_core_threshold_is_strict(self, monkeypatch):
        # logits 0 give P0 = 0.5 exactly: no core at threshold 0.5, so every
        # voxel of the diffuse mask counts as recruited
        monkeypatch.setattr(selector, "CORE_THRESHOLD", 0.5)
        case = Case(image=(intensity_channel(),), logits0=Volume(np.zeros(DIMS), SPACING))
        result = select(case, logits_for(CORE | DELTA))
        assert (result.core_voxels, result.delta_voxels) == (0, (CORE | DELTA).sum())
        assert result.chosen == "compact" and result.texture_score is None

    def test_zero_core_spread_with_shifted_delta_never_diffuse(self):
        ch = intensity_channel(core_sigma=0.0, delta_offset_sigma=0.0)
        arr = np.array(ch.data)
        arr[DELTA] += 0.5  # constant core, different delta mean
        case = make_case([Volume(arr, SPACING)])
        result = select(case, logits_for(CORE | DELTA))
        assert result.chosen == "compact"
        assert result.texture_score < 1e-6

    def test_affine_intensity_invariance(self):
        for offset in (0.0, 5.0):
            base = intensity_channel(delta_offset_sigma=offset)
            scaled = Volume(3.7 * base.data + 11.0, SPACING)
            r1 = select(make_case([base]), logits_for(CORE | DELTA))
            r2 = select(make_case([scaled]), logits_for(CORE | DELTA))
            assert r1.chosen == r2.chosen

    def test_determinism(self):
        case = make_case([intensity_channel(delta_offset_sigma=1.0)])
        r1 = select(case, logits_for(CORE | DELTA))
        r2 = select(case, logits_for(CORE | DELTA))
        assert r1 == r2

    def test_acceptance_threshold_is_strict(self, monkeypatch):
        monkeypatch.setattr(selector, "ACCEPT_THRESHOLD", 1.0)  # score can never exceed 1
        case = make_case([intensity_channel(delta_offset_sigma=0.0)])
        result = select(case, logits_for(CORE | DELTA))
        assert result.chosen == "compact"


class TestConstantsReadAtCallTime:
    # a delta 0.3 sigma off the core: score exp(-0.5 (0.3 / 1.5)^2) ~ 0.980,
    # diffuse accepted at the paper's constants
    @pytest.mark.parametrize("name, value, chosen, score", [
        ("CORE_THRESHOLD", 0.99, "compact", None),    # P0 = sigmoid(4) ~ 0.982: no core
        ("ACCEPT_THRESHOLD", 0.99, "compact", expected_score(0.3)),
        ("GAMMA", 0.5, "compact", expected_score(0.3, gamma=0.5)),
        ("EPS", 1.0, "diffuse", expected_score(0.3, eps=1.0)),
    ], ids=["CORE_THRESHOLD", "ACCEPT_THRESHOLD", "GAMMA", "EPS"])
    def test_patched_constant_moves_the_selection(self, name, value, chosen, score, monkeypatch):
        case = make_case([intensity_channel(delta_offset_sigma=0.3)])
        base = select(case, logits_for(CORE | DELTA))
        assert base.chosen == "diffuse" and base.texture_score == pytest.approx(expected_score(0.3))
        monkeypatch.setattr(selector, name, value)
        result = select(case, logits_for(CORE | DELTA))
        assert result.chosen == chosen
        assert result.texture_score == (None if score is None else pytest.approx(score))


def logit_of(p):
    return math.log(p / (1.0 - p))
