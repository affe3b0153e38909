import math

import numpy as np
import pytest

from segtta.selector import SelectorConfig, _channel_score, expansion_region, select
from segtta.volume import Case, EmptyRegionError, Mask, Volume, threshold

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


def masks():
    return Mask(CORE, SPACING), Mask(DELTA, SPACING)


class TestExpansionRegion:
    def test_delta_of_identical_masks_is_empty(self):
        p0 = Volume(np.where(CORE, 0.9, 0.1), SPACING)
        core, delta = expansion_region(p0, Mask(CORE, SPACING))
        assert np.array_equal(core.data, CORE)
        assert delta.count == 0

    def test_added_voxels_form_delta(self):
        p0 = Volume(np.where(CORE, 0.9, 0.1), SPACING)
        grown = CORE | DELTA
        core, delta = expansion_region(p0, Mask(grown, SPACING))
        assert np.array_equal(delta.data, DELTA)

    def test_strict_core_threshold(self):
        p0 = Volume(np.full(DIMS, 0.79), SPACING)
        diffuse = Mask(CORE | DELTA, SPACING)
        core, delta = expansion_region(p0, diffuse)
        assert core.count == 0
        assert np.array_equal(delta.data, diffuse.data)


def texture_score(channels):
    """The score select reports for the fixture's core and delta regions."""
    result = select(make_case(channels), logits_for(CORE), logits_for(CORE | DELTA))
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

    def test_empty_regions_raise(self):
        core, delta = masks()
        empty = Mask(np.zeros(DIMS, dtype=bool), SPACING)
        ch = intensity_channel()
        with pytest.raises(EmptyRegionError):
            _channel_score(ch, empty, delta, 1.5, 1e-6)
        with pytest.raises(EmptyRegionError):
            _channel_score(ch, core, empty, 1.5, 1e-6)


class TestSelect:
    def test_empty_delta_reverts_to_compact(self):
        case = make_case([intensity_channel()])
        compact_z = logits_for(CORE)
        diffuse_z = logits_for(CORE)  # grew nothing
        result = select(case, compact_z, diffuse_z)
        assert result.chosen == "compact"
        assert result.texture_score is None
        assert result.delta_voxels == 0

    def test_matched_expansion_selects_diffuse(self):
        case = make_case([intensity_channel(delta_offset_sigma=0.0)])
        result = select(case, logits_for(CORE), logits_for(CORE | DELTA))
        assert result.chosen == "diffuse"
        assert result.texture_score > 0.95
        assert result.delta_voxels == int(DELTA.sum())

    def test_mismatched_expansion_reverts_to_compact(self):
        case = make_case([intensity_channel(delta_offset_sigma=5.0)])
        result = select(case, logits_for(CORE), logits_for(CORE | DELTA))
        assert result.chosen == "compact"
        assert result.texture_score == pytest.approx(3.9e-3, abs=2e-4)

    def test_empty_core_reverts_to_compact(self):
        z0 = Volume(np.where(CORE, logit_of(0.79), logit_of(0.1)), SPACING)
        case = Case(image=(intensity_channel(),), logits0=z0)
        result = select(case, logits_for(CORE), logits_for(CORE | DELTA))
        assert result.chosen == "compact"
        assert result.core_voxels == 0
        assert result.texture_score is None

    def test_zero_core_spread_with_shifted_delta_never_diffuse(self):
        ch = intensity_channel(core_sigma=0.0, delta_offset_sigma=0.0)
        arr = np.array(ch.data)
        arr[DELTA] += 0.5  # constant core, different delta mean
        case = make_case([Volume(arr, SPACING)])
        result = select(case, logits_for(CORE), logits_for(CORE | DELTA))
        assert result.chosen == "compact"
        assert result.texture_score < 1e-6

    def test_affine_intensity_invariance(self):
        for offset in (0.0, 5.0):
            base = intensity_channel(delta_offset_sigma=offset)
            scaled = Volume(3.7 * base.data + 11.0, SPACING)
            r1 = select(make_case([base]), logits_for(CORE), logits_for(CORE | DELTA))
            r2 = select(make_case([scaled]), logits_for(CORE), logits_for(CORE | DELTA))
            assert r1.chosen == r2.chosen

    def test_determinism(self):
        case = make_case([intensity_channel(delta_offset_sigma=1.0)])
        r1 = select(case, logits_for(CORE), logits_for(CORE | DELTA))
        r2 = select(case, logits_for(CORE), logits_for(CORE | DELTA))
        assert r1 == r2

    def test_acceptance_threshold_is_strict(self):
        case = make_case([intensity_channel(delta_offset_sigma=0.0)])
        cfg = SelectorConfig(accept_threshold=1.0)  # score can never exceed 1
        result = select(case, logits_for(CORE), logits_for(CORE | DELTA), cfg)
        assert result.chosen == "compact"


class TestSelectorConfig:
    # an infinite gamma or eps makes every texture score 1, so the selector
    # would accept diffuse every time
    @pytest.mark.parametrize("field", ["gamma", "eps"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
    def test_non_finite_or_non_positive_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            SelectorConfig(**{field: value})


def logit_of(p):
    return math.log(p / (1.0 - p))
