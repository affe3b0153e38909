import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata  # reference oracle for the numpy ranks

from segtta import metrics
from segtta.metrics import (
    CASE_CSV_FIELDS,
    MetricSet,
    aggregate,
    case_rows_csv,
    dice,
    hd95,
    holm_bonferroni,
    precision,
    summary_json,
    surface_voxels,
    wilcoxon_holm,
)
from segtta.volume import Mask

SP = (1.0, 1.0, 1.0)
SPACINGS = [(1.0, 1.0, 1.0), (1.0, 0.7, 1.4), (0.25, 0.5, 2.0), (3.0, 0.3, 0.3), (0.9375, 0.9375, 3.3)]


def mask(arr, spacing=SP):
    return Mask(np.asarray(arr, dtype=bool), spacing)


def box(dims, lo, hi, spacing=SP):
    arr = np.zeros(dims, dtype=bool)
    arr[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
    return mask(arr, spacing)


def random_mask(seed, dims, p=0.3, spacing=SP):
    rng = np.random.default_rng(seed)
    return mask(rng.uniform(size=dims) < p, spacing)


import oracles


def shifted(arr, axis, step):
    """``arr`` moved one voxel along ``axis``, zero-filled."""
    out = np.zeros_like(arr)
    src, dst = [slice(None)] * 3, [slice(None)] * 3
    src[axis], dst[axis] = (slice(None, -1), slice(1, None)) if step > 0 else (slice(1, None), slice(None, -1))
    out[tuple(dst)] = arr[tuple(src)]
    return out


@st.composite
def mask_pairs(draw):
    """Two non-empty masks on one grid of 1-7 voxels per axis (singleton
    axes included), isotropic or anisotropic, related as identical, disjoint,
    shifted by one voxel, nested either way, or independent."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    spacing = draw(st.sampled_from([(1.0, 1.0, 1.0), (1.0, 0.7, 1.4), (0.25, 0.5, 2.0), (3.0, 0.3, 0.3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(size=dims) < draw(st.floats(0.05, 0.95))
    kind = draw(st.sampled_from(["identical", "disjoint", "shifted", "nested", "random"]))
    if kind == "identical":
        b = a.copy()
    elif kind == "disjoint":
        b = ~a
    elif kind == "shifted":
        b = shifted(a, draw(st.integers(0, 2)), draw(st.sampled_from([-1, 1])))
    elif kind == "nested":
        b = a & (rng.uniform(size=dims) < 0.7)
        if draw(st.booleans()):
            a, b = b, a
    else:
        b = rng.uniform(size=dims) < 0.3
    assume(a.any() and b.any())
    return mask(a, spacing), mask(b, spacing)


# ---------------------------------------------------------------------------


class TestDice:
    def test_identical(self):
        m = box((6, 6, 6), (1, 1, 1), (4, 4, 4))
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = box((8, 4, 4), (0, 0, 0), (2, 4, 4))
        b = box((8, 4, 4), (5, 0, 0), (8, 4, 4))
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = box((10, 5, 4), (0, 0, 0), (5, 5, 4))   # 100 voxels
        b = box((10, 5, 4), (2, 0, 0), (7, 5, 4))   # 100 voxels  # noqa: E501  overlap rows 2..4 = 60?  adjust below
        inter = int(np.count_nonzero(a.data & b.data))
        expected = 2 * inter / (a.count + b.count)
        assert dice(a, b) == pytest.approx(expected)

    def test_exact_formula_case(self):
        arr_a = np.zeros((10, 10, 2), dtype=bool)
        arr_b = np.zeros((10, 10, 2), dtype=bool)
        arr_a.ravel()[:100] = True
        arr_b.ravel()[50:150] = True
        assert dice(mask(arr_a), mask(arr_b)) == pytest.approx(0.5)

    def test_both_empty(self):
        e = mask(np.zeros((3, 3, 3), dtype=bool))
        assert dice(e, e) == 1.0

    def test_symmetry(self):
        a = random_mask(1, (6, 6, 6))
        b = random_mask(2, (6, 6, 6))
        assert dice(a, b) == dice(b, a)

    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dice(random_mask(1, (4, 4, 4)), random_mask(1, (4, 4, 5)))


class TestPrecision:
    def test_subset_prediction(self):
        gt = box((8, 8, 8), (1, 1, 1), (7, 7, 7))
        pred = box((8, 8, 8), (2, 2, 2), (5, 5, 5))
        assert precision(pred, gt) == 1.0

    def test_disjoint(self):
        a = box((8, 4, 4), (0, 0, 0), (2, 4, 4))
        b = box((8, 4, 4), (5, 0, 0), (8, 4, 4))
        assert precision(a, b) == 0.0

    def test_tp80_fp20(self):
        arr_pred = np.zeros((10, 10, 1), dtype=bool)
        arr_gt = np.zeros((10, 10, 1), dtype=bool)
        arr_pred.ravel()[:100] = True
        arr_gt.ravel()[:80] = True
        assert precision(mask(arr_pred), mask(arr_gt)) == pytest.approx(0.8)

    def test_empty_prediction_conventions(self):
        empty = mask(np.zeros((3, 3, 3), dtype=bool))
        full = mask(np.ones((3, 3, 3), dtype=bool))
        assert precision(empty, empty) == 1.0
        assert precision(empty, full) == 0.0

    def test_asymmetry_witness(self):
        pred = box((8, 4, 4), (0, 0, 0), (4, 4, 4))
        gt = box((8, 4, 4), (0, 0, 0), (2, 4, 4))
        assert precision(pred, gt) != precision(gt, pred)


class TestHd95:
    def test_identical_masks(self):
        m = box((8, 8, 8), (2, 2, 2), (6, 6, 6))
        assert hd95(m, m) == 0.0

    def test_two_voxels_four_mm(self):
        a = np.zeros((10, 3, 3), dtype=bool)
        b = np.zeros((10, 3, 3), dtype=bool)
        a[2, 1, 1] = True
        b[6, 1, 1] = True
        assert hd95(mask(a), mask(b)) == pytest.approx(4.0)

    def test_one_layer_dilation_is_one_mm(self):
        gt = box((12, 12, 12), (4, 4, 4), (8, 8, 8))
        dilated = gt.data.copy()
        for axis, step in itertools.product(range(3), (-1, 1)):
            dilated |= np.roll(gt.data, step, axis=axis)
        pred = mask(dilated)
        assert hd95(pred, gt) == pytest.approx(1.0)
        assert hd95(pred, gt) == pytest.approx(oracles.hd95(pred, gt), abs=1e-9)

    def test_empty_conventions(self):
        empty = mask(np.zeros((4, 4, 4), dtype=bool), spacing=(1, 2, 2))
        full = box((4, 4, 4), (1, 1, 1), (3, 3, 3), spacing=(1, 2, 2))
        assert hd95(empty, empty) == 0.0
        diagonal = math.sqrt(4**2 + 8**2 + 8**2)
        assert hd95(full, empty) == pytest.approx(diagonal)
        assert hd95(empty, full) == pytest.approx(diagonal)

    def test_pooled_symmetry(self):
        a = random_mask(3, (7, 7, 7), p=0.2)
        b = random_mask(4, (7, 7, 7), p=0.2)
        assert hd95(a, b) == pytest.approx(hd95(b, a), abs=1e-12)

    def test_spacing_scaling(self):
        a_arr = random_mask(5, (6, 6, 6), p=0.25).data
        b_arr = random_mask(6, (6, 6, 6), p=0.25).data
        base = hd95(mask(a_arr), mask(b_arr))
        doubled = hd95(mask(a_arr, (2, 2, 2)), mask(b_arr, (2, 2, 2)))
        assert doubled == pytest.approx(2 * base, rel=1e-12)

    def test_matches_bruteforce_on_random_pairs(self):
        for seed in range(8):
            a = random_mask(seed, (5, 6, 4), p=0.3, spacing=(1.0, 0.7, 1.4))
            b = random_mask(seed + 100, (5, 6, 4), p=0.3, spacing=(1.0, 0.7, 1.4))
            assert hd95(a, b) == pytest.approx(oracles.hd95(a, b), abs=1e-9)

    @given(mask_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_kdtree_formula_bit_for_bit(self, pair):
        # shared surface voxels are taken at distance 0 without a lookup; the
        # plain formula looks every voxel up, and the two must agree exactly
        a, b = pair
        got, want = hd95(a, b), oracles.hd95_kdtree(a, b)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_offset_table_is_complete_sorted_and_read_only(self, spacing):
        # exactness rests on these: every offset up to the table's longest is
        # in it, in order of length, and bands end only where lengths differ by
        # more than the tie tolerance
        offsets, edges = metrics._offset_table(spacing)
        assert metrics._offset_table(spacing) is metrics._offset_table(spacing)
        assert not offsets.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            offsets[0, 0] = 0
        sq = ((offsets * np.asarray(spacing)) ** 2).sum(axis=1)
        assert np.all(np.diff(sq) >= 0) and sq[0] > 0
        r = np.ceil(np.sqrt(sq[-1]) / np.asarray(spacing)).astype(int) + 1
        cube = np.stack([g.ravel() for g in np.meshgrid(*(np.arange(-k, k + 1) for k in r), indexing="ij")], 1)
        cube_sq = ((cube * np.asarray(spacing)) ** 2).sum(axis=1)
        assert np.count_nonzero((cube_sq > 0) & (cube_sq <= sq[-1])) == len(offsets)
        assert cube_sq[cube_sq > sq[-1]].min() > sq[-1] * (1 + metrics._TIE)
        assert edges[0] == 0 and edges[-1] == len(offsets)
        for e in edges[1:-1]:
            assert sq[e] > sq[e - 1] * (1 + metrics._TIE)

    @pytest.mark.parametrize("spacing", SPACINGS)
    @pytest.mark.parametrize("seed", range(4))
    def test_nearest_surface_beyond_the_table_bit_for_bit(self, spacing, seed):
        # masks in the first and last quarter of a 24-voxel axis, the one of
        # the largest spacing, farther apart than the longest offset of the
        # table: every voxel falls through the search to the comparison with
        # the other surface.  Seed 0 is two planes of 24^2 voxels, more than
        # one chunk of that comparison.
        rng = np.random.default_rng(seed)
        axis = int(np.argmax(spacing))
        dims = [24, 24, 24] if seed == 0 else [int(n) for n in rng.integers(1, 25, 3)]
        dims[axis] = 24
        a, b = np.zeros(dims, dtype=bool), np.zeros(dims, dtype=bool)
        first, last = [slice(None)] * 3, [slice(None)] * 3
        first[axis], last[axis] = (slice(0, 1), slice(23, 24)) if seed == 0 else (slice(0, 6), slice(18, 24))
        a[tuple(first)] = True if seed == 0 else rng.uniform(size=a[tuple(first)].shape) < 0.5
        b[tuple(last)] = True if seed == 0 else rng.uniform(size=b[tuple(last)].shape) < 0.5
        a.flat[0] = b.flat[-1] = True
        pred, gt = mask(a, spacing), mask(b, spacing)
        offsets, _ = metrics._offset_table(spacing)
        longest = np.sqrt((((offsets * np.asarray(spacing)) ** 2).sum(axis=1)).max())
        assert 13 * spacing[axis] > longest  # the least gap between the two
        got, want = hd95(pred, gt), oracles.hd95_kdtree(pred, gt)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("spacing", [(0.25, 0.5, 2.0), (3.0, 0.3, 0.3), (0.9375, 0.9375, 3.3)])
    @pytest.mark.parametrize("seed", range(12))
    def test_spacings_with_ties_in_a_band_bit_for_bit(self, spacing, seed):
        # offsets of equal or near-equal length (2 x 0.25 = 1 x 0.5; 1 x 3 =
        # 10 x 0.3) share a band, so the nearest is the least over its hits
        rng = np.random.default_rng(100 + seed)
        dims = tuple(int(n) for n in rng.integers(3, 13, 3))
        a = rng.uniform(size=dims) < rng.uniform(0.05, 0.6)
        b = a if seed % 3 == 0 else rng.uniform(size=dims) < rng.uniform(0.02, 0.4)
        b = np.roll(b, int(rng.integers(-3, 4)), axis=int(rng.integers(0, 3)))
        a[0, 0, 0] = b[-1, -1, -1] = True
        pred, gt = mask(a, spacing), mask(b, spacing)
        got, want = hd95(pred, gt), oracles.hd95_kdtree(pred, gt)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("dims", [(1, 9, 7), (8, 1, 6), (5, 6, 1), (1, 1, 20), (1, 17, 1), (12, 1, 1)])
    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.25, 0.5, 2.0), (3.0, 0.3, 0.3)])
    def test_singleton_axes_bit_for_bit(self, dims, spacing):
        # every offset along a singleton axis lands in the padding
        rng = np.random.default_rng(sum(dims))
        a = rng.uniform(size=dims) < 0.3
        b = rng.uniform(size=dims) < 0.3
        a.flat[0] = b.flat[-1] = True
        pred, gt = mask(a, spacing), mask(b, spacing)
        got, want = hd95(pred, gt), oracles.hd95_kdtree(pred, gt)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_surface_extraction_matches_oracle(self):
        m = random_mask(11, (6, 5, 7), p=0.4)
        got = np.argwhere(surface_voxels(m)) * np.asarray(m.spacing)
        expected = oracles.surface_points_mm(m)
        assert np.array_equal(np.sort(got, axis=0), np.sort(expected, axis=0))


class TestWilcoxon:
    def test_all_positive_n10_exact(self):
        diffs = list(range(1, 11))
        res = wilcoxon_holm({"dice": diffs}, {"dice": "greater"})["dice"]
        assert res.method == "exact"
        assert res.p_raw == pytest.approx(1.0 / 1024.0)

    def test_symmetric_pattern_is_null(self):
        diffs = [1, -1, 2, -2, 3, -3, 4, -4]
        res = wilcoxon_holm({"m": diffs}, {"m": "greater"})["m"]
        assert res.p_raw == pytest.approx(0.5, abs=0.08)

    def test_direction_flip(self):
        diffs = [-x for x in range(1, 11)]
        res = wilcoxon_holm({"hd95": diffs}, {"hd95": "less"})["hd95"]
        assert res.p_raw == pytest.approx(1.0 / 1024.0)

    def test_exact_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for n in (6, 8, 10, 12):
            diffs = rng.normal(size=n).round(1).tolist()  # rounding forces ties
            if not any(d != 0 for d in diffs):
                continue
            if sum(1 for d in diffs if d != 0) < 6:
                continue
            res = wilcoxon_holm({"x": diffs}, {"x": "greater"})["x"]
            assert res.p_raw == pytest.approx(oracles.wilcoxon_exact(diffs, "greater"), abs=1e-12)

    def test_exact_and_normal_agree_at_n25(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            diffs = (rng.normal(0.2, 1.0, size=25)).tolist()
            exact = wilcoxon_holm({"x": diffs}, {"x": "greater"}, method="exact")["x"]
            approx = wilcoxon_holm({"x": diffs}, {"x": "greater"}, method="normal")["x"]
            assert approx.p_raw == pytest.approx(exact.p_raw, abs=0.01)

    def test_all_zero_is_degenerate(self):
        res = wilcoxon_holm({"x": [0.0] * 8}, {"x": "greater"})["x"]
        assert res.degenerate and res.p_raw == 1.0

    def test_too_few_nonzero_raises(self):
        with pytest.raises(ValueError, match="nonzero"):
            wilcoxon_holm({"x": [1.0, -2.0, 0.0, 0.0, 3.0, 0, 0, 0]}, {"x": "greater"})

    @pytest.mark.parametrize("where", [0, 5, 9])
    def test_nan_difference_raises_naming_metric(self, where):
        diffs = [float(x) for x in range(1, 11)]
        diffs[where] = math.nan
        with pytest.raises(ValueError, match="'hd95' has a NaN"):
            wilcoxon_holm({"dice": list(range(1, 11)), "hd95": diffs},
                          {"dice": "greater", "hd95": "less"})

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("method", ["exact", "normal"])
    def test_infinite_difference_ranks_last(self, sign, method):
        # |inf| takes the top rank, as the largest finite magnitude would
        diffs = [1.0, -2.0, 3.0, 4.0, -5.0, 6.0, 7.0]
        with_inf = wilcoxon_holm({"x": diffs + [sign * math.inf]}, {"x": "greater"}, method)["x"]
        finite = wilcoxon_holm({"x": diffs + [sign * 100.0]}, {"x": "greater"}, method)["x"]
        assert with_inf == finite
        assert with_inf.statistic == (21.0 + 8.0 if sign > 0 else 21.0)  # ranks 1, 3, 4, 6, 7 (+ 8)

    def test_holm_two_hypotheses(self):
        assert holm_bonferroni([0.01, 0.04]) == [0.02, 0.04]

    def test_holm_three_hypotheses(self):
        assert holm_bonferroni([0.01, 0.02, 0.03]) == [0.03, 0.04, 0.04]

    def test_holm_preserves_input_order(self):
        assert holm_bonferroni([0.2, 0.01, 0.04]) == [0.2, 0.03, 0.08]

    def test_family_adjustment_applied(self):
        up = list(range(1, 11))
        down = [-x for x in up]
        res = wilcoxon_holm(
            {"dice": up, "hd95": down, "precision": up},
            {"dice": "greater", "hd95": "less", "precision": "greater"},
        )
        for r in res.values():
            assert r.p_adjusted >= r.p_raw
        assert max(r.p_adjusted for r in res.values()) <= 1.0


class TestAverageRanks:
    @given(st.one_of(
        st.lists(st.integers(min_value=0, max_value=6).map(lambda k: 0.25 * k), max_size=40),
        st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=40),  # inf included
    ))
    @settings(max_examples=400, deadline=None)
    def test_matches_rankdata(self, values):
        x = np.asarray(values, dtype=np.float64)
        ranks = metrics._average_ranks(x)
        expected = rankdata(x)
        assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()


class TestAggregate:
    def test_single_case(self):
        stats = aggregate([MetricSet(0.9, 1.5, 0.8)])
        assert stats.n == 1 and stats.degenerate
        assert stats.dice_std == stats.hd95_std == stats.precision_std == 0.0

    def test_two_values_sample_std(self):
        stats = aggregate([MetricSet(0.8, 1.0, 0.5), MetricSet(0.9, 3.0, 0.7)])
        assert stats.dice_mean == pytest.approx(0.85)
        assert stats.dice_std == pytest.approx(0.07071067811865477)

    def test_identical_sets_zero_std(self):
        stats = aggregate([MetricSet(0.5, 2.0, 0.25)] * 7)
        assert stats.dice_std == 0.0 and stats.n == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])


class TestEmitters:
    def test_case_csv_golden(self):
        rows = [
            {"case_id": "a", "dice": 1.0, "hd95_mm": 0.0, "precision": 1.0,
             "flagged": True, "source": "baseline"},
        ]
        text = case_rows_csv(rows)
        assert text.splitlines()[0] == ",".join(CASE_CSV_FIELDS)
        assert text.splitlines()[1] == "a,1.0,0.0,1.0,True,baseline"

    def test_summary_json_shape(self):
        stats = aggregate([MetricSet(0.8, 1.0, 0.5), MetricSet(0.9, 3.0, 0.7)])
        payload = json.loads(summary_json(stats))
        assert payload["n"] == 2
        assert payload["dice"]["mean"] == pytest.approx(0.85)
        assert set(payload) == {"n", "dice", "hd95_mm", "precision", "degenerate"}
