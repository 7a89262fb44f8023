import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import simexplain as se
from simexplain.core import (
    Curve,
    pool_boundaries,
    resize_average_pool,
    to_match_resolution,
    trapezoid_auc,
)
from simexplain.errors import IntegrityError, InvalidArgumentError, InvalidDataError


finite_grids = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-100, 100, allow_nan=False),
)


class TestImageTensor:
    def test_basic_properties(self, rng):
        img = se.ImageTensor(rng.random((5, 7, 3)))
        assert (img.height, img.width, img.channels) == (5, 7, 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidDataError):
            se.ImageTensor(np.full((2, 2, 1), 1.5))

    def test_rejects_nan(self):
        bad = np.zeros((2, 2, 1))
        bad[0, 0, 0] = np.nan
        with pytest.raises(InvalidDataError):
            se.ImageTensor(bad)

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidArgumentError):
            se.ImageTensor(np.zeros((3, 3)))

    def test_immutable(self, rng):
        img = se.ImageTensor(rng.random((3, 3, 1)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 0.5


class TestSaliencyMapType:
    def test_normalized_flag_enforced(self):
        with pytest.raises(InvalidDataError):
            se.SaliencyMap(np.array([[0.2, 0.7]]), method=se.Method.RISE, normalized=True)

    def test_degenerate_zero_map(self):
        m = se.SaliencyMap(np.zeros((3, 3)), method=se.Method.RISE, normalized=True)
        assert m.degenerate

    def test_normalize_roundtrip(self, rng):
        m = se.SaliencyMap(rng.random((4, 4)), method=se.Method.LIME)
        n = se.SaliencyMap(se.normalize_map(m), method=m.method, normalized=True)
        assert n.normalized and not n.degenerate
        assert n.data.min() == 0.0 and n.data.max() == 1.0


class TestResize:
    def test_bilinear_ramp_2x4(self):
        grid = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = se.resize_bilinear(grid, 2, 4)
        expected = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        np.testing.assert_allclose(out[0], expected, atol=1e-15)
        np.testing.assert_allclose(out[1], expected, atol=1e-15)
        assert np.all(np.diff(out[0]) > 0)

    def test_bilinear_reproduces_aligned_samples(self, rng):
        grid = rng.random((3, 5))
        out = se.resize_bilinear(grid, 5, 9)
        # output positions 0, 2, 4 map exactly onto input rows 0, 1, 2
        np.testing.assert_array_equal(out[::2][:, ::2], grid)

    def test_average_pool_hand_sum(self):
        grid = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = se.resize_average_pool(grid, 2, 2)
        assert out[0, 0] == (0 + 1 + 4 + 5) / 4
        assert out[0, 1] == (2 + 3 + 6 + 7) / 4
        assert out[1, 0] == (8 + 9 + 12 + 13) / 4
        assert out[1, 1] == (10 + 11 + 14 + 15) / 4

    def test_zero_output_dims_rejected(self):
        for resize in (se.resize_bilinear, se.resize_average_pool):
            with pytest.raises(InvalidArgumentError):
                resize(np.ones((2, 2)), 0, 3)

    @given(st.floats(-10, 10, allow_nan=False), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 9), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_constant_preserved_exactly(self, value, r, c, out_r, out_c):
        grid = np.full((r, c), value)
        up = se.resize_bilinear(grid, out_r, out_c)
        assert np.all(up == value)
        back = se.resize_bilinear(up, r, c)
        assert np.all(back == value)

    def test_pool_boundaries_partition_when_downsampling(self):
        for n_in, n_out in [(7, 3), (8, 8), (56, 7)]:
            b = pool_boundaries(n_in, n_out)
            assert b[0] == 0 and b[-1] == n_in
            assert np.all(np.diff(b) >= 1)
        # upsampling cannot partition; boundaries stay monotone
        assert np.all(np.diff(pool_boundaries(5, 7)) >= 0)

    def test_average_pool_upsample_nonempty_blocks(self):
        out = resize_average_pool(np.array([[1.0, 2.0]]), 2, 3)
        assert out.shape == (2, 3)
        assert np.all(np.isfinite(out))


class TestNormalize:
    def test_affine_rescale(self):
        np.testing.assert_array_equal(se.normalize_map(np.array([[2.0, 4.0, 6.0]])),
                                      np.array([[0.0, 0.5, 1.0]]))

    def test_constant_degenerates_to_zeros(self):
        out = se.normalize_map(np.full((2, 2), 5.0))
        assert np.all(out == 0.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidDataError):
            se.normalize_map(np.array([[np.nan, 1.0]]))

    @given(finite_grids)
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, grid):
        once = se.normalize_map(grid)
        twice = se.normalize_map(once)
        np.testing.assert_array_equal(once, twice)

    # integer-valued grids keep value gaps far above rounding, where the
    # argmax-preservation property is exact (values within one ulp of the
    # max can legitimately merge with it after rescaling)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  elements=st.integers(-100, 100).map(float)))
    @settings(max_examples=60, deadline=None)
    def test_argmax_invariant(self, grid):
        out = se.normalize_map(grid)
        if out.any():
            assert np.argmax(out) == np.argmax(grid)

    def test_match_resolution_output(self, rng):
        pooled = to_match_resolution(rng.random((56, 56)))
        assert pooled.shape == (7, 7)
        assert pooled.min() == 0.0 and pooled.max() == 1.0


class TestCurveType:
    def test_requires_endpoints(self):
        with pytest.raises(InvalidArgumentError):
            Curve(np.array([0.0, 0.5]), np.array([0.0, 1.0]), 0.5, np.array([0.0, 1.0]))

    def test_requires_strict_increase(self):
        fr = np.array([0.0, 0.5, 0.5, 1.0])
        s = np.zeros(4)
        with pytest.raises(InvalidArgumentError):
            Curve(fr, s, 0.0, s)

    def test_linear_curve_auc_is_half(self):
        # dyadic grid keeps every term exact in binary floating point
        fr = np.arange(17) / 16
        assert trapezoid_auc(fr, fr) == 0.5


class TestDataset:
    def test_dangling_pair_rejected(self, rng):
        images = (("a", se.ImageTensor(rng.random((4, 4, 1)))),)
        labels = np.array([[1]])
        catalog = se.AttributeCatalog(("attr",))
        with pytest.raises(IntegrityError, match="ghost"):
            se.Dataset(images=images, labels=labels,
                       pairs=(se.Pair("a", "ghost", "train"),), catalog=catalog)

    def test_label_shape_mismatch(self, rng):
        images = (("a", se.ImageTensor(rng.random((4, 4, 1)))),)
        with pytest.raises(IntegrityError):
            se.Dataset(images=images, labels=np.array([[1, 0]]),
                       pairs=(), catalog=se.AttributeCatalog(("x",)))

    def test_pair_in_two_splits_rejected(self, rng):
        images = (("a", se.ImageTensor(rng.random((4, 4, 1)))),
                  ("b", se.ImageTensor(rng.random((4, 4, 1)))))
        labels = np.array([[1], [1]])
        pairs = (se.Pair("a", "b", "train"), se.Pair("a", "b", "val"))
        with pytest.raises(IntegrityError, match="splits"):
            se.Dataset(images=images, labels=labels, pairs=pairs,
                       catalog=se.AttributeCatalog(("x",)))

    def test_split_image_ids_order(self, small_dataset):
        ids = small_dataset.image_ids_for_split("train")
        assert len(ids) == len(set(ids))
        for p in small_dataset.pairs_for_split("train"):
            assert p.query_id in ids and p.reference_id in ids

    def test_catalog_validation(self):
        with pytest.raises(InvalidArgumentError):
            se.AttributeCatalog(("dup", "dup"))
        with pytest.raises(InvalidArgumentError):
            se.AttributeCatalog(())
