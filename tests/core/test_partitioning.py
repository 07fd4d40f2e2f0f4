"""Tests for the data-space partitioners (dim / grid / angle / random)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.partitioning import (
    AngularPartitioner,
    DimensionalPartitioner,
    GridPartitioner,
    NotFittedError,
    RandomPartitioner,
    balanced_axis_counts,
    load_imbalance,
    make_partitioner,
    partition_sizes,
)

nonneg_clouds = arrays(
    np.float64,
    st.tuples(st.integers(2, 60), st.integers(2, 5)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestBaseProtocol:
    def test_assign_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DimensionalPartitioner(4).assign(np.ones((2, 2)))

    def test_fit_assign(self):
        pts = np.random.default_rng(0).random((20, 3))
        ids = DimensionalPartitioner(4).fit_assign(pts)
        assert ids.shape == (20,)

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            DimensionalPartitioner(0)

    def test_summary(self):
        p = AngularPartitioner(4).fit(np.random.default_rng(0).random((30, 3)))
        s = p.summary()
        assert s.scheme == "angle"
        assert s.num_partitions == 4

    @pytest.mark.parametrize("scheme", ["dim", "grid", "angle", "random"])
    def test_factory(self, scheme):
        p = make_partitioner(scheme, 4)
        assert p.scheme == scheme

    def test_factory_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_partitioner("voronoi", 4)

    @pytest.mark.parametrize("scheme", ["dim", "grid", "angle", "random"])
    def test_picklable_after_fit(self, scheme):
        import pickle

        pts = np.random.default_rng(1).random((50, 3)) + 0.01
        p = make_partitioner(scheme, 4).fit(pts)
        clone = pickle.loads(pickle.dumps(p))
        assert np.array_equal(clone.assign(pts), p.assign(pts))

    @pytest.mark.parametrize("scheme", ["dim", "grid", "angle", "random"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_ids_in_range(self, scheme, data):
        pts = data.draw(nonneg_clouds)
        p = make_partitioner(scheme, 5).fit(pts)
        ids = p.assign(pts)
        assert ids.min() >= 0
        assert ids.max() < p.num_partitions


class TestDimensional:
    def test_equal_width_slabs(self):
        pts = np.column_stack([np.array([0.0, 1.0, 5.0, 9.99, 10.0]), np.zeros(5)])
        p = DimensionalPartitioner(4).fit(pts)
        assert p.assign(pts).tolist() == [0, 0, 2, 3, 3]

    def test_custom_dim(self):
        pts = np.column_stack([np.zeros(4), np.array([0.0, 3.0, 6.0, 9.0])])
        # vmax = 9, width = 3: slabs [0,3), [3,6), [6,9].
        p = DimensionalPartitioner(3, dim=1).fit(pts)
        assert p.assign(pts).tolist() == [0, 1, 2, 2]

    def test_out_of_range_clamps(self):
        pts = np.array([[5.0, 0.0]])
        p = DimensionalPartitioner(4).fit(pts)
        assert p.assign(np.array([[100.0, 0.0]])).tolist() == [3]

    def test_inf_and_huge_values_land_in_last_slab(self):
        p = DimensionalPartitioner(4).fit(np.array([[0.0, 0.0], [1.0, 0.0]]))
        far = np.array([[1.7e308, 0.0], [np.inf, 0.0], [-np.inf, 0.0]])
        assert p.assign(far).tolist() == [3, 3, 0]

    def test_all_zero_column(self):
        pts = np.zeros((10, 2))
        p = DimensionalPartitioner(4).fit(pts)
        assert (p.assign(pts) == 0).all()

    def test_dim_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DimensionalPartitioner(4, dim=5).fit(np.ones((3, 2)))

    def test_quantile_slabs_balanced(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.lognormal(size=5000), rng.random(5000)])
        p = DimensionalPartitioner(8, bins="quantile").fit(pts)
        assert load_imbalance(p.assign(pts), 8) < 1.1

    def test_equal_width_imbalanced_on_lognormal(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.lognormal(size=5000), rng.random(5000)])
        p = DimensionalPartitioner(8).fit(pts)
        assert load_imbalance(p.assign(pts), 8) > 2.0

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            DimensionalPartitioner(4, bins="fancy")  # type: ignore[arg-type]

    def test_subnormal_column_degenerates_to_one_slab(self):
        # vmax/Np underflows to 0.0 for subnormal maxima; regression for a
        # divide-by-zero found by hypothesis.
        pts = np.array([[5e-324, 1.0], [0.0, 2.0]])
        p = DimensionalPartitioner(4).fit(pts)
        ids = p.assign(pts)
        assert (ids == 0).all()


class TestBalancedAxisCounts:
    def test_exact_budget(self):
        assert np.prod(balanced_axis_counts(8, 3)) == 8

    def test_never_exceeds_budget(self):
        for target in range(1, 40):
            for axes in range(1, 5):
                assert np.prod(balanced_axis_counts(target, axes)) <= target

    def test_single_axis(self):
        assert balanced_axis_counts(7, 1) == [7]

    def test_zero_axes(self):
        assert balanced_axis_counts(5, 0) == []

    def test_even_spread(self):
        counts = balanced_axis_counts(16, 4)
        assert max(counts) - min(counts) <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            balanced_axis_counts(0, 2)
        with pytest.raises(ValueError):
            balanced_axis_counts(4, -1)


class TestGrid:
    def test_2d_four_cells(self):
        pts = np.array([[1.0, 1.0], [9.0, 1.0], [1.0, 9.0], [9.0, 9.0], [10.0, 10.0]])
        p = GridPartitioner(4).fit(pts)
        ids = p.assign(pts)
        assert len(set(ids.tolist())) == 4
        assert ids[3] == ids[4]  # both in the top-right cell

    def test_explicit_cells_per_dim(self):
        pts = np.random.default_rng(0).random((50, 3))
        p = GridPartitioner(100, cells_per_dim=[2, 3, 1]).fit(pts)
        assert p.num_partitions == 6

    def test_cells_per_dim_length_mismatch(self):
        with pytest.raises(ValueError):
            GridPartitioner(4, cells_per_dim=[2, 2]).fit(np.ones((3, 3)))

    def test_cell_coordinates_round_trip(self):
        pts = np.random.default_rng(1).random((30, 3))
        p = GridPartitioner(8).fit(pts)
        for cid in range(p.num_partitions):
            coords = p.cell_coordinates(cid)
            reconstructed = sum(
                c * int(r) for c, r in zip(coords, p._radix)
            )
            assert reconstructed == cid

    def test_pruned_cells_2d(self):
        # Uniform square, 2x2 grid: the top-right cell is dominated by the
        # bottom-left cell.
        rng = np.random.default_rng(2)
        pts = rng.random((500, 2))
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        pruned = p.pruned_cells()
        top_right = p.assign(np.array([[0.99, 0.99]]))[0]
        assert top_right in pruned
        assert p.assign(np.array([[0.01, 0.01]]))[0] not in pruned

    def test_pruned_points_cannot_be_skyline(self):
        from repro.core.skyline import skyline_numpy

        rng = np.random.default_rng(3)
        pts = rng.random((400, 2))
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        mask = p.prunable_mask(pts)
        sky = set(skyline_numpy(pts).tolist())
        assert not (set(np.flatnonzero(mask).tolist()) & sky)

    def test_no_pruning_when_single_cell_axes(self):
        # counts like [2,1]: no cell can be +1 below another in ALL axes.
        pts = np.random.default_rng(4).random((100, 2))
        p = GridPartitioner(2, cells_per_dim=[2, 1]).fit(pts)
        assert p.pruned_cells().size == 0

    def test_pruning_requires_occupied_dominator(self):
        # Points only in the top-right cell: nothing occupies a dominating
        # cell, so nothing can be pruned.
        pts = np.random.default_rng(5).random((50, 2)) * 0.4 + 0.6
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        top_right = p.assign(np.array([[0.99, 0.99]]))[0]
        assert top_right not in p.pruned_cells()

    def test_quantile_grid_balanced(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.lognormal(size=3000), rng.lognormal(size=3000)])
        eq = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        q = GridPartitioner(4, cells_per_dim=[2, 2], bins="quantile").fit(pts)
        assert load_imbalance(q.assign(pts), 4) < load_imbalance(eq.assign(pts), 4)

    def test_subnormal_column_no_warning(self):
        import warnings

        pts = np.array([[5e-324, 1.0], [0.0, 2.0]])
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p.assign(pts)

    def test_inf_and_huge_values_land_in_last_cell(self):
        # inf -> int64 casts to INT64_MIN on x86, which used to clip these
        # rows to cell 0; the last cell is the one that holds them.
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(
            np.array([[0.0, 0.0], [1.0, 1.0]])
        )
        far = np.array([[1.7e308, 1.0], [np.inf, 1.0], [1.0, np.inf]])
        assert p._cell_coords(far).tolist() == [[1, 1], [1, 1], [1, 1]]
        assert p.assign(far).tolist() == [3, 3, 3]

    def test_degenerate_axis_takes_inf_without_warning(self):
        p = GridPartitioner(4, cells_per_dim=[2, 2]).fit(
            np.array([[0.0, 0.0], [0.0, 1.0]])
        )
        assert p.assign(np.array([[np.inf, np.inf]])).tolist() == [1]

    def test_quantile_pruning_still_sound(self):
        from repro.core.skyline import skyline_numpy

        rng = np.random.default_rng(7)
        pts = rng.random((400, 2))
        p = GridPartitioner(9, cells_per_dim=[3, 3], bins="quantile").fit(pts)
        mask = p.prunable_mask(pts)
        sky = set(skyline_numpy(pts).tolist())
        assert not (set(np.flatnonzero(mask).tolist()) & sky)


class TestAngular:
    def test_2d_fan_matches_manual_angles(self):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 2)) + 0.01
        p = AngularPartitioner(4, bins="equal-width").fit(pts)
        ids = p.assign(pts)
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        expected = np.clip((angles / (np.pi / 2) * 4).astype(int), 0, 3)
        assert np.array_equal(ids, expected)

    def test_first_axis_allocation_exact_budget(self):
        pts = np.random.default_rng(1).random((100, 5))
        p = AngularPartitioner(7).fit(pts)
        assert p.num_partitions == 7

    def test_balanced_allocation_within_budget(self):
        pts = np.random.default_rng(2).random((100, 5))
        p = AngularPartitioner(8, allocation="balanced").fit(pts)
        assert p.num_partitions <= 8

    def test_explicit_allocation(self):
        pts = np.random.default_rng(3).random((100, 4))
        p = AngularPartitioner(100, allocation=[2, 3, 1]).fit(pts)
        assert p.num_partitions == 6

    def test_too_many_axis_counts_rejected(self):
        pts = np.random.default_rng(4).random((10, 3))
        with pytest.raises(ValueError):
            AngularPartitioner(4, allocation=[2, 2, 2]).fit(pts)

    def test_quantile_sectors_balanced(self):
        rng = np.random.default_rng(5)
        pts = rng.lognormal(size=(3000, 6))
        p = AngularPartitioner(8).fit(pts)
        assert load_imbalance(p.assign(pts), p.num_partitions) < 1.05

    def test_sectors_are_radial_cones(self):
        """Scaling a point radially never changes its sector — the property
        that guarantees each sector spans all quality levels."""
        rng = np.random.default_rng(6)
        pts = rng.random((100, 4)) + 0.01
        p = AngularPartitioner(8).fit(pts)
        for scale in (0.25, 3.0, 40.0):
            assert np.array_equal(p.assign(pts), p.assign(pts * scale))

    def test_negative_data_rejected(self):
        p = AngularPartitioner(4)
        with pytest.raises(ValueError):
            p.fit(np.array([[1.0, -1.0]]))

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            AngularPartitioner(4, bins="log")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            AngularPartitioner(4, allocation="middle-out")  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            AngularPartitioner(4, allocation=[0, 2])

    @given(nonneg_clouds)
    @settings(max_examples=40, deadline=None)
    def test_property_every_point_assigned(self, pts):
        p = AngularPartitioner(4).fit(pts)
        ids = p.assign(pts)
        assert ids.shape == (pts.shape[0],)


class TestRandom:
    def test_deterministic_per_content(self):
        pts = np.random.default_rng(0).random((50, 3))
        p = RandomPartitioner(8, seed=1).fit(pts)
        assert np.array_equal(p.assign(pts), p.assign(pts))

    def test_order_independent(self):
        pts = np.random.default_rng(1).random((50, 3))
        p = RandomPartitioner(8, seed=1).fit(pts)
        perm = np.random.default_rng(2).permutation(50)
        assert np.array_equal(p.assign(pts)[perm], p.assign(pts[perm]))

    def test_seed_changes_assignment(self):
        pts = np.random.default_rng(3).random((100, 3))
        a = RandomPartitioner(8, seed=1).fit(pts).assign(pts)
        b = RandomPartitioner(8, seed=2).fit(pts).assign(pts)
        assert not np.array_equal(a, b)

    def test_roughly_balanced(self):
        pts = np.random.default_rng(4).random((4000, 3))
        p = RandomPartitioner(8, seed=0).fit(pts)
        assert load_imbalance(p.assign(pts), 8) < 1.3


class TestSizeHelpers:
    def test_partition_sizes(self):
        ids = np.array([0, 0, 1, 3])
        assert partition_sizes(ids, 5).tolist() == [2, 1, 0, 1, 0]

    def test_imbalance_perfect(self):
        assert load_imbalance(np.array([0, 1, 2, 3]), 4) == 1.0

    def test_imbalance_empty(self):
        assert load_imbalance(np.array([], dtype=int), 4) == 0.0

    def test_imbalance_skewed(self):
        assert load_imbalance(np.array([0, 0, 0, 1]), 2) == pytest.approx(1.5)
