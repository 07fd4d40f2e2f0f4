"""Differential parity: every algorithm returns identical skyline ids under
the scalar and block kernels.

The skyline of a point set is unique, so any divergence between backends is
a kernel bug, never a legitimate tie-break difference.  The suite drives
every re-routed algorithm (BNL, SFS, skyband, incremental, the MapReduce
pipeline under all three paper partitioners, with and without filter
pruning) over adversarial inputs — duplicates, degenerate single-point
clouds, anti-correlated simplices, d ∈ {2, 4, 10} — and Hypothesis searches
for counterexamples the curated sets miss.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.bnl import bnl_skyline
from repro.core.dominance import DominanceCounter
from repro.core.incremental import IncrementalSkyline
from repro.core.kernels import KERNEL_NAMES
from repro.core.mr_skyline import run_mr_skyline
from repro.core.partitioning import make_partitioner
from repro.core.sfs import sfs_skyline
from repro.core.skyband import dominator_counts, k_skyband, top_k_dominating
from repro.core.skyline import skyline_numpy

DIMS = (2, 4, 10)
METHODS = ("dim", "grid", "angle")


def _datasets(d, seed=0):
    rng = np.random.default_rng(seed)
    yield "random", rng.random((240, d))
    yield "duplicates", rng.integers(0, 3, size=(180, d)).astype(float)
    yield "degenerate", np.tile(rng.random((1, d)), (25, 1))
    anti = rng.random((120, d))
    anti[:, -1] = d - anti[:, :-1].sum(axis=1)
    yield "anti-correlated", anti


def _ids(x):
    return np.sort(np.asarray(x, dtype=np.intp))


class TestSingleMachineParity:
    @pytest.mark.parametrize("d", DIMS)
    def test_bnl(self, d):
        for name, pts in _datasets(d):
            expected = skyline_numpy(pts)
            for kernel in KERNEL_NAMES:
                got = bnl_skyline(pts, kernel=kernel).indices
                assert np.array_equal(_ids(got), expected), (name, kernel)

    @pytest.mark.parametrize("d", DIMS)
    def test_bnl_windowed(self, d):
        for name, pts in _datasets(d):
            expected = skyline_numpy(pts)
            for kernel in KERNEL_NAMES:
                got = bnl_skyline(pts, window_size=16, kernel=kernel).indices
                assert np.array_equal(_ids(got), expected), (name, kernel)

    @pytest.mark.parametrize("d", DIMS)
    def test_sfs(self, d):
        for name, pts in _datasets(d):
            expected = skyline_numpy(pts)
            for kernel in KERNEL_NAMES:
                got = sfs_skyline(pts, kernel=kernel).indices
                assert np.array_equal(_ids(got), expected), (name, kernel)

    @pytest.mark.parametrize("d", DIMS)
    def test_skyband(self, d):
        for name, pts in _datasets(d):
            for k in (1, 3):
                bands = {
                    kernel: k_skyband(pts, k, kernel=kernel)
                    for kernel in KERNEL_NAMES
                }
                assert np.array_equal(bands["scalar"], bands["block"]), name
            tops = {
                kernel: top_k_dominating(pts, 5, kernel=kernel)
                for kernel in KERNEL_NAMES
            }
            assert np.array_equal(tops["scalar"], tops["block"]), name

    @pytest.mark.parametrize("scheme", ("dim", "grid", "angle", "random"))
    def test_incremental_inserts_and_removals(self, scheme):
        rng = np.random.default_rng(17)
        pts = rng.random((150, 4))
        extra = rng.random((20, 4))
        results = {}
        for kernel in KERNEL_NAMES:
            part = make_partitioner(scheme, 4)
            sky = IncrementalSkyline(part, pts, kernel=kernel)
            for row in extra:
                sky.insert(row)
            for victim in (3, 60, 149, 151):
                sky.remove(victim)
            results[kernel] = sorted(sky.global_skyline())
            assert sky.kernel_name == kernel
        assert results["scalar"] == results["block"]


def _band_oracle(pts, k):
    """The k-skyband from exact dense dominator counts."""
    return np.flatnonzero(dominator_counts(pts) < k).astype(np.intp)


def _assert_bands(pts, ks=(1, 2, 3, 5)):
    for k in ks:
        expected = _band_oracle(pts, k)
        for kernel in KERNEL_NAMES:
            got = k_skyband(pts, k, kernel=kernel)
            assert got.dtype == np.intp
            assert np.array_equal(got, expected), (kernel, k)


class TestSkybandWindow:
    """The sort-first k-skyband op against the dense-count oracle."""

    @pytest.mark.parametrize(
        "pts",
        [
            np.empty((0, 3)),
            np.array([[0.5, 0.2, 0.9]]),
            np.random.default_rng(1).random((300, 1)),
            np.full((200, 3), 0.25),
        ],
        ids=["n0", "n1", "d1", "all-equal"],
    )
    def test_edge_cases(self, pts):
        n = pts.shape[0]
        _assert_bands(pts, ks=(1, 2, n + 1, n + 5))

    def test_duplicates_across_chunks(self):
        pts = np.random.default_rng(3).integers(0, 3, size=(700, 3)).astype(float)
        _assert_bands(pts)

    def test_single_dimension_ties(self):
        rng = np.random.default_rng(4)
        pts = rng.random((500, 3))
        pts[:, 0] = rng.integers(0, 4, size=500)
        _assert_bands(pts)

    def test_anti_correlated(self):
        rng = np.random.default_rng(5)
        pts = rng.random((600, 4))
        pts[:, -1] = 4 - pts[:, :-1].sum(axis=1)
        _assert_bands(pts)

    def test_infinite_coordinates(self):
        rng = np.random.default_rng(6)
        pts = rng.integers(0, 3, size=(400, 3)).astype(float)
        pts[rng.random(pts.shape) < 0.1] = -np.inf
        pts[rng.random(pts.shape) < 0.1] = np.inf
        _assert_bands(pts)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_nested_in_k_and_k1_is_skyline(self, kernel):
        pts = np.random.default_rng(7).random((500, 3))
        bands = [k_skyband(pts, k, kernel=kernel) for k in range(1, 6)]
        assert np.array_equal(bands[0], skyline_numpy(pts))
        for smaller, larger in zip(bands, bands[1:]):
            assert np.isin(smaller, larger).all()
            assert larger.size >= smaller.size

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_rejects_k_below_one(self, kernel):
        with pytest.raises(ValueError):
            k_skyband(np.ones((3, 2)), 0, kernel=kernel)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_dominance_tests_well_below_n_squared(self, kernel):
        n = 800
        pts = np.random.default_rng(8).random((n, 3))
        counter = DominanceCounter()
        band = k_skyband(pts, 3, counter=counter, kernel=kernel)
        assert np.array_equal(band, _band_oracle(pts, 3))
        assert 0 < counter.tests < n * n // 8
        assert counter.by_stage == {"skyband": counter.tests}


class TestMapReduceParity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("d", DIMS)
    def test_global_skyline_identical(self, method, d):
        pts = np.random.default_rng(d).random((600, d))
        expected = skyline_numpy(pts)
        for kernel in KERNEL_NAMES:
            for filter_k in (0, 8):
                result = run_mr_skyline(
                    pts, method=method, kernel=kernel, prune_filter_k=filter_k
                )
                assert np.array_equal(
                    _ids(result.global_indices), expected
                ), (method, kernel, filter_k)
                assert result.kernel == kernel
                if filter_k:
                    assert result.filter_points > 0
                else:
                    # points_pruned may still be non-zero: MR-Grid's cell
                    # pruning predates (and composes with) filter pruning.
                    assert result.filter_points == 0

    def test_duplicates_through_the_pipeline(self):
        pts = np.random.default_rng(5).integers(0, 3, size=(300, 4)).astype(float)
        expected = skyline_numpy(pts)
        for kernel in KERNEL_NAMES:
            result = run_mr_skyline(
                pts, method="angle", kernel=kernel, prune_filter_k=8
            )
            assert np.array_equal(_ids(result.global_indices), expected), kernel

    def test_block_defaults_enable_pruning_scalar_does_not(self):
        pts = np.random.default_rng(11).random((800, 4))
        scalar = run_mr_skyline(pts, method="angle", kernel="scalar")
        block = run_mr_skyline(pts, method="angle", kernel="block")
        assert scalar.points_pruned == 0 and scalar.filter_points == 0
        assert block.filter_points > 0 and block.points_pruned > 0
        assert np.array_equal(
            _ids(scalar.global_indices), _ids(block.global_indices)
        )


# -- Hypothesis: adversarial search beyond the curated sets -------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def matrices(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    d = draw(st.integers(min_value=2, max_value=5))
    base = draw(
        st.lists(
            st.lists(finite, min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    pts = np.array(base, dtype=np.float64)
    if draw(st.booleans()) and n > 1:
        # Inject duplicate rows: copy a prefix over a suffix.
        k = draw(st.integers(min_value=1, max_value=n - 1))
        pts[-k:] = pts[:k]
    return pts


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_hypothesis_backends_match_oracle(pts):
    expected = skyline_numpy(pts)
    for kernel in KERNEL_NAMES:
        assert np.array_equal(
            bnl_skyline(pts, kernel=kernel).indices, expected
        )
        assert np.array_equal(
            _ids(sfs_skyline(pts, kernel=kernel).indices), expected
        )


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_hypothesis_mr_pipeline_matches_oracle(pts):
    expected = skyline_numpy(pts)
    for kernel in KERNEL_NAMES:
        result = run_mr_skyline(
            pts, method="grid", num_workers=2, kernel=kernel, prune_filter_k=4
        )
        assert np.array_equal(_ids(result.global_indices), expected)


tie_heavy = st.integers(min_value=-2, max_value=2).map(float)


@st.composite
def band_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    d = draw(st.integers(min_value=1, max_value=4))
    values = finite if draw(st.booleans()) else tie_heavy
    rows = draw(
        st.lists(
            st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n
        )
    )
    return np.array(rows, dtype=np.float64).reshape(n, d)


@given(
    band_inputs(),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=120, deadline=None)
def test_hypothesis_skyband_matches_dense_counts(pts, k, chunk, window):
    # Tiny chunks so a handful of rows spans many candidate and window
    # chunks.
    expected = _band_oracle(pts, k)
    with mock.patch.object(kernels, "SKYBAND_CHUNK", chunk), mock.patch.object(
        kernels, "WINDOW_CHUNK", window
    ):
        for kernel in KERNEL_NAMES:
            assert np.array_equal(k_skyband(pts, k, kernel=kernel), expected), kernel
