from math import log, sqrt

import numpy as np
import pytest

import wigner_fluct as wf
from wigner_fluct.fluctuations import coordinates


def synthetic_spectrum(n):
    """Strictly increasing placeholder spectrum spanning the usual range."""
    return np.linspace(-sqrt(2 * n), sqrt(2 * n), n)


def spectrum_through(n, position, value):
    """Strictly increasing placeholder spectrum of size n holding value, exactly,
    at the 0-based position (normalize refuses an unsorted spectrum)."""
    return value + 0.01 * (np.arange(n) - position)


class TestIndexSpec:
    def test_requires_increasing(self):
        with pytest.raises(wf.ShapeError):
            wf.IndexSpec(regime="bulk", indices=(5, 5))

    def test_unknown_regime_is_an_unsupported_option(self):
        # the same class as any other option outside its set (beta, symmetry)
        with pytest.raises(wf.UnsupportedError, match="regime must be one of {bulk,edge}, got mid"):
            wf.IndexSpec(regime="mid", indices=(1,))

    def test_bulk_theta_range(self):
        with pytest.raises(wf.DomainError):
            wf.IndexSpec(regime="bulk", indices=(1, 2), thetas=(1.5,))

    def test_edge_needs_gamma(self):
        with pytest.raises(wf.DomainError):
            wf.IndexSpec(regime="edge", indices=(10, 20), thetas=(0.5,))

    def test_gamma_is_stored_as_a_python_float(self):
        for gamma in (np.array(0.5), np.float32(0.5), 0.5):
            spec = wf.IndexSpec(regime="edge", indices=(2,), gamma=gamma)
            assert type(spec.gamma) is float and spec.gamma == 0.5

    def test_edge_theta_below_gamma(self):
        with pytest.raises(wf.DomainError):
            wf.IndexSpec(regime="edge", indices=(10, 20), thetas=(0.9,), gamma=0.8)

    def test_thetas_from_indices(self):
        th = wf.thetas_from_indices((100, 131, 231), 1000)
        assert th[0] == pytest.approx(log(31) / log(1000))
        assert th[1] == pytest.approx(log(100) / log(1000))

    @pytest.mark.parametrize("n", [10.5, np.float64(10.0), "10"])
    def test_size_that_is_not_an_integer_rejected(self, n):
        # a fractional n gave exponents relative to log 10.5
        with pytest.raises(wf.InvalidSizeError, match="n must be an integer"):
            wf.thetas_from_indices((1, 3), n)
        with pytest.raises(wf.InvalidSizeError, match="n must be an integer"):
            wf.edge_index_spec((10, 12), n)
        assert wf.thetas_from_indices((1, 3), np.int64(10)) == wf.thetas_from_indices((1, 3), 10)

    def test_edge_index_spec_needs_two_levels(self):
        # gamma = log k / log n has no meaning at n = 1
        with pytest.raises(wf.InvalidSizeError, match="n must be >= 2"):
            wf.edge_index_spec((1,), 1)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: wf.IndexSpec(regime="bulk", indices=(2.7, 5.2), thetas=(0.3,)),
            # would read eigenvalue 4 if 4.9 were truncated
            lambda: wf.normalize(np.arange(1.0, 11.0), wf.IndexSpec("bulk", (4.9,)), 1),
            lambda: wf.IndexSpec(regime="edge", indices=(10.5,), gamma=0.5),
            lambda: wf.bulk_index_spec((2.5, 7.5), 10),
            lambda: wf.bulk_index_spec((4.5,), 10),
            lambda: wf.edge_index_spec((3.5, 6), 100),
            lambda: wf.edge_index_spec((3.5,), 100),
            lambda: wf.thetas_from_indices((2, 7.5), 10),
        ],
        ids=[
            "IndexSpec-bulk", "normalize", "IndexSpec-edge", "bulk_index_spec-pair",
            "bulk_index_spec-one", "edge_index_spec-pair", "edge_index_spec-one",
            "thetas_from_indices",
        ],
    )
    def test_fractional_index_rejected(self, make):
        with pytest.raises(wf.InvalidSizeError, match="eigenvalue index must be an integer"):
            make()

    def test_numpy_integer_indices_accepted_where_fractions_are_not(self):
        spec = wf.bulk_index_spec((np.int64(2), np.int32(7)), 10)
        assert spec == wf.bulk_index_spec((2, 7), 10)
        assert all(type(k) is int for k in spec.indices)
        with pytest.raises(wf.InvalidSizeError):
            wf.bulk_index_spec((np.float64(2.0), 7), 10)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: wf.edge_index_spec((0,), 100), "eigenvalue index must be >= 1, got 0"),
            (lambda: wf.IndexSpec("bulk", (-3,)), "eigenvalue index must be >= 1, got -3"),
            (lambda: wf.bulk_index_spec((0, 5), 10), "eigenvalue index must be >= 1, got 0"),
            (lambda: wf.IndexSpec("bulk", (np.int64(0),)), "eigenvalue index must be >= 1, got 0"),
        ],
        ids=["edge_index_spec", "IndexSpec", "bulk_index_spec", "numpy-zero"],
    )
    def test_index_below_one_rejected_at_construction(self, make, message):
        with pytest.raises(wf.InvalidSizeError) as err:
            make()
        assert str(err.value) == message

    def test_no_index_rejected_by_every_constructor(self):
        # edge_index_spec reads idx[0] for gamma, so the check must come first
        for make in (
            lambda: wf.edge_index_spec((), 100),
            lambda: wf.bulk_index_spec((), 100),
            lambda: wf.IndexSpec("bulk", ()),
            lambda: wf.thetas_from_indices((), 100),
        ):
            with pytest.raises(wf.InvalidSizeError) as err:
                make()
            assert str(err.value) == "number of eigenvalue indices must be >= 1, got 0"

    @pytest.mark.parametrize("indices", [3, np.int64(3), (x for x in (1, 2)), ((1,), (2,))])
    def test_indices_that_are_not_a_vector_rejected_by_every_constructor(self, indices):
        # a scalar escaped as Python's "'int' object is not iterable"
        for make in (
            lambda: wf.IndexSpec("bulk", indices),
            lambda: wf.bulk_index_spec(indices, 100),
            lambda: wf.edge_index_spec(indices, 100),
            lambda: wf.thetas_from_indices(indices, 100),
        ):
            with pytest.raises(wf.ShapeError, match="^eigenvalue indices must be one-dimensional"):
                make()


class TestCoordinates:
    def test_positions_read_by_each_regime(self):
        n = 50
        bulk, _, _ = coordinates(wf.bulk_index_spec((10, 20), n), n, 1)
        edge, _, _ = coordinates(wf.edge_index_spec((20, 25), n), n, 1)
        assert bulk == [9, 19]
        assert edge == [29, 24]  # eigenvalues n - k, counted from the top

    def test_centers_and_scales_are_the_regime_formulas(self):
        n, beta = 200, 2
        _, centers, scales = coordinates(wf.edge_index_spec((30, 40), n), n, beta)
        want = [wf.edge_center_scale(k, n, beta) for k in (30, 40)]
        assert centers.tolist() == [cs.center for cs in want]
        assert scales.tolist() == [cs.scale for cs in want]

    def test_edge_offset_n_rejected(self):
        spec = wf.IndexSpec(regime="edge", indices=(100,), gamma=0.5)
        with pytest.raises(wf.InvalidSizeError) as err:
            coordinates(spec, 100, 1)
        assert str(err.value) == "k must be <= 99, got 100"


class TestNormalizeBulk:
    def test_center_maps_to_zero(self):
        n, k, beta = 400, 200, 1
        cs = wf.bulk_center_scale(k, n, beta)
        values = synthetic_spectrum(n)
        values[k - 1] = cs.center
        values = np.sort(values)
        # re-anchor index after the sort: center 0 stays at position k-1 here
        spec = wf.IndexSpec(regime="bulk", indices=(k,))
        x = wf.normalize(values, spec, beta)
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_one_scale_unit_shift(self):
        n, k, beta = 400, 200, 2
        cs = wf.bulk_center_scale(k, n, beta)
        values = synthetic_spectrum(n)
        values[k - 1] = cs.center + cs.scale
        spec = wf.IndexSpec(regime="bulk", indices=(k,))
        x = wf.normalize(values, spec, beta)
        assert x[0] == pytest.approx(1.0, abs=1e-12)

    def test_affine_response(self):
        n, k, beta = 300, 111, 1
        cs = wf.bulk_center_scale(k, n, beta)
        spec = wf.IndexSpec(regime="bulk", indices=(k,))
        for shift in (-2.0, 0.5, 3.0):
            values = spectrum_through(n, k - 1, cs.center + shift * cs.scale)
            x = wf.normalize(values, spec, beta)
            assert x[0] == pytest.approx(shift, abs=1e-12)

    def test_index_out_of_range(self):
        spec = wf.IndexSpec(regime="bulk", indices=(500,))
        with pytest.raises(wf.InvalidSizeError) as err:
            wf.normalize(synthetic_spectrum(100), spec, 1)
        assert str(err.value) == "k must be <= 100, got 500"


class TestNormalizeEdge:
    def test_center_maps_to_zero(self):
        n, k, beta = 500, 25, 1
        cs = wf.edge_center_scale(k, n, beta)
        values = spectrum_through(n, n - k - 1, cs.center)
        spec = wf.IndexSpec(regime="edge", indices=(k,), gamma=log(k) / log(n))
        x = wf.normalize(values, spec, beta)
        assert x[0] == pytest.approx(0.0, abs=1e-12)

    def test_beta_comparison_scales_by_two(self):
        # identical spectra: beta=4 coordinates are exactly twice beta=1
        n, k = 500, 25
        values = synthetic_spectrum(n)
        spec = wf.IndexSpec(regime="edge", indices=(k,), gamma=log(k) / log(n))
        x1 = wf.normalize(values, spec, 1)[0]
        x4 = wf.normalize(values, spec, 4)[0]
        center = wf.edge_center_scale(k, n, 1).center
        ratio = (values[n - k - 1] - center)
        if ratio != 0:
            assert x4 / x1 == pytest.approx(2.0, rel=1e-12)

    def test_dispatch(self):
        # an edge spec reads eigenvalue n - k and normalizes it at the edge
        n, k = 300, 20
        values = synthetic_spectrum(n)
        spec = wf.IndexSpec(regime="edge", indices=(k,), gamma=log(k) / log(n))
        cs = wf.edge_center_scale(k, n, 1)
        x = wf.normalize(values, spec, 1)
        assert x.tolist() == [(values[n - k - 1] - cs.center) / cs.scale]


class TestPredictedCovBulk:
    def test_theta_one_gives_independence(self):
        spec = wf.IndexSpec(regime="bulk", indices=(1, 2), thetas=(1.0,))
        lam = wf.predicted_cov(spec)
        assert lam[0, 1] == 0.0

    def test_theta_half(self):
        spec = wf.IndexSpec(regime="bulk", indices=(1, 2), thetas=(0.5,))
        assert wf.predicted_cov(spec)[0, 1] == 0.5

    def test_three_coordinates(self):
        spec = wf.IndexSpec(regime="bulk", indices=(1, 2, 3), thetas=(0.3, 0.7))
        lam = wf.predicted_cov(spec)
        assert lam[0, 1] == pytest.approx(0.7)
        assert lam[0, 2] == pytest.approx(0.3)
        assert lam[1, 2] == pytest.approx(0.3)

    def test_structure(self):
        spec = wf.IndexSpec(regime="bulk", indices=(1, 5, 9, 20), thetas=(0.2, 0.9, 0.4))
        lam = wf.predicted_cov(spec)
        assert np.array_equal(lam, lam.T)
        assert np.all(np.diag(lam) == 1.0)
        assert np.all((lam >= 0.0) & (lam <= 1.0))

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            t1 = rng.uniform(0.05, 1.0, size=3)
            t2 = np.minimum(t1 + rng.uniform(0.0, 0.3, size=3), 1.0)
            s1 = wf.IndexSpec(regime="bulk", indices=(1, 2, 3, 4), thetas=tuple(t1))
            s2 = wf.IndexSpec(regime="bulk", indices=(1, 2, 3, 4), thetas=tuple(t2))
            assert np.all(wf.predicted_cov(s2) <= wf.predicted_cov(s1) + 1e-15)


class TestPredictedCovEdge:
    def test_reference_value(self):
        spec = wf.IndexSpec(regime="edge", indices=(10, 20), thetas=(0.4,), gamma=0.8)
        assert wf.predicted_cov(spec)[0, 1] == pytest.approx(0.5)

    def test_theta_to_gamma_limit(self):
        lam = []
        for theta in (0.79, 0.799, 0.7999):
            spec = wf.IndexSpec(regime="edge", indices=(10, 20), thetas=(theta,), gamma=0.8)
            lam.append(wf.predicted_cov(spec)[0, 1])
        assert lam[0] > lam[1] > lam[2] >= 0.0
        assert lam[2] == pytest.approx(0.0, abs=2e-4)

    def test_three_coordinates(self):
        spec = wf.IndexSpec(
            regime="edge", indices=(10, 20, 40), thetas=(0.3, 0.6), gamma=0.9
        )
        lam = wf.predicted_cov(spec)
        assert lam[0, 1] == pytest.approx(2.0 / 3.0)
        assert lam[0, 2] == pytest.approx(1.0 / 3.0)
        assert lam[1, 2] == pytest.approx(1.0 / 3.0)

    def test_theta_at_gamma_rejected(self):
        with pytest.raises(wf.DomainError):
            wf.IndexSpec(regime="edge", indices=(10, 20), thetas=(0.8,), gamma=0.8)


class TestFluctuationVector:
    """normalize() returns the coordinate vector as a plain array."""

    def test_rejects_nonfinite(self):
        values = synthetic_spectrum(10)
        values[4] = np.nan
        spec = wf.IndexSpec(regime="bulk", indices=(5,))
        with pytest.raises(wf.InvalidDataError):
            wf.normalize(values, spec, 1)
