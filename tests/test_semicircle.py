from math import copysign, log, nan, pi, sqrt

import numpy as np
import pytest

import wigner_fluct as wf
from wigner_fluct import semicircle


def cdf_quadrature_oracle(t):
    """Adaptive quadrature of the defining integral (2/pi) sqrt(1-x^2) on
    [-1, t]; independent of the closed-form path it checks."""
    from scipy.integrate import quad

    val, err = quad(
        lambda x: (2.0 / pi) * sqrt(max(1.0 - x * x, 0.0)), -1.0, t, limit=400
    )
    assert err < 1e-9
    return float(val)


class TestDensity:
    def test_at_zero(self):
        assert wf.semicircle_density(0.0) == pytest.approx(2.0 / pi)

    @pytest.mark.parametrize("x", [-1.5, -1.0000001, 1.0000001, 2.5])
    def test_outside_support(self, x):
        assert wf.semicircle_density(x) == 0.0

    def test_normalization_by_quadrature(self):
        from scipy.integrate import quad

        total, err = quad(wf.semicircle_density, -1.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("t", [-0.9, -0.3, 0.0, 0.45, 0.99])
    def test_integrates_to_the_cdf(self, t):
        from scipy.integrate import quad

        val, err = quad(wf.semicircle_density, -1.0, t, limit=400)
        assert val == pytest.approx(wf.semicircle_cdf(t), abs=1e-10)

    def test_matches_the_half_scale_formula_bitwise(self):
        # (1/(2 pi s^2)) sqrt(4 s^2 - x^2) at s = 0.5, the curve the
        # semicircle-check SVG drew before the density became the unit law
        for x in np.linspace(-1.2, 1.2, 10001):
            s = 0.5
            old = 0.0 if abs(x) > 2.0 * s else sqrt(4.0 * s * s - x * x) / (2.0 * pi * s * s)
            assert wf.semicircle_density(x) == old


class TestCDF:
    def test_midpoint(self):
        assert wf.semicircle_cdf(0.0) == 0.5

    def test_endpoints(self):
        assert wf.semicircle_cdf(-1.0) == 0.0
        assert wf.semicircle_cdf(1.0) == 1.0

    def test_half_against_quadrature_oracle(self):
        assert wf.semicircle_cdf(0.5) == pytest.approx(cdf_quadrature_oracle(0.5), abs=1e-9)
        assert wf.semicircle_cdf(0.5) == pytest.approx(0.8045, abs=5e-5)

    def test_strictly_increasing(self):
        grid = np.linspace(-1.0, 1.0, 1001)
        vals = [wf.semicircle_cdf(t) for t in grid]
        assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        for t in (1.5, np.nextafter(-1.0, -2.0)):
            with pytest.raises(wf.DomainError):
                wf.semicircle_cdf(t)
        # NaN is data that is not finite, not a point outside [-1, 1]
        with pytest.raises(wf.InvalidDataError, match="^t must be finite$"):
            wf.semicircle_cdf(nan)


class TestQuantile:
    def test_median(self):
        t = wf.semicircle_quantile(0.5)
        assert t == 0.0 and copysign(1.0, t) == 1.0  # +0.0

    def test_endpoints(self):
        assert wf.semicircle_quantile(0.0) == -1.0
        assert wf.semicircle_quantile(1.0) == 1.0

    def test_roundtrip(self):
        assert wf.semicircle_quantile(wf.semicircle_cdf(0.3)) == pytest.approx(0.3, abs=1e-12)

    def test_roundtrip_grid(self):
        edges = [1e-12, 1e-9, 1e-6]
        grid = np.concatenate([edges, np.linspace(1e-4, 1 - 1e-4, 10_000), [1 - e for e in edges]])
        for q in grid:
            t = wf.semicircle_quantile(q)
            assert abs(wf.semicircle_cdf(t) - q) <= 1e-13, q

    def test_nondecreasing_near_edges(self):
        # geometric grids resolve every scale from 1e-12 to 1e-3 off each edge
        near = np.geomspace(1e-12, 1e-3, 20_001)
        for grid in (near, 1.0 - near[::-1]):
            ts = [wf.semicircle_quantile(q) for q in grid]
            assert np.all(np.diff(ts) >= 0.0), grid[0]

    def test_domain_error(self):
        for q in (1.5, -0.1):
            with pytest.raises(wf.DomainError):
                wf.semicircle_quantile(q)
        with pytest.raises(wf.InvalidDataError, match="^q must be finite$"):
            wf.semicircle_quantile(nan)

    def test_nonconvergence_raises(self, monkeypatch):
        # a derivative 10^6 times too large makes every Newton step tiny
        monkeypatch.setattr(semicircle, "cos", lambda phi: 1e6)
        with pytest.raises(wf.NumericalFailureError):
            semicircle.semicircle_quantile(0.9)


class TestBulkCenterScale:
    def test_half_n(self):
        cs = wf.bulk_center_scale(50, 100, 1)
        assert cs.center == 0.0
        assert cs.scale == pytest.approx(sqrt(log(100) / 200), abs=1e-12)
        assert cs.scale == pytest.approx(0.15174, abs=5e-5)

    def test_center_zero_at_midpoint_any_n(self):
        for n in (10, 501, 2000):
            assert wf.bulk_center_scale(n // 2, n, 2).center == pytest.approx(
                0.0 if n % 2 == 0 else wf.semicircle_quantile((n // 2) / n) * sqrt(2 * n)
            )

    def test_beta_scaling(self):
        s1 = wf.bulk_center_scale(30, 100, 1).scale
        s4 = wf.bulk_center_scale(30, 100, 4).scale
        assert s4 == pytest.approx(s1 / 2.0, rel=1e-14)

    def test_edge_guard(self):
        with pytest.raises(wf.DomainError):
            wf.bulk_center_scale(1, 10**8, 1)
        # k = n is in range: the guard, a property of the scaling, refuses it
        with pytest.raises(wf.DomainError, match="^k/n = 1.0 too close to the spectral edge"):
            wf.bulk_center_scale(10, 10, 1)

    def test_bad_beta(self):
        with pytest.raises(wf.UnsupportedError):
            wf.bulk_center_scale(5, 10, 3)

    def test_beta_taken_as_an_integer_like_ensemble_spec(self):
        # a float beta passed the membership test once and was used as given
        for center_scale, k, n in ((wf.bulk_center_scale, 10, 20), (wf.edge_center_scale, 12, 100)):
            with pytest.raises(wf.InvalidSizeError, match="beta must be an integer"):
                center_scale(k, n, 2.0)
            assert center_scale(k, n, True) == center_scale(k, n, 1)
            assert center_scale(k, n, np.int64(4)) == center_scale(k, n, 4)


class TestEdgeCenterScale:
    def test_reference_values(self):
        cs = wf.edge_center_scale(10, 100, 1)
        assert cs.center == pytest.approx(9.860, abs=5e-4)
        assert cs.scale == pytest.approx(0.1379, abs=5e-5)

    def test_center_below_edge(self):
        for k, n in ((15, 50), (20, 400), (100, 10_000)):
            assert wf.edge_center_scale(k, n, 2).center < sqrt(2 * n)

    def test_beta_scaling(self):
        s1 = wf.edge_center_scale(15, 200, 1).scale
        s4 = wf.edge_center_scale(15, 200, 4).scale
        assert s4 / s1 == pytest.approx(0.5, rel=1e-14)

    def test_small_k_warns_and_flags(self):
        # the warning is the only small-k signal: CenterScale has no flag
        with pytest.warns(UserWarning, match="edge scaling requested at k=5 < 10"):
            wf.edge_center_scale(5, 100, 1)

    def test_small_k_warning_points_at_the_caller(self):
        with pytest.warns(UserWarning, match="edge scaling") as record:
            wf.edge_center_scale(5, 100, 1)
        assert record[0].filename == __file__
        # through two package frames: normalize -> coordinates -> edge_center_scale
        spec = wf.edge_index_spec((5,), 100)
        with pytest.warns(UserWarning, match="edge scaling") as record:
            wf.normalize(np.linspace(-14.0, 14.0, 100), spec, 1)
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_k1_degenerate(self):
        with pytest.raises(wf.DomainError):
            wf.edge_center_scale(1, 100, 1)

    def test_k_out_of_range(self):
        # an index out of range is the integer rule's, not a property of the scaling
        with pytest.raises(wf.InvalidSizeError) as err:
            wf.edge_center_scale(100, 100, 1)
        assert str(err.value) == "k must be <= 99, got 100"
        assert wf.edge_center_scale(99, 100, 1).scale > 0.0  # n - 1 is in range


class TestCenterScaleArguments:
    @pytest.mark.parametrize(
        "center_scale, k, n",
        [
            (wf.bulk_center_scale, 10, 20.5),
            (wf.bulk_center_scale, 10.5, 20),
            (wf.edge_center_scale, 2.5, 100),
            (wf.edge_center_scale, 12, 100.5),
        ],
    )
    def test_fractional_k_or_n_rejected(self, center_scale, k, n):
        with pytest.raises(wf.InvalidSizeError, match="must be an integer"):
            center_scale(k, n, 1)

    def test_numpy_integers_accepted_where_fractions_are_not(self):
        for center_scale, k, n in ((wf.bulk_center_scale, 10, 20), (wf.edge_center_scale, 12, 100)):
            assert center_scale(np.int64(k), np.int32(n), 1) == center_scale(k, n, 1)
            with pytest.raises(wf.InvalidSizeError):
                center_scale(np.float64(k), n, 1)
            # beta is checked first, by the membership rule
            with pytest.raises(wf.UnsupportedError):
                center_scale(k + 0.5, n, 3)


class TestEdgeExpectationConsistency:
    def test_tail_mass_matches_leading_term(self):
        # n(1 - cdf(t)) vs (4 sqrt 2 / 3 pi) n (1-t)^{3/2} within 2% near t = 1
        n = 1.0
        for one_minus_t in (1e-3, 5e-4, 1e-4):
            t = 1.0 - one_minus_t
            exact = n * (1.0 - wf.semicircle_cdf(t))
            leading = (4.0 * sqrt(2.0) / (3.0 * pi)) * n * one_minus_t**1.5
            assert exact == pytest.approx(leading, rel=0.02)
