"""Projection, synthesis and Sobolev norms against closed forms."""

import math

import numpy as np
import pytest

from vww.errors import GridMismatch, NonFiniteResult, NonPositiveSpectrum
from vww.grid import Grid, GridFunction
from vww.spectral import (analyze, lambda_power, parseval_defect, sobolev_norm,
                          synthesize)

from conftest import parabola, sine_data


def parabola_coefficient(n: int) -> float:
    """<x(1-x), sqrt(2) sin(n pi x)> from the closed-form sine integral."""
    return math.sqrt(2.0) * 2.0 * (1.0 - (-1.0) ** n) / (math.pi * n) ** 3


class TestAnalyze:
    def test_single_mode(self, free_basis_40):
        g = free_basis_40.grid
        f = GridFunction(g, math.sqrt(2.0) * np.sin(math.pi * g.nodes))
        c = analyze(f, free_basis_40)
        assert c.coeffs[0] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(c.coeffs[1:])) <= 1e-9

    def test_zero_function(self, free_basis_40):
        c = analyze(GridFunction.zeros(free_basis_40.grid), free_basis_40)
        assert np.all(c.coeffs == 0.0)

    def test_parabola_closed_form(self, free_basis_40):
        c = analyze(parabola(free_basis_40.grid), free_basis_40)
        want = np.array([parabola_coefficient(n) for n in range(1, 41)])
        assert np.max(np.abs(c.coeffs - want)) <= 1e-8

    def test_grid_mismatch(self, free_basis_40):
        with pytest.raises(GridMismatch):
            analyze(GridFunction.zeros(Grid(64)), free_basis_40)

    def test_linearity(self, free_basis_40):
        g = free_basis_40.grid
        rng = np.random.default_rng(7)
        f = GridFunction(g, rng.standard_normal(g.n + 1))
        h = GridFunction(g, rng.standard_normal(g.n + 1))
        lhs = analyze(2.5 * f + (-1.25) * h, free_basis_40).coeffs
        rhs = (2.5 * analyze(f, free_basis_40).coeffs
               - 1.25 * analyze(h, free_basis_40).coeffs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestSynthesize:
    def test_single_mode_round_trip(self, free_basis_40):
        g = free_basis_40.grid
        f = GridFunction(g, math.sqrt(2.0) * np.sin(math.pi * g.nodes))
        assert (synthesize(analyze(f, free_basis_40)) - f).norm_l2() <= 1e-8

    def test_zero_coeffs(self, free_basis_40):
        from vww.spectral import SpectralCoeffs
        c = SpectralCoeffs(free_basis_40, np.zeros(40))
        assert np.all(synthesize(c).values == 0.0)

    def test_parabola_tail_bound(self, grid512):
        # closed-form coefficients give the truncation tail directly
        from vww.potential import NuPrimitive
        from vww.prufer import build_basis
        basis30 = build_basis(NuPrimitive(), 30, grid512)
        f = parabola(grid512)
        err = (synthesize(analyze(f, basis30)) - f).norm_l2()
        tail = math.sqrt(sum(parabola_coefficient(n) ** 2
                             for n in range(31, 4001)))
        assert err <= tail + 1e-7
        assert err == pytest.approx(1.167e-5, rel=1e-2)  # frozen tail value

    def test_round_trip_bounded_by_defect(self, free_basis_40):
        f = parabola(free_basis_40.grid)
        err = (synthesize(analyze(f, free_basis_40)) - f).norm_l2()
        defect = parseval_defect(f, free_basis_40)
        assert err <= math.sqrt(max(defect, 0.0)) + 1e-9


class TestSobolevNorm:
    def test_first_order(self, free_basis_40):
        g = free_basis_40.grid
        c = analyze(GridFunction(g, np.sin(math.pi * g.nodes)), free_basis_40)
        assert sobolev_norm(c, 1.0) == pytest.approx(
            math.pi / math.sqrt(2.0), abs=1e-9)

    def test_zero_order_is_l2(self, free_basis_40):
        f = parabola(free_basis_40.grid)
        c = analyze(f, free_basis_40)
        defect = parseval_defect(f, free_basis_40)
        assert sobolev_norm(c, 0.0) == pytest.approx(
            f.norm_l2(), abs=math.sqrt(abs(defect)) + 1e-12)

    def test_negative_order(self, free_basis_40):
        g = free_basis_40.grid
        c = analyze(GridFunction(g, np.sin(2.0 * math.pi * g.nodes)),
                    free_basis_40)
        assert sobolev_norm(c, -1.0) == pytest.approx(
            1.0 / (2.0 * math.pi * math.sqrt(2.0)), abs=1e-9)

    def test_steep_negative_order_finite(self, free_basis_40):
        # lambda_1^-50 = pi^-100 ~ 1e-50 is small but normal: no underflow
        g = free_basis_40.grid
        c = analyze(GridFunction(g, np.sin(math.pi * g.nodes)), free_basis_40)
        assert sobolev_norm(c, -50.0) == pytest.approx(
            math.pi ** -50 / math.sqrt(2.0), rel=1e-8)

    def test_weights_that_all_underflow_refused(self):
        with pytest.raises(NonFiniteResult,
                           match=r"lambda\^k underflows for k=-1e\+300 at "
                                 r"lambda_min=10$"):
            lambda_power(np.array([10.0, 100.0]), -1e300)

    def test_monotone_in_k_when_spectrum_above_one(self, free_basis_40):
        f = sine_data(free_basis_40.grid, [(1.0, 1), (0.5, 4)])
        c = analyze(f, free_basis_40)
        ks = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0]
        norms = [sobolev_norm(c, k) for k in ks]
        assert np.all(np.diff(norms) >= -1e-12)

    def test_nonpositive_spectrum_rejected(self, free_basis_40):
        import dataclasses

        from vww.spectral import SpectralCoeffs

        lams = np.r_[-1.0, free_basis_40.lambdas[1:]]
        with pytest.raises(NonPositiveSpectrum):
            bad = dataclasses.replace(free_basis_40, lambdas=lams)
            sobolev_norm(SpectralCoeffs(bad, np.ones(len(bad))), 1.0)


class TestParsevalDefect:
    def test_basis_member_defect_tiny(self, free_basis_40):
        f = GridFunction(free_basis_40.grid,
                         free_basis_40.phi_matrix[4])
        assert abs(parseval_defect(f, free_basis_40)) <= 1e-9

    def test_zero_function(self, free_basis_40):
        assert parseval_defect(GridFunction.zeros(free_basis_40.grid),
                               free_basis_40) == 0.0

    def test_defect_decreases_with_truncation_order(self, free_basis_40):
        # tail of the closed-form series: defect(N=10) > defect(N=30) >= 0
        f = parabola(free_basis_40.grid)
        c = analyze(f, free_basis_40).coeffs
        total = f.inner(f)
        d10 = total - float(np.sum(c[:10] ** 2))
        d30 = total - float(np.sum(c[:30] ** 2))
        d40 = total - float(np.sum(c**2))
        assert d10 > d30 >= d40 >= -1e-9
