"""Phase integration and eigenpair computation against independent oracles."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

import vww.prufer
from conftest import catalog_potentials
from vww.errors import (BracketFailure, GridMismatch, NonPositiveLambda,
                        NonPositiveSpectrum, UnresolvedBasis)
from vww.grid import Grid
from vww.potential import MollifiedNu, MollifierSpec, NuPrimitive, PerturbedNu
from vww.prufer import (GRAM_DEFECT_TOL, _magnus_mesh, _magnus_phase,
                        _phase_map, asymptotic_residuals,
                        basis_from_cache, basis_to_cache, build_basis,
                        integrate_prufer, shoot_eigenvalue)

FREE = NuPrimitive()
STEP = NuPrimitive(jumps=((0.5, 1.0),))


def delta_lambda1_oracle(alpha: float) -> float:
    """Root of the matching condition tan(k/2) = -2k/alpha near pi.

    Independent derivation: y = sin(kx) left of the atom, A sin(k(1-x))
    right of it; continuity forces A = 1, the derivative jump alpha*y(1/2)
    forces -2k cos(k/2) = alpha sin(k/2).
    """
    f = lambda k: math.tan(k / 2.0) + 2.0 * k / alpha
    k = brentq(f, math.pi + 1e-9, 2.0 * math.pi - 1e-9, xtol=1e-13)
    return k * k


def prufer_rk4_oracle(nu, lam, n_steps):
    """Fixed-step classic RK4 on the raw theta equation, split at jumps.

    Integrates theta itself (not the drift-corrected variable), so it is
    an independent discretization of the same system.
    """
    sq = math.sqrt(lam)
    theta = 0.0
    panels = nu.ode_panels()
    for (a, b, nu_fn) in panels:
        m = max(1, round(n_steps * (b - a)))
        h = (b - a) / m
        x = a
        for _ in range(m):
            def f(xx, th):
                w = nu_fn(xx)
                return (sq + w * w * math.sin(th) ** 2 / sq
                        + w * math.sin(2.0 * th))
            k1 = f(x, theta)
            k2 = f(x + h / 2, theta + h / 2 * k1)
            k3 = f(x + h / 2, theta + h / 2 * k2)
            k4 = f(x + h, theta + h * k3)
            theta += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
    return theta


class TestIntegratePrufer:
    def test_free_phase_pi(self, grid512):
        p = integrate_prufer(FREE, math.pi**2, grid512)
        assert p.theta[-1] == pytest.approx(math.pi, abs=1e-11)
        assert np.max(np.abs(p.log_r)) == 0.0
        assert p.theta[0] == 0.0 and p.log_r[0] == 0.0

    def test_free_phase_two_pi(self, grid512):
        p = integrate_prufer(FREE, 4.0 * math.pi**2, grid512)
        assert p.theta[-1] == pytest.approx(2.0 * math.pi, abs=1e-11)

    def test_step_against_rk4_richardson(self, grid512):
        lam = math.pi**2
        p = integrate_prufer(STEP, lam, grid512)
        coarse = prufer_rk4_oracle(STEP, lam, 4000)
        fine = prufer_rk4_oracle(STEP, lam, 8000)
        assert abs(coarse - fine) <= 1e-9  # oracle self-consistent
        assert abs(p.theta[-1] - fine) <= 1e-9

    def test_eta_is_theta_minus_drift(self, grid512):
        lam = 30.0
        p = integrate_prufer(STEP, lam, grid512)
        assert np.allclose(p.eta,
                           p.theta - math.sqrt(lam) * grid512.nodes,
                           atol=1e-12)

    def test_positive_lambda_required(self, grid512):
        with pytest.raises(NonPositiveLambda):
            integrate_prufer(FREE, -1.0, grid512)

    def test_phase_monotone_for_large_lambda(self, grid512):
        # guaranteed once sqrt(lambda) dominates the nu terms
        lam = 1.0 + 2.0 * STEP.norm_linf() ** 2 + 2.0
        p = integrate_prufer(STEP, lam, grid512)
        assert np.all(np.diff(p.theta) > 0.0)


class TestShootEigenvalue:
    def test_free_mode_three(self, grid512):
        mode = shoot_eigenvalue(FREE, 3, grid512)
        assert list(mode.ns) == [3] and len(mode) == 1
        assert mode.lambdas[0] == pytest.approx(9.0 * math.pi**2, rel=1e-8)

    def test_constant_nu_leaves_operator_free(self, grid512):
        mode = shoot_eigenvalue(NuPrimitive("const", (2.0,)), 1, grid512)
        assert mode.lambdas[0] == pytest.approx(math.pi**2, rel=1e-8)

    def test_delta_inert_even_mode(self, grid512):
        mode = shoot_eigenvalue(STEP, 2, grid512)
        assert mode.lambdas[0] == pytest.approx(4.0 * math.pi**2, abs=1e-8)

    def test_delta_ground_state_vs_transcendental(self, grid2048):
        mode = shoot_eigenvalue(STEP, 1, grid2048)
        assert mode.lambdas[0] == pytest.approx(delta_lambda1_oracle(1.0),
                                                abs=1e-7)

    def test_theta_residual_tolerance(self, grid512):
        mode = shoot_eigenvalue(STEP, 1, grid512)
        assert abs(mode.theta_residuals[0]) <= 1e-10

    def test_eigenfunction_normalized_and_pinned(self, grid512):
        phi = shoot_eigenvalue(STEP, 1, grid512).phi_matrix[0]
        assert grid512.norm_l2(phi) == pytest.approx(1.0, abs=1e-9)
        assert phi[0] == 0.0 and phi[-1] == 0.0

    def test_unconverged_mode_reports_residual(self, grid512, monkeypatch):
        monkeypatch.setattr(vww.prufer, "NEWTON_PASSES", 1)
        with pytest.raises(BracketFailure,
                           match="phase residual .* above tolerance for mode n=1"):
            shoot_eigenvalue(STEP, 1, grid512)

    def test_deep_well_reports_bracket_failure(self, grid512):
        # alpha < -4 pushes the ground state below the positivity floor
        deep = NuPrimitive(jumps=((0.5, -6.0),))
        with pytest.raises(BracketFailure) as err:
            shoot_eigenvalue(deep, 1, grid512)
        assert err.value.n == 1
        assert err.value.bracket[0] > 0.0


class TestEigenDerivative:
    def test_free_mode_one_at_origin(self, free_basis_small):
        d = free_basis_small.phi_prime_matrix[0]
        assert d[0] == pytest.approx(math.sqrt(2.0) * math.pi, abs=1e-9)

    def test_free_mode_two_quarter_node(self, free_basis_small):
        i = free_basis_small.grid.n // 4
        assert abs(free_basis_small.phi_prime_matrix[1, i]) <= 1e-10

    def test_step_against_finite_differences(self, step_basis_40):
        d = step_basis_40.phi_prime_matrix[0]
        g = step_basis_40.grid
        v = step_basis_40.phi_matrix[0]
        fd = (v[2:] - v[:-2]) / (2.0 * g.h)
        interior = np.arange(1, g.n)
        away = np.abs(g.nodes[interior] - 0.5) > 4.0 * g.h
        err = np.abs(fd - d[1:-1])
        assert np.max(err[away]) <= 1e-5


class TestBuildBasis:
    def test_free_spectrum_and_gram(self, free_basis_small):
        lams = free_basis_small.lambdas
        want = (np.arange(1, 11) * math.pi) ** 2
        assert np.max(np.abs(lams / want - 1.0)) <= 1e-8
        assert free_basis_small.gram_max_offdiag <= 1e-7

    def test_constant_potential_shift(self, const5_basis_40):
        lams = const5_basis_40.lambdas[:10]
        want = (np.arange(1, 11) * math.pi) ** 2 + 5.0
        assert np.max(np.abs(lams - want)) <= 1e-7

    def test_eigenvalues_strictly_increasing(self, step_basis_40):
        assert np.all(np.diff(step_basis_40.lambdas) > 0.0)

    def test_eigenvalue_asymptote_constant_finite(self, step_basis_40):
        rep = asymptotic_residuals(step_basis_40)
        assert np.all(np.isfinite(rep.asymptote_constants))
        assert np.max(rep.asymptote_constants) < 1.0

    def test_oscillation_count(self, step_basis_40):
        basis = step_basis_40
        for n, phi in zip(basis.ns[:12], basis.phi_matrix[:12]):
            v = phi[1:-1]
            s = np.sign(v[np.abs(v) > 1e-12])
            changes = int(np.sum(s[:-1] != s[1:]))
            assert changes == n - 1

    def test_tilde_norm_bounds(self, step_basis_40):
        nrm = STEP.norm_l2()
        bound = np.exp(nrm + nrm**2 / np.sqrt(step_basis_40.lambdas))
        assert np.all(step_basis_40.tilde_norms > 0.1)
        assert np.all(step_basis_40.tilde_norms <= bound)

    def test_grid_refinement_leaves_lambda_fixed(self):
        lam_a = build_basis(STEP, 3, Grid(512)).lambdas
        lam_b = build_basis(STEP, 3, Grid(1024)).lambdas
        assert np.max(np.abs(lam_a - lam_b)) <= 1e-10


    def test_multi_atom_mollified_matches_vectorized_nu(self, monkeypatch):
        # the ODE callable sums the atoms in another order than nu_values
        base = NuPrimitive(jumps=((0.25, 1.0), (0.5, -0.7), (0.8, 2.0)))
        nu = MollifiedNu(base, MollifierSpec("bump", 2.0**-4))
        basis = build_basis(nu, 8, Grid(512))
        ref = MollifiedNu(base, MollifierSpec("bump", 2.0**-4))
        monkeypatch.setattr(ref, "ode_panels", lambda: [
            (a, b, lambda x: float(ref.nu_values(x)[0]))
            for a, b, _ in nu.ode_panels()])
        want = build_basis(ref, 8, Grid(512)).lambdas
        assert np.max(np.abs(basis.lambdas / want - 1.0)) <= 1e-9
        assert np.max(np.abs(basis.theta_residuals)) <= 1e-10


    def test_aliased_basis_raises(self):
        # mode 40 aliases mode 24 on 64 intervals: Gram defect 0.333
        with pytest.raises(UnresolvedBasis, match=r"n_max=40 .* 64 .*0\.333"):
            build_basis(FREE, 40, Grid(64))

    def test_unresolved_message_names_tolerance(self):
        # resolved at the default tolerances (Gram defect 2.1e-8)
        nu = NuPrimitive("sine", (1.0, 1.0), jumps=((0.5, 1.0),))
        with pytest.raises(UnresolvedBasis,
                           match=r"256 intervals at tol=0\.01: Gram"):
            build_basis(nu, 12, Grid(256), tol=1e-2)

    @pytest.mark.parametrize("name", ["step", "sine"])
    def test_eigenfunctions_match_tight_tolerance_build(
            self, name, catalog_bases_40, grid2048):
        # 2.5e-10 (step) and 2.7e-10 (sine) when this was written
        tight = build_basis(catalog_potentials()[name], 40, grid2048,
                            tol=1e-13)
        diff = catalog_bases_40[name].phi_matrix - tight.phi_matrix
        assert np.max(np.abs(diff)) <= 1e-9

    def test_coarse_but_resolved_basis_builds(self):
        basis = build_basis(STEP, 12, Grid(32))
        assert basis.gram_max_offdiag <= 0.1 * GRAM_DEFECT_TOL  # 1.5e-4


class TestRootPasses:
    @pytest.mark.parametrize("name", ["step", "mixed", "sine"])
    def test_magnus_theta_matches_sampled_pass(self, name, catalog_bases_40):
        nu = catalog_potentials()[name]
        lams = catalog_bases_40[name].lambdas[[0, 19, 39]]
        theta_end, _ = _phase_map(nu, Grid(2048))(lams)
        for lam, got in zip(lams, theta_end):
            path = integrate_prufer(nu, float(lam), Grid(2048))
            assert abs(got - path.theta[-1]) <= 1e-10

    @pytest.mark.parametrize("nu, hyperbolic", [
        (NuPrimitive("sine", (1.0, 1.0)), 0),
        (NuPrimitive("sine", (3000.0, 1.0)), 24),
        (NuPrimitive("linear", (1e4,)), 32),
    ], ids=["sine", "steep_sine", "steep_linear"])
    @pytest.mark.parametrize("lam", [0.5, 300.0])
    def test_closed_form_step_matches_expm(self, nu, hyperbolic, lam):
        # 32 cells: nu changes by over 2 sqrt(3)/h across some of them, so
        # det Omega < 0 there and the cosh/sinh branch is taken
        mesh = _magnus_mesh(nu, 32)
        assert int(np.sum(mesh[5] < 0.0)) == hyperbolic
        x = np.linspace(0.0, 1.0, 33)
        h, s = 1.0 / 32, math.sqrt(lam)
        B = lambda v: np.array([[v, s], [-(s + v * v / s), -v]])
        v, theta = np.array([1.0, 0.0]), 0.0  # (w, y)
        for mid in x[:-1] + 0.5 * h:
            b1, b2 = (B(float(nu.nu_values(mid + t * h / math.sqrt(12.0))))
                      for t in (-1, 1))
            om = 0.5 * h * (b1 + b2) + math.sqrt(3.0) / 12.0 * h * h * (
                b2 @ b1 - b1 @ b2)
            y, w = expm(om) @ v[::-1]
            theta += math.atan2(v[0] * y - v[1] * w, v[0] * w + v[1] * y)
            v = np.array([w, y]) / math.hypot(w, y)
        got, _ = _magnus_phase(mesh, np.array([lam]))
        assert got[0] == pytest.approx(theta, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 100.0, 1e4])
    def test_newton_derivative_free(self, lam):
        _, dtheta = _phase_map(FREE, Grid(2048))(np.array([lam]))
        assert dtheta[0] == pytest.approx(0.5 / math.sqrt(lam), rel=1e-5)

    @pytest.mark.parametrize("name", ["step", "sine"])
    @pytest.mark.parametrize("lam", [5.0, 500.0, 1e4])
    def test_newton_derivative_central_difference(self, name, lam):
        phase = _phase_map(catalog_potentials()[name], Grid(2048))
        d = 1e-5 * lam
        theta, dtheta = phase(np.array([lam - d, lam, lam + d]))
        assert (theta[2] - theta[0]) / (2.0 * d) == pytest.approx(
            dtheta[1], rel=1e-5)

    @pytest.mark.parametrize("n", [1, 12, 24])
    def test_fast_panels_refined(self, n):
        # the bump's panels span 4 grid intervals; unrefined Magnus cells
        # leave theta(1) off by 5.8e-9 to 1.3e-8 at these roots
        nu = MollifiedNu(STEP, MollifierSpec("bump", 2.0**-9))
        lam = float(shoot_eigenvalue(nu, n, Grid(2048)).lambdas[0])
        path = integrate_prufer(nu, lam, Grid(2048), tol=1e-12)
        assert abs(path.theta[-1] - math.pi * n) <= 1e-10

    @pytest.mark.parametrize("n", [8, 40])
    def test_cells_turn_less_than_pi(self, n):
        # 6.3 rad (n = 8) and 31 rad (n = 40) per grid interval of Grid(4)
        lam = shoot_eigenvalue(FREE, n, Grid(4)).lambdas[0]
        assert lam == pytest.approx((n * math.pi) ** 2, rel=1e-10)

    def test_pass_count_per_build(self, monkeypatch):
        # one RK45 pass, the sampled one, and a few Magnus passes
        rk45, magnus = [], []
        original_rk45 = vww.prufer.integrate_rk45
        original_magnus = vww.prufer._magnus_phase

        def counted_rk45(rhs, x0, x1, y0, *args, **kwargs):
            if x0 == 0.0:
                rk45.append(np.shape(y0))
            return original_rk45(rhs, x0, x1, y0, *args, **kwargs)

        def counted_magnus(mesh, lams):
            magnus.append(len(lams))
            return original_magnus(mesh, lams)

        monkeypatch.setattr(vww.prufer, "integrate_rk45", counted_rk45)
        monkeypatch.setattr(vww.prufer, "_magnus_phase", counted_magnus)
        build_basis(STEP, 40, Grid(2048))
        assert rk45 == [(2, 40)]
        assert 1 <= len(magnus) <= 6
        assert magnus[0] == 40


    def test_newton_start_first_order_in_nu(self, monkeypatch):
        # the start (pi n)^2 - 2 pi n int nu sin(2 pi n x) lands mode 1 of
        # sine (1, 1) close enough that 4 Magnus passes do (6 from
        # (pi n)^2 + total mass)
        passes = []
        original = vww.prufer._magnus_phase

        def counted(mesh, lams):
            passes.append(len(lams))
            return original(mesh, lams)

        monkeypatch.setattr(vww.prufer, "_magnus_phase", counted)
        build_basis(NuPrimitive("sine", (1.0, 1.0)), 40, Grid(2048))
        assert len(passes) <= 4


class TestCache:
    MOLLIFIED = MollifiedNu(STEP, MollifierSpec("bump", 0.25))

    @pytest.mark.parametrize("nu", [
        MOLLIFIED,
        PerturbedNu(MOLLIFIED, NuPrimitive("sine", (1.0, 1.0)), 0.1),
    ], ids=["mollified", "perturbed"])
    def test_round_trip_keeps_potential(self, nu):
        basis = build_basis(nu, 3, Grid(256))
        cache = json.loads(json.dumps(
            basis_to_cache(basis, include_eigenfunctions=True)))
        again = basis_from_cache(cache).nu
        assert again.descriptor() == nu.descriptor()
        x = np.linspace(0.0, 1.0, 1001)
        assert again.nu_values(x).tobytes() == nu.nu_values(x).tobytes()

    def test_round_trip_keeps_every_array(self):
        basis = build_basis(STEP, 4, Grid(256))
        again = basis_from_cache(json.loads(json.dumps(
            basis_to_cache(basis, include_eigenfunctions=True))))
        for name in ("ns", "lambdas", "phi_matrix", "phi_prime_matrix", "eta",
                     "log_r", "tilde_norms", "theta_residuals"):
            want, got = getattr(basis, name), getattr(again, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert again.gram_max_offdiag == basis.gram_max_offdiag
        assert again.grid == basis.grid and len(again) == 4

    def test_rows_must_match_grid(self):
        cache = basis_to_cache(build_basis(STEP, 2, Grid(64)), True)
        with pytest.raises(GridMismatch, match="2 modes on 129 nodes"):
            basis_from_cache({**cache, "grid_n": 128})

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_cached_lambda_rejected(self, lam):
        cache = basis_to_cache(build_basis(STEP, 2, Grid(64)), True)
        with pytest.raises(NonPositiveSpectrum, match="non-positive eigenvalue"):
            basis_from_cache({**cache, "lambdas": [lam, cache["lambdas"][1]]})

    def test_basis_arrays_read_only(self, free_basis_small):
        with pytest.raises(ValueError):
            free_basis_small.phi_matrix[0, 1] = 1.0
        with pytest.raises(ValueError):
            free_basis_small.lambdas[0] = 1.0


class TestAsymptoticResiduals:
    def test_free_residuals_vanish(self, free_basis_small):
        rep = asymptotic_residuals(free_basis_small)
        assert np.max(rep.psi_norms) <= 1e-10
        assert rep.partial_sums[-1] <= 1e-18

    def test_step_partial_sums_plateau(self, step_basis_40):
        rep = asymptotic_residuals(step_basis_40)
        sums = rep.partial_sums
        assert np.all(np.diff(sums) >= 0.0)
        assert sums[39] < 1.1 * sums[19]

    def test_step_amplitude_residual_uniform_bound(self, step_basis_40):
        rep = asymptotic_residuals(step_basis_40)
        c = rep.rho_norms / STEP.norm_l2()
        assert np.max(c) < 3.0

    def test_catalog_asymptote_constants_finite(self, catalog_bases_40):
        # |lambda_n/(pi n)^2 - 1| <= C/n with a finite fitted C per potential
        for name, basis in catalog_bases_40.items():
            rep = asymptotic_residuals(basis)
            c = float(np.max(rep.asymptote_constants))
            assert np.isfinite(c), name
            assert c < 5.0, (name, c)
