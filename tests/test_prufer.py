"""Phase integration and eigenpair computation against independent oracles."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

import vww.prufer
from conftest import catalog_potentials
from oracles import (EIGENBASIS_ARRAYS, asymptotic_residuals,
                     basis_from_cache, dop853_theta, phase_rhs,
                     psi_norms_from_path, recorded_states_with_sums,
                     rk45_eigenfunctions, rk45_path)
from vww.errors import (BracketFailure, ConfigError, GridMismatch,
                        MeshTooLarge, NonFiniteResult, NonPositiveSpectrum,
                        UnresolvedBasis)
from vww.grid import Grid
from vww.potential import MollifiedNu, MollifierSpec, NuPrimitive, PerturbedNu
from vww.prufer import (DEFAULT_TOL, GRAM_DEFECT_TOL, MAX_TOL, MIN_TOL,
                        EigenBasis, _eigenbasis, _magnus_mesh, _magnus_phase,
                        _make_rhs, _mesh_panels, _newton_roots, _panel_slopes,
                        _PhaseMap, _propagate, _recorded_pass, _roots, _shear,
                        _sin_cos, _sine_sums, basis_csv_rows,
                        basis_to_cache, build_basis)

FREE = NuPrimitive()
STEP = NuPrimitive(jumps=((0.5, 1.0),))
# an atom at a node of every grid: phi' there takes nu's left limit
SINE_ATOM = NuPrimitive("sine", (1.0, 1.0), jumps=((0.5, 1.0),))


def delta_lambda_oracle(alpha: float, n: int = 1) -> float:
    """lambda_n = k^2 for an atom of height alpha at 1/2: (n pi)^2 for even
    n, whose y(1/2) = 0, else the root of tan(k/2) = -2k/alpha in (n pi,
    (n + 1) pi).

    Independent derivation: y = sin(kx) left of the atom, A sin(k(1-x))
    right of it; for odd n, continuity forces A = 1, the derivative jump
    alpha*y(1/2) forces -2k cos(k/2) = alpha sin(k/2).  That form has no
    pole, so a root within 1e-11 of (n + 1) pi, as at alpha = 1e12, is
    bracketed to the end.
    """
    if n % 2 == 0:
        return (n * math.pi) ** 2
    f = lambda k: alpha * math.sin(k / 2.0) + 2.0 * k * math.cos(k / 2.0)
    k = brentq(f, n * math.pi, (n + 1) * math.pi, xtol=1e-13)
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


def expm_chained_phase(nu, cells, lams):
    """theta(1) and d theta(1) / d lambda from scipy's expm of each cell's
    Magnus-4 exponent, chained over `cells` equal cells of [0, 1] one cell
    at a time and rescaled to r = 1 after each; nu has no breakpoints.

    The exponent is built, not from the closed form of _cell_mesh, but
    from B = [[v, s], [-(s + (v^2 - sigma)/s), -v]] at the two Gauss
    points, with v = nu - c for the line c through nu at the cell's ends
    and sigma its slope.  It ends in the last cell's gauge, where w = y' /
    s at x = 1, as _cell_mesh does: no shear back to nu's own gauge.
    """
    lams = np.asarray(lams, dtype=float)
    s = np.sqrt(lams)[:, None, None]
    h = 1.0 / cells
    left = np.arange(cells) * h
    ends = nu.nu_values(np.append(left, 1.0))
    sigma = np.diff(ends) / h
    B = lambda v, sig: np.block([[np.full_like(s, v), s],
                                 [-(s + (v * v - sig) / s),
                                  np.full_like(s, -v)]])
    steps = []
    for x, c, sig in zip(left, ends, sigma):
        v1, v2 = (float(nu.nu_values(x + g * h)) - c - sig * g * h
                  for g in (0.5 - math.sqrt(1.0 / 12.0),
                            0.5 + math.sqrt(1.0 / 12.0)))
        b1, b2 = B(v1, sig), B(v2, sig)
        steps.append((h, expm(0.5 * h * (b1 + b2) + math.sqrt(3.0) / 12.0
                              * h * h * (b2 @ b1 - b1 @ b2))))
    v = np.zeros((lams.size, 2))
    v[:, 1] = 1.0  # (y, w)
    theta, int_y2 = np.zeros(lams.size), np.zeros(lams.size)
    for width, step in steps:
        u = np.einsum("mij,mj->mi", step, v)
        theta += np.arctan2(v[:, 1] * u[:, 0] - v[:, 0] * u[:, 1],
                            v[:, 1] * u[:, 1] + v[:, 0] * u[:, 0])
        r2 = np.sum(u * u, axis=1)
        int_y2 = (int_y2 + 0.5 * width * (v[:, 0] ** 2 + u[:, 0] ** 2)) / r2
        v = u / np.sqrt(r2)[:, None]
    return theta, (np.sqrt(lams) * int_y2 + 0.5 * v[:, 0] * v[:, 1]) / lams


def cell_loop_phase(mesh, lams):
    """The per-cell loop that the blocked scan replaced: the closed-form
    step of each cell of a _magnus_mesh in turn, its zero-width shear
    cells included, rescaled to r = 1 after each, with the same per-cell
    atan2 and trapezoid sums."""
    s = np.sqrt(lams)
    h, a, p, m, u, pm, d2 = mesh
    det = pm * (lams + d2)
    om = np.sqrt(np.abs(det))
    cos, sinc = np.cos(om), np.sinc(om / np.pi)
    neg = det < 0.0
    cos[neg], sinc[neg] = np.cosh(om[neg]), np.sinh(om[neg]) / om[neg]
    e11, e22 = cos + sinc * a, cos - sinc * a
    e12, e21 = sinc * s * p, -sinc * (s * m + u / s)
    y, w = np.zeros_like(s), np.ones_like(s)
    theta, int_y2 = np.zeros_like(s), np.zeros_like(s)
    for j in range(h.shape[0]):
        yn, wn = e11[j] * y + e12[j] * w, e21[j] * y + e22[j] * w
        theta += np.arctan2(w * yn - y * wn, w * wn + y * yn)
        r2 = yn * yn + wn * wn
        int_y2 = (int_y2 + 0.5 * h[j] * (y * y + yn * yn)) / r2
        y, w = yn / np.sqrt(r2), wn / np.sqrt(r2)
    return theta, (s * int_y2 + 0.5 * y * w) / lams


class TestIntegratePrufer:
    """The phase at one trial lambda: theta(1) from the Magnus map, and
    the DOP853 path of the same system."""

    def test_free_phase_pi(self, grid512):
        theta, _ = _PhaseMap(FREE)(np.array([math.pi**2]))
        assert theta[0] == pytest.approx(math.pi, abs=1e-11)

    def test_free_phase_two_pi(self, grid512):
        theta, _ = _PhaseMap(FREE)(np.array([4.0 * math.pi**2]))
        assert theta[0] == pytest.approx(2.0 * math.pi, abs=1e-11)

    def test_step_against_rk4_richardson(self, grid512):
        # the Magnus theta(1) is the angle of (y, y' / sqrt(lambda)) at 1,
        # theta for nu - nu(1-), the same q: STEP less 1
        lam = math.pi**2
        level = NuPrimitive("const", (-1.0,), jumps=STEP.jumps)
        theta, _ = rk45_path(STEP, lam, grid512)
        magnus, _ = _PhaseMap(STEP)(np.array([lam]))
        for nu, got in ((STEP, theta[-1]), (level, magnus[0])):
            coarse = prufer_rk4_oracle(nu, lam, 4000)
            fine = prufer_rk4_oracle(nu, lam, 8000)
            assert abs(coarse - fine) <= 1e-9  # oracle self-consistent
            assert abs(got - fine) <= 1e-9

    def test_phase_monotone_for_large_lambda(self, grid512):
        # guaranteed once sqrt(lambda) dominates the nu terms
        lam = 1.0 + 2.0 * STEP.norm_linf() ** 2 + 2.0
        theta, _ = rk45_path(STEP, lam, grid512)
        assert np.all(np.diff(theta) > 0.0)


class TestPhaseRhs:
    """The sampled pass's right-hand side against the docstring's terms."""

    @pytest.mark.parametrize("rungs", [0, 1, 3])
    def test_matches_docstring_formulas(self, rungs):
        # rungs = 0: nu is a float; else an array of one nu per lambda,
        # in groups of modes, which the rhs takes as well.  s =
        # sqrt(lambda - p) for a gauge slope p is the docstring's
        # sqrt(lambda) at the eigenvalue lambda - p
        rng = np.random.default_rng(rungs)
        modes = 7
        lams = rng.uniform(1.0, 1e4, max(rungs, 1) * modes)
        rhs_nu = [float(v) for v in rng.uniform(-3.0, 3.0, max(rungs, 1))]
        nu_fn = (lambda x: rhs_nu[0]) if rungs == 0 else (
            lambda x: np.repeat(rhs_nu, modes))
        s = np.sqrt(lams)
        half_inv_s = 0.5 / s
        rhs = _make_rhs(nu_fn, s, half_inv_s)
        for p in (0.0, -40.0, 0.5):
            # rewritten in place, as the sampled pass's gauge line does
            np.sqrt(lams - p * lams.min(), out=s)
            np.divide(0.5, s, out=half_inv_s)
            for x in rng.uniform(0.0, 1.0, 5):
                y = np.stack([rng.uniform(-3.0, 3.0, lams.size),
                              rng.normal(size=lams.size)])
                got = rhs(float(x), y)
                for j, sj in enumerate(s):
                    want = phase_rhs(rhs_nu[j // modes], sj * sj, x, y[0, j])
                    assert got[:, j] == pytest.approx(want, rel=1e-14,
                                                      abs=1e-14)

    def test_successive_results_are_both_held(self):
        # the stepper's initial step and a tracing wrapper keep f0 and f1
        s = np.sqrt([1.0, 50.0, 900.0])
        rhs = _make_rhs(lambda x: 0.7, s, 0.5 / s)
        y = np.array([[0.1, -0.4, 2.0], [0.0, 0.3, -1.0]])
        first = rhs(0.25, y)
        kept = first.copy()
        second = rhs(0.75, y + 1.0)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, y)
        assert first.tobytes() == kept.tobytes()


class TestPanelGauge:
    """The RK45 pass in the gauge nu - c, c a line fitted to nu over each
    panel, its slope folded into the eigenvalue."""

    def test_shear_round_trip(self):
        # |k| = |c - c_before| / s <= 1, and k1 = s_before / s, 1 where the
        # gauge's slope stays, else near 1 for slopes below lambda; the trip's
        # error grows with k^2 ulps of theta (3e-14 at |k| = 5).  w <- k1 w
        # + k y is undone by k1' = 1 / k1, k' = -k / k1
        rng = np.random.default_rng(5)
        y = np.stack([rng.uniform(-3.0, 3.0, 200),
                      rng.uniform(-1.0, 1.0, 200)])
        theta0 = rng.uniform(-50.0, 50.0, 200)
        k = rng.uniform(-1.0, 1.0, 200)

        def r_sin(v):
            return np.exp(v[1]) * np.sin(theta0 + v[0])

        for k1 in (1.0, rng.uniform(0.7, 1.4, 200)):
            sheared = _shear(y, theta0, k, k1)
            back = _shear(sheared, theta0, -k / k1, 1.0 / k1)
            assert np.max(np.abs(back - y)) <= 1e-14
            # to the rounding of theta ~ 50, 7e-15
            assert np.max(np.abs(r_sin(sheared) - r_sin(y))) <= 2e-14
            assert np.array_equal(np.sign(np.sin(theta0 + sheared[0])),
                                  np.sign(np.sin(theta0 + y[0])))

    # the constants C added to nu; mixed + 1e12 moves lambda by 2.4e-7, as
    # the float nu keeps fewer of q's bits at that level
    SHIFTS = {"step": (100.0, 1e6, 1e12), "mixed": (100.0, 1e6)}

    @pytest.mark.parametrize("name", ["step", "mixed"])
    def test_constant_shift_of_nu_leaves_basis(self, name, grid2048):
        # q = nu' is the same for nu + C.  Before the gauge, phi differed
        # by 4.5e-10 and phi' by 5.9e-10 sqrt(lambda) at C = 100
        nu = catalog_potentials()[name]
        base = build_basis(nu, 40, grid2048)
        scale = np.sqrt(base.lambdas)[:, None]
        for c in self.SHIFTS[name]:
            shifted = build_basis(PerturbedNu(
                nu, NuPrimitive("const", (1.0,)), c), 40, grid2048)
            if name == "step":
                # nothing reads nu's level: 1.5e-12 / 4.0e-12 in lambda
                # and BracketFailure at 1e12 while theta(1) and Newton's
                # start did
                for array in EIGENBASIS_ARRAYS:
                    assert np.array_equal(getattr(shifted, array),
                                          getattr(base, array)), (c, array)
                continue
            # 9.3e-12 / 1.1e-11 while theta(1) read nu's level, now 2.8e-13
            # at 1e6 from the float nu's rounding there; phi moves by 7.4e-11
            # at 1e6, as the RK45 pass's gauge line still reads nu's level
            assert np.allclose(shifted.lambdas, base.lambdas, rtol=1e-12,
                               atol=0), c
            assert np.max(np.abs(shifted.phi_matrix
                                 - base.phi_matrix)) <= 2e-10
            assert np.max(np.abs(shifted.phi_prime_matrix
                                 - base.phi_prime_matrix) / scale) <= 2e-10

    # (nu, RK45 steps, steps with a constant gauge per stretch, steps
    # when the pass integrated nu itself) at N 40, grid 2048.  A sine takes
    # the recorded Magnus pass, no RK45 step; its pass re-centred on a
    # line every 16 steps took 462 / 514 / 540 / 1,974 / 576
    STEPS = {
        "delta": (STEP, 8, 11, 578),
        "mixed": (NuPrimitive("linear", (2.0,), ((0.3, 3.0),)), 7, 591, 1313),
        "sine-1-1": (NuPrimitive("sine", (1.0, 1.0)), 0, 661, 1015),
        "sine-1-1.25": (NuPrimitive("sine", (1.0, 1.25)), 0, 692, 1019),
        "sine-3-0.75": (NuPrimitive("sine", (3.0, 0.75)), 0, 771, 1256),
        "sine-1-50": (NuPrimitive("sine", (1.0, 50.0)), 0, 2023, 2029),
        "linear-5": (NuPrimitive("linear", (5.0,)), 1, 707, 1300),
        "const-1": (NuPrimitive("const", (1.0,)), 7, 7, 1131),
        "sine-2-1-atom": (NuPrimitive("sine", (2.0, 1.0), ((0.25, 2.0),)),
                          0, 756, 1134),
    }

    @pytest.mark.parametrize("name", list(STEPS))
    def test_sampled_steps_pinned(self, name, grid2048, monkeypatch):
        nu, now, _, _ = self.STEPS[name]
        steps = []
        original = vww.prufer.integrate_rk45

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            steps.append(result[2])
            return result

        monkeypatch.setattr(vww.prufer, "integrate_rk45", counted)
        build_basis(nu, 40, grid2048)
        assert sum(steps) <= now

    @pytest.mark.parametrize("c", [5.0, 1000.0, 1e4],
                             ids=["5", "1000", "1e4"])
    def test_linear_nu_gives_closed_form(self, c, grid2048, monkeypatch):
        # q = c: the gauge line is nu, the pass steps a zero rhs at s =
        # sqrt(lambda_n - c), and sin(s x) is exact at each computed
        # lambda_n: phi 8.9e-16 / 3.8e-14 / 9.4e-13 at c = 5 / 1000 / 1e4,
        # in 1 / 7 / 2 RK45 steps.  With the gauge's slope capped at
        # lambda_1 / 2, c = 1000 took 9,871 steps and 0.8 s to phi 5.5e-10,
        # c = 1e4 7.8 s to 6.9e-9.  Newton's residual puts s up to 4.9e-11
        # from n pi, so phi_n is up to 6.9e-11 from sqrt(2) sin(n pi x) and
        # phi'_n / (n pi) 6.3e-11 from sqrt(2) cos(n pi x); with a constant
        # gauge per stretch both were 2.5e-10 from either
        steps = []
        original = vww.prufer.integrate_rk45

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            steps.append(result[2])
            return result

        monkeypatch.setattr(vww.prufer, "integrate_rk45", counted)
        basis = build_basis(NuPrimitive("linear", (c,)), 40, grid2048)
        assert sum(steps) <= 8
        x = grid2048.nodes
        n_pi = math.pi * np.arange(1.0, 41.0)[:, None]
        s = np.sqrt(basis.lambdas - c)[:, None]
        norms = np.array([grid2048.norm_l2(v) for v in np.sin(s * x)])
        inner = slice(1, -1)  # phi is pinned to 0 at the walls
        phi = np.sin(s * x) / norms[:, None]
        assert np.max(np.abs(basis.phi_matrix - phi)[:, inner]) <= 1e-11
        dphi = s * np.cos(s * x) / norms[:, None]
        assert np.max(np.abs(basis.phi_prime_matrix - dphi) / n_pi) <= 1e-11
        assert np.max(np.abs(basis.phi_matrix
                             - math.sqrt(2.0) * np.sin(n_pi * x))) <= 1e-10
        assert np.max(np.abs(basis.phi_prime_matrix / n_pi
                             - math.sqrt(2.0) * np.cos(n_pi * x))) <= 1e-10


class TestShootEigenvalue:
    """Single modes, read off build_basis's rows."""

    def test_free_mode_three(self, grid512):
        basis = build_basis(FREE, 3, grid512)
        assert len(basis) == 3
        assert basis.lambdas[2] == pytest.approx(9.0 * math.pi**2, rel=1e-8)

    def test_constant_nu_leaves_operator_free(self, grid512):
        basis = build_basis(NuPrimitive("const", (2.0,)), 1, grid512)
        assert basis.lambdas[0] == pytest.approx(math.pi**2, rel=1e-8)

    def test_delta_inert_even_mode(self, grid512):
        basis = build_basis(STEP, 2, grid512)
        assert basis.lambdas[1] == pytest.approx(4.0 * math.pi**2, abs=1e-8)

    def test_delta_ground_state_vs_transcendental(self, grid2048):
        basis = build_basis(STEP, 1, grid2048)
        assert basis.lambdas[0] == pytest.approx(delta_lambda_oracle(1.0),
                                                 abs=1e-7)

    def test_theta_residual_tolerance(self, grid512):
        basis = build_basis(STEP, 1, grid512)
        assert abs(basis.theta_residuals[0]) <= 1e-10

    def test_eigenfunction_normalized_and_pinned(self, grid512):
        phi = build_basis(STEP, 1, grid512).phi_matrix[0]
        assert grid512.norm_l2(phi) == pytest.approx(1.0, abs=1e-9)
        assert phi[0] == 0.0 and phi[-1] == 0.0

    def test_unconverged_mode_reports_residual(self, grid512, monkeypatch):
        monkeypatch.setattr(vww.prufer, "NEWTON_PASSES", 1)
        with pytest.raises(BracketFailure,
                           match="phase residual .* above tolerance for mode n=1"):
            build_basis(STEP, 1, grid512)

    def test_nan_phase_never_converges(self):
        # a NaN residual is no smaller than the tolerance, so Newton
        # reports the mode instead of returning it as a root
        nan_phase = lambda x: (np.full_like(x, np.nan), np.ones_like(x))
        with pytest.raises(BracketFailure, match="residual nan .* n=1"):
            _newton_roots(nan_phase, np.array([1.0]), np.array([10.0]), 1e-10)

    def test_deep_well_reports_bracket_failure(self, grid512):
        # alpha < -4 pushes the ground state below the positivity floor
        deep = NuPrimitive(jumps=((0.5, -6.0),))
        with pytest.raises(BracketFailure) as err:
            build_basis(deep, 1, grid512)
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
        for n, phi in enumerate(basis.phi_matrix[:12], start=1):
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

    def test_aliased_basis_raises(self):
        # mode 40 aliases mode 24 on 64 intervals: Gram defect 0.333
        with pytest.raises(UnresolvedBasis, match=r"n_max=40 .* 64 .*0\.333"):
            build_basis(FREE, 40, Grid(64))

    def test_unresolved_message_names_tolerance(self):
        # the aliased basis above, built at the largest tol
        with pytest.raises(UnresolvedBasis,
                           match=r"64 intervals at tol=1e-06: Gram"):
            build_basis(FREE, 40, Grid(64), tol=MAX_TOL)

    # q = sigma plus an atom alpha < 0 at x0 near 1 binds mode 1 at lambda_1
    # ~ sigma - kappa^2, kappa ~ |alpha| / 2, so that y grows as exp(kappa
    # x) from 0 to x0 and decays in the last kappa (1 - x0) ~ 4, which keeps
    # Newton's theta(1) well conditioned.  The slope is above lambda_1, so
    # the recorded pass's hyperbolic cells give the rows
    def test_overflowing_eigenfunctions_raise(self):
        # kappa x0 ~ 800: r passes a float's range by x0, so the rows hold
        # inf and NaN and the Gram defect is NaN, refused without a numpy
        # warning (the suite makes RuntimeWarning an error)
        with pytest.raises(UnresolvedBasis,
                           match=r"Gram defect nan is not <= 0\.01"):
            build_basis(NuPrimitive("linear", (8e5,), ((0.995, -1600.0),)),
                        1, Grid(64))

    def test_infinite_eigenfunction_norm_raises(self):
        # kappa x0 ~ 400: r reaches 1.1e172, finite, but its square
        # overflows the norm, so the norm is inf and the row of phi zero,
        # which the Gram check passes; refused without a numpy warning
        with pytest.raises(UnresolvedBasis,
                           match=r"^mode n=1 is not resolved at tol=1e-11: "
                                 r"its eigenfunction norm inf is not finite "
                                 r"and positive$"):
            build_basis(NuPrimitive("linear", (2e5,), ((0.99, -808.0),)), 1,
                        Grid(64))

    @pytest.mark.parametrize("scale, message", [
        (math.inf, r"^n_max=2 modes .* Gram defect nan is not <= 0\.01$"),
        (1e200, r"^mode n=2 is not resolved at tol=1e-11: its eigenfunction "
                r"norm inf is not finite and positive$")],
        ids=["nan_row", "overflowing_norm"])
    def test_eigenbasis_refuses_non_finite_rows(self, scale, message):
        # rows of the pass as an r past a float's range leaves them (inf
        # times sin, NaN where sin is 0), or an r whose square overflows
        # the norm (a zero row of phi, which passes the Gram check); each
        # is refused without a numpy warning
        grid = Grid(64)
        lams = (np.pi * np.array([1.0, 2.0])) ** 2
        phi = np.sin(np.sqrt(lams)[:, None] * grid.nodes)
        dphi = np.sqrt(lams)[:, None] * np.cos(np.sqrt(lams)[:, None]
                                               * grid.nodes)
        with np.errstate(invalid="ignore"):  # inf times sin 0
            phi[1] *= scale
            dphi[1] *= scale
        with pytest.raises(UnresolvedBasis, match=message):
            _eigenbasis(FREE, grid, DEFAULT_TOL, lams, np.zeros(2), 0.0, phi,
                        dphi)

    @pytest.mark.parametrize("name, bound", [("step", 1e-11),
                                             ("sine", 1e-9),
                                             ("sine_atom", 1e-9)],
                             ids=["step", "sine", "sine_atom"])
    def test_eigenfunctions_match_tight_tolerance_build(
            self, name, bound, catalog_bases_40, grid2048):
        # against DOP853 at tol 1e-13 on the basis's lambdas.  phi 3.4e-13
        # (step: each panel's nu is its gauge, so the RK45 pass is exact and
        # this is the reference's own error, 1.1e-13 at tol 3e-14), 1.3e-12
        # (sine, the recorded Magnus pass; 4.7e-11 against the package's
        # RK45 pass at 1e-13) and 1.3e-12 (sine_atom); phi' / sqrt(lambda)
        # 2.4e-13, 1.2e-12 and 1.2e-12; tilde norms 1.1e-14, 3.0e-14 and
        # 3.3e-14 relative
        basis = (build_basis(SINE_ATOM, 40, grid2048) if name == "sine_atom"
                 else catalog_bases_40[name])
        phi, dphi, norms = rk45_eigenfunctions(basis)
        assert np.max(np.abs(basis.phi_matrix - phi)) <= bound
        diff = basis.phi_prime_matrix - dphi
        assert np.max(np.abs(diff) / np.sqrt(basis.lambdas)[:, None]) <= bound
        assert np.max(np.abs(basis.tilde_norms / norms - 1.0)) <= bound

    def test_recorded_pass_takes_newtons_mesh(self):
        # the bump's panels, 2 eps = 2^-7 wide, hold no node of grid 64 and
        # one Magnus cell each on the grid's own mesh, where phi erred by
        # 4.4e-6; on Newton's mesh by 1.8e-12 against DOP853 at 1e-13 (phi'
        # / sqrt(lambda) 1.8e-12, tilde norms 1.2e-13 relative)
        nu = MollifiedNu(STEP, MollifierSpec("bump", 2.0**-8))
        basis = build_basis(nu, 8, Grid(64))
        phi, dphi, norms = rk45_eigenfunctions(basis)
        assert np.max(np.abs(basis.phi_matrix - phi)) <= 1e-9
        diff = basis.phi_prime_matrix - dphi
        assert np.max(np.abs(diff) / np.sqrt(basis.lambdas)[:, None]) <= 1e-9
        assert np.max(np.abs(basis.tilde_norms / norms - 1.0)) <= 1e-9

    def test_slope_above_lambda_1_takes_recorded_pass(self, grid2048,
                                                      monkeypatch):
        # linear 20 plus an atom of -6 at 1/2: lambda_1 = 13.37 lies below
        # the slope, where s = sqrt(lambda_1 - 20) is not real, so the
        # recorded pass's hyperbolic cells give the rows and no RK45 step
        # runs.  Against DOP853 at 1e-13: phi 1.4e-12, phi' / sqrt(lambda)
        # 2.4e-12, tilde norms 3.2e-13 relative (2.9e-10, 2.9e-10 and
        # 1.2e-11 when the RK45 pass took it with its slope capped)
        steps = []
        monkeypatch.setattr(vww.prufer, "integrate_rk45",
                            lambda *args, **kwargs: steps.append(args))
        basis = build_basis(NuPrimitive("linear", (20.0,), ((0.5, -6.0),)),
                            40, grid2048)
        assert not steps and basis.lambdas[0] == pytest.approx(13.366, 1e-4)
        phi, dphi, norms = rk45_eigenfunctions(basis)
        assert np.max(np.abs(basis.phi_matrix - phi)) <= 1e-11
        diff = basis.phi_prime_matrix - dphi
        assert np.max(np.abs(diff) / np.sqrt(basis.lambdas)[:, None]) <= 1e-11
        assert np.max(np.abs(basis.tilde_norms / norms - 1.0)) <= 1e-11

    def test_coarse_but_resolved_basis_builds(self):
        basis = build_basis(STEP, 12, Grid(32))
        assert basis.gram_max_offdiag <= 0.1 * GRAM_DEFECT_TOL  # 1.5e-4

    @pytest.mark.parametrize("name", ["zero", "step", "mixed", "sine"])
    def test_mode_at_two_nodes_per_wavelength_raises(self, name):
        # sampled at two nodes per wavelength, sin^2 gets a Simpson norm^2
        # of 2/3 and a trapezoid one of 1/2: a gap of 1/3, where the Gram
        # defect stays under its tolerance
        with pytest.raises(UnresolvedBasis, match=r"mode n=32 is not resolved"
                           r" on a grid of 64 intervals: .* differ by 0\.333"):
            build_basis(catalog_potentials()[name], 32, Grid(64))

    @pytest.mark.parametrize("grid_n", [64, 256])
    @pytest.mark.parametrize("name", ["zero", "step", "mixed", "sine"])
    def test_one_mode_below_two_nodes_per_wavelength_builds(self, name,
                                                            grid_n):
        basis = build_basis(catalog_potentials()[name], grid_n // 2 - 1,
                            Grid(grid_n))
        assert len(basis) == grid_n // 2 - 1


# the benchmark's seed-0 ladders: bump, eps = 2^-2 .. 2^-5, grid 1024, N 12,
# tol 1e-8, on linear 5 (consistency) and a delta at 1/2 (existence)
LADDER_NUS = {"linear5": NuPrimitive("linear", (5.0,)), "delta": STEP}


@pytest.fixture(scope="module", params=list(LADDER_NUS))
def ladder_builds(request):
    """(loose, tight): build_basis of each rung at tol 1e-8 and 1e-12."""
    rungs = [MollifiedNu(LADDER_NUS[request.param],
                         MollifierSpec("bump", 2.0**-k)) for k in range(2, 6)]
    grid = Grid(1024)
    return ([build_basis(q, 12, grid, tol=1e-8) for q in rungs],
            [build_basis(q, 12, grid, tol=1e-12) for q in rungs])


class TestBuildBases:
    """build_basis on an eps-ladder's rungs, one basis per call, and the
    checks of its arguments and of its lambdas."""

    def test_rungs_match_tight_tolerance_builds(self, ladder_builds):
        # phi within 6.5e-8 (linear5) and 4.9e-8 (delta) of the builds at
        # tol 1e-12, where the pass over all four rungs at tol 1e-8 / 4
        # gave 1.2e-7
        for b, t in zip(*ladder_builds):
            assert np.max(np.abs(b.phi_matrix - t.phi_matrix)) <= 1e-7

    def test_each_basis_is_constructed_once(self, monkeypatch):
        made = []
        post_init = EigenBasis.__post_init__

        def counted(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(EigenBasis, "__post_init__", counted)
        bases = [build_basis(nu, 3, Grid(64))
                 for nu in (FREE, STEP, NuPrimitive("linear", (2.0,)))]
        assert len(made) == 3 and all(m is b for m, b in zip(made, bases))

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_n_max_below_one_is_a_config_error(self, n_max):
        with pytest.raises(ConfigError, match=f">= 1, got {n_max}"):
            build_basis(FREE, n_max, Grid(64))

    @pytest.mark.parametrize("tol", [1e-200, 1e-30, 0.0, math.nan])
    def test_tol_below_floor_is_a_config_error(self, tol):
        # at 1e-200 a stretch of the RK45 pass had zero width and its
        # gauge line divided by it; at 1e-30 the pass ran past 20 s
        with pytest.raises(ConfigError, match=fr"tol must be in \[1e-15, "
                                              fr"1e-06\], got {tol:g}"):
            build_basis(NuPrimitive("sine", (1.0, 1.0)), 8, Grid(256),
                        tol=tol)

    @pytest.mark.parametrize("tol", [1.1e-6, 1e-2, 1e6, math.inf])
    def test_tol_above_ceiling_is_a_config_error(self, tol):
        # at 1e-2 lambda was 0.8 % (delta) and 1.8 % (sine (1, 1)) off the
        # default build's at N 40, grid 2048, yet the Gram check (6.7e-3)
        # passed the basis; at 1e6 the RK45 pass overflowed r
        with pytest.raises(ConfigError, match=re.escape(
                f"tol must be in [1e-15, 1e-06], got {tol:g}")):
            build_basis(STEP, 8, Grid(256), tol=tol)

    def test_tol_at_ceiling_builds(self, grid2048):
        # lambda within 1.43e-7 (delta) and 1.27e-7 (sine (1, 1)) relative
        # of the default build's at N 40, grid 2048
        for nu in (STEP, NuPrimitive("sine", (1.0, 1.0))):
            loose, tight = (build_basis(nu, 40, grid2048, tol=t).lambdas
                            for t in (MAX_TOL, DEFAULT_TOL))
            assert np.max(np.abs(loose / tight - 1.0)) <= 2e-7

    def test_tol_at_floor_builds(self):
        basis = build_basis(NuPrimitive("sine", (1.0, 1.0)), 8, Grid(256),
                            tol=MIN_TOL)
        assert basis.gram_max_offdiag <= 1e-10

    def test_non_increasing_lambdas_refused(self, monkeypatch):
        def swapped(*args):
            lams, *rest = _roots(*args)
            return (lams[[0, 2, 1]], *rest)

        monkeypatch.setattr(vww.prufer, "_roots", swapped)
        with pytest.raises(BracketFailure, match="increasing") as exc:
            build_basis(FREE, 3, Grid(64))
        assert exc.value.n == 3
        assert exc.value.bracket == pytest.approx((9 * math.pi**2,
                                                   4 * math.pi**2))


class TestLinearPanelClosedForm:
    """The recorded pass on a ladder's rungs, whose panels off the atoms'
    windows and the walls' layers are linear: one cell each, their nodes
    filled in closed form from the panel's start state."""

    def test_rungs_match_dop853(self, ladder_builds):
        # against DOP853 at 1e-13 on each tight rung's lambdas: phi up to
        # 1.9e-12 (linear5, eps = 2^-5), phi' / sqrt(lambda) 1.7e-12, tilde
        # norms 7.2e-13 relative
        for basis in ladder_builds[1]:
            phi, dphi, norms = rk45_eigenfunctions(basis)
            assert np.max(np.abs(basis.phi_matrix - phi)) <= 1e-11
            diff = basis.phi_prime_matrix - dphi
            assert np.max(np.abs(diff) / np.sqrt(basis.lambdas)[:, None]
                          ) <= 1e-11
            assert np.max(np.abs(basis.tilde_norms / norms - 1.0)) <= 1e-11

    @pytest.mark.parametrize("base", list(LADDER_NUS))
    def test_closed_form_matches_scan(self, monkeypatch, base):
        # at the same lambdas, the pass that scans every node of the linear
        # panels on Newton's full mesh: phi_tilde within 2.0e-13 and
        # phi_tilde' / sqrt(lambda) within 2.7e-13 when this was written
        grid, ns = Grid(1024), np.arange(1.0, 13.0)
        rungs = [MollifiedNu(LADDER_NUS[base], MollifierSpec("bump", 2.0**-k))
                 for k in range(2, 6)]
        assert all(any(q.linear_panels) for q in rungs if q.breakpoints)
        solves = [_roots(q, ns, grid, 5e-8) for q in rungs]
        closed = [_recorded_pass(q, root, cells, est, 1e-8, grid.nodes)
                  for q, (root, _, est, _, cells) in zip(rungs, solves)]
        monkeypatch.setattr(MollifiedNu, "linear_panels", property(
            lambda self: (False,) * (len(self.breakpoints) + 1)))
        for q, (root, _, est, _, cells), got in zip(rungs, solves, closed):
            want = _recorded_pass(q, root, cells, est, 1e-8, grid.nodes)
            assert np.max(np.abs(got[0] - want[0])) <= 1e-12
            assert np.max(np.abs(got[1] - want[1])
                          / np.sqrt(root)[:, None]) <= 1e-12

    def test_perturbed_by_constant_takes_its_base_path(self, monkeypatch):
        # q is unchanged by a constant w, so the perturbed rung keeps its
        # base's linear panels, Newton's meshes and recorded pass: its
        # basis is the base's to round-off (lambda 3.6e-13 relative, where
        # Newton's iterates part), which the CLI's uniqueness round-off
        # tests read as a difference net
        passes = []
        original = vww.prufer._magnus_phase

        def counted(mesh, lams, *record):
            passes.append((mesh[0].shape[0], *(np.count_nonzero(r)
                                               for r in record)))
            return original(mesh, lams, *record)

        monkeypatch.setattr(vww.prufer, "_magnus_phase", counted)
        base = MollifiedNu(LADDER_NUS["linear5"], MollifierSpec("bump", 0.125))
        pert = PerturbedNu(base, NuPrimitive("const", (1.0,)), 1.0)
        assert pert.linear_panels == base.linear_panels == (False, True, False)
        a = build_basis(base, 12, Grid(1024), tol=1e-8)
        base_passes = passes[:]
        passes.clear()
        b = build_basis(pert, 12, Grid(1024), tol=1e-8)
        assert passes == base_passes
        assert np.max(np.abs(a.lambdas / b.lambdas - 1.0)) <= 1e-12
        assert np.max(np.abs(a.phi_matrix - b.phi_matrix)) <= 1e-11


ATOMS3 = ((0.25, 1.0), (0.5, -0.7), (0.8, 2.0))


class TestRecordedPassOnRK45Class:
    """The recorded pass on the potentials that take the RK45 pass, nu
    linear between its breakpoints with slopes below lambda_1, where every
    panel is flat and filled in closed form."""

    @pytest.mark.parametrize("nu, grid_n, n_max", [
        (STEP, 2048, 40),
        (catalog_potentials()["mixed"], 2048, 40),
        (catalog_potentials()["linear5"], 2048, 40),
        (NuPrimitive("linear", (1000.0,)), 2048, 40),
        (NuPrimitive(jumps=ATOMS3), 2048, 40),
        (NuPrimitive("const", (1.0,), jumps=ATOMS3), 2048, 40),
        (NuPrimitive(jumps=((0.3, 1.0), (0.31, 1.0))), 16, 2),
    ], ids=["delta", "mixed", "linear5", "linear1000", "atoms3",
            "const_atoms3", "empty_panel"])
    def test_rows_match_rk45_pass(self, nu, grid_n, n_max):
        # at the roots of one Newton solve, phi_tilde and phi_tilde' /
        # sqrt(lambda) within 2.9e-14 of each row's sup |phi_tilde| (mixed)
        # when this was written, and within 9.5e-16 on grid 16, whose panel
        # (0.3, 0.31) holds no node.  Panel bounds fall on nodes (1/4, 1/2)
        # and off them (0.3, 0.8)
        grid = Grid(grid_n)
        root, _, est, nu_nodes, cells = _roots(
            nu, np.arange(1.0, n_max + 1), grid, 5e-11)
        assert nu.piecewise_linear and _panel_slopes(nu).max() < root[0]
        got = _recorded_pass(nu, root, cells, est, DEFAULT_TOL, grid.nodes)
        want = _propagate(nu, root, DEFAULT_TOL, grid.nodes, nu_nodes)
        # laid out as the RK45 pass's rows: the sums that read them later
        # round by their memory order
        assert got.flags.c_contiguous and want.flags.c_contiguous
        bound = 1e-13 * np.max(np.abs(want[0]), axis=1, keepdims=True)
        assert np.all(np.abs(got[0] - want[0]) <= bound)
        assert np.all(np.abs(got[1] - want[1]) / np.sqrt(root)[:, None]
                      <= bound)


class TestRootPasses:
    @pytest.mark.parametrize("name", ["step", "mixed", "sine"])
    def test_magnus_theta_matches_sampled_pass(self, name, catalog_bases_40):
        nu = catalog_potentials()[name]
        for k in (0, 19, 39):
            lam = float(catalog_bases_40[name].lambdas[k])
            # DOP853 at 1e-13: up to 3.6e-14 (step), 3.6e-12 (mixed) and
            # 6.3e-12 (sine)
            theta, _ = rk45_path(nu, lam, Grid(2048))
            assert abs(theta[-1] - math.pi * (k + 1)) <= 1e-10

    @pytest.mark.parametrize("nu, hyperbolic", [
        (NuPrimitive("sine", (1.0, 1.0)), {0.5: 16, 300.0: 0}),
        (NuPrimitive("sine", (3000.0, 1.0)), {0.5: 16, 300.0: 16}),
        (NuPrimitive("linear", (1e4,)), {0.5: 32, 300.0: 32}),
    ], ids=["sine", "steep_sine", "steep_linear"])
    @pytest.mark.parametrize("lam", [0.5, 300.0])
    def test_closed_form_step_matches_expm(self, nu, hyperbolic, lam):
        # 32 cells: the interpolant's slope sigma, folded into lambda, is
        # above lambda + d2 on some of them, so det Omega < 0 there and the
        # cosh/sinh branch is taken
        mesh = _magnus_mesh(nu, 32)
        assert int(np.sum(mesh[5] * (lam + mesh[6]) < 0.0)) == hyperbolic[lam]
        theta, _ = expm_chained_phase(nu, 32, [lam])
        got, _ = _magnus_phase(mesh, np.array([lam]))
        assert got[0] == pytest.approx(theta[0], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 100.0, 1e4])
    def test_newton_derivative_free(self, lam):
        # on 2,048 cells, the mesh of a nu with a smooth part on Grid(2048)
        _, dtheta = _magnus_phase(_magnus_mesh(FREE, 2048), np.array([lam]))
        assert dtheta[0] == pytest.approx(0.5 / math.sqrt(lam), rel=1e-5)

    @pytest.mark.parametrize("lam", [1.0, 100.0, 1e4])
    def test_newton_derivative_on_turning_mesh(self, lam):
        # a piecewise-constant nu's Newton mesh holds about sqrt(lambda)
        # cells, whose trapezoid int y^2 is coarser: Newton still converges
        _, dtheta = _PhaseMap(FREE)(np.array([lam]))
        assert dtheta[0] == pytest.approx(0.5 / math.sqrt(lam), rel=2e-3)

    @pytest.mark.parametrize("name", ["step", "sine"])
    @pytest.mark.parametrize("lam", [5.0, 500.0, 1e4])
    def test_newton_derivative_central_difference(self, name, lam):
        nu = catalog_potentials()[name]
        mesh = _magnus_mesh(nu, 2048)  # Grid(2048)'s, as for the sine
        phase = lambda lams: _magnus_phase(mesh, lams)
        d = 1e-5 * lam
        theta, dtheta = phase(np.array([lam - d, lam, lam + d]))
        assert (theta[2] - theta[0]) / (2.0 * d) == pytest.approx(
            dtheta[1], rel=1e-5)

    @pytest.mark.parametrize("n", [1, 12, 24])
    def test_fast_panels_refined(self, n):
        # the bump's panels span 4 grid intervals; unrefined Magnus cells
        # leave theta(1) off by 5.8e-9 to 1.3e-8 at these roots, refined
        # ones by 1.6e-12, 3.3e-11 and 8.7e-13 (DOP853 at 1e-12)
        nu = MollifiedNu(STEP, MollifierSpec("bump", 2.0**-9))
        lam = float(build_basis(nu, n, Grid(2048)).lambdas[n - 1])
        theta, _ = rk45_path(nu, lam, Grid(2048), tol=1e-12)
        assert abs(theta[-1] - math.pi * n) <= 1e-10

    @pytest.mark.parametrize("n", [8, 40])
    def test_cells_turn_less_than_pi(self, n):
        # 6.3 rad (n = 8) and 31 rad (n = 40) per grid interval of Grid(4);
        # n modes do not resolve on 4 intervals, so mode n is solved alone,
        # to build_basis's residual target at the default tol
        (lam,), *_ = _roots(FREE, np.array([float(n)]), Grid(4), 5e-11)
        assert lam == pytest.approx((n * math.pi) ** 2, rel=1e-10)

    def test_pass_count_per_build(self, monkeypatch):
        # at most `newton` Magnus passes for Newton (4 / 5 / 8 / 7 when this
        # was written), then one sampled pass: RK45 where nu is linear
        # between its breakpoints, else one recorded Magnus pass over
        # Newton's mesh and the nodes
        rk45, magnus = [], []
        original_rk45 = vww.prufer.integrate_rk45
        original_magnus = vww.prufer._magnus_phase

        def counted_rk45(rhs, x0, x1, y0, *args, **kwargs):
            if x0 == 0.0:
                rk45.append(np.shape(y0))
            return original_rk45(rhs, x0, x1, y0, *args, **kwargs)

        def counted_magnus(mesh, lams, *record):
            magnus.append((len(lams), bool(record)))
            return original_magnus(mesh, lams, *record)

        monkeypatch.setattr(vww.prufer, "integrate_rk45", counted_rk45)
        monkeypatch.setattr(vww.prufer, "_magnus_phase", counted_magnus)
        for nu, sampled_by_rk45, newton in [
                (STEP, True, 6),
                (NuPrimitive("linear", (2.0,), ((0.5, 1.0),)), True, 6),
                (NuPrimitive("sine", (1.0, 1.0)), False, 8),
                (MollifiedNu(STEP, MollifierSpec("bump", 0.125)), False, 8)]:
            rk45.clear()
            magnus.clear()
            build_basis(nu, 40, Grid(2048))
            assert rk45 == ([(2, 40)] if sampled_by_rk45 else []), nu
            recorded = [n for n, kept in magnus if kept]
            assert recorded == ([] if sampled_by_rk45 else [40]), nu
            assert 1 <= len(magnus) - len(recorded) <= newton, nu
            assert magnus[0] == (40, False), nu

    def test_piecewise_constant_mesh_ignores_grid(self, monkeypatch):
        # a Magnus cell is exact where nu is constant: Newton's meshes on a
        # delta follow sqrt(max lambda) alone, so grids 256 and 2048 give
        # the same meshes, of fewer cells than either grid
        nu = NuPrimitive("const", (-0.5,), jumps=((0.5, 1.25),))
        original = vww.prufer._magnus_mesh
        meshes, lams = {}, {}
        for n in (256, 2048):
            cells = meshes[n] = []

            def recorded(nu_like, cells_per_unit):
                cells.append(cells_per_unit)
                return original(nu_like, cells_per_unit)

            monkeypatch.setattr(vww.prufer, "_magnus_mesh", recorded)
            lams[n], *_ = _roots(nu, np.arange(1.0, 21.0), Grid(n), 5e-11)
        assert meshes[256] == meshes[2048]
        assert meshes[256][0] >= math.sqrt(lams[256][-1])
        assert max(meshes[256]) < 128
        # only the first-order start, a grid quadrature, differs
        assert np.max(np.abs(lams[256] / lams[2048] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("nu, constant", [
        (STEP, True),
        (NuPrimitive("const", (2.0,)), True),
        (NuPrimitive("linear", (2.0,)), False),
    ], ids=["step", "const", "linear"])
    def test_has_density_states_constancy(self, nu, constant):
        assert nu.has_density is not constant
        values = nu.nu_values(np.linspace(0.0, 1.0, 257))
        assert constant == (np.count_nonzero(np.diff(values)) <= len(
            nu.breakpoints))

    def test_newton_start_first_order_in_nu(self, monkeypatch):
        # the start (pi n)^2 - 2 pi n int nu sin(2 pi n x) lands mode 1 of
        # sine (1, 1) close enough that 4 Magnus passes on the start mesh
        # do (6 from (pi n)^2 + total mass); the estimate and the refined
        # mesh come after them, and the refined mesh's estimate pass is as
        # large as the start mesh
        passes = []
        original = vww.prufer._magnus_phase

        def counted(mesh, lams, *record):
            passes.append(mesh[0].shape[0])
            return original(mesh, lams, *record)

        monkeypatch.setattr(vww.prufer, "_magnus_phase", counted)
        build_basis(NuPrimitive("sine", (1.0, 1.0)), 40, Grid(2048))
        start = list(itertools.takewhile(lambda c: c == passes[0], passes))
        assert len(start) <= 4


class TestNewtonMesh:
    """Newton's one mesh per solve, and the Richardson estimate of
    theta(1) that accepts or refines it."""

    FAST_SINE = NuPrimitive("sine", (1.0, 50.0))

    @pytest.mark.parametrize("grid_n", [8, 64])
    def test_fast_nu_matches_dop853(self, grid_n):
        # 50 periods of nu: on the grid's mesh, lambda_1 read 9.367549
        # (grid 8) and 9.369808 (grid 64), with theta-residuals below 1e-11
        basis = build_basis(self.FAST_SINE, 2, Grid(grid_n))
        assert 0.0 < basis.theta_error_estimate <= 1e-10
        for n, lam in enumerate(basis.lambdas, start=1):
            # theta(1) increases with lambda, so the oracle's root lies
            # within 1e-9 relative exactly where its sign changes
            below, above = (dop853_theta(self.FAST_SINE, lam * (1.0 + d))
                            - math.pi * n for d in (-1e-9, 1e-9))
            assert below < 0.0 < above

    @pytest.mark.parametrize("nu, grid_n, n_max", [
        (NuPrimitive("sine", (1.0, 1.0)), 16, 8),
        (NuPrimitive("sine", (1.0, 1.0)), 32, 16),
        (NuPrimitive("linear", (5.0,)), 16, 8),
        (NuPrimitive("linear", (2.0,), jumps=((0.3, 3.0),)), 32, 16),
        (NuPrimitive("linear", (2.0,), jumps=((0.3, 3.0),)), 128, 64),
    ], ids=["sine_16", "sine_32", "linear5_16", "mixed_32", "mixed_128"])
    def test_coarse_grid_lambdas_match_fine_mesh(self, nu, grid_n, n_max):
        # on the grid's mesh these erred by 1.6e-6 to 5.1e-11 relative
        ns = np.arange(1.0, n_max + 1)
        lams, _, est, *_ = _roots(nu, ns, Grid(grid_n), 5e-11)
        assert est <= 1e-10
        fine = _magnus_mesh(nu, 16384)
        want, _ = _newton_roots(lambda x: _magnus_phase(fine, x), ns, lams,
                                1e-12)
        assert np.max(np.abs(lams / want - 1.0)) <= 1e-9

    def test_estimate_past_ceiling_is_named(self, monkeypatch):
        # 64 cells estimate 4.6e-5; 1e-10 asks for 32 times as many
        monkeypatch.setattr(vww.prufer, "_MAX_CELLS", 1024)
        with pytest.raises(MeshTooLarge, match=(
                r"^theta\(1\) error estimate (\S+) is above 1e-10, and a "
                r"Magnus mesh of 2\.05e\+03 cells exceeds the ceiling of "
                r"1024 cells$")) as exc:
            build_basis(self.FAST_SINE, 2, Grid(64))
        est = float(str(exc.value).split()[3])
        assert 1e-5 < est < 1e-4

    def test_recorded_pass_keeps_newtons_mesh_past_ceiling(self,
                                                            monkeypatch):
        # sine (1, 3) on grid 256: Newton's mesh of 1,024 cells estimates
        # theta(1)'s error at 3.8e-11, above tol 1e-11, so the recorded
        # pass refines it to 2,048 cells; under a ceiling of 1,024 cells it
        # keeps Newton's mesh, as with no estimate at all
        nu, grid = NuPrimitive("sine", (1.0, 3.0)), Grid(256)
        root, _, est, _, cells = _roots(nu, np.arange(1.0, 9.0), grid, 5e-11)
        assert cells == 1024 and 1e-11 < est < 1e-10
        newton = _recorded_pass(nu, root, cells, 0.0, 1e-11, grid.nodes)
        refined = _recorded_pass(nu, root, cells, est, 1e-11, grid.nodes)
        assert not np.array_equal(refined, newton)
        monkeypatch.setattr(vww.prufer, "_MAX_CELLS", 1024)
        with pytest.raises(MeshTooLarge):
            _mesh_panels(nu, 2 * cells)
        got = _recorded_pass(nu, root, cells, est, 1e-11, grid.nodes)
        assert np.array_equal(got, newton)

    @pytest.mark.parametrize("name, meshes, work", [
        ("step", [126], 9017),
        ("mixed", [126], 14720),
        ("sine", [256, 512], 59904),
    ])
    def test_one_mesh_per_solve(self, monkeypatch, name, meshes, work):
        # the perfbench eigs potentials at N=40, grid 2048.  Sum of cells
        # x lambdas over the Magnus passes: 8,304 / 221,292 / 188,416 on
        # the meshes of the grid (mixed, sine) or of each pass's batch
        # (step); 9,088 / 67,183 / 131,072 on meshes [127] / [512] / [256,
        # 1,024] before the cells took nu's interpolant as their gauge;
        # 9,230 / 15,812 on [127] / [131] while sqrt(lambda) + max |nu|,
        # not sqrt(lambda), sized a nu linear between its breakpoints;
        # 9,088 / 15,351 / 60,117 on the same meshes while each ended in a
        # shear cell back to nu's gauge and Newton started from nu, not nu
        # - nu(0) (mixed then took 5 passes, now 4)
        passes, made = [], []
        original_phase = vww.prufer._magnus_phase
        original_remesh = _PhaseMap.remesh

        def counted(mesh, lams):
            passes.append((mesh[0].shape[0], len(lams)))
            return original_phase(mesh, lams)

        def remesh(self, cells):
            made.append(cells)
            original_remesh(self, cells)

        monkeypatch.setattr(vww.prufer, "_magnus_phase", counted)
        monkeypatch.setattr(_PhaseMap, "remesh", remesh)
        nu = catalog_potentials()[name]
        _roots(nu, np.arange(1.0, 41.0), Grid(2048), 5e-11)
        assert made == meshes
        assert sum(c * n for c, n in passes) == work
        # per mesh, Newton's passes on it; then, for a nu not linear
        # between its breakpoints, one pass over the 40 roots on its panels
        # at half the cells.  Each mesh holds a zero-width shear cell per
        # atom, none at its end
        curved = not nu.piecewise_linear
        shears = len(nu.jumps)
        runs = [(c, [n for _, n in g])
                for c, g in itertools.groupby(passes, key=lambda p: p[0])]
        assert len(runs) == (2 if curved else 1) * len(made)
        for k, c in enumerate(made):
            panels = _mesh_panels(nu, c)
            if curved:
                assert runs[2 * k + 1] == (
                    sum(n // 2 for *_, n in panels) + shears, [40])
            cells, lams = runs[2 * k if curved else k]
            assert cells == sum(n for *_, n in panels) + shears
            assert lams[0] == 40

    def test_estimate_recorded(self, catalog_bases_40):
        # 0 where Magnus-4 is exact, for a nu linear between its
        # breakpoints; the accepted mesh's estimate otherwise
        for name in ("step", "linear5", "mixed"):
            assert catalog_bases_40[name].theta_error_estimate == 0.0
        assert 0.0 < catalog_bases_40["sine"].theta_error_estimate <= 1e-10

    def test_trial_lambda_turning_past_pi_refines(self, monkeypatch):
        # mode 1's start mesh is the panel floor, 32 cells, each turned by
        # 4.4 rad at lambda = 2e4.  Newton restarts on the finer mesh, with
        # fresh brackets, and converges there
        made = []
        original_remesh = _PhaseMap.remesh

        def remesh(self, cells):
            made.append(cells)
            original_remesh(self, cells)

        monkeypatch.setattr(_PhaseMap, "remesh", remesh)
        phase = _PhaseMap(FREE)
        phase(np.array([math.pi**2]))
        with pytest.raises(vww.prufer._Refined):
            phase(np.array([2e4]))
        assert made == [4, 142]
        lams, _ = _newton_roots(phase, np.array([1.0]), np.array([2e4]),
                                5e-11)
        assert lams[0] == pytest.approx(math.pi**2, rel=1e-10)

    # _PhaseMap's remesh sequences at N = 8, each the same on every grid
    # listed, as recorded while the turning rule's max |nu| came from
    # Potential.norm_linf (4,096 samples a panel), then from nu at the
    # grid's nodes.  sine (10, 0.5) and the atom of 39 were the cases where
    # max |nu| sized the first mesh, 128 and 256; sqrt(lambda) alone makes
    # it 64, and the final meshes stay
    MESH_SAMPLES = (0, 0.38, 0.71, 0.92, 1, 0.92, 0.71, 0.38, 0, -0.38,
                    -0.71, -0.92, -1, -0.92, -0.71, -0.38, 0)
    MESH_NUS = {
        **{f"sine{m}": (NuPrimitive("sine", (1.0, m)), (64, 256, 2048),
                        [[64, 512], [64, 1024], [64, 2048], [64, 4096]][k])
           for k, m in enumerate((1, 3, 10, 50))},
        "sine_atom": (NuPrimitive("sine", (1.0, 3.0), ((0.5, 1.0),)),
                      (256,), [64, 1024]),
        "samples_atom": (NuPrimitive("samples", MESH_SAMPLES, ((0.3, 1.0),)),
                         (256,), [64, 512, 1024]),
        "sine_10_half": (NuPrimitive("sine", (10.0, 0.5)), (64, 256),
                         [64, 512]),
        "edge_atom": (NuPrimitive("sine", (2.0, 0.5, math.pi / 2),
                                  ((0.5, 39.0),)), (64, 256), [64, 512]),
    }
    # per eps = 2^-2 .. 2^-9, on grids 64 and 1024
    MOLLIFIED_MESHES = {
        "linear5": (NuPrimitive("linear", (5.0,)), [
            [64, 512], [64, 256, 512], [64, 256, 1024],
            [64, 128, 256, 512, 1024], [64], [64], [64], [64]]),
        "delta": (STEP, [
            [64, 256, 512], [64, 256, 1024], [64, 128, 256, 512, 1024],
            [64, 128, 256, 512, 1024, 2048], [64], [64], [64], [64]]),
        "sine_atom": (NuPrimitive("sine", (1.0, 3.0), ((0.5, 1.0),)), [
            [64, 256, 512], [64, 512, 1024], [64, 1024], [64, 1024, 2048],
            [64, 1024], [64, 1024], [64, 1024], [64, 1024]]),
    }

    @staticmethod
    def remeshes(monkeypatch, nu, grid_n):
        made = []
        original = _PhaseMap.remesh

        def remesh(self, cells):
            made.append(cells)
            original(self, cells)

        monkeypatch.setattr(_PhaseMap, "remesh", remesh)
        _roots(nu, np.arange(1.0, 9.0), Grid(grid_n), 5e-11)
        return made

    @pytest.mark.parametrize("name", list(MESH_NUS))
    def test_same_meshes_as_sampled_max(self, monkeypatch, name):
        nu, grids, meshes = self.MESH_NUS[name]
        for grid_n in grids:
            assert self.remeshes(monkeypatch, nu, grid_n) == meshes, grid_n

    @pytest.mark.parametrize("name", list(MOLLIFIED_MESHES))
    def test_same_meshes_as_sampled_max_mollified(self, monkeypatch, name):
        base, meshes = self.MOLLIFIED_MESHES[name]
        for k, want in zip(range(2, 10), meshes):
            nu = MollifiedNu(base, MollifierSpec("bump", 2.0**-k))
            for grid_n in (64, 1024):
                assert self.remeshes(monkeypatch, nu, grid_n) == want, (
                    k, grid_n)

    def test_half_mesh_keeps_every_panel(self, monkeypatch):
        # atoms at 0.4 and 0.4725 at eps = 2^-5 leave a linear gap of 0.01
        # between their windows: one cell of Newton's mesh at 128 cells per
        # unit, whose half (0 cells) dropped the gap's start from the
        # Richardson estimate's coarse mesh
        nu = MollifiedNu(NuPrimitive(jumps=((0.4, 1.0), (0.4725, 1.0))),
                         MollifierSpec("bump", 2.0**-5))
        gap = (0.4 + 2.0**-5, 0.4725 - 2.0**-5, 1)
        assert gap in _mesh_panels(nu, 128)
        meshes = []
        monkeypatch.setattr(vww.prufer, "_magnus_phase", lambda mesh, lams: (
            meshes.append(mesh) or (lams, lams)))
        phase = _PhaseMap(nu)
        phase.remesh(128)
        phase.error_estimate(np.array([100.0]), np.array([100.0]))
        (h, *_), = meshes
        edges = np.cumsum(h)
        for x in nu.breakpoints:
            assert np.min(np.abs(edges - x)) <= 1e-12, x

    def test_build_reads_no_norm_linf(self, monkeypatch):
        # Newton's first mesh follows sqrt(lambda) alone, no max |nu|: a
        # ladder's rungs, a perturbed one and a nu with an atom build
        # without Potential.norm_linf
        def refuse(self):
            raise AssertionError("norm_linf called in a build")

        monkeypatch.setattr(vww.prufer.Potential, "norm_linf", refuse)
        rungs = [MollifiedNu(base, MollifierSpec("bump", 2.0**-k))
                 for base in (NuPrimitive("linear", (5.0,)), STEP)
                 for k in range(2, 6)]
        w = NuPrimitive("sine", (1.0, 2.0))
        for nu in (*rungs, PerturbedNu(rungs[0], w, 0.1), SINE_ATOM):
            build_basis(nu, 8, Grid(256))


def ungauged_mesh(nu, cells):
    """The Magnus-4 terms of _cell_mesh's cells on nu's panels at `cells`
    per unit, formed from nu - nu(1-) at the Gauss points, with no gauge and
    no shear cells: the map before the cells took nu's interpolant, at the
    level of nu where theta(1) is read."""
    panels = _mesh_panels(nu, cells)
    h = np.concatenate([np.full(n, (b - a) / n) for a, b, n in panels])
    left = np.concatenate([np.linspace(a, b, n + 1)[:-1]
                           for a, b, n in panels])
    mid = left + 0.5 * h
    level = nu.nu_values(1.0)
    nu1, nu2 = (nu.nu_values(mid + t * h / math.sqrt(12.0)) - level
                for t in (-1, 1))
    dn = nu2 - nu1
    k = (math.sqrt(3.0) / 6.0) * h * h * dn
    p, m = h + k, h - k
    terms = (h, 0.5 * p * (nu1 + nu2),
             p, m, 0.5 * h * (nu1 * nu1 + nu2 * nu2) + k * nu1 * nu2,
             p * m, 0.25 * dn * dn)
    return tuple(c[:, None] for c in terms)


class TestInterpolantGauge:
    """Newton's Magnus cells in the gauge of nu's interpolant on their
    edges: exact where nu is linear between its breakpoints, with no
    rounding floor in |nu|, and read only through q = nu', never at nu's
    level."""

    @pytest.mark.parametrize("nu, n_max, shift", [
        (NuPrimitive("const", (1e4,)), 8, 0.0),
        (NuPrimitive("const", (6000.0,)), 8, 0.0),
        (NuPrimitive(jumps=((0.5, 1e4),)), 8, None),
        (NuPrimitive("linear", (2000.0,)), 8, 2000.0),
        (NuPrimitive("linear", (1e4,)), 8, 1e4),
        *((NuPrimitive("const", (c,)), 8, 0.0) for c in (1e11, 1e15, 1e200)),
        *((NuPrimitive(jumps=((0.5, alpha),)), n_max, None)
          for alpha, n_max in ((1e8, 1), (1e8, 8), (1e9, 1), (1e9, 8),
                               (1e12, 1))),
    ], ids=["const_1e4", "const_6000", "atom_1e4", "linear_2000",
            "linear_1e4", "const_1e11", "const_1e15", "const_1e200",
            "atom_1e8_n1", "atom_1e8_n8", "atom_1e9_n1", "atom_1e9_n8",
            "atom_1e12_n1"])
    def test_large_nu_builds(self, nu, n_max, shift):
        # the first five ended in BracketFailure on the ungauged cells,
        # whose entries near h nu^2 / sqrt(lambda) cancelled to a floor of
        # about 2e-9 in theta(1); now within 4.7e-14 relative of the
        # closed form (nu's slope plus (n pi)^2), and an atom of 1e4 within
        # 1.2e-11 of the transcendental root (delta_lambda_oracle).  Read
        # at nu's level (a shear back to nu at x = 1, and Newton's start
        # from nu), const 1e11 was 2.2e-7 off, 1e15 and 1e200 were refused,
        # atoms of 1e8 and 1e9 ended in BracketFailure (residual 2 pi) and
        # one of 1e12 gave lambda_1 = 0.01; these read at most 3.9e-12
        basis = build_basis(nu, n_max, Grid(256))
        n = np.arange(1, n_max + 1)
        if shift is None:
            want = [delta_lambda_oracle(nu.jumps[0][1], k) for k in n]
        else:
            want = (n * math.pi) ** 2 + shift
        assert np.max(np.abs(basis.lambdas / want - 1.0)) <= (
            1e-10 if shift is None else 1e-12)

    @pytest.mark.parametrize("lam", [100.0, 1e4])
    def test_linear_with_atom_exact_on_turning_mesh(self, lam):
        # linear 2 with an atom: its turning-rule mesh of 131 cells per
        # unit (the mixed eigs config's) was off the fine map by 7.1e-9 at
        # lambda = 100 and 3.4e-7 at 1e4 without the gauge
        nu = catalog_potentials()["mixed"]
        lams = np.array([lam])
        got, _ = _magnus_phase(_magnus_mesh(nu, 131), lams)
        want, _ = _magnus_phase(ungauged_mesh(nu, 32768), lams)
        assert abs(got[0] - want[0]) <= 1e-12

    def test_zero_mollified_nu_takes_the_zero_mesh(self, monkeypatch):
        # nu_eps is 0 where the base has neither atoms nor density: it
        # got a density nu's mesh, 128 cells and an estimate pass
        made = []
        original = _PhaseMap.remesh

        def remesh(self, cells):
            made[-1].append(cells)
            original(self, cells)

        monkeypatch.setattr(_PhaseMap, "remesh", remesh)
        for nu in (FREE, MollifiedNu(FREE, MollifierSpec("bump", 0.25))):
            made.append([])
            basis = build_basis(nu, 12, Grid(1024))
            assert basis.theta_error_estimate == 0.0
        assert made[0] == made[1] == [38]


class TestMagnusOverflow:
    """The Magnus pass's NonFiniteResult refusals, on fixed meshes of a
    fast sine."""

    @pytest.mark.parametrize("params, cells, error", [
        ((-1e7, 3.0), 64,
         r"^nu varies too fast for a Magnus cell of width h = 0\.0156: its "
         r"growth exp\(omega\), omega = 3\.98e\+03, overflows a float$"),
        ((1e83, 1.0), 8,
         r"^nu varies too fast for a Magnus cell of width h = 0\.0312: its "
         r"growth exp\(omega\), omega = inf, overflows a float$"),
        ((-1e6, 3.0), 64,
         r"^nu varies too fast for a block of 8 Magnus cells of width h = "
         r"0\.0156: their growth overflows a float$"),
    ], ids=["hyperbolic_cell", "infinite_omega", "block"])
    def test_overflow_is_named(self, params, cells, error):
        # before the cells took nu's interpolant as their gauge, sine (-1e6,
        # 3), (1e80, 1) and (-1e4, 3) reached these three refusals
        mesh = _magnus_mesh(NuPrimitive("sine", params), cells)
        with pytest.raises(NonFiniteResult, match=error):
            _magnus_phase(mesh, np.array([math.pi**2, 4.0 * math.pi**2]))


class TestBlockedScan:
    """The blocked Magnus scan against per-cell references."""

    @pytest.mark.parametrize("width", [1, 3, 40])
    @pytest.mark.parametrize("cells", [33, 257, 1000])
    def test_ragged_meshes_match_expm(self, cells, width):
        # neither squares nor multiples of the chunk (256 cells at 40
        # lambdas), so blocks and chunks end short
        nu = NuPrimitive("sine", (1.0, 1.0))
        lams = np.geomspace(0.5, 3000.0, width)
        got = _magnus_phase(_magnus_mesh(nu, cells), lams)
        for g, want in zip(got, expm_chained_phase(nu, cells, lams)):
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", ["step", "mixed", "sine"])
    def test_batch_width_invariant(self, name):
        # one lambda is one chunk of 2,048 cells; forty are eight chunks
        mesh = _magnus_mesh(catalog_potentials()[name], 2048)
        lams = np.linspace(5.0, (40 * math.pi) ** 2, 40)
        theta, dtheta = _magnus_phase(mesh, lams)
        for k in (0, 17, 39):
            alone = _magnus_phase(mesh, lams[k:k + 1])
            assert alone[0][0] == pytest.approx(theta[k], rel=0.0, abs=1e-12)
            assert alone[1][0] == pytest.approx(dtheta[k], rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 300.0])
    @pytest.mark.parametrize("slope", [1e4, 3e4])
    def test_steep_nu_matches_cell_loop(self, slope, lam):
        # the states grow by orders of magnitude inside a block; an
        # overflow would raise here, as the suite makes RuntimeWarning an error
        mesh = _magnus_mesh(NuPrimitive("linear", (slope,)), 2048)
        lams = np.array([lam])
        got = _magnus_phase(mesh, lams)
        for g, want in zip(got, cell_loop_phase(mesh, lams)):
            assert g[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)


class TestOneTangent:
    """The half-angle sines and cosines, the Newton start's recurrence and
    the recording pass without phase sums, against their direct forms."""

    def test_half_angle_matches_libm(self):
        # 0, the doubles either side of each odd multiple of pi below 300,
        # where t = tan(x / 2) reaches 1e16, and a sweep over [-300, 300]:
        # 2.2e-16 (sin) and 3.3e-16 (cos) when this was written
        odd = math.pi * np.arange(1.0, 96.0, 2.0)
        x = np.concatenate([[0.0], odd, np.nextafter(odd, 0.0),
                            np.nextafter(odd, np.inf),
                            np.linspace(-300.0, 300.0, 20001)])
        sin, cos = x.copy(), np.empty_like(x)
        _sin_cos(sin, cos)
        assert sin[0] == 0.0 and cos[0] == 1.0
        assert np.max(np.abs(sin - np.sin(x))) <= 4.5e-16
        assert np.max(np.abs(cos - np.cos(x))) <= 4.5e-16

    def test_cells_at_zero_omega(self):
        # a free cell of width 1/2 (omega = s / 2), then a zero-width shear
        # cell with u = -alpha and the block's padding, both at omega = 0,
        # where sin(omega) / omega is 1: (y, w) = (sin, cos)(s / 2), then w
        # += alpha y / s, and nothing more
        lams, alpha = np.array([1.0, 30.0, 400.0]), 0.7
        s = np.sqrt(lams)
        h = np.array([[0.5], [0.0], [0.0], [0.0], [0.0]])
        zero = np.zeros_like(h)
        u = np.array([[0.0], [-alpha], [0.0], [0.0], [0.0]])
        mesh = (h, zero, h, h, u, h * h, zero)
        record = np.ones(6, dtype=bool)
        got = _magnus_phase(mesh, lams, record)
        y, w = np.sin(0.5 * s), np.cos(0.5 * s)
        want = np.stack([np.stack([0.0 * s, *[y] * 5], axis=1),
                         np.stack([0.0 * s + 1.0, w, *[w + alpha * y / s] * 4],
                                  axis=1)])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        assert np.array_equal(got, recorded_states_with_sums(mesh, lams,
                                                             record))

    @pytest.mark.parametrize("name", ["step", "mixed", "linear5", "sine"])
    def test_sine_sums_match_direct_sums(self, name):
        # the Newton start's int nu sin(2 pi n x) for n up to 511, by the
        # three-term recurrence, against one sin table per mode: 6.8e-14
        # (mixed) on sums of up to 0.94 when this was written
        grid, ns = Grid(1024), np.arange(1.0, 512.0)
        nu = catalog_potentials()[name]
        w = grid.simpson_weights * nu.nu_values(grid.nodes)
        want = np.array([w @ np.sin(2.0 * math.pi * n * grid.nodes)
                         for n in ns])
        got = _sine_sums(w, grid.nodes, ns)
        assert np.max(np.abs(got - want)) <= 1e-13
        # a mode alone, as _roots may ask, reads its own row
        assert np.array_equal(_sine_sums(w, grid.nodes, np.array([40.0, 7.0])),
                              got[[39, 6]])

    @pytest.mark.parametrize("nu, n_max, grid_n", [
        (NuPrimitive("sine", (1.0, 1.0)), 40, 2048),
        (SINE_ATOM, 12, 1024),
        (MollifiedNu(STEP, MollifierSpec("bump", 2.0**-8)), 8, 64),
    ], ids=["sine", "sine_atom", "narrow_bump"])
    def test_recording_pass_matches_summing_pass(self, monkeypatch, nu,
                                                 n_max, grid_n):
        # the recording pass no longer sums theta(1) and int y^2; its
        # states are those of the pass that summed and dropped them, bit
        # for bit
        calls = []
        original = vww.prufer._magnus_phase

        def spied(mesh, lams, *record):
            got = original(mesh, lams, *record)
            if record:  # _recorded_pass scales the w row in place
                calls.append((mesh, lams, record[0], got.copy()))
            return got

        monkeypatch.setattr(vww.prufer, "_magnus_phase", spied)
        build_basis(nu, n_max, Grid(grid_n))
        (mesh, lams, record, got), = calls
        assert np.array_equal(got, recorded_states_with_sums(mesh, lams,
                                                             record))


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
        for name in EIGENBASIS_ARRAYS:
            want, got = getattr(basis, name), getattr(again, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert again.gram_max_offdiag == basis.gram_max_offdiag
        assert again.theta_error_estimate == basis.theta_error_estimate
        assert again.grid == basis.grid and len(again) == 4

    def test_eigenfunction_cache_keys(self):
        cache = basis_to_cache(build_basis(STEP, 2, Grid(64)), True)
        assert set(cache) == {
            "grid_n", "nu", "lambdas", "theta_residuals", "tilde_norms",
            "gram_max_offdiag", "theta_error_estimate",
            "includes_eigenfunctions", "phi", "phi_prime"}

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
    def test_csv_psi_norms_match_phase_path(self, catalog_bases_40,
                                            monkeypatch):
        # phi_tilde = ||phi_tilde|| phi against the phi_tilde rows that the
        # build's own pass, RK45 or recorded Magnus, hands over; on a delta
        # the even modes' psi norms are round-off, which moves by about
        # 1e-14
        rows = []
        original = vww.prufer._eigenbasis

        def kept(*args):
            rows.append(args[-2].copy())  # phi_tilde, before normalizing
            return original(*args)

        monkeypatch.setattr(vww.prufer, "_eigenbasis", kept)
        for name, basis in catalog_bases_40.items():
            again = build_basis(basis.nu, len(basis), basis.grid)
            assert np.array_equal(again.phi_matrix, basis.phi_matrix), name
            got = np.array([row[4] for row in basis_csv_rows(basis)])
            want = psi_norms_from_path(basis, rows[-1])
            assert np.all(np.abs(got - want)
                          <= np.maximum(1e-10 * want, 1e-13)), name

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
