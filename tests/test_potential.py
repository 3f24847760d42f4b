"""Potential primitives, mollification, and the power-law fits of
``vww.veryweak`` over mollified nets."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from vww.errors import ConfigError, DegenerateNet, MeshTooLarge, MissingNorm
from vww.grid import Grid, GridFunction
from vww.potential import (_CONV_CHUNK, _MAX_TABLE_POINTS, BumpProfile,
                           MollifiedNu, MollifierSpec, NuPrimitive,
                           PerturbedNu, _window_conv, get_profile,
                           mollified_q)
from vww.prufer import build_basis
from vww.veryweak import check_negligibility, default_ladder, fit_moderateness

from conftest import modules_in_fresh_python
from oracles import bump_mass, two_pass_tables

STEP = NuPrimitive(jumps=((0.5, 1.0),))


def sampled_q(nu, profile: str, eps: float, grid: Grid) -> GridFunction:
    """q_eps on the grid's nodes."""
    return GridFunction(grid, mollified_q(nu, eps, get_profile(profile),
                                          grid.nodes))


class TestEvaluateNu:
    def test_left_of_jump(self):
        assert float(STEP.nu_values(0.25)) == 0.0

    def test_right_of_jump(self):
        assert float(STEP.nu_values(0.75)) == 1.0

    def test_at_jump_takes_left_limit(self):
        assert float(STEP.nu_values(0.5)) == 0.0

    def test_linear_plus_jump(self):
        nu = NuPrimitive("linear", (2.0,), jumps=((0.3, 3.0),))
        assert float(nu.nu_values(0.5)) == pytest.approx(4.0, abs=1e-15)


class TestValidation:
    def test_jump_locations_inside(self):
        with pytest.raises(ConfigError):
            NuPrimitive(jumps=((0.0, 1.0),))

    def test_jump_locations_increasing(self):
        with pytest.raises(ConfigError):
            NuPrimitive(jumps=((0.5, 1.0), (0.4, 1.0)))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            NuPrimitive("cubic", (1.0,))

    def test_descriptor_round_trip(self):
        nu = NuPrimitive("sine", (0.5, 2.0), jumps=((0.25, -1.0),))
        again = NuPrimitive.from_descriptor(nu.descriptor())
        assert again == nu


class TestMollify:
    def test_profile_unit_mass(self):
        for name in ("bump", "bump2", "bump_skew"):
            assert bump_mass(get_profile(name)) == pytest.approx(1.0, abs=1e-12)

    def test_delta_scaling_identity_over_ladder(self):
        g = Grid(2048)
        peak = float(get_profile("bump").density(0.0))
        for eps in default_ladder(2, 9):
            q = sampled_q(STEP, "bump", eps, g)
            assert float(q.values.max()) * eps == pytest.approx(peak,
                                                                abs=1e-12)

    def test_zero_potential_stays_zero(self):
        g = Grid(256)
        for nu in (NuPrimitive(), NuPrimitive("const", (7.0,))):
            q = sampled_q(nu, "bump", 0.1, g)
            assert np.all(q.values == 0.0)

    def test_constant_density_interior_exact(self):
        # oracle: away from the boundary layers the unit-mass convolution
        # reproduces the constant; cross-check one node by dense trapezoid
        g = Grid(2048)
        nu = NuPrimitive("linear", (5.0,))
        eps = 0.01
        q = sampled_q(nu, "bump", eps, g)
        mask = (g.nodes >= 2 * eps) & (g.nodes <= 1.0 - 2 * eps)
        assert np.max(np.abs(q.values[mask] - 5.0)) <= 1e-10
        u = np.linspace(-1.0, 1.0, 20001)
        psi = get_profile("bump").density(u)
        ref = np.trapezoid(5.0 * psi, u)
        i = g.n // 2
        assert q.values[i] == pytest.approx(ref, abs=1e-8)

    def test_mass_conservation_for_atoms(self):
        g = Grid(2048)
        nu = NuPrimitive(jumps=((0.4, 1.0), (0.7, 2.5)))
        q = sampled_q(nu, "bump", 2.0**-4, g)
        assert g.simpson_weights @ q.values == pytest.approx(3.5, abs=1e-8)

    def test_even_symmetry_about_atom(self):
        g = Grid(2048)
        q = sampled_q(STEP, "bump", 2.0**-5, g)
        assert np.max(np.abs(q.values - q.values[::-1])) <= 1e-12

    def test_mollified_nu_matches_direct_convolution(self):
        nu = NuPrimitive("sine", (0.7, 2.0), jumps=((0.3, 1.5),))
        mn = MollifiedNu(nu, MollifierSpec("bump", 2.0**-6))
        xs = np.linspace(0.0, 1.0, 301)
        direct = mn._smooth_conv(xs)
        assert np.max(np.abs(direct - mn._smooth_interp(xs))) <= 1e-11

    @pytest.mark.parametrize("eps", [1.0, 0.25, 1.0 / 32])
    @pytest.mark.parametrize("profile", ["bump", "bump2", "bump_skew"])
    def test_linear_density_boundary_layers_closed_form(self, profile, eps):
        # oracle: q = c on (0, 1) gives q_eps(x) = c * (Psi(hi) - Psi(lo)),
        # with [lo, hi] the u in [-1, 1] for which x - eps*u lies in [0, 1]
        c = -3.5
        bump = get_profile(profile)
        xs = np.linspace(0.0, 1.0, 4097)
        lo = np.clip((xs - 1.0) / eps, -1.0, 1.0)
        hi = np.clip(xs / eps, -1.0, 1.0)
        exact = c * (bump.primitive(hi) - bump.primitive(lo))
        got = mollified_q(NuPrimitive("linear", (c,)), eps, bump, xs)
        assert np.max(np.abs(got - exact)) <= 5e-13 * abs(c)

    def test_mollified_nu_derivative_is_q(self):
        nu = NuPrimitive("linear", (3.0,), jumps=((0.5, 1.0),))
        mn = MollifiedNu(nu, MollifierSpec("bump", 2.0**-5))
        xs = np.array([0.1, 0.48, 0.5, 0.52, 0.9])
        h = 1e-6
        fd = (mn.nu_values(xs + h) - mn.nu_values(xs - h)) / (2.0 * h)
        assert np.max(np.abs(fd - mn.q_values(xs))) <= 1e-6


class TestWindowConvOracle:
    """q_eps and the smoothed primitive against adaptive quadrature
    (scipy.integrate.quad) of the defining integrals, one window per point,
    with psi normalized by quad too."""

    NU = NuPrimitive("sine", (0.7, 2.0, 0.3))

    @staticmethod
    def points(eps):
        ulp = [np.nextafter(e, d) for e in (eps, 1.0 - eps) for d in (0.0, 2.0)]
        return np.array([0.5, 0.3 * eps, 1.0 - 0.7 * eps, 0.0, 1.0,
                         eps, 1.0 - eps, *ulp,
                         -0.5 * eps, 1.0 + 0.5 * eps, -2.0, 1.5])

    @staticmethod
    def psi(bump):
        def raw(u):
            return math.exp(-bump.sharpness / (1.0 - u * u)) * (1.0 + bump.tilt * u)
        norm = quad(raw, -1.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        return lambda u: raw(u) / norm if abs(u) < 1.0 else 0.0

    @staticmethod
    def window_quad(h, psi, x, eps, clamp):
        """int h(y(u)) psi(u) du over [-1, 1] with y = x - eps*u, split at
        the kinks y = 0 and y = 1; outside [0, 1] h is 0 or, with clamp,
        held at h(0) and h(1)."""
        def integrand(u):
            y = x - eps * u
            if not clamp and not 0.0 <= y <= 1.0:
                return 0.0
            return float(h(min(max(y, 0.0), 1.0))) * psi(u)
        kinks = [u for u in (x / eps, (x - 1.0) / eps) if -1.0 < u < 1.0]
        return quad(integrand, -1.0, 1.0, points=kinks or None,
                    epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 32])
    @pytest.mark.parametrize("profile", ["bump", "bump_skew"])
    def test_mollified_q_sine(self, profile, eps):
        bump, xs = get_profile(profile), self.points(eps)
        psi = self.psi(bump)
        want = [self.window_quad(self.NU.q_values, psi, x, eps, False)
                for x in xs]
        scale = 0.7 * 4.0 * math.pi  # max |g| of a sin(2 pi m x + phase)
        got = mollified_q(self.NU, eps, bump, xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 32])
    @pytest.mark.parametrize("profile", ["bump", "bump_skew"])
    def test_smooth_conv_sine(self, profile, eps):
        # the clamped primitive G(clip(y, 0, 1)), G(t) = int_0^t g
        xs = self.points(eps)
        psi = self.psi(get_profile(profile))
        want = [self.window_quad(self.NU.density_integral, psi, x, eps, True)
                for x in xs]
        got = MollifiedNu(self.NU, MollifierSpec(profile, eps))._smooth_conv(xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * 2.0 * 0.7


class TestWindowConvWork:
    def test_f_called_per_chunk_not_per_node(self):
        shapes = []

        def f(y):
            shapes.append(y.shape)
            return np.cos(y)
        _window_conv(f, np.linspace(0.0, 1.0, 4097), 0.25, get_profile("bump"))
        assert len(shapes) < 64
        assert all(len(s) == 2 for s in shapes)

    def test_table_build_peak_memory(self):
        import tracemalloc
        nu = NuPrimitive("linear", (5.0,))
        spec = MollifierSpec("bump", 0.25)
        spec.bump.primitive(0.0)  # the Psi table is built once per process
        tracemalloc.start()
        try:
            MollifiedNu(nu, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    TABLE_NUS = {
        "linear5": NuPrimitive("linear", (5.0,)),
        "sine": NuPrimitive("sine", (0.7, 2.0, 0.3)),
        "samples": NuPrimitive("samples", tuple(
            math.sin(2.0 * math.pi * k / 16) for k in range(17)))}

    @pytest.mark.parametrize("eps", [2.0**-2, 2.0**-5])
    @pytest.mark.parametrize("profile", ["bump", "bump_skew"])
    @pytest.mark.parametrize("nu", list(TABLE_NUS))
    def test_one_pass_tables_are_the_two_pass_tables(self, nu, profile, eps):
        # v and d from one shared pass per segment, bit for bit
        mn = MollifiedNu(self.TABLE_NUS[nu], MollifierSpec(profile, eps))
        want = two_pass_tables(mn)
        assert len(want) == len(mn._segs) == (1 if eps >= 0.2 else 3)
        for (_, _, _, v, d), (v2, d2) in zip(mn._segs, want):
            assert v.tobytes() == v2.tobytes() and d.tobytes() == d2.tobytes()

    @pytest.mark.parametrize("eps", [2.0**-2, 2.0**-5])
    def test_table_work_per_chunk(self, monkeypatch, eps):
        # per segment: psi once for the full-window weights and once per
        # partial-window chunk, g and G once per chunk, and G once for G(1)
        calls = {"density": 0, "q_values": 0, "density_integral": 0}
        for cls, name in ((BumpProfile, "density"), (NuPrimitive, "q_values"),
                          (NuPrimitive, "density_integral")):
            def counted(self, u, _real=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _real(self, u)
            monkeypatch.setattr(cls, name, counted)
        mn = MollifiedNu(NuPrimitive("linear", (5.0,)),
                         MollifierSpec("bump", eps))
        full = part = 0
        for _, _, t, _, _ in mn._segs:
            inner = int(np.count_nonzero((t >= eps) & (t <= 1.0 - eps)))
            full += -(-inner // _CONV_CHUNK)
            part += -(-(t.size - inner) // _CONV_CHUNK)
        assert calls == {"density": part + len(mn._segs),
                         "q_values": full + part,
                         "density_integral": full + part + len(mn._segs)}

    @pytest.mark.parametrize("freq, eps, points", [
        (1e6, 0.25, "2.048e+09"), (1e6, 0.125, "1.024e+09"),
        (1e308, 0.25, "inf")], ids=["wide_eps", "narrow_eps", "inf"])
    def test_table_above_ceiling_refused_unbuilt(self, freq, eps, points):
        import time
        import tracemalloc
        nu = NuPrimitive("sine", (1.0, freq))
        spec = MollifierSpec("bump", eps)
        spec.bump.primitive(0.0)  # the Psi table is built once per process
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(MeshTooLarge, match=(
                    f"^a mollifier table of {re.escape(points)} points "
                    f"exceeds the ceiling of {_MAX_TABLE_POINTS}$")):
                MollifiedNu(nu, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and time.perf_counter() - start < 1.0


class TestNorms:
    def test_step_l2_norm(self):
        # nu = H(x - 1/2): integral of nu^2 is 1/2
        assert STEP.norm_l2() == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_step_linf(self):
        assert STEP.norm_linf() == pytest.approx(1.0, abs=1e-12)

    def test_linf_takes_right_limit_at_jump(self):
        # nu = -2x + 3 H(x - 1/2) peaks at 2 just right of the jump, where
        # nu_values takes the left limit -1
        nu = NuPrimitive("linear", (-2.0,), jumps=((0.5, 3.0),))
        assert nu.norm_linf() == 2.0

    def test_perturbed_l2_over_atom_closed_form(self):
        # nu = H(x - 1/2) + 0.1 sin(2 pi x): int nu^2 = 0.505 - 0.2/pi; a
        # rule whose panels cross the jump errs near 3e-5
        pert = PerturbedNu(STEP, NuPrimitive("sine", (1.0, 1.0)), 0.1)
        assert pert.norm_l2() == pytest.approx(
            math.sqrt(0.505 - 0.2 / math.pi), abs=1e-13)

    def test_q_linf_needs_bounded(self):
        with pytest.raises(MissingNorm):
            STEP.q_linf()
        assert NuPrimitive("linear", (5.0,)).q_linf() == pytest.approx(5.0)


class TestPerturbed:
    W = NuPrimitive("sine", (1.0, 1.0))

    def test_nested_over_atom_has_no_q_linf(self):
        inner = PerturbedNu(STEP, self.W, 0.1)
        with pytest.raises(MissingNorm):
            PerturbedNu(inner, self.W, 0.1).q_linf()

    def test_q_linf_probes_mollified_atom_centre(self):
        # the bump peak at 1/2 is a probe point besides the uniform grid
        base = MollifiedNu(STEP, MollifierSpec("bump", 1.0 / 16))
        assert PerturbedNu(base, self.W, 0.1).q_linf() == 12.628782907187729

    def test_protocol_passes_through_base(self):
        pert = PerturbedNu(STEP, self.W, 0.1)
        assert pert.jumps == STEP.jumps
        assert pert.breakpoints == STEP.breakpoints

    def test_spatial_derivatives_reject_atom_on_node(self, free_basis_small):
        from vww.errors import AtomEvaluation
        from vww.spectral import analyze
        from vww.wave import WaveProblem, solve_homogeneous, x_derivative
        g = free_basis_small.grid
        u0 = GridFunction(g, np.sin(math.pi * g.nodes))
        problem = WaveProblem(free_basis_small, analyze(u0, free_basis_small),
                              analyze(GridFunction.zeros(g), free_basis_small),
                              1.0)
        sol = solve_homogeneous(problem, [0.0])
        with pytest.raises(AtomEvaluation):
            x_derivative(sol, PerturbedNu(STEP, self.W, 0.1), 2)


class TestOdePanels:
    """Each ``ode_panels`` callable against ``nu_values`` inside its panel
    (``nu_values`` takes the left limit at a jump, so edges are left out)."""

    BASES = {
        "delta": STEP,
        "three_atoms": NuPrimitive(jumps=((0.25, 1.0), (0.5, -0.7), (0.8, 2.0))),
        "linear": NuPrimitive("linear", (5.0,)),
        "sine": NuPrimitive("sine", (1.0, 1.0)),
        "mixed": NuPrimitive("linear", (2.0,), jumps=((0.3, 3.0),)),
    }
    W = NuPrimitive("linear", (0.5,))
    FRACTIONS = np.concatenate([[1e-9, 0.5, 1.0 - 1e-9],
                                np.random.default_rng(3).random(61)])

    def _assert_agree(self, pot, base):
        for a, b, nu in pot.ode_panels():
            xs = a + (b - a) * self.FRACTIONS
            xs = xs[(xs > a) & (xs < b)]
            scalar = np.array([nu(x) for x in xs.tolist()])
            vector = pot.nu_values(xs)
            if len(base.jumps) <= 1:
                assert scalar.tobytes() == vector.tobytes(), (a, b)
            else:
                # the scalar path sums the atoms in another order
                assert np.max(np.abs(scalar - vector)) <= 1e-15, (a, b)

    @pytest.mark.parametrize("name", list(BASES))
    def test_primitive(self, name):
        base = self.BASES[name]
        self._assert_agree(base, base)
        self._assert_agree(PerturbedNu(base, self.W, 0.7), base)

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 32])
    @pytest.mark.parametrize("profile", ["bump", "bump2", "bump_skew"])
    @pytest.mark.parametrize("name", list(BASES))
    def test_mollified(self, name, profile, eps):
        base = self.BASES[name]
        mollified = MollifiedNu(base, MollifierSpec(profile, eps))
        self._assert_agree(mollified, base)
        self._assert_agree(PerturbedNu(mollified, self.W, 0.7), base)


class TestSamplesKind:
    """A quintic spline through 65 samples of sin(2 pi x), plus an atom."""

    NU = NuPrimitive("samples",
                     tuple(np.sin(2.0 * math.pi * np.linspace(0.0, 1.0, 65))),
                     jumps=((0.5, 1.0),))
    X = np.linspace(0.0, 1.0, 1001)

    def test_nu_values_closed_form(self):
        want = np.sin(2.0 * math.pi * self.X) + (self.X > 0.5)
        assert np.max(np.abs(self.NU.nu_values(self.X) - want)) <= 1e-8

    def test_q_values_closed_form(self):
        # the spline's derivative is least accurate in its end intervals
        err = np.abs(self.NU.q_values(self.X)
                     - 2.0 * math.pi * np.cos(2.0 * math.pi * self.X))
        inner = (self.X >= 0.1) & (self.X <= 0.9)
        assert np.max(err[inner]) <= 1e-7
        assert np.max(err) <= 2e-6

    def test_ode_panels_match_spline(self):
        # the panels' plain-float quintic pieces against the spline itself
        x = np.random.default_rng(0).uniform(0.0, 1.0, 1000)
        want = self.NU.nu_values(x)
        got = np.array([next(f for a, b, f in self.NU.ode_panels()
                             if a <= v <= b)(float(v)) for v in x])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_basis_passes_gram_check(self):
        basis = build_basis(self.NU, 12, Grid(512), tol=1e-10)
        assert len(basis) == 12
        assert basis.gram_max_offdiag <= 1e-7

    def test_scipy_loaded_on_first_evaluation(self):
        code = ("import sys\n"
                "from vww.potential import NuPrimitive\n"
                "nu = NuPrimitive('samples', tuple(range(8)))\n"
                "assert not any(m.startswith('scipy') for m in sys.modules)\n"
                "nu.nu_values(0.5)")
        assert "scipy.interpolate" in modules_in_fresh_python(code, "scipy")


class TestFits:
    def test_exact_power_law(self):
        lad = tuple(2.0**-k for k in range(1, 7))
        fit = fit_moderateness(lad, tuple(e**-2 for e in lad))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.max_dev <= 1e-12

    def test_constant_net(self):
        lad = tuple(2.0**-k for k in range(1, 7))
        fit = fit_moderateness(lad, (3.0,) * 6)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_mollified_delta_linf_exponent(self):
        # oracle: max of the mollified atom is peak/eps exactly, slope 1
        g = Grid(2048)
        lad = default_ladder(2, 9)
        norms = tuple(
            sampled_q(STEP, "bump", e, g).norm_linf()
            for e in lad)
        fit = fit_moderateness(lad, norms)
        assert abs(fit.slope - 1.0) <= 0.05

    def test_zero_norm_degenerate(self):
        lad = tuple(2.0**-k for k in range(1, 6))
        with pytest.raises(DegenerateNet):
            fit_moderateness(lad, (1.0, 1.0, 0.0, 1.0, 1.0))

    def test_short_ladder_rejected(self):
        with pytest.raises(ConfigError, match="at least 4 rungs, got 3"):
            fit_moderateness((0.5, 0.25, 0.125), (1.0,) * 3)

    def test_negligibility_pass_and_fail(self):
        lad = tuple(2.0**-k for k in range(1, 7))
        norms = tuple(e**3 for e in lad)
        rep = check_negligibility(lad, norms, 3)
        assert rep.passed and rep.slope == pytest.approx(3.0, abs=1e-12)
        assert not check_negligibility(lad, norms, 5).passed

    def test_two_profile_difference_negligible_at_order_one(self):
        # both profiles converge to the smooth potential at first order
        # (q = sin(2 pi x) vanishes at the walls, so the zero extension
        # stays continuous), hence the difference net decays at least
        # like eps
        g = Grid(2048)
        nu = NuPrimitive("sine", (1.0 / (2.0 * math.pi), 1.0, -math.pi / 2.0))
        lad = default_ladder(2, 9)
        diffs = []
        for eps in lad:
            qa = sampled_q(nu, "bump", eps, g)
            qb = sampled_q(nu, "bump2", eps, g)
            diffs.append((qa - qb).norm_l2())
        rep = check_negligibility(lad, diffs, 1)
        assert rep.passed

    def test_moderateness_negligibility_consistency(self):
        # a net negligible at order M has moderateness exponent <= -M + 0.2
        lad = tuple(2.0**-k for k in range(1, 8))
        norms = tuple(e**2.5 for e in lad)
        neg = check_negligibility(lad, norms, 2)
        mod = fit_moderateness(lad, norms)
        assert neg.passed
        assert mod.slope <= -2 + 0.2

    def test_ladder_must_decrease(self):
        with pytest.raises(ConfigError):
            fit_moderateness((0.25, 0.5), (1.0, 1.0))
        with pytest.raises(ConfigError, match="strictly decreasing"):
            fit_moderateness((0.25, 0.5, 0.125, 0.0625), (1.0,) * 4)

    def test_norms_match_ladder(self):
        with pytest.raises(ConfigError, match="equal length"):
            check_negligibility((0.5, 0.25, 0.125, 0.0625), (1.0,) * 3, 1)
