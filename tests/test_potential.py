"""Potential primitives, mollification, and the power-law fits of
``vww.veryweak`` over mollified nets."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from vww.errors import ConfigError, DegenerateNet, MeshTooLarge, MissingNorm
from vww.grid import Grid, GridFunction
from vww.potential import (_CONV_BLOCK, BumpProfile,
                           MollifiedNu, MollifierSpec, NuPrimitive,
                           PerturbedNu, _composite_rule, _window_conv,
                           _window_rule, get_profile)
from vww.prufer import build_basis
from vww.veryweak import check_negligibility, default_ladder, fit_moderateness

from conftest import modules_in_fresh_python
from oracles import bump_mass

STEP = NuPrimitive(jumps=((0.5, 1.0),))
LINEAR5 = NuPrimitive("linear", (5.0,))


def rung(base, eps: float, profile: str = "bump") -> MollifiedNu:
    return MollifiedNu(base, MollifierSpec(profile, eps))


def sampled_q(nu, profile: str, eps: float, grid: Grid) -> GridFunction:
    """q_eps on the grid's nodes."""
    return GridFunction(grid, MollifiedNu(nu, MollifierSpec(profile, eps))
                        .q_values(grid.nodes))


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

    def test_zero_takes_no_parameters(self):
        with pytest.raises(ConfigError, match="^zero takes no parameters$"):
            NuPrimitive("zero", (3.0,))

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
        # oracle: adaptive quadrature of nu_eps(x) = int nu(clip(x - eps*u,
        # 0, 1)) psi(u) du, split at the walls' kinks and the atom's jump;
        # 2.25 periods leave G(1) = nu(1) - nu(0) nonzero
        nu = NuPrimitive("sine", (0.7, 2.25), jumps=((0.3, 1.5),))
        eps = 2.0**-6
        mn = MollifiedNu(nu, MollifierSpec("bump", eps))
        xs = np.linspace(-eps, 1.0 + eps, 301)
        psi = TestWindowConvOracle.psi(get_profile("bump"))
        want = [TestWindowConvOracle.window_quad(
            lambda y: nu.density_integral(y) + 1.5 * (y > 0.3), psi, x, eps,
            True, jumps=(0.3,)) for x in xs]
        assert np.max(np.abs(mn.nu_values(xs) - want)) <= 1e-14 * 2.2

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
        got = MollifiedNu(NuPrimitive("linear", (c,)),
                          MollifierSpec(profile, eps)).q_values(xs)
        assert np.max(np.abs(got - exact)) <= 5e-13 * abs(c)

    def test_mollified_nu_derivative_is_q(self):
        nu = NuPrimitive("linear", (3.0,), jumps=((0.5, 1.0),))
        mn = MollifiedNu(nu, MollifierSpec("bump", 2.0**-5))
        xs = np.array([0.1, 0.48, 0.5, 0.52, 0.9])
        h = 1e-6
        fd = (mn.nu_values(xs + h) - mn.nu_values(xs - h)) / (2.0 * h)
        assert np.max(np.abs(fd - mn.q_values(xs))) <= 1e-6

    @pytest.mark.parametrize("jumps", [(), ((0.5, 1.0),)],
                             ids=["table", "table_atom"])
    @pytest.mark.parametrize("eps", [0.25, 2.0**-5])
    def test_mollified_nu_at_nan_is_nan(self, eps, jumps):
        # a NaN point takes no branch of Psi, nor a weight of psi; it once
        # read whatever a buffer held (0.0 here), while q_values gave NaN
        mn = MollifiedNu(NuPrimitive("linear", (5.0,), jumps=jumps),
                         MollifierSpec("bump", eps))
        xs = np.array([0.5, 0.25, 0.0, 1.0, 0.03, 0.97])
        got = mn.nu_values(np.insert(xs, 1, np.nan))
        assert np.isnan(got[1]) and np.isnan(mn.q_values([np.nan]))[0]
        assert np.delete(got, 1).tobytes() == mn.nu_values(xs).tobytes()


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
    def window_quad(h, psi, x, eps, clamp, jumps=()):
        """int h(y(u)) psi(u) du over [-1, 1] with y = x - eps*u, split at
        the kinks y = 0 and y = 1 and at the jumps of h; outside [0, 1] h
        is 0 or, with clamp, held at h(0) and h(1)."""
        def integrand(u):
            y = x - eps * u
            if not clamp and not 0.0 <= y <= 1.0:
                return 0.0
            return float(h(min(max(y, 0.0), 1.0))) * psi(u)
        kinks = [u for u in (x / eps, (x - 1.0) / eps,
                             *((x - loc) / eps for loc in jumps))
                 if -1.0 < u < 1.0]
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
        got = MollifiedNu(self.NU, MollifierSpec(profile, eps)).q_values(xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 32])
    @pytest.mark.parametrize("profile", ["bump", "bump_skew"])
    def test_smooth_conv_sine(self, profile, eps):
        # the clamped primitive G(clip(y, 0, 1)), G(t) = int_0^t g
        xs = self.points(eps)
        psi = self.psi(get_profile(profile))
        want = [self.window_quad(self.NU.density_integral, psi, x, eps, True)
                for x in xs]
        got = MollifiedNu(self.NU, MollifierSpec(profile, eps)).nu_values(xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * 2.0 * 0.7


class TestWindowConvWork:
    def test_f_called_per_chunk_not_per_node(self):
        shapes = []

        def f(y):
            shapes.append(y.shape)
            return np.cos(y)
        _window_conv(f, np.linspace(0.0, 1.0, 4097), 0.25, get_profile("bump"),
                     rule=_composite_rule(8, 32))
        assert len(shapes) < 64
        assert all(len(s) == 2 for s in shapes)

    def test_table_build_peak_memory(self):
        # one nu_values call on 4,097 points
        import tracemalloc
        mn = MollifiedNu(NuPrimitive("linear", (5.0,)),
                         MollifierSpec("bump", 0.25))
        mn.spec.bump.primitive(0.0)  # the Psi table is built once per process
        xs = np.linspace(0.0, 1.0, 4097)
        tracemalloc.start()
        try:
            mn.nu_values(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("eps", [2.0**-2, 2.0**-5])
    def test_table_work_per_chunk(self, monkeypatch, eps):
        # one nu_values call on 4,097 points: psi once for the full-window
        # weights and once per partial-window chunk, G once per chunk and
        # once for G(1), and g not at all
        calls = {"density": 0, "q_values": 0, "density_integral": 0}
        for cls, name in ((BumpProfile, "density"), (NuPrimitive, "q_values"),
                          (NuPrimitive, "density_integral")):
            def counted(self, u, _real=getattr(cls, name), _name=name):
                calls[_name] += 1
                return _real(self, u)
            monkeypatch.setattr(cls, name, counted)
        mn = MollifiedNu(NuPrimitive("linear", (5.0,)),
                         MollifierSpec("bump", eps))
        t = np.linspace(0.0, 1.0, 4097)
        mn.nu_values(t)
        chunk = _CONV_BLOCK // mn._rule[0].size
        inner = int(np.count_nonzero((t >= eps) & (t <= 1.0 - eps)))
        full = -(-inner // chunk)
        part = -(-(t.size - inner) // chunk)
        assert calls == {"density": part + 1, "q_values": 0,
                         "density_integral": full + part + 1}

    @pytest.mark.parametrize("freq, eps, periods", [
        (1e6, 0.25, "5e+05"), (1e6, 0.125, "2.5e+05"),
        (1e308, 1.0, "inf"), (512.5, 1.0, "1025")],
        ids=["wide_eps", "narrow_eps", "inf", "one_period_over"])
    def test_table_above_ceiling_refused_unbuilt(self, freq, eps, periods):
        # the window rule's ceiling, 8 periods of a sine per panel of 32
        # nodes, is checked before any node exists
        import time
        import tracemalloc
        nu = NuPrimitive("sine", (1.0, freq))
        spec = MollifierSpec("bump", eps)
        spec.bump.primitive(0.0)  # the Psi table is built once per process
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(MeshTooLarge, match="^" + re.escape(
                    f"a mollifier window of {periods} periods of nu exceeds "
                    f"the ceiling of 1024 periods (128 panels of 32 nodes)")
                    + "$"):
                MollifiedNu(nu, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 and time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("freq, eps, panels", [
        (511, 1.0, 128), (511, 0.2, 26), (1022, 0.19921875, 51),
        (1022, 0.125, 32)])
    def test_rule_admits_what_the_table_ceiling_admitted(self, freq, eps,
                                                         panels):
        # a smooth table of at most 2^20 points held a sine of frequency
        # 511 at eps >= 0.2 and 1022 below; at those the rule stays within
        # its ceiling
        nu = NuPrimitive("sine", (1.0, freq))
        assert _window_rule(nu, eps)[0].size == 32 * panels
        xs = np.array([0.0, 0.5, 1.0])
        got = MollifiedNu(nu, MollifierSpec("bump", eps)).nu_values(xs)
        assert np.all(np.abs(got) <= 1.0)


class TestWindowRule:
    """_window_rule's rule against a fine composite reference: 256 panels
    of 32 nodes, at least 16 nodes per period of the fastest sine here."""

    NUS = {"linear5": NuPrimitive("linear", (5.0,)),
           "const3": NuPrimitive("const", (3.0,)),
           "samples17": NuPrimitive("samples", tuple(
               math.sin(2.0 * math.pi * k / 16) for k in range(17))),
           **{f"sine{m}": NuPrimitive("sine", (1.0, m, 0.3))
              for m in (1, 7, 30, 100, 300, 1000)}}

    @staticmethod
    def errors(nu, eps, bump, rule):
        """max |v - v_ref| / max(1, |nu_eps|) and max |d - d_ref| /
        max(1, sup |q|) over full windows and partial ones at both ends,
        v and d the convolutions of G and of q = G'."""
        xs = np.concatenate([np.linspace(0.0, 1.0, 17),
                             [0.3 * eps, 0.9 * eps, 1.0 - 0.5 * eps]])
        ref, got = (np.array([_window_conv(f, xs, eps, bump, rule=r)
                              for f in (nu.density_integral, nu.q_values)])
                    for r in (_composite_rule(256, 32), rule))
        q_sup = np.max(np.abs(nu.q_values(np.linspace(0.0, 1.0, 4097))))
        scale = np.maximum(1.0, [np.max(np.abs(ref[0])), q_sup])
        return np.max(np.abs(got - ref), axis=1) / scale

    @pytest.mark.parametrize("profile", ["bump", "bump2", "bump_skew"])
    @pytest.mark.parametrize("nu", list(NUS))
    def test_rule_against_fine_reference(self, nu, profile):
        # within twice the 8 x 32 rule's error, or 2e-14, where that rule
        # holds 1e-13 (the error of a sine of m >= 300 has a floor near
        # 1e-14 from the rounding of its argument 2 pi m y, whatever the
        # rule); within 1e-13 where it does not, a fast sine, of which
        # sine (1, 300) at eps = 1/4 is off by 6e-3 on 8 x 32 nodes
        nu, bump = self.NUS[nu], get_profile(profile)
        for eps in (0.25, 0.125, 2.0**-5, 2.0**-8):
            old = self.errors(nu, eps, bump, _composite_rule(8, 32))
            new = self.errors(nu, eps, bump, _window_rule(nu, eps))
            bound = np.where(old <= 1e-13, np.maximum(2.0 * old, 2e-14),
                             1e-13)
            assert np.all(new <= bound), (eps, old, new)

    @pytest.mark.parametrize("nu, eps, nodes", [
        ("linear5", 0.25, 96), ("samples17", 2.0**-6, 96),
        ("samples17", 2.0**-5, 256), ("sine30", 0.25, 96),
        ("sine100", 2.0**-5, 96), ("sine100", 0.125, 256),
        ("sine300", 0.25, 19 * 32), ("sine1000", 0.25, 63 * 32)])
    def test_node_count(self, nu, eps, nodes):
        # one 96-node rule while the window spans at most 16 periods of a
        # sine or half a knot interval of samples; else 8 panels of 32
        # nodes, a sine one per 8 periods past 64
        assert _window_rule(self.NUS[nu], eps)[0].size == nodes


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
        # the bump's peak psi(0)/eps at 0.3 lies between two nodes of
        # q_linf's uniform grid, which read 423.962 at most; the atom's
        # centre is a breakpoint, which q_linf probes too
        eps = 2.0**-9
        base = MollifiedNu(NuPrimitive(jumps=((0.3, 1.0),)),
                           MollifierSpec("bump", eps))
        peak = float(get_profile("bump").density(0.0)) / eps
        assert base.q_linf() == peak == pytest.approx(424.227246012982)
        pert = PerturbedNu(base, self.W, 0.1)
        assert pert.q_linf() == abs(float(pert.q_values(0.3)[0]))

    def test_protocol_passes_through_base(self):
        pert = PerturbedNu(STEP, self.W, 0.1)
        assert pert.jumps == STEP.jumps
        assert pert.breakpoints == STEP.breakpoints

    @pytest.mark.parametrize("nu, flags", [
        (NuPrimitive(), (True,)),
        (NuPrimitive("const", (2.0,), jumps=((0.3, 1.0),)), (True, True)),
        (NuPrimitive("linear", (5.0,), jumps=((0.5, -1.0),)), (True, True)),
        (NuPrimitive("sine", (1.0, 1.0)), (False,)),
        (NuPrimitive("samples", tuple(np.linspace(0.0, 1.0, 9))), (False,)),
        # breakpoints eps from the atom, and 2 eps from a wall where the
        # base has a density and eps < 0.2: only the panels off the atom's
        # window, and for a density only those in [eps, 1 - eps], are linear
        (rung(STEP, 0.25), (True, False, False, True)),
        (rung(STEP, 2.0**-3), (True, False, False, True)),
        (rung(STEP, 2.0**-5), (True, False, False, True)),
        (rung(LINEAR5, 0.25), (False,)),
        (rung(LINEAR5, 2.0**-3), (False, True, False)),
        (rung(LINEAR5, 2.0**-5), (False, True, False)),
        # a tilted bump shifts the line only by a constant
        (rung(LINEAR5, 2.0**-3, "bump_skew"), (False, True, False)),
        (rung(NuPrimitive("linear", (5.0,), ((0.5, 1.0),)), 2.0**-3),
         (False, True, False, False, True, False)),
        # nu_eps is 0: neither atoms nor density to mollify
        (rung(NuPrimitive("const", (3.0,)), 0.25), (True,)),
        (PerturbedNu(STEP, NuPrimitive("linear", (2.0,)), 0.5), (True, True)),
        (PerturbedNu(STEP, W, 0.5), (False, False)),
        (PerturbedNu(rung(STEP, 0.25), NuPrimitive("const", (1.0,)), 0.5),
         (True, False, False, True)),
        (PerturbedNu(rung(LINEAR5, 2.0**-3), NuPrimitive("const", (1.0,)),
                     0.5), (False, True, False)),
        (PerturbedNu(rung(LINEAR5, 2.0**-3), W, 0.5), (False, False, False)),
    ], ids=["zero", "const_atom", "linear_atom", "sine", "samples",
            "mollified_delta", "mollified_delta_3", "mollified_delta_5",
            "mollified_linear", "mollified_linear_3", "mollified_linear_5",
            "mollified_linear_skew", "mollified_linear_atom",
            "mollified_const", "perturbed_linear", "perturbed_sine",
            "perturbed_mollified", "perturbed_const_w", "perturbed_sine_w"])
    def test_piecewise_linear_states_linearity(self, nu, flags):
        assert nu.linear_panels == flags
        assert nu.piecewise_linear is all(flags)
        # q = nu' is one constant off the atoms exactly where nu is linear
        # between its breakpoints
        q = nu.q_values(np.linspace(0.0, 1.0, 257))
        assert all(flags) == bool(np.all(q == q[0]))
        # on each flagged panel q is one constant, to rounding; where nu is
        # curved, some unflagged panel is not
        edges = [0.0, *nu.breakpoints, 1.0]
        curved = []
        for a, b, linear in zip(edges, edges[1:], flags):
            q = nu.q_values(np.linspace(a, b, 67)[1:-1])
            if linear:
                assert np.ptp(q) <= 1e-13 * max(1.0, np.max(np.abs(q))), (a, b)
            else:
                curved.append(bool(np.any(q != q[0])))
        assert all(flags) or any(curved)

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


class TestHeights:
    """``heights``: the height of the atom at each point, 0 elsewhere, so
    that nu_values + heights is nu's right limit."""

    THREE = NuPrimitive(jumps=((0.25, 1.0), (0.5, -0.7), (0.8, 2.0)))
    AT = np.array([0.25, 0.5, 0.8, 0.6])

    def test_atom_on_a_node(self):
        nodes = np.linspace(0.0, 1.0, 5)
        assert STEP.heights(nodes).tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert (STEP.nu_values(nodes) + STEP.heights(nodes)).tolist() == [
            0.0, 0.0, 1.0, 1.0, 1.0]

    def test_point_on_no_atom(self):
        got = STEP.heights(0.3)
        assert got.shape == () and float(got) == 0.0

    def test_three_atoms(self):
        assert self.THREE.heights(self.AT).tolist() == [1.0, -0.7, 2.0, 0.0]

    def test_mollified_has_none(self):
        mollified = MollifiedNu(self.THREE, MollifierSpec("bump", 0.25))
        assert mollified.heights(self.AT).tolist() == [0.0] * 4

    def test_perturbed_has_its_bases(self):
        perturbed = PerturbedNu(self.THREE, NuPrimitive("linear", (0.5,)), 0.7)
        assert perturbed.heights(self.AT).tolist() == [1.0, -0.7, 2.0, 0.0]


class TestOdePanels:
    """Each ``ode_panels`` callable against ``nu_values`` inside its panel,
    and at its edges against the one-sided limits of nu."""

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

    def _assert_agree(self, pot, bound=None):
        """Bit for bit, or within bound(nu_values) where one is given."""
        for a, b, nu in pot.ode_panels():
            xs = a + (b - a) * self.FRACTIONS
            xs = xs[(xs > a) & (xs < b)]
            scalar = np.array([nu(x) for x in xs.tolist()])
            vector = pot.nu_values(xs)
            if bound is None:
                assert scalar.tobytes() == vector.tobytes(), (a, b)
            else:
                assert np.all(np.abs(scalar - vector) <= bound(vector)), (a, b)

    def _assert_edges(self, pot):
        """The right limit of nu at a panel's start, where the RK45 pass
        takes its first stage, and the left limit at its end, its last:
        ``nu_values`` takes the left limit, plus the heights of the jumps
        at a.  Bit for bit."""
        heights = dict(pot.jumps)
        for a, b, nu in pot.ode_panels():
            got = np.array([nu(a), nu(b)])
            want = np.array([float(pot.nu_values(a)) + heights.get(a, 0.0),
                             float(pot.nu_values(b))])
            assert got.tobytes() == want.tobytes(), (a, b, got, want)

    @pytest.mark.parametrize("name", list(BASES))
    def test_primitive(self, name):
        base = self.BASES[name]
        self._assert_agree(base)
        self._assert_agree(PerturbedNu(base, self.W, 0.7))

    @pytest.mark.parametrize("name", list(BASES))
    def test_primitive_edges(self, name):
        base = self.BASES[name]
        self._assert_edges(base)
        self._assert_edges(PerturbedNu(base, self.W, 0.7))

    @pytest.mark.parametrize("eps", [0.25, 1.0 / 32])
    @pytest.mark.parametrize("profile", ["bump", "bump2", "bump_skew"])
    @pytest.mark.parametrize("name", list(BASES))
    def test_mollified(self, name, profile, eps):
        base = self.BASES[name]
        mollified = MollifiedNu(base, MollifierSpec(profile, eps))
        # a one-point read sums a window of the density's quadrature in
        # another order than a read of many points; the atoms, in the same
        bound = None if not base.has_density else (
            lambda v: 1e-15 * np.maximum(1.0, np.abs(v)))
        self._assert_agree(mollified, bound)
        self._assert_agree(PerturbedNu(mollified, self.W, 0.7), bound)


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
        # the panels' scalar reads of the spline, plus each panel's jump
        # offset, against nu_values
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

    def test_negligibility_on_rungs_above_roundoff(self):
        lad = (0.25, 0.125, 0.0625, 0.03125)
        # three rungs that do not decay and one at round-off: fitted on the
        # three, slope 0, failed (once passed with no slope)
        rep = check_negligibility(lad, [1e-3, 1e-3, 1e-3, 0.0], 1)
        assert not rep.passed and rep.slope == pytest.approx(0.0, abs=1e-12)
        assert rep.reason is None
        # two rungs above their floors: the line through them
        rep = check_negligibility(lad, [1e-3, 1e-6, 1e-17, 1e-18], 1,
                                  floors=[1e-16] * 4)
        assert rep.passed and rep.slope == pytest.approx(math.log2(1e3))
        # a net that decays to round-off passes with no slope
        assert check_negligibility(lad, [1e-3, 0.0, 0.0, 0.0], 1) == (
            True, None, "the net is at round-off from eps=0.125 on")
        # round-off at a coarse rung but not at a finer one fails
        assert check_negligibility(lad, [0.0, 0.0, 1e-3, 0.0], 1) == (
            False, None, "the net is at round-off at eps=0.25 but not at "
                         "the finer eps=0.0625")

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
