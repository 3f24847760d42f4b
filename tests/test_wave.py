"""Wave evolution: closed forms, conservation laws and the FD oracle."""

import json
import math

import numpy as np
import pytest

from vww.errors import ConfigError, GridMismatch, TimeGridTooCoarse
from vww.grid import Grid, GridFunction
from vww.potential import MollifiedNu, MollifierSpec, NuPrimitive
from vww.prufer import build_basis
from vww.spectral import analyze
from vww.wave import (MAX_TABLE_ENTRIES, ForcingTable, WaveProblem,
                      _cumulative_simpson, analyze_forcing, forcing_time_grid,
                      solve_forced, solve_homogeneous, x_derivative)

from conftest import parabola, sine_data
from oracles import (dt_at, fd_oracle, pulse, pulse_through_delta, restrict,
                     u_at)


def _prob(basis, u0, u1, T=1.0, forcing=None):
    return WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), T,
                       forcing=forcing)


class TestHomogeneous:
    def test_single_mode_standing_wave(self, free_basis_40):
        g = free_basis_40.grid
        s1 = sine_data(g, [(1.0, 1)])
        sol = solve_homogeneous(_prob(free_basis_40, s1,
                                      GridFunction.zeros(g)),
                                np.linspace(0.0, 1.0, 21))
        assert (u_at(sol, 1.0) + s1).norm_l2() <= 1e-8
        assert (u_at(sol, 0.0) - s1).norm_l2() <= 1e-10

    def test_velocity_mode(self, free_basis_40):
        g = free_basis_40.grid
        s2 = sine_data(g, [(1.0, 2)])
        sol = solve_homogeneous(_prob(free_basis_40, GridFunction.zeros(g),
                                      s2), [0.4])
        want = math.sin(2.0 * math.pi * 0.4) / (2.0 * math.pi)
        assert (u_at(sol, 0.4) - want * s2).norm_l2() <= 1e-9

    def test_boundary_always_zero(self, step_basis_40):
        g = step_basis_40.grid
        sol = solve_homogeneous(_prob(step_basis_40, parabola(g),
                                      sine_data(g, [(0.3, 2)])),
                                np.linspace(0.0, 2.0, 33))
        assert float(np.abs(sol.values[:, [0, -1]]).max()) == 0.0

    def test_energy_conserved_per_mode_and_total(self, step_basis_40):
        g = step_basis_40.grid
        sol = solve_homogeneous(_prob(step_basis_40, parabola(g),
                                      sine_data(g, [(0.5, 1)]), T=4.0),
                                np.linspace(0.0, 4.0, 200))
        lam = step_basis_40.lambdas
        per_mode = lam[:, None] * sol.modal**2 + sol.modal_dt**2
        rel = np.ptp(per_mode, axis=1) / np.maximum(per_mode[:, 0], 1e-300)
        assert np.max(rel) <= 1e-10
        total = sol.energy_series()
        assert np.ptp(total) / total[0] <= 1e-9

    def test_time_reversal(self, step_basis_40):
        # exact in modal space; the residual is the data's own projection
        # tail, i.e. the synthesis tolerance
        from vww.spectral import synthesize
        g = step_basis_40.grid
        u0 = parabola(g)
        u1 = sine_data(g, [(0.4, 3)])
        r0 = (synthesize(analyze(u0, step_basis_40)) - u0).norm_l2()
        r1 = (synthesize(analyze(u1, step_basis_40)) - u1).norm_l2()
        T = 0.7
        fwd = solve_homogeneous(_prob(step_basis_40, u0, u1, T=T), [T])
        back = solve_homogeneous(
            _prob(step_basis_40, u_at(fwd, T), -1.0 * dt_at(fwd, T), T=T), [T])
        assert (u_at(back, T) - u0).norm_l2() <= 2.0 * r0 + 1e-9
        assert (dt_at(back, T) + u1).norm_l2() <= 2.0 * r1 + 1e-9

    def test_delta_potential_against_fd_on_mollified(self, step_basis_40):
        # independent check: spectral solve with the exact atom vs leapfrog
        # on a finely resolved mollification
        g = step_basis_40.grid
        u0 = parabola(g)
        sol = solve_homogeneous(_prob(step_basis_40, u0,
                                      GridFunction.zeros(g)), [1.0])
        fdg = Grid(4096)
        eps = 1e-3
        q = MollifiedNu(NuPrimitive(jumps=((0.5, 1.0),)),
                        MollifierSpec("bump", eps))
        qgf = GridFunction(fdg, q.q_values(fdg.nodes))
        fd = fd_oracle(qgf, parabola(fdg), GridFunction.zeros(fdg), None,
                       1.0, dt=1.0 / 8192.0, times=[1.0])
        diff = restrict(fd.u_at(1.0), g) - u_at(sol, 1.0)
        assert diff.norm_l2() <= 2e-3


class TestPulseThroughDelta:
    """A Gaussian pulse from the left meets q = alpha delta(x - 1/2): the
    spectral evolution against the transmitted and reflected waves in
    closed form (oracles.pulse_through_delta)."""

    GRID = Grid(2048)

    @staticmethod
    def data(grid):
        f, df = pulse(-grid.nodes)  # u = F(t - x): u0 = F(-x), u1 = F'(-x)
        return GridFunction(grid, f), GridFunction(grid, df)

    @pytest.mark.parametrize("alpha", [1.0, 5.0, 50.0])
    def test_matches_closed_form(self, alpha):
        # max errors 1.1e-11 / 5.6e-11 / 4.3e-10 at t = 0.25, the peak on
        # the atom, and 5.6e-12 / 2.8e-11 / 2.1e-10 at t = 0.45, where the
        # reflected peak is -0.026 / -0.117 / -0.613; without the atom
        # 2.6e-2 (alpha 1)
        g = self.GRID
        basis = build_basis(NuPrimitive(jumps=((0.5, alpha),)), 200, g)
        times = [0.25, 0.45]
        sol = solve_homogeneous(_prob(basis, *self.data(g), T=0.45), times)
        for t in times:
            want = pulse_through_delta(alpha, t, g.nodes)
            assert np.max(np.abs(u_at(sol, t).values - want)) <= 1e-9

    def test_solve_writes_closed_form(self, tmp_path):
        # through `vww solve` with samples data: the CSV's digits too
        from vww.cli import main

        g, alpha = self.GRID, 5.0
        u0, u1 = self.data(g)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "nu": {"smooth": {"kind": "zero"}, "jumps": [[0.5, alpha]]},
            "grid_n": g.n, "n_max": 200, "T": 0.45, "n_times": 2,
            "u0": {"kind": "samples", "params": u0.values.tolist()},
            "u1": {"kind": "samples", "params": u1.values.tolist()}}))
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0
        rows = np.loadtxt(tmp_path / "o" / "solution.csv", delimiter=",",
                          skiprows=1)
        last = rows[rows[:, 0] == 0.45]
        assert np.array_equal(last[:, 1], g.nodes)
        want = pulse_through_delta(alpha, 0.45, g.nodes)
        assert np.max(np.abs(last[:, 2] - want)) <= 1e-9


class TestSynthesisOrder:
    def test_mode_summation_order_independent(self, step_basis_40):
        g = step_basis_40.grid
        sol = solve_homogeneous(_prob(step_basis_40, parabola(g),
                                      sine_data(g, [(0.5, 1)])), [0.37])
        rng = np.random.default_rng(5)
        perm = rng.permutation(40)
        reordered = sol.modal[perm, 0] @ step_basis_40.phi_matrix[perm]
        assert np.max(np.abs(reordered - sol.values[0])) <= 1e-12


class TestForced:
    def test_constant_forcing_closed_form(self, free_basis_40):
        g = free_basis_40.grid
        z = GridFunction.zeros(g)
        tg = forcing_time_grid(1.0, 1, g, basis=free_basis_40)
        s1 = sine_data(g, [(1.0, 1)])
        prob = _prob(free_basis_40, z, z, T=1.0, forcing=analyze_forcing(
            np.ones(tg.size), s1, free_basis_40, tg))
        out = tg[:: max(1, tg.size // 20)]
        sol = solve_forced(prob, out)
        worst = max(
            (u_at(sol, t) - ((1.0 - math.cos(math.pi * t)) / math.pi**2) * s1
             ).norm_l2() for t in out)
        assert worst <= 1e-6

    def test_zero_forcing_matches_homogeneous(self, free_basis_40):
        g = free_basis_40.grid
        u0 = parabola(g)
        u1 = sine_data(g, [(0.5, 2)])
        tg = np.linspace(0.0, 1.0, 257)
        ftab = analyze_forcing(np.zeros(257), GridFunction.zeros(g),
                               free_basis_40, tg)
        hom = solve_homogeneous(_prob(free_basis_40, u0, u1), tg[::16])
        forced = solve_forced(_prob(free_basis_40, u0, u1, forcing=ftab),
                              tg[::16])
        assert np.max(np.abs(hom.modal - forced.modal)) <= 1e-12

    def test_resonant_forcing_closed_form(self, free_basis_small):
        g = free_basis_small.grid
        z = GridFunction.zeros(g)
        T = 2.0
        tg = np.linspace(0.0, T, 1601)
        s1 = sine_data(g, [(1.0, 1)])
        prob = _prob(free_basis_small, z, z, T=T, forcing=analyze_forcing(
            np.cos(math.pi * tg), s1, free_basis_small, tg))
        out = tg[::80]
        sol = solve_forced(prob, out)
        worst = max(
            (u_at(sol, t) - (t * math.sin(math.pi * t) / (2.0 * math.pi)) * s1
             ).norm_l2() for t in out)
        assert worst <= 1e-5

    def test_duhamel_consistency(self, free_basis_small):
        # centered second differences of the modal amplitudes satisfy the
        # forced oscillator equation to O(dt^2)
        g = free_basis_small.grid
        z = GridFunction.zeros(g)
        T = 1.0
        tg = np.linspace(0.0, T, 801)
        s1 = sine_data(g, [(1.0, 1)])
        ftab = analyze_forcing(np.cos(2.0 * tg), s1, free_basis_small, tg)
        sol = solve_forced(_prob(free_basis_small, z, z, T=T, forcing=ftab),
                           tg)
        dt = tg[1] - tg[0]
        u = sol.modal
        acc = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dt**2
        resid = acc + free_basis_small.lambdas[:, None] * u[:, 1:-1] \
            - ftab.table[:, 1:-1]
        assert np.max(np.abs(resid)) <= 50.0 * dt**2

    def test_forcing_required(self, free_basis_small):
        g = free_basis_small.grid
        with pytest.raises(ConfigError):
            solve_forced(_prob(free_basis_small, parabola(g),
                               GridFunction.zeros(g)), [0.5])

    def test_time_grid_too_coarse(self, free_basis_40):
        g = free_basis_40.grid
        tg = np.linspace(0.0, 1.0, 11)
        ftab = analyze_forcing(np.zeros(11), GridFunction.zeros(g),
                               free_basis_40, tg)
        z = GridFunction.zeros(g)
        with pytest.raises(TimeGridTooCoarse):
            solve_forced(_prob(free_basis_40, z, z, forcing=ftab), [0.5])

    def test_three_node_table_closed_form(self, free_basis_small):
        # constant modal forcing f: u_n = f_n (1 - cos w t)/w^2; the
        # Simpson rule errs by O(dt^4 w^3 |f|) on each Duhamel integral
        g = free_basis_small.grid
        z = GridFunction.zeros(g)
        f = np.random.default_rng(5).standard_normal(len(free_basis_small))
        tg = np.array([0.0, 0.01, 0.02])
        ftab = ForcingTable(tg, np.tile(f[:, None], (1, 3)))
        sol = solve_forced(_prob(free_basis_small, z, z, T=0.02,
                                 forcing=ftab), tg)
        w = np.sqrt(free_basis_small.lambdas)[:, None]
        want = f[:, None] * (1.0 - np.cos(w * tg)) / w**2
        want_dt = f[:, None] * np.sin(w * tg) / w
        bound = 0.01**4 * w**2 * np.abs(f[:, None]) / 12.0
        assert np.all(np.abs(sol.modal - want) <= bound)
        assert np.all(np.abs(sol.modal_dt - want_dt) <= w * bound)

    def test_two_node_table_rejected(self):
        with pytest.raises(ConfigError):
            ForcingTable(np.array([0.0, 0.01]), np.zeros((3, 2)))


class TestCumulativeSimpson:
    """The numpy rule against scipy.integrate.cumulative_simpson."""

    @pytest.mark.parametrize("shape", [(40, 201), (40, 200), (3, 3), (12, 4)])
    def test_bit_identical_to_scipy(self, shape):
        from scipy.integrate import cumulative_simpson
        y = np.random.default_rng(shape[1]).standard_normal(shape)
        want = cumulative_simpson(y, dx=0.01, axis=1, initial=0.0)
        assert np.array_equal(_cumulative_simpson(y, 0.01), want)


class TestAnalyzeForcing:
    def test_separable_single_mode(self, free_basis_small):
        g = free_basis_small.grid
        tg = np.linspace(0.0, 1.0, 65)
        gt = 1.0 + 0.5 * tg**2
        phi3 = free_basis_small.phi_matrix[2]
        ftab = analyze_forcing(gt, GridFunction(g, phi3), free_basis_small,
                               tg)
        assert np.max(np.abs(ftab.table[2] - gt)) <= 1e-9
        others = np.delete(np.arange(10), 2)
        assert np.max(np.abs(ftab.table[others])) <= 1e-9

    def test_zero(self, free_basis_small):
        g = free_basis_small.grid
        tg = np.linspace(0.0, 1.0, 65)
        ftab = analyze_forcing(np.zeros(65), GridFunction.zeros(g),
                               free_basis_small, tg)
        assert np.all(ftab.table == 0.0)

    def test_separable_linearity(self, free_basis_small):
        g = free_basis_small.grid
        tg = np.linspace(0.0, 1.0, 33)
        xv = GridFunction(g, g.nodes.copy())
        ftab = analyze_forcing(tg, xv, free_basis_small, tg)
        cx = analyze(xv, free_basis_small).coeffs
        assert np.max(np.abs(ftab.table - np.outer(cx, tg))) <= 1e-10

    def test_shape_mismatch(self, free_basis_small):
        # w off the basis grid; g off the times fails as the table's shape
        tg = np.linspace(0.0, 1.0, 5)
        with pytest.raises(GridMismatch):
            analyze_forcing(np.zeros(5), GridFunction.zeros(Grid(6)),
                            free_basis_small, tg)
        with pytest.raises(ConfigError, match="shape does not match"):
            analyze_forcing(np.zeros(7), GridFunction.zeros(Grid(512)),
                            free_basis_small, tg)

    @staticmethod
    def _seed0_forced(basis):
        # the sizes of the benchmark's seed-0 `forced` op: a delta, grid
        # 2048, N = 40, 200 output steps and so 601 forcing times
        g = basis.grid
        tg = forcing_time_grid(1.0, 200, g, basis=basis)
        assert tg.size == 601
        return np.cos(3.0 * tg), sine_data(g, [(1.3, 1), (0.65, 3)]), tg

    def test_matches_projection_of_the_product_table(self, step_basis_40):
        gt, w, tg = self._seed0_forced(step_basis_40)
        weights = step_basis_40.grid.simpson_weights
        table = np.outer(gt, w.values)  # f(t_j, x_i), (times, nodes)
        want = np.array([step_basis_40.phi_matrix @ (weights * f)
                         for f in table]).T
        got = analyze_forcing(gt, w, step_basis_40, tg).table
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_forms_no_times_by_nodes_table(self, step_basis_40):
        import tracemalloc
        gt, w, tg = self._seed0_forced(step_basis_40)
        one_table = tg.size * w.values.size * 8
        assert one_table > 9 * 2**20
        tracemalloc.start()
        try:
            analyze_forcing(gt, w, step_basis_40, tg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestForcingTimeGrid:
    @staticmethod
    def _factor(tg, T, out_steps):
        """The forcing steps per output step, every output time a node."""
        factor, rest = divmod(tg.size - 1, out_steps)
        out = np.linspace(0.0, T, out_steps + 1)
        assert rest == 0 and np.max(np.abs(tg[::factor] - out)) <= 1e-12 * T
        return factor

    @pytest.mark.parametrize("T, out_steps", [(1.0, 200), (0.37, 7),
                                              (10.0, 1000), (1.0, 1)])
    def test_default_step(self, free_basis_40, T, out_steps):
        tg = forcing_time_grid(T, out_steps, free_basis_40.grid,
                               basis=free_basis_40)
        self._factor(tg, T, out_steps)
        w_max = math.sqrt(np.max(free_basis_40.lambdas))
        assert tg[1] - tg[0] <= min(T / 200.0, 0.25 / w_max) * (1 + 1e-15)

    def test_default_factor_is_an_integer_ceiling(self, free_basis_40):
        # sqrt(lambda_40) ~ 40 pi asks for nt = 503 steps on [0, 1], all of
        # them in one output step: 504 times, where the float ratio
        # (T / 1) / (T / 503) = 503.00000000000006 rounded up to 505
        tg = forcing_time_grid(1.0, 1, free_basis_40.grid,
                               basis=free_basis_40)
        assert tg.size == 504

    @pytest.mark.parametrize("time_steps, out_steps, factor",
                             [(8, 200, 1), (600, 200, 3), (601, 200, 4),
                              (1000, 7, 143)])
    def test_given_time_steps_set_the_factor(self, time_steps, out_steps,
                                             factor):
        tg = forcing_time_grid(2.0, out_steps, Grid(16), time_steps)
        assert self._factor(tg, 2.0, out_steps) == factor

    def test_oversize_time_steps_refused_without_a_basis(self):
        grid = Grid(16)
        with pytest.raises(ConfigError, match=f"{MAX_TABLE_ENTRIES}$"):
            forcing_time_grid(1.0, 200, grid, 10**9)
        assert forcing_time_grid(1.0, 200, grid) is None


class TestSpatialDerivatives:
    def test_free_first_derivative_at_origin(self, free_basis_40):
        g = free_basis_40.grid
        sol = solve_homogeneous(_prob(free_basis_40, sine_data(g, [(1.0, 1)]),
                                      GridFunction.zeros(g)), [0.0])
        ux = x_derivative(sol, NuPrimitive(), 1)[0]
        assert ux[0] == pytest.approx(math.pi, abs=1e-8)

    def test_free_second_derivative(self, free_basis_40):
        g = free_basis_40.grid
        s1 = sine_data(g, [(1.0, 1)])
        sol = solve_homogeneous(_prob(free_basis_40, s1,
                                      GridFunction.zeros(g)), [0.0])
        uxx = GridFunction(g, x_derivative(sol, NuPrimitive(), 2)[0])
        assert (uxx - (-math.pi**2) * s1).norm_l2() <= 1e-6

    def test_quasi_derivative_jump(self, step_basis_40):
        # one-sided slope extrapolation of the field itself (independent
        # of the stored phi' samples) reproduces the atom jump alpha*u
        g = step_basis_40.grid
        sol = solve_homogeneous(_prob(step_basis_40, parabola(g),
                                      GridFunction.zeros(g)), [0.3])
        v = sol.values[0]
        i = g.n // 2
        h = g.h
        left = (3.0 * v[i] - 4.0 * v[i - 1] + v[i - 2]) / (2.0 * h)
        right = (-3.0 * v[i] + 4.0 * v[i + 1] - v[i + 2]) / (2.0 * h)
        assert right - left == pytest.approx(1.0 * v[i], abs=2e-3)

    def test_atom_on_node_rejected(self, step_basis_40):
        from vww.errors import AtomEvaluation
        g = step_basis_40.grid
        sol = solve_homogeneous(_prob(step_basis_40, parabola(g),
                                      GridFunction.zeros(g)), [0.0])
        with pytest.raises(AtomEvaluation):
            x_derivative(sol, STEP_FIXTURE, 2)


STEP_FIXTURE = NuPrimitive(jumps=((0.5, 1.0),))


class TestFDOracle:
    def test_free_single_mode_accuracy(self):
        g = Grid(400)
        u0 = sine_data(g, [(1.0, 1)])
        fd = fd_oracle(GridFunction.zeros(g), u0, GridFunction.zeros(g),
                       None, 1.0, dt=1.0 / 800.0, times=[1.0])
        assert (fd.u_at(1.0) + u0).norm_l2() <= 5e-5

    def test_zero_everything(self):
        g = Grid(128)
        z = GridFunction.zeros(g)
        fd = fd_oracle(z, z, z, None, 1.0, dt=1.0 / 256.0, times=[0.5, 1.0])
        assert np.all(fd.values == 0.0)

    def test_constant_potential_matches_spectral(self, const5_basis_40):
        g = const5_basis_40.grid
        u0 = sine_data(g, [(1.0, 1), (0.3, 2)])
        u1 = sine_data(g, [(0.5, 3)])
        sol = solve_homogeneous(_prob(const5_basis_40, u0, u1), [1.0])
        fdg = Grid(400)
        q5 = GridFunction(fdg, np.full(fdg.n + 1, 5.0))
        fd = fd_oracle(q5, restrict(u0, fdg), restrict(u1, fdg), None, 1.0,
                       dt=1.0 / 800.0, times=[1.0])
        assert (restrict(u_at(sol, 1.0), fdg) - fd.u_at(1.0)).norm_l2() <= 1e-4

    def test_oracle_error_shrinks_under_refinement(self, const5_basis_40):
        g = const5_basis_40.grid
        u0 = sine_data(g, [(1.0, 1), (0.3, 2)])
        u1 = sine_data(g, [(0.5, 3)])
        sol = solve_homogeneous(_prob(const5_basis_40, u0, u1), [1.0])
        errs = []
        for n in (400, 800):
            fdg = Grid(n)
            q5 = GridFunction(fdg, np.full(fdg.n + 1, 5.0))
            fd = fd_oracle(q5, restrict(u0, fdg), restrict(u1, fdg), None,
                           1.0, dt=1.0 / (2 * n), times=[1.0])
            errs.append((restrict(u_at(sol, 1.0), fdg)
                         - fd.u_at(1.0)).norm_l2())
        assert errs[0] / errs[1] >= 3.0

    def test_cfl_guard(self):
        g = Grid(128)
        z = GridFunction.zeros(g)
        with pytest.raises(ValueError, match=r"dt=0\.0156 exceeds h=0\.00781"):
            fd_oracle(z, z, z, None, 1.0, dt=1.0 / 64.0, times=[1.0])
