"""Estimate verification: closed-form ratios, homogeneity, uniformity."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import vww.estimates
from vww.errors import ConfigError, MissingNorm
from vww.grid import GridFunction
from vww.spectral import analyze
from vww.wave import WaveProblem, analyze_forcing, forcing_time_grid, \
    solve_forced, solve_homogeneous
from vww.estimates import ALL_ESTIMATE_IDS, norms_used, verify

from conftest import parabola, sine_data
from oracles import constant_sweep, random_sine_data


def _solve(basis, u0, u1, T=1.0, times=None, forcing=None):
    prob = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), T,
                       forcing=forcing)
    times = np.linspace(0.0, T, 41) if times is None else times
    sol = solve_forced(prob, times) if forcing is not None \
        else solve_homogeneous(prob, times)
    return prob, sol


class TestVerify:
    def test_est1_single_mode_ratio_one(self, free_basis_40):
        g = free_basis_40.grid
        prob, sol = _solve(free_basis_40, sine_data(g, [(1.0, 1)]),
                           GridFunction.zeros(g))
        rep = verify("est1", prob, sol)
        assert rep.lhs_max == pytest.approx(0.5, abs=1e-9)
        assert rep.rhs == pytest.approx(0.5, abs=1e-9)
        assert rep.ratio == pytest.approx(1.0, abs=1e-8)

    def test_est5_k0_equals_est1(self, step_basis_40):
        g = step_basis_40.grid
        prob, sol = _solve(step_basis_40, parabola(g),
                           sine_data(g, [(0.5, 2)]))
        r1 = verify("est1", prob, sol)
        r5 = verify("est5", prob, sol, k=0.0)
        assert r5.ratio == pytest.approx(r1.ratio, abs=1e-12)

    def test_esnh1_forced_closed_form(self, free_basis_40):
        # u = (1 - cos(pi t))/pi^2 sin(pi x): lhs_max = 2/pi^4 at t = 1,
        # rhs = 2 T^2 ||f||_C^2 = 1; both recomputed here independently
        g = free_basis_40.grid
        z = GridFunction.zeros(g)
        tg = forcing_time_grid(1.0, 1, g, basis=free_basis_40)
        s1 = sine_data(g, [(1.0, 1)])
        ftab = analyze_forcing(np.ones(tg.size), s1, free_basis_40, tg)
        out_times = np.append(tg[:: max(1, tg.size // 40)], tg[-1])
        prob, sol = _solve(free_basis_40, z, z, forcing=ftab,
                           times=out_times)
        rep = verify("esnh1", prob, sol)
        lhs_expect = (1.0 - math.cos(math.pi)) ** 2 / (2.0 * math.pi**4)
        rhs_expect = 2.0 * 1.0 * float(s1.norm_l2() ** 2)
        assert rep.lhs_max == pytest.approx(lhs_expect, rel=1e-6)
        assert rep.rhs == pytest.approx(rhs_expect, rel=1e-9)
        assert rep.ratio == pytest.approx(2.0 / math.pi**4, rel=1e-6)

    def test_all_core_ids_finite_on_bounded_problem(self, const5_basis_40):
        g = const5_basis_40.grid
        tg = forcing_time_grid(1.0, 1, g, basis=const5_basis_40)
        ftab = analyze_forcing(np.cos(tg), sine_data(g, [(0.5, 2)]),
                               const5_basis_40, tg)
        prob, sol = _solve(const5_basis_40, parabola(g),
                           sine_data(g, [(0.3, 1)]), forcing=ftab,
                           times=tg[:: max(1, tg.size // 40)])
        for eid in ALL_ESTIMATE_IDS:
            rep = verify(eid, prob, sol, k=1.0)
            assert np.isfinite(rep.ratio) and rep.ratio > 0.0

    def test_quadratic_homogeneity(self, const5_basis_40):
        g = const5_basis_40.grid
        u0, u1 = parabola(g), sine_data(g, [(0.4, 2)])
        tg = forcing_time_grid(1.0, 1, g, basis=const5_basis_40)
        w = sine_data(g, [(1.0, 3)])
        for c in (3.0, 0.125):
            reports = {}
            for scale in (1.0, c):
                ftab = analyze_forcing(scale * np.sin(tg), w,
                                       const5_basis_40, tg)
                prob, sol = _solve(const5_basis_40, scale * u0, scale * u1,
                                   forcing=ftab,
                                   times=tg[:: max(1, tg.size // 20)])
                reports[scale] = {
                    eid: verify(eid, prob, sol, k=1.0).ratio
                    for eid in ALL_ESTIMATE_IDS}
            for eid in ALL_ESTIMATE_IDS:
                assert reports[c][eid] == pytest.approx(
                    reports[1.0][eid], rel=1e-12)

    def test_forced_ids_equal_base_without_forcing(self, const5_basis_40):
        # the Duhamel terms are 0.0 on an unforced problem, so each forced
        # id is its homogeneous base to the last bit
        g = const5_basis_40.grid
        prob, sol = _solve(const5_basis_40, parabola(g),
                           sine_data(g, [(0.3, 1)]))
        for i in range(1, 5):
            for forced, base in ((f"esnh{i}", f"est{i}"),
                                 (f"ecnh{i}", f"ec{i}")):
                rf, rb = verify(forced, prob, sol), verify(base, prob, sol)
                assert (rf.rhs, rf.ratio) == (rb.rhs, rb.ratio), forced

    def test_est1_lhs_at_zero_is_u0_norm(self, step_basis_40):
        g = step_basis_40.grid
        u0 = parabola(g)
        prob, sol = _solve(step_basis_40, u0, GridFunction.zeros(g))
        series0 = sol.l2_series()[0] ** 2
        c0 = analyze(u0, step_basis_40)
        assert series0 == pytest.approx(float(np.sum(c0.coeffs**2)),
                                        rel=1e-12)

    def test_missing_norm_for_atomic_potential(self, step_basis_40):
        # exactly the ids whose catalog entry reads ||q||_inf fail on an
        # atom, each on its own norms and with norms shared by the ids
        g = step_basis_40.grid
        prob, sol = _solve(step_basis_40, parabola(g), GridFunction.zeros(g))
        uses = [i for i in ALL_ESTIMATE_IDS if "q_linf" in norms_used(i)]
        assert uses == ["est4", "ec2", "ec3", "ec4", "esnh4", "ecnh2",
                        "ecnh3", "ecnh4"]
        shared = {}
        for eid in ALL_ESTIMATE_IDS:
            for norms in (None, shared):
                if eid in uses:
                    with pytest.raises(MissingNorm):
                        verify(eid, prob, sol, norms=norms)
                else:
                    assert math.isfinite(verify(eid, prob, sol,
                                                norms=norms).ratio)

    def test_c1_forcing_norm_stable_under_time_refinement(self,
                                                          free_basis_small):
        # forward-difference time derivative: refining the forcing grid
        # must not inflate the esnh4 right side by more than 5%
        g = free_basis_small.grid
        z = GridFunction.zeros(g)
        w = sine_data(g, [(1.0, 2)])
        rhs = {}
        for nt in (401, 801):
            tg = np.linspace(0.0, 1.0, nt)
            ftab = analyze_forcing(np.cos(3.0 * tg), w, free_basis_small, tg)
            prob, sol = _solve(free_basis_small, z, z, forcing=ftab,
                               times=tg[:: (nt - 1) // 8])
            rhs[nt] = verify("esnh4", prob, sol).rhs
        assert rhs[801] <= 1.05 * rhs[401]

    def test_each_left_side_series_formed_once(self, const5_basis_40,
                                               monkeypatch):
        # 17 ids read the u_x family 4 times and u_xx 4 times: a shared
        # lhs dict forms each once, with the same reports as without it
        grid = const5_basis_40.grid
        problem, sol = _solve(const5_basis_40, parabola(grid),
                              sine_data(grid, [(1.0, 2)]))
        plain = [verify(i, problem, sol).to_dict() for i in ALL_ESTIMATE_IDS]
        calls = []
        original = vww.estimates.x_derivative

        def counted(sol, nu_like, order):
            calls.append(order)
            return original(sol, nu_like, order)

        monkeypatch.setattr(vww.estimates, "x_derivative", counted)
        lhs = {}
        shared = [verify(i, problem, sol, lhs=lhs).to_dict()
                  for i in ALL_ESTIMATE_IDS]
        assert sorted(calls) == [1, 2]
        assert shared == plain

    def test_shared_norms_give_the_same_reports(self, const5_basis_40):
        # a norms dict shared by the 17 ids forms each squared norm once;
        # to_dict writes the fields as dataclasses.asdict does, inputs
        # included, but shares inputs rather than copying them
        grid = const5_basis_40.grid
        problem, sol = _solve(const5_basis_40, parabola(grid),
                              sine_data(grid, [(1.0, 2)]))
        inputs = {"config": {"nested": [1.0, {"k": 2}]}}
        plain = [verify(i, problem, sol, k=1.0, inputs=inputs)
                 for i in ALL_ESTIMATE_IDS]
        norms = {}
        shared = [verify(i, problem, sol, k=1.0, inputs=inputs, norms=norms)
                  for i in ALL_ESTIMATE_IDS]
        assert [r.to_dict() for r in shared] == [asdict(r) for r in plain]
        assert shared[0].to_dict()["inputs"] is inputs
        assert list(norms) == [1.0]
        assert set(norms[1.0]) == set().union(*map(norms_used,
                                                   ALL_ESTIMATE_IDS))

    def test_unknown_id_rejected(self, free_basis_small):
        g = free_basis_small.grid
        prob, sol = _solve(free_basis_small, parabola(g),
                           GridFunction.zeros(g))
        with pytest.raises(ConfigError):
            verify("est99", prob, sol)


class TestConstantSweep:
    def test_random_battery_cauchy_schwarz_slack(self, free_basis_40):
        # per-mode |A cos + (B/w) sin| <= sqrt(A^2 + (B/w)^2) pointwise,
        # so est1 ratios stay below the splitting constant 2
        g = free_basis_40.grid
        rng = np.random.default_rng(42)
        battery = []
        for i in range(20):
            u0 = random_sine_data(g, rng)
            u1 = random_sine_data(g, rng)
            prob, sol = _solve(free_basis_40, u0, u1)
            battery.append((prob, sol, {"index": i}))
        sweep = constant_sweep("est1", battery)
        assert sweep.max_ratio <= 2.0

    def test_scaling_leaves_ratio_unchanged(self, free_basis_40):
        g = free_basis_40.grid
        u0, u1 = parabola(g), sine_data(g, [(1.0, 2)])
        prob_a, sol_a = _solve(free_basis_40, u0, u1)
        prob_b, sol_b = _solve(free_basis_40, 2.0 * u0, 2.0 * u1)
        for eid in ("est1", "est2", "est5"):
            ra = verify(eid, prob_a, sol_a, k=1.0).ratio
            rb = verify(eid, prob_b, sol_b, k=1.0).ratio
            assert rb == pytest.approx(ra, rel=1e-12)

    def test_empty_battery_rejected(self):
        with pytest.raises(ConfigError):
            constant_sweep("est1", [])


class TestUniformity:
    @pytest.mark.parametrize("eid", ["est1", "est2", "est5"])
    def test_q_free_ratios_flat_in_epsilon(self, delta_sweep_battery, eid):
        sweep = constant_sweep(eid, delta_sweep_battery, k=1.0)
        assert abs(sweep.uniformity_slope("epsilon")) <= 0.1
        assert np.isfinite(sweep.max_ratio)

    def test_ratios_by_groups(self, delta_sweep_battery):
        sweep = constant_sweep("est1", delta_sweep_battery)
        by_alpha = sweep.ratios_by("alpha")
        assert set(by_alpha) == {1.0, 2.0, 4.0}
