"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vww.grid import Grid, GridFunction
from vww.potential import NuPrimitive
from vww.spectral import analyze
from vww.wave import (WaveProblem, analyze_forcing, forcing_time_grid,
                      solve_forced, solve_homogeneous)
from vww.estimates import CORE_ESTIMATE_IDS
from vww.veryweak import (DataNet, VeryWeakExperiment, default_ladder,
                          run_consistency, run_existence, run_uniqueness)

from conftest import parabola, sine_data
from oracles import (asymptotic_residuals, constant_sweep, fd_oracle,
                     random_sine_data, restrict, u_at)


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_free_spectrum(free_basis_40):
    lams = free_basis_40.lambdas
    ns = np.arange(1, 41)
    dev = float(np.max(np.abs(lams / (math.pi * ns) ** 2 - 1.0)))
    report(1, "free-operator spectrum", dev <= 1e-8,
           f"max |lambda_n/(pi n)^2 - 1| = {dev:.3e} (tol 1e-8)")


def test_criterion_02_constant_potential(const5_basis_40):
    lams = const5_basis_40.lambdas[:20]
    ns = np.arange(1, 21)
    dev = float(np.max(np.abs(lams - ((math.pi * ns) ** 2 + 5.0))))
    report(2, "constant potential shift", dev <= 1e-7,
           f"max |lambda_n - ((pi n)^2 + 5)| = {dev:.3e} (tol 1e-7)")


def test_criterion_03_delta_potential(step_basis_40):
    f = lambda k: math.tan(k / 2.0) + 2.0 * k
    k_root = brentq(f, math.pi + 1e-9, 2.0 * math.pi - 1e-9, xtol=1e-12)
    dev1 = abs(step_basis_40.lambdas[0] - k_root**2)
    dev2 = abs(step_basis_40.lambdas[1] - 4.0 * math.pi**2)
    ok = dev1 <= 1e-7 and dev2 <= 1e-8
    report(3, "delta potential eigenvalues", ok,
           f"|lambda_1 - k^2| = {dev1:.3e} (tol 1e-7), "
           f"|lambda_2 - 4 pi^2| = {dev2:.3e} (tol 1e-8)")


def test_criterion_04_eigenvalue_asymptotics(step_basis_40):
    rep = asymptotic_residuals(step_basis_40)
    consts = rep.asymptote_constants
    head = float(np.max(consts[:10]))
    full = float(np.max(consts))
    # even modes are exactly inert for the centered atom, so boundedness is
    # read as: the max over all modes never outgrows the max over n <= 10
    ok = full <= 2.0 * head
    report(4, "eigenvalue asymptotics bounded", ok,
           f"max_n n|lambda_n/(pi n)^2 - 1| = {full:.4f} vs "
           f"2 x max_(n<=10) = {2.0 * head:.4f}")


def test_criterion_05_residual_partial_sums(step_basis_40):
    sums = asymptotic_residuals(step_basis_40).partial_sums
    growth = (sums[39] - sums[19]) / sums[19]
    ok = growth < 0.10
    report(5, "eigenfunction residual plateau", ok,
           f"sum_(n<=40)/sum_(n<=20) - 1 = {growth:.4f} (tol < 0.10); "
           f"sums at N=10,20,40: {sums[9]:.5f}, {sums[19]:.5f}, "
           f"{sums[39]:.5f}")


def test_criterion_06_orthonormality(catalog_bases_40):
    worst = {name: basis.gram_max_offdiag
             for name, basis in catalog_bases_40.items()}
    bad = {k: v for k, v in worst.items() if v > 1e-7}
    report(6, "orthonormality across catalog", not bad,
           "max off-diagonal Gram entries: "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_07_energy_conservation(catalog_bases_40):
    drifts = {}
    for name, basis in catalog_bases_40.items():
        g = basis.grid
        prob = WaveProblem(basis, analyze(parabola(g), basis),
                           analyze(sine_data(g, [(0.5, 2)]), basis), T=4.0)
        sol = solve_homogeneous(prob, np.linspace(0.0, 4.0, 200))
        en = sol.energy_series()
        drifts[name] = float(np.ptp(en) / en[0])
    ok = all(v <= 1e-9 for v in drifts.values())
    report(7, "energy conservation (T=4, 200 samples)", ok,
           "relative drift: "
           + ", ".join(f"{k}={v:.2e}" for k, v in drifts.items()))


def test_criterion_08_spectral_fd_equivalence(const5_basis_40):
    g = const5_basis_40.grid
    u0 = sine_data(g, [(1.0, 1), (0.3, 2)])
    u1 = sine_data(g, [(0.5, 3)])
    prob = WaveProblem(const5_basis_40, analyze(u0, const5_basis_40),
                       analyze(u1, const5_basis_40), T=1.0)
    sol = solve_homogeneous(prob, [1.0])
    errs = {}
    for n in (400, 800):
        fdg = Grid(n)
        q5 = GridFunction(fdg, np.full(fdg.n + 1, 5.0))
        fd = fd_oracle(q5, restrict(u0, fdg), restrict(u1, fdg), None, 1.0,
                       dt=1.0 / (2 * n), times=[1.0])
        errs[n] = (restrict(u_at(sol, 1.0), fdg) - fd.u_at(1.0)).norm_l2()
    ratio = errs[400] / errs[800]
    ok = errs[400] <= 1e-4 and ratio >= 3.0
    report(8, "spectral vs finite differences (q=5)", ok,
           f"error at h=1/400: {errs[400]:.3e} (tol 1e-4), "
           f"refinement gain: {ratio:.2f}x (need >= 3)")


def test_criterion_09_forced_closed_form(free_basis_40):
    g = free_basis_40.grid
    z = GridFunction.zeros(g)
    tg = forcing_time_grid(1.0, 1, g, basis=free_basis_40)
    s1 = sine_data(g, [(1.0, 1)])
    ftab = analyze_forcing(np.ones(tg.size), s1, free_basis_40, tg)
    prob = WaveProblem(free_basis_40, analyze(z, free_basis_40),
                       analyze(z, free_basis_40), 1.0, forcing=ftab)
    out = np.append(tg[:: max(1, tg.size // 50)], tg[-1])
    sol = solve_forced(prob, out)
    worst = max(
        (u_at(sol, t) - ((1.0 - math.cos(math.pi * t)) / math.pi**2) * s1
         ).norm_l2() for t in out)
    report(9, "forced single-mode closed form", worst <= 1e-6,
           f"max_t L2 deviation = {worst:.3e} (tol 1e-6)")


def test_criterion_10_estimate_suite(const5_basis_40, catalog_bases_40,
                                     delta_sweep_battery):
    # 20-problem randomized battery over bounded potentials, all thirteen
    # core inequalities finite
    rng = np.random.default_rng(2024)
    bounded = [const5_basis_40, catalog_bases_40["sine"],
               catalog_bases_40["const"], catalog_bases_40["zero"]]
    battery = []
    for i in range(20):
        basis = bounded[i % len(bounded)]
        g = basis.grid
        u0 = random_sine_data(g, rng)
        u1 = random_sine_data(g, rng)
        T = 1.0
        forcing = None
        if i % 2 == 0:
            tg = forcing_time_grid(T, 1, g, basis=basis)
            w = random_sine_data(g, rng, n_modes=4)
            forcing = analyze_forcing(np.cos(1.7 * tg), w, basis, tg)
        prob = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), T,
                           forcing=forcing)
        sol = (solve_forced(prob, tg[::25])
               if forcing is not None
               else solve_homogeneous(prob, np.linspace(0.0, T, 21)))
        battery.append((prob, sol, {"index": i}))
    finite = True
    for eid in CORE_ESTIMATE_IDS:
        sweep = constant_sweep(eid, battery, k=1.0)
        finite &= bool(np.isfinite(sweep.max_ratio))
    slopes = {}
    for eid in ("est1", "est2", "est5"):
        sweep = constant_sweep(eid, delta_sweep_battery, k=1.0)
        slopes[eid] = sweep.uniformity_slope("epsilon")
    flat = all(abs(s) <= 0.1 for s in slopes.values())
    report(10, "estimate suite + constant uniformity", finite and flat,
           f"all 13 ratios finite over 20 problems: {finite}; "
           "eps-slopes of q-free ratios: "
           + ", ".join(f"{k}={v:+.3f}" for k, v in slopes.items())
           + " (tol +-0.1)")


def _vw_experiment(nu, grid, **kw):
    defaults = dict(
        u0=DataNet(parabola(grid)), u1=DataNet(GridFunction.zeros(grid)),
        ladder=default_ladder(2, 9), grid=grid, n_max=24, T=1.0, n_times=65,
        ode_tol=1e-10)
    defaults.update(kw)
    return VeryWeakExperiment(nu=nu, **defaults)


def test_criterion_11_existence(grid2048):
    rep = run_existence(_vw_experiment(
        NuPrimitive(jumps=((0.5, 1.0),)), grid2048))
    q_slope = rep.q_exponent.slope
    u_slope = rep.u_exponent.slope
    ok = abs(q_slope - 1.0) <= 0.05 and u_slope <= 0.1
    report(11, "existence: moderate solution net", ok,
           f"|q_eps|_Linf slope = {q_slope:.4f} (want 1.0+-0.05), "
           f"solution-net slope = {u_slope:.4f} (want <= 0.1)")


def test_criterion_12_uniqueness(grid2048):
    w = NuPrimitive("sine", (1.0 / (2.0 * math.pi), 1.0, -math.pi / 2.0))
    base = NuPrimitive(jumps=((0.5, 1.0),))
    slopes = {}
    for m in (2, 3):
        rep = run_uniqueness(
            _vw_experiment(base, grid2048), m, w_primitive=w,
            w0=sine_data(grid2048, [(1.0, 2)]),
            w1=sine_data(grid2048, [(0.5, 1)]))
        slopes[m] = rep.slope
    ok = all(slopes[m] >= m - 0.2 for m in (2, 3))
    report(12, "uniqueness: injected perturbations", ok,
           ", ".join(f"M={m}: slope {slopes[m]:.3f} (need >= {m - 0.2})"
                     for m in (2, 3)))


# desk-scale decay rates measured at grid 2048, N_max 24, bump profile;
# frozen as regression baselines per the consistency criterion
CONSISTENCY_RATE_BASELINES = {"linear5": 2.98, "sine_q": 1.99}


def test_criterion_13_consistency(grid2048):
    cases = {
        "linear5": NuPrimitive("linear", (5.0,)),
        "sine_q": NuPrimitive("sine",
                              (1.0 / (2.0 * math.pi), 1.0, -math.pi / 2.0)),
    }
    results = {}
    ok = True
    for name, nu in cases.items():
        rep = run_consistency(_vw_experiment(nu, grid2048), tolerance=1e-3)
        baseline = CONSISTENCY_RATE_BASELINES[name]
        good = (rep.strictly_decreasing and rep.final_value <= 1e-3
                and abs(rep.rate - baseline) <= 0.25)
        ok &= good
        results[name] = (rep.final_value, rep.rate, good)
    report(13, "consistency: classical limit", ok,
           "; ".join(
               f"{k}: final {v[0]:.2e} (tol 1e-3), rate {v[1]:.3f} "
               f"(baseline {CONSISTENCY_RATE_BASELINES[k]}+-0.25)"
               for k, v in results.items()))


def test_criterion_14_determinism(tmp_path):
    from vww.cli import main
    cfg = {
        "mode": "existence",
        "nu": {"smooth": {"kind": "zero"}, "jumps": [[0.5, 1.0]]},
        "grid_n": 1024, "n_max": 8, "T": 0.5, "n_times": 17,
        "u0": {"kind": "parabola"}, "u1": {"kind": "zero"},
        "ladder": {"k_min": 2, "k_max": 5},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["veryweak", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("report.json", "net.csv", "loglog.dat"))
    report(14, "deterministic reruns", same,
           "report.json, net.csv, loglog.dat byte-identical across reruns")
