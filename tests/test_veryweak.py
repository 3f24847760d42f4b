"""Regularization experiments: moderateness, negligibility, consistency."""

import json
import math

import numpy as np
import pytest

from vww.errors import (ConfigError, NotBoundedPotential, StepFailure,
                        UnresolvedBasis, per_member)
from vww.grid import Grid, GridFunction
from vww.potential import NuPrimitive, default_ladder
from vww.veryweak import (DataNet, VeryWeakExperiment, run_consistency,
                          run_existence, run_uniqueness)

from conftest import parabola, sine_data


def experiment(nu, grid, ladder=None, u0=None, u1=None, **kw):
    u0 = DataNet(parabola(grid)) if u0 is None else u0
    u1 = DataNet(GridFunction.zeros(grid)) if u1 is None else u1
    ladder = default_ladder(2, 7) if ladder is None else ladder
    defaults = dict(n_max=12, T=1.0, n_times=33, ode_tol=1e-10)
    defaults.update(kw)
    return VeryWeakExperiment(nu=nu, u0=u0, u1=u1, ladder=ladder, grid=grid,
                              **defaults)


@pytest.fixture(scope="module")
def grid1024():
    return Grid(1024)


class TestExperiment:
    def test_three_rung_ladder_rejected(self, grid1024):
        with pytest.raises(ConfigError, match="at least 4 rungs, got 3"):
            experiment(NuPrimitive(), grid1024, ladder=default_ladder(2, 4))

    def test_ladder_must_decrease(self, grid1024):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            experiment(NuPrimitive(), grid1024, ladder=(0.5, 0.25, 0.25, 0.1))

    def test_defaults_and_integral_n_times(self, grid1024):
        e = VeryWeakExperiment(NuPrimitive(), DataNet(parabola(grid1024)),
                               DataNet(parabola(grid1024)), default_ladder(2, 5),
                               grid1024, n_times=17.0)
        assert (e.mollifier, e.ode_tol) == ("bump", 1e-10)
        assert e.n_times == 17 and e.times.size == 17

    @pytest.mark.parametrize("ladder, mollifier", [
        ((0.5, 0.25, 0.125, 0.0625), "nope"),
        ((2.0, 1.0, 0.5, 0.25), "bump"),
        ((0.5, 0.25, 0.0, -0.25), "bump"),
    ], ids=["unknown_mollifier", "rung_above_one", "rung_not_positive"])
    def test_every_rung_validated_up_front(self, grid1024, ladder, mollifier):
        with pytest.raises(ConfigError):
            experiment(NuPrimitive(), grid1024, ladder=ladder,
                       mollifier=mollifier)

    def test_bad_mollifier_exits_before_any_basis(self, tmp_path, monkeypatch):
        import vww.veryweak
        from vww.cli import main
        built = []
        for name in ("build_basis", "build_bases"):
            monkeypatch.setattr(vww.veryweak, name,
                                lambda *args, **kw: built.append(args))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "mode": "consistency", "mollifier": "nope",
            "nu": {"smooth": {"kind": "linear", "params": [5.0]}},
            "grid_n": 256, "n_max": 4, "T": 0.5, "u0": {"kind": "parabola"},
            "u1": {"kind": "zero"}, "ladder": {"k_min": 2, "k_max": 5}}))
        assert main(["veryweak", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert built == []


class TestFailingRung:
    @pytest.mark.parametrize("run", [
        run_existence, run_consistency,
        lambda e: run_uniqueness(e, order=2)],
        ids=["existence", "consistency", "uniqueness"])
    def test_error_names_its_rung(self, run, monkeypatch):
        # the third rung's basis fails; the error keeps its class and
        # message and names that rung
        import vww.veryweak
        real = vww.veryweak.build_bases

        def fail(potential):
            spec = getattr(potential, "spec", None)
            if spec is not None and spec.epsilon == 2.0**-4:
                raise UnresolvedBasis("Gram defect 0.3")

        def build(potentials, *args, **kw):
            # per_member ties the error to its potential, as build_bases does
            per_member(fail, potentials)
            return real(potentials, *args, **kw)

        monkeypatch.setattr(vww.veryweak, "build_bases", build)
        e = experiment(NuPrimitive("linear", (5.0,)), Grid(256),
                       ladder=default_ladder(2, 5), n_max=4)
        with pytest.raises(UnresolvedBasis,
                           match=r"^rung eps=0\.0625: Gram defect 0\.3$"):
            run(e)

    @pytest.mark.parametrize("run", [
        run_existence, lambda e: run_uniqueness(e, order=2)],
        ids=["existence", "uniqueness"])
    def test_joint_pass_failure_names_every_rung(self, run, monkeypatch):
        # the rungs share one sampled pass, so its failure is every rung's
        import vww.prufer

        def underflow(*args, **kwargs):
            raise StepFailure("step underflow")

        monkeypatch.setattr(vww.prufer, "integrate_rk45", underflow)
        e = experiment(NuPrimitive("linear", (5.0,)), Grid(256),
                       ladder=default_ladder(2, 5), n_max=4)
        with pytest.raises(StepFailure, match=r"^rungs eps=0\.25, 0\.125, "
                                              r"0\.0625, 0\.03125: step "
                                              r"underflow$"):
            run(e)


class TestExistence:
    def test_trivial_potential_flat_net(self, grid1024):
        rep = run_existence(experiment(NuPrimitive(), grid1024))
        assert abs(rep.u_exponent.slope) <= 0.05
        assert abs(rep.dtu_exponent.slope) <= 0.05
        assert rep.moderate

    def test_delta_solution_net_bounded(self, grid1024):
        rep = run_existence(experiment(
            NuPrimitive(jumps=((0.5, 1.0),)), grid1024))
        assert rep.q_exponent.slope == pytest.approx(1.0, abs=0.05)
        assert rep.u_exponent.slope <= 0.1
        assert rep.moderate

    def test_delta_net_stable_under_grid_refinement(self):
        lad = default_ladder(2, 6)
        nu = NuPrimitive(jumps=((0.5, 1.0),))
        slopes = []
        for n in (512, 1024):
            g = Grid(n)
            rep = run_existence(experiment(nu, g, ladder=lad))
            slopes.append(rep.u_exponent.slope)
        assert abs(slopes[0] - slopes[1]) <= 0.02

    def test_scaled_data_net_exponent(self, grid1024):
        # linearity: eps^-1 data scaling forces solution exponent >= 0.8
        g = grid1024
        e = experiment(NuPrimitive(), g,
                       u0=DataNet(parabola(g), scale_exponent=1.0))
        rep = run_existence(e, declared_order=1)
        assert rep.u_exponent.slope >= 0.8
        assert rep.moderate

    def test_report_serializable_and_deterministic(self, grid1024):
        e = experiment(NuPrimitive(jumps=((0.5, 1.0),)), grid1024,
                       ladder=default_ladder(2, 5))
        a = run_existence(e).to_dict()
        b = run_existence(e).to_dict()
        assert a == b


class TestUniqueness:
    def test_zero_perturbation_trivially_negligible(self, grid1024):
        rep = run_uniqueness(experiment(NuPrimitive(), grid1024), 2)
        assert rep.passed and rep.slope is None
        assert all(v == 0.0 for v in rep.diff_norms)

    def test_potential_perturbation_order_three(self, grid1024):
        w = NuPrimitive("sine", (1.0 / (2.0 * math.pi), 1.0, -math.pi / 2.0))
        rep = run_uniqueness(experiment(NuPrimitive(), grid1024), 3,
                             w_primitive=w)
        assert rep.slope >= 2.8
        assert rep.passed
        assert all(np.isfinite(r) and r <= 10.0 for r in rep.esnh1_ratios)

    def test_data_only_perturbation_tracks_order(self, grid1024):
        # the solve is linear in the data, so the difference net carries
        # exactly the injected order
        g = grid1024
        for m in (2, 3):
            rep = run_uniqueness(experiment(NuPrimitive(), g), m,
                                 w0=sine_data(g, [(1.0, 2)]),
                                 w1=sine_data(g, [(0.5, 1)]))
            assert rep.slope == pytest.approx(m, abs=0.2)
            assert rep.passed

    def test_first_order_profile_difference_not_negligible_at_two(self):
        # an even and a tilted profile differ at O(eps) (first-moment
        # mismatch couples to q'), so the solution difference net is O(eps)
        # only: detected as NOT negligible at order 2
        g = Grid(1024)
        nu = NuPrimitive("sine", (0.5, 1.0))
        lad = default_ladder(2, 7)
        from vww.potential import MollifiedNu, MollifierSpec, RegularizedNet, \
            check_negligibility
        from vww.prufer import build_basis
        from vww.veryweak import _solve_for
        e = experiment(nu, g, ladder=lad)
        diffs = []
        for eps in lad:
            sa, sb = (_solve_for(e, build_basis(MollifiedNu(nu, MollifierSpec(
                profile, eps)), e.n_max, g, tol=e.ode_tol), e.u0.profile,
                e.u1.profile) for profile in ("bump", "bump_skew"))
            w = g.simpson_weights
            diffs.append(float(np.sqrt(np.max(
                (sa.values - sb.values) ** 2 @ w))))
        rep = check_negligibility(RegularizedNet(lad, tuple(diffs)), 2)
        assert not rep.passed
        assert rep.slope == pytest.approx(1.0, abs=0.5)


class TestConsistency:
    def test_constant_potential(self, grid1024):
        rep = run_consistency(experiment(
            NuPrimitive("linear", (5.0,)), grid1024), tolerance=1e-3)
        assert rep.strictly_decreasing
        assert rep.final_value <= 1e-3
        assert rep.passed
        assert not rep.spike_flagged

    def test_sine_potential(self, grid1024):
        nu = NuPrimitive("sine", (1.0 / (2.0 * math.pi), 1.0, -math.pi / 2.0))
        rep = run_consistency(experiment(nu, grid1024), tolerance=1e-3)
        assert rep.strictly_decreasing
        assert rep.passed

    def test_zero_potential_noise_floor(self, grid1024):
        # the trivial potential mollifies to itself; discrepancies sit at
        # solver noise
        rep = run_consistency(experiment(NuPrimitive(), grid1024),
                              tolerance=1e-8)
        assert max(rep.discrepancies) <= 1e-8

    def test_atoms_rejected(self, grid1024):
        with pytest.raises(NotBoundedPotential):
            run_consistency(experiment(
                NuPrimitive(jumps=((0.5, 1.0),)), grid1024))

    def test_time_grid_sensitivity_small(self, grid1024):
        rep = run_consistency(experiment(
            NuPrimitive("linear", (5.0,)), grid1024))
        assert rep.time_grid_sensitivity <= 0.05
