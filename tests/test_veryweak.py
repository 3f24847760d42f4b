"""Regularization experiments: moderateness, negligibility, consistency."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from vww.errors import (ConfigError, NonFiniteResult,
                        NotBoundedPotential, StepFailure,
                        UnresolvedBasis, per_member)
from vww.grid import Grid, GridFunction
from vww.potential import NuPrimitive
from vww.veryweak import (DataNet, VeryWeakExperiment, default_ladder,
                          run_consistency, run_existence, run_uniqueness)

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


CLI_BASE = {
    "mode": "consistency",
    "nu": {"smooth": {"kind": "linear", "params": [5.0]}},
    "grid_n": 256, "n_max": 4, "T": 0.5, "u0": {"kind": "parabola"},
    "u1": {"kind": "zero"}, "ladder": {"k_min": 2, "k_max": 5}}


def run_cli(tmp_path, **changes):
    """(exit code, --out path) of ``vww veryweak`` on CLI_BASE with changes."""
    from vww.cli import main
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(dict(CLI_BASE, **changes)))
    return main(["veryweak", "--config", str(cfg), "--out", str(out)]), out


def run_cli_without_bases(tmp_path, monkeypatch, **changes):
    """run_cli with every basis build recorded instead of made:
    (exit code, --out path, the builds' arguments)."""
    import vww.veryweak
    built = []
    for name in ("build_basis", "build_bases"):
        monkeypatch.setattr(vww.veryweak, name,
                            lambda *args, **kw: built.append(args))
    return (*run_cli(tmp_path, **changes), built)


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
        code, _, built = run_cli_without_bases(tmp_path, monkeypatch,
                                               mollifier="nope")
        assert code == 2
        assert built == []

    def test_ladder_range_checked_before_any_rung(self):
        # 10**9 rungs would take tens of GB; the range is refused first
        for k_min, k_max in ((2, 10**9), (-2000, 5), (5, 2)):
            with pytest.raises(ConfigError, match="0 <= k_min <= k_max"):
                default_ladder(k_min, k_max)
        assert default_ladder(1074, 1074) == (5e-324,)

    @pytest.mark.parametrize("k_min, k_max", [(-2000, 5), (2, 10_000_000)],
                             ids=["overflowing_rung", "zero_rungs"])
    def test_ladder_range_exits_2(self, tmp_path, monkeypatch, k_min, k_max):
        code, out, built = run_cli_without_bases(
            tmp_path, monkeypatch, ladder={"k_min": k_min, "k_max": k_max})
        assert code == 2
        assert not out.exists() and built == []

    def test_data_scale_overflow_exits_3_before_any_basis(
            self, tmp_path, monkeypatch, capsys):
        # 0.25^-1000 overflows a float at the first rung
        code, out, built = run_cli_without_bases(
            tmp_path, monkeypatch, mode="existence", u0_scale_exponent=1000)
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert not out.exists() and built == []
        assert len(err) == 1
        assert "NonFiniteResult" in err[0]
        assert "u0_scale_exponent=1000" in err[0] and "eps=0.25" in err[0]

    def test_scaled_profile_overflow_exits_3_before_any_basis(
            self, tmp_path, monkeypatch, capsys):
        # 2^(5 * 199) is finite; times max|u0| = 2.5e9 it is not, at eps=2^-5
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, built = run_cli_without_bases(
                tmp_path, monkeypatch, mode="existence",
                u0={"kind": "parabola", "params": [1e10]},
                u0_scale_exponent=199)
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert not out.exists() and built == []
        assert not [w for w in seen if w.category is RuntimeWarning]
        assert err == ["vww: numerical failure: NonFiniteResult: "
                       "u0_scale_exponent=199: max|u0| * eps^-p overflows "
                       "at rung eps=0.03125"]

    def test_scale_check_reads_each_net(self, grid1024):
        # a large profile alone, at p = 0, is kept; u1's net is checked too
        big = DataNet(parabola(grid1024) * 1e300)
        experiment(NuPrimitive(), grid1024, u0=big)
        with pytest.raises(NonFiniteResult, match=r"^u1_scale_exponent=1: "
                           r"max\|u1\| \* eps\^-p overflows at rung "
                           r"eps=0\.125$"):
            experiment(NuPrimitive(), grid1024,
                       u1=DataNet(parabola(grid1024) * 1e308, 1.0))


class TestFailingRung:
    @pytest.mark.parametrize("run, eps", [
        (run_existence, 2.0**-4), (run_consistency, 2.0**-4),
        (lambda e: run_uniqueness(e, order=2), 2.0**-4),
        (run_consistency, 0.0)],
        ids=["existence", "consistency", "uniqueness", "consistency_limit"])
    def test_error_names_its_rung(self, run, eps, monkeypatch):
        # the basis at the third rung, or consistency's unmollified limit
        # (eps 0, no mollifier), fails; the error keeps its class and
        # message and names that rung
        import vww.veryweak
        real = vww.veryweak.build_bases

        def fail(potential):
            spec = getattr(potential, "spec", None)
            if (0.0 if spec is None else spec.epsilon) == eps:
                raise UnresolvedBasis("Gram defect 0.3")

        def build(potentials, *args, **kw):
            # per_member ties the error to its potential, as build_bases does
            per_member(fail, potentials)
            return real(potentials, *args, **kw)

        monkeypatch.setattr(vww.veryweak, "build_bases", build)
        e = experiment(NuPrimitive("linear", (5.0,)), Grid(256),
                       ladder=default_ladder(2, 5), n_max=4)
        with pytest.raises(UnresolvedBasis, match=(
                rf"^rung eps={re.escape(f'{eps:g}')}: Gram defect 0\.3$")):
            run(e)

    @pytest.mark.parametrize("run, rungs", [
        (run_existence, "0.25, 0.125, 0.0625, 0.03125"),
        (run_consistency, "0, 0.25, 0.125, 0.0625, 0.03125"),
        (lambda e: run_uniqueness(e, order=2), "0.25, 0.125, 0.0625, 0.03125"),
    ], ids=["existence", "consistency", "uniqueness"])
    def test_joint_pass_failure_names_every_rung(self, run, rungs,
                                                 monkeypatch):
        # the rungs, and consistency's limit, share one sampled pass, so
        # its failure is every rung's
        import vww.prufer

        def underflow(*args, **kwargs):
            raise StepFailure("step underflow")

        monkeypatch.setattr(vww.prufer, "integrate_rk45", underflow)
        e = experiment(NuPrimitive("linear", (5.0,)), Grid(256),
                       ladder=default_ladder(2, 5), n_max=4)
        with pytest.raises(StepFailure, match=(
                rf"^rungs eps={re.escape(rungs)}: step underflow$")):
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
    def test_order_below_one_refused_with_one_message(self, grid1024):
        from vww.veryweak import check_negligibility
        with pytest.raises(ConfigError, match=r"^order must be >= 1, got 0$"):
            run_uniqueness(experiment(NuPrimitive(), grid1024), 0)
        with pytest.raises(ConfigError, match=r"^order must be >= 1, got 0$"):
            check_negligibility(default_ladder(2, 5), [1.0] * 4, 0)

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
        from vww.potential import MollifiedNu, MollifierSpec
        from vww.prufer import build_basis
        from vww.veryweak import _solve_for, check_negligibility
        e = experiment(nu, g, ladder=lad)
        diffs = []
        for eps in lad:
            sa, sb = (_solve_for(e, build_basis(MollifiedNu(nu, MollifierSpec(
                profile, eps)), e.n_max, g, tol=e.ode_tol), e.u0.profile,
                e.u1.profile) for profile in ("bump", "bump_skew"))
            w = g.simpson_weights
            diffs.append(float(np.sqrt(np.max(
                (sa.values - sb.values) ** 2 @ w))))
        rep = check_negligibility(lad, diffs, 2)
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


class TestConsistencyLimit:
    """The unmollified limit, built with the rungs in one build_bases
    call, against build_basis on the same potential."""

    @pytest.fixture(scope="class")
    def limit_builds(self):
        """(calls, limit, solo, tight): the build calls of one
        run_consistency on the ladder benchmark's sizes, the limit basis
        it built, and build_basis of its nu at its tol and at 1e-12."""
        import vww.prufer
        import vww.veryweak
        calls, built = [], []

        def bases(*args, **kw):
            calls.append("build_bases")
            built.append(vww.prufer.build_bases(*args, **kw))
            return built[-1]

        def basis(*args, **kw):
            calls.append("build_basis")
            return vww.prufer.build_basis(*args, **kw)

        nu, grid = NuPrimitive("linear", (5.0,)), Grid(1024)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vww.veryweak, "build_bases", bases)
            mp.setattr(vww.veryweak, "build_basis", basis)
            run_consistency(experiment(nu, grid, ladder=default_ladder(2, 5),
                                       ode_tol=1e-8))
        return (calls, built[0][0],
                vww.prufer.build_basis(nu, 12, grid, tol=1e-8),
                vww.prufer.build_basis(nu, 12, grid, tol=1e-12))

    def test_one_build_bases_call_and_no_build_basis(self, limit_builds):
        calls, limit, *_ = limit_builds
        assert calls == ["build_bases"]
        assert limit.nu == NuPrimitive("linear", (5.0,))

    def test_lambdas_are_the_solo_build(self, limit_builds):
        _, limit, solo, _ = limit_builds
        assert np.array_equal(limit.lambdas, solo.lambdas)
        assert np.array_equal(limit.theta_residuals, solo.theta_residuals)

    def test_eigenfunctions_as_accurate_as_solo_build(self, limit_builds):
        # the joint pass holds the limit to tol / sqrt(5)
        _, limit, solo, tight = limit_builds
        err_limit = np.max(np.abs(limit.phi_matrix - tight.phi_matrix))
        err_solo = np.max(np.abs(solo.phi_matrix - tight.phi_matrix))
        assert err_limit <= 1.1 * err_solo


class TestVerdictsFollowNorms:
    """The slopes and verdicts in report.json are least-squares fits of
    the norms in the same report, with a 0.2 exponent margin."""

    @staticmethod
    def report(tmp_path, **changes):
        code, out = run_cli(tmp_path, **changes)
        assert code == 0
        return json.loads((out / "report.json").read_text())["report"]

    @staticmethod
    def slope(xs, norms):
        return np.polyfit(xs, np.log(norms), 1)[0]

    @pytest.mark.parametrize("declared_order", [0, 1])
    def test_existence(self, tmp_path, declared_order):
        # u0 scaled by eps^-0.5 grows faster than order 0 allows
        rep = self.report(tmp_path, mode="existence", u0_scale_exponent=0.5,
                          declared_order=declared_order,
                          nu={"smooth": {"kind": "zero"},
                              "jumps": [[0.5, 1.0]]})
        x = np.log(1.0 / np.asarray(rep["ladder"]))
        slopes = [self.slope(x, rep[name]) for name in ("u_norms", "dtu_norms")]
        for name, slope in zip(("u_exponent", "dtu_exponent"), slopes):
            assert rep[name]["slope"] == pytest.approx(slope, rel=1e-9)
        assert rep["moderate"] == all(s <= declared_order + 0.2
                                      for s in slopes) == (declared_order == 1)

    @pytest.mark.parametrize("order, scale, passed", [(1, 0.0, True),
                                                      (2, 1.0, False)])
    def test_uniqueness(self, tmp_path, order, scale, passed):
        # an eps^-1 data scale takes one order off the potential
        # perturbation's eps^order
        rep = self.report(tmp_path, mode="uniqueness", order=order,
                          u0_scale_exponent=scale,
                          w_primitive={"smooth": {"kind": "sine",
                                                  "params": [0.1, 1]}})
        slope = self.slope(np.log(rep["ladder"]), rep["diff_norms"])
        assert rep["slope"] == pytest.approx(slope, rel=1e-9)
        assert rep["passed"] == (slope >= order - 0.2) == passed

    def test_consistency(self, tmp_path):
        rep = self.report(tmp_path, tolerance=1e-2)
        disc = rep["discrepancies"]
        slope = self.slope(np.log(rep["ladder"]), disc)
        assert rep["rate"] == pytest.approx(slope, rel=1e-9)
        assert rep["passed"] == (all(np.diff(disc) < 0.0)
                                 and disc[-1] <= rep["tolerance"] == 1e-2)
