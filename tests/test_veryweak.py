"""Regularization experiments: moderateness, negligibility, consistency."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from vww.errors import (ConfigError, NonFiniteResult, StepFailure,
                        UnresolvedBasis)
from vww.grid import Grid, GridFunction
from vww.potential import MollifiedNu, NuPrimitive, PerturbedNu
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
    monkeypatch.setattr(vww.veryweak, "build_basis",
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


def ladder_experiment(**kw):
    """linear 5 on grid 256, N 4, eps = 2^-2 .. 2^-5."""
    return experiment(NuPrimitive("linear", (5.0,)), Grid(256),
                      ladder=default_ladder(2, 5), n_max=4, **kw)


def recorded_builds(monkeypatch, fail=lambda nu_like: False):
    """The potentials of every build_basis call veryweak makes from here
    on; a build of a potential for which fail holds raises
    UnresolvedBasis("Gram defect 0.3") instead."""
    import vww.veryweak
    real, built = vww.veryweak.build_basis, []

    def build(nu_like, *args, **kw):
        built.append(nu_like)
        if fail(nu_like):
            raise UnresolvedBasis("Gram defect 0.3")
        return real(nu_like, *args, **kw)

    monkeypatch.setattr(vww.veryweak, "build_basis", build)
    return built


def rung_of(nu_like) -> float:
    """The eps of a rung's potential, 0 for the unmollified limit."""
    while isinstance(nu_like, PerturbedNu):
        nu_like = nu_like.base
    return nu_like.spec.epsilon if isinstance(nu_like, MollifiedNu) else 0.0


def uniqueness_with_w(e):
    return run_uniqueness(e, order=2, w_primitive=NuPrimitive("const", (1.0,)))


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
        recorded_builds(monkeypatch, lambda nu_like: rung_of(nu_like) == eps)
        with pytest.raises(UnresolvedBasis, match=(
                rf"^rung eps={re.escape(f'{eps:g}')}: Gram defect 0\.3$")):
            run(ladder_experiment())

    def test_perturbed_build_failure_names_its_rung(self, monkeypatch):
        # uniqueness with a w builds PerturbedNu(q_eps, w, eps^2) beside
        # each rung's base; the third rung's perturbed build fails
        built = recorded_builds(monkeypatch, lambda nu_like: isinstance(
            nu_like, PerturbedNu) and rung_of(nu_like) == 2.0**-4)
        with pytest.raises(UnresolvedBasis, match=(
                r"^rung eps=0\.0625: Gram defect 0\.3$")):
            uniqueness_with_w(ladder_experiment())
        assert [type(nu).__name__ for nu in built[-2:]] == [
            "MollifiedNu", "PerturbedNu"]

    @pytest.mark.parametrize("run, rung", [
        (run_existence, "0.25"), (run_consistency, "0"),
        (lambda e: run_uniqueness(e, order=2), "0.25"),
    ], ids=["existence", "consistency", "uniqueness"])
    def test_sampled_pass_failure_names_its_rung(self, run, rung,
                                                 monkeypatch):
        # each basis's sampled pass is its own: consistency's limit takes
        # the RK45 pass, each mollified rung the recorded Magnus pass, and
        # a failure of either names the first rung built
        import vww.prufer

        def underflow(*args, **kwargs):
            raise StepFailure("step underflow")

        monkeypatch.setattr(vww.prufer, "integrate_rk45", underflow)
        monkeypatch.setattr(vww.prufer, "_recorded_pass", underflow)
        with pytest.raises(StepFailure, match=(
                rf"^rung eps={re.escape(rung)}: step underflow$")):
            run(ladder_experiment())

    @pytest.mark.parametrize("run, rung", [
        (run_existence, "0.25"), (run_consistency, "0"),
    ], ids=["existence", "consistency"])
    def test_build_failure_names_the_first_rung_built(self, run, rung):
        # a tol below the floor is refused before any basis is built, at
        # the first rung built: consistency builds its limit first
        with pytest.raises(ConfigError, match=(
                rf"^rung eps={re.escape(rung)}: tol must be in "
                rf"\[1e-15, 1e-06\], got 1e-16$")):
            run(ladder_experiment(ode_tol=1e-16))


class TestRungBuilds:
    """One build_basis call per basis, and when each rung's bases are
    built."""

    @pytest.mark.parametrize("run, builds", [
        (run_existence, 4), (run_consistency, 5),
        (lambda e: run_uniqueness(e, order=2), 4), (uniqueness_with_w, 8)],
        ids=["existence", "consistency", "uniqueness", "uniqueness_w"])
    def test_one_build_basis_call_per_basis(self, run, builds, monkeypatch):
        built = recorded_builds(monkeypatch)
        run(ladder_experiment())
        assert len(built) == builds

    @pytest.mark.parametrize("run, order", [
        (run_existence, "bs" * 4), (run_consistency, "b" * 5 + "s" * 5),
        (lambda e: run_uniqueness(e, order=2), "bss" * 4),
        (uniqueness_with_w, "bpss" * 4)],
        ids=["existence", "consistency", "uniqueness", "uniqueness_w"])
    def test_each_rung_is_built_then_solved(self, run, order, monkeypatch):
        # b, p: a build of a rung's base or perturbed potential, s: a solve.
        # Existence and uniqueness hold one rung's bases at a time;
        # consistency builds its limit and every rung before any solve
        import vww.veryweak
        events = []
        build, solve = vww.veryweak.build_basis, vww.veryweak.solve_homogeneous

        def built(nu_like, *args):
            events.append("p" if isinstance(nu_like, PerturbedNu) else "b")
            return build(nu_like, *args)

        def solved(*args):
            events.append("s")
            return solve(*args)

        monkeypatch.setattr(vww.veryweak, "build_basis", built)
        monkeypatch.setattr(vww.veryweak, "solve_homogeneous", solved)
        run(ladder_experiment())
        assert "".join(events) == order


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

    def test_constant_potential_perturbation_changes_nothing(self, grid1024):
        # nu + c leaves q = nu' and, in each panel's gauge, the sampled pass:
        # the solutions agree bit for bit (they differed by 3.8e-14 to
        # 1.2e-15, fitted a slope of 0.99, when the pass integrated nu)
        rep = run_uniqueness(experiment(NuPrimitive(), grid1024), 1,
                             w_primitive=NuPrimitive("const", (1.0,)))
        assert rep.diff_norms == (0.0,) * 6
        assert rep.passed and rep.slope is None

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

    @pytest.mark.parametrize("jumps, first, last", [
        (((0.5, 1.0),), 1.36e-2, 1.76e-4),
        (((0.3, 1.0), (0.7, -0.5)), 2.75e-2, 1.66e-4),
    ], ids=["delta", "two_atoms"])
    def test_atoms_converge_to_jump_conditions(self, grid1024, jumps, first,
                                               last):
        # the limit takes each atom as a jump condition, the rungs mollify
        # it; a kink of phi_n^2 under a symmetric bump makes the
        # discrepancy O(eps), so it about halves per rung at the fine end
        x = grid1024.nodes
        u0 = DataNet(GridFunction(grid1024, 4.0 * x * (1.0 - x)))
        rep = run_consistency(experiment(NuPrimitive(jumps=jumps), grid1024,
                                         u0=u0, ode_tol=1e-8))
        disc = rep.discrepancies
        assert rep.strictly_decreasing and rep.passed
        assert disc[0] == pytest.approx(first, rel=0.01)
        assert disc[-1] == pytest.approx(last, rel=0.01)
        assert 1.6 <= disc[-2] / disc[-1] <= 2.4

    def test_time_grid_sensitivity_small(self, grid1024):
        rep = run_consistency(experiment(
            NuPrimitive("linear", (5.0,)), grid1024))
        assert rep.time_grid_sensitivity <= 0.05


class TestConsistencyLimit:
    """The unmollified limit, built before the rungs, against build_basis
    on the same potential."""

    @pytest.fixture(scope="class")
    def limit_builds(self):
        """(built, solo): the bases one run_consistency on the ladder
        benchmark's sizes built, in order, and build_basis of its nu at
        its tol."""
        import vww.prufer
        import vww.veryweak
        built = []

        def basis(*args, **kw):
            built.append(vww.prufer.build_basis(*args, **kw))
            return built[-1]

        nu, grid = NuPrimitive("linear", (5.0,)), Grid(1024)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vww.veryweak, "build_basis", basis)
            run_consistency(experiment(nu, grid, ladder=default_ladder(2, 5),
                                       ode_tol=1e-8))
        return built, vww.prufer.build_basis(nu, 12, grid, tol=1e-8)

    def test_five_build_basis_calls_limit_first(self, limit_builds):
        built, _ = limit_builds
        assert [rung_of(b.nu) for b in built] == [0.0, *default_ladder(2, 5)]
        assert built[0].nu == NuPrimitive("linear", (5.0,))

    def test_lambdas_are_the_solo_build(self, limit_builds):
        (limit, *_), solo = limit_builds
        assert np.array_equal(limit.lambdas, solo.lambdas)
        assert np.array_equal(limit.theta_residuals, solo.theta_residuals)

    def test_eigenfunctions_as_accurate_as_solo_build(self, limit_builds):
        # the limit's sampled pass is its own, the solo build's bit for bit
        (limit, *_), solo = limit_builds
        assert np.array_equal(limit.phi_matrix, solo.phi_matrix)
        assert np.array_equal(limit.phi_prime_matrix, solo.phi_prime_matrix)
        assert np.array_equal(limit.tilde_norms, solo.tilde_norms)


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
