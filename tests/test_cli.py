"""CLI subcommands: file outputs, exit codes, determinism."""

import copy
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from vww.cli import (_SCHEMAS, _atomic_write, _csv_text, _dat_text,
                     _json_text, _solution_text, main, validate_config)
from vww.errors import ConfigError, NonFiniteResult
from vww.estimates import ALL_ESTIMATE_IDS
from vww.grid import Grid
from vww.potential import PROFILES, SMOOTH_KINDS
from vww.wave import MAX_TABLE_ENTRIES, check_time_grid

from conftest import checkout_env, modules_in_fresh_python


def run_cli(*args):
    return main(list(args))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FREE_NU = {"smooth": {"kind": "zero"}}
LIN5_NU = {"smooth": {"kind": "linear", "params": [5.0]}}


class TestEigs:
    def test_free_spectrum_csv(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 512, "n_max": 5})
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()
        assert rows[0] == "n,lambda,theta_residual,tilde_norm,psi_norm"
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        want = [(n * math.pi) ** 2 for n in range(1, 6)]
        assert np.max(np.abs(np.array(lams) / np.array(want) - 1.0)) <= 1e-8
        cache = json.loads((out / "basis_cache.json").read_text())
        assert cache["grid_n"] == 512 and len(cache["lambdas"]) == 5
        assert cache["theta_error_estimate"] == 0.0  # Magnus-4 is exact

    def test_fast_nu_lambda_and_estimate_cached(self, tmp_path):
        # 50 periods of nu on 64 intervals: lambda_1 read 9.369808 when
        # Newton ran on the grid's mesh; DOP853 on the phase equation
        # gives 9.3694065
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "sine", "params": [1.0, 50.0]}},
            "grid_n": 64, "n_max": 2})
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        row = (out / "eigenvalues.csv").read_text().splitlines()[1]
        assert abs(float(row.split(",")[1]) - 9.3694065) <= 1e-6
        cache = json.loads((out / "basis_cache.json").read_text())
        assert 0.0 < cache["theta_error_estimate"] <= 1e-10

    def test_constant_potential_shift(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": LIN5_NU, "grid_n": 512, "n_max": 5})
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        lams = [float(r.split(",")[1]) for r in rows]
        want = [(n * math.pi) ** 2 + 5.0 for n in range(1, 6)]
        assert np.max(np.abs(np.array(lams) - np.array(want))) <= 1e-7

    @pytest.mark.parametrize("c, n_max, grid_n", [
        (1e15, 1, 256), (1e200, 2, 64)], ids=["1e15", "1e200"])
    def test_level_of_nu_is_not_read(self, tmp_path, c, n_max, grid_n):
        # q = 0 for a constant nu, so lambda_n = (n pi)^2.  Read at nu's
        # level, 1e15 gave lambda_1 = 9.8522 and 1e200 a NonFiniteResult
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "const", "params": [c]}},
            "grid_n": grid_n, "n_max": n_max})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        assert not [w for w in seen if w.category is RuntimeWarning]
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        lams = np.array([float(r.split(",")[1]) for r in rows])
        want = (np.arange(1, n_max + 1) * math.pi) ** 2
        assert np.max(np.abs(lams / want - 1.0)) <= 1e-12

    def test_panel_without_grid_node(self, tmp_path):
        # the panel (0.3, 0.31] between the atoms holds no node of grid
        # 16; its RK45 integration ended in a traceback.  lambda_1 reads
        # 12.119485018950517 at grid 1024
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "zero"},
                   "jumps": [[0.3, 1.0], [0.31, 1.0]]},
            "grid_n": 16, "n_max": 2})
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2
        assert abs(float(rows[0].split(",")[1])
                   - 12.119485018950517) <= 1e-11

    def test_malformed_json_exits_2_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", str(bad), "--out", str(out)) == 2
        assert not out.exists() or not os.listdir(out)

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 512, "n_max": 5, "bogus": True})
        assert run_cli("eigs", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("command", ["eigs", "solve", "forced",
                                         "estimates", "veryweak"])
    def test_invalid_config_creates_no_out_dir(self, tmp_path, command):
        cfg = write_config(tmp_path, "c.json", {"bogus": True})
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 2
        assert not out.exists()

    def test_solver_failure_exits_3_naming_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "zero"}, "jumps": [[0.5, -6.0]]},
            "grid_n": 512, "n_max": 2})
        assert run_cli("eigs", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 3
        assert "n=1" in capsys.readouterr().err

    def test_aliased_basis_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 64, "n_max": 40})
        assert run_cli("eigs", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 3
        assert "UnresolvedBasis" in capsys.readouterr().err

    def test_eigenfunction_cache_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 3,
            "cache_eigenfunctions": True})
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        from oracles import basis_from_cache
        cache = json.loads((out / "basis_cache.json").read_text())
        cache.pop("meta")
        basis = basis_from_cache(cache)
        assert basis.lambdas[2] == pytest.approx(9.0 * math.pi**2, rel=1e-8)

    def test_samples_potential(self, tmp_path):
        # 65 samples of sin(2 pi x) against the closed-form sine kind
        xs = np.linspace(0.0, 1.0, 65)
        lams = {}
        for name, smooth in (
                ("samples", {"kind": "samples",
                             "params": np.sin(2.0 * math.pi * xs).tolist()}),
                ("sine", {"kind": "sine", "params": [1.0, 1.0]})):
            cfg = write_config(tmp_path, f"{name}.json", {
                "nu": {"smooth": smooth, "jumps": [[0.5, 1.0]]},
                "grid_n": 512, "n_max": 8})
            out = tmp_path / name
            assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
            rows = (out / "eigenvalues.csv").read_text().splitlines()[1:]
            lams[name] = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(lams["samples"] / lams["sine"] - 1.0)) <= 1e-9


class TestSolveCommands:
    def test_homogeneous_solution_files(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
            "n_times": 11, "u0": {"kind": "sine_combo", "params": [[1, 1]]},
            "u1": {"kind": "zero"}})
        out = tmp_path / "out"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        energy = json.loads((out / "energy.json").read_text())
        assert energy["energy_drift"] <= 1e-9
        assert energy["boundary_max"] == 0.0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x,u,u_t"
        assert len(lines) == 1 + 11 * 257

    def test_solution_csv_bytes_match_per_cell_writer(self, tmp_path):
        # reference: one float() tuple per cell, formatted by _csv_text
        times = np.linspace(0.0, 2.0, 201)
        nodes = np.linspace(0.0, 1.0, 2049)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((201, 2049)) * 10.0 ** rng.integers(
            -20, 20, (201, 2049))
        values[0, :4] = [-0.0, 5e-324, 1e-300, 1e16]
        dt_values = -values[::-1]
        rows = []
        for j, t in enumerate(times):
            for i, x in enumerate(nodes):
                rows.append((float(t), float(x), float(values[j, i]),
                             float(dt_values[j, i])))
        want = "".join(_csv_text(("t", "x", "u", "u_t"), rows)).encode()
        got = "".join(_solution_text([float(t) for t in times], nodes,
                                     values, dt_values)).encode()
        assert got == want
        assert want.startswith(b"t,x,u,u_t\n0.0,0.0,-0.0,")
        for cell in (b",5e-324,", b",1e-300,", b",1e+16,"):
            assert cell in want

    def test_solution_csv_bytes_match_at_band_edges(self):
        # repr writes fixed notation for 1e-4 <= |v| < 1e16 and exponents
        # outside; rows in the band keep the fast writer's digits, so a
        # writer that moves its notation or digits there shows here
        rng = np.random.default_rng(11)
        lo, hi = np.array([1e-4, 1e16]).view(np.int64)
        signs = np.array([-1.0, 1.0])
        values, dt_values = (
            rng.integers(lo, hi, (50, 2049)).view(float)
            * rng.choice(signs, (50, 2049)) for _ in range(2))
        inside = [1e-4, -1e-4, np.nextafter(1e16, 0), -np.nextafter(1e16, 0),
                  0.0, -0.0]
        outside = [np.nextafter(1e-4, 0), -np.nextafter(1e-4, 0), 1e16,
                   -1e16, 5e-324, -5e-324, 1e-300, -1e-300]
        values[0, 2:8] = inside
        values[1, 2:10] = outside
        dt_values[2, 2:10] = outside
        times = [float(t) for t in np.linspace(0.0, 2.0, 50)]
        times[-1] = 1e16
        nodes = np.linspace(0.0, 1.0, 2049)
        nodes[1] = 5e-5
        rows = [(t, float(x), float(values[j, i]), float(dt_values[j, i]))
                for j, t in enumerate(times) for i, x in enumerate(nodes)]
        want = "".join(_csv_text(("t", "x", "u", "u_t"), rows)).encode()
        got = "".join(_solution_text(times, nodes, values,
                                     dt_values)).encode()
        assert got == want
        for cell in (b",0.0001,", b",-9999999999999998.0,", b",-0.0,",
                     b",9.999999999999999e-05,", b",-1e+16,", b",-5e-324,",
                     b"\n0.0,5e-05,", b"\n1e+16,0.0,"):
            assert cell in want

    # two times of in-band values, each case then moves some out of the
    # band where repr switches to exponent notation
    @staticmethod
    def _two_times(nodes):
        rng = np.random.default_rng(7)
        values, dt_values = (rng.uniform(0.5, 2.0, (2, len(nodes)))
                             * rng.choice([-1.0, 1.0], (2, len(nodes)))
                             for _ in range(2))
        return [0.0, 0.75], nodes, values, dt_values

    @pytest.mark.parametrize("case", [
        "non_dyadic_nodes", "t_below_1e-4", "out_of_band_first_row",
        "out_of_band_last_row", "no_row_in_band"])
    def test_solution_csv_bytes_match_on_two_times(self, case):
        times, nodes, values, dt_values = self._two_times(
            np.linspace(0.0, 1.0, 1001) if case == "non_dyadic_nodes"
            else np.linspace(0.0, 1.0, 65))
        if case == "t_below_1e-4":
            times[1] = 5e-5
        elif case == "out_of_band_first_row":
            values[1, 0] = 3e-7
        elif case == "out_of_band_last_row":
            dt_values[1, -1] = -2e17
        elif case == "no_row_in_band":  # time 0 keeps every row in band
            values[1] *= 1e-7
        rows = [(t, float(x), float(values[j, i]), float(dt_values[j, i]))
                for j, t in enumerate(times) for i, x in enumerate(nodes)]
        want = "".join(_csv_text(("t", "x", "u", "u_t"), rows))
        assert "".join(_solution_text(times, nodes, values,
                                      dt_values)) == want
        if case == "non_dyadic_nodes":  # 0.009000000000000001
            assert max(len(repr(float(x))) for x in nodes) == 20

    def test_forced_closed_form_through_files(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
            "n_times": 5, "u0": {"kind": "zero"}, "u1": {"kind": "zero"},
            "forcing": {"space": {"kind": "sine_combo", "params": [[1, 1]]},
                        "time": {"kind": "const", "params": [1.0]}}})
        out = tmp_path / "out"
        assert run_cli("forced", "--config", cfg, "--out", str(out)) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()[1:]
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines]
        end = [r for r in rows if r[0] == 1.0]
        want = {x: (1.0 - math.cos(math.pi)) / math.pi**2 * math.sin(
            math.pi * x) for x, in [(r[1],) for r in end]}
        err = max(abs(r[2] - want[r[1]]) for r in end)
        assert err <= 1e-6

    def test_velocity_mode_through_files(self, tmp_path):
        # u1 = sin(2 pi x): u(t) = sin(2 pi t) sin(2 pi x)/(2 pi)
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 0.4,
            "n_times": 3, "u0": {"kind": "zero"},
            "u1": {"kind": "sine_combo", "params": [[1, 2]]}})
        out = tmp_path / "out"
        assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()[1:]
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines]
        end = [r for r in rows if r[0] == 0.4]
        amp = math.sin(2.0 * math.pi * 0.4) / (2.0 * math.pi)
        err = max(abs(r[2] - amp * math.sin(2.0 * math.pi * r[1]))
                  for r in end)
        assert err <= 1e-8

    def test_solution_csv_memory_does_not_grow_with_n_times(self, tmp_path):
        # solution.csv is formatted as it is written: peak RSS of a solve
        # may grow with n_times by the solution arrays, far less than the
        # file, whose whole text would otherwise be held at once.  A fresh
        # wrapper per run, so only its own child's RSS counts; ru_maxrss
        # is in KiB on Linux, in bytes on macOS
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'vww', *sys.argv[1:]],"
            " check=True)\n"
            "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(rss * (1 if sys.platform == 'darwin' else 1024))")
        peak = {}
        for n_times in (11, 2001):
            cfg = write_config(tmp_path, f"c{n_times}.json", {
                "nu": {"smooth": {"kind": "zero"}, "jumps": [[0.5, 1.0]]},
                "grid_n": 1024, "n_max": 8, "T": 1.0, "n_times": n_times,
                "u0": {"kind": "parabola"}, "u1": {"kind": "zero"}})
            out = tmp_path / f"o{n_times}"
            done = subprocess.run(
                [sys.executable, "-c", wrapper, "solve", "--config", cfg,
                 "--out", str(out)],
                env=checkout_env(), capture_output=True, text=True,
                check=True)
            peak[n_times] = int(done.stdout.split()[-1])
        size = (out / "solution.csv").stat().st_size
        assert size > 100e6
        assert peak[2001] - peak[11] < 0.5 * size

    def test_missing_forcing_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
            "u0": {"kind": "zero"}, "u1": {"kind": "zero"}})
        assert run_cli("forced", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 2


DELTA_NU = {"smooth": {"kind": "zero"}, "jumps": [[0.5, 1.0]]}
DELTA_ESTIMATES = {"nu": DELTA_NU, "grid_n": 64, "n_max": 4, "T": 1.0,
                   "n_times": 5, "u0": {"kind": "parabola"},
                   "u1": {"kind": "zero"}}


class TestEstimatesCommand:
    def test_single_mode_est1_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
            "n_times": 21, "u0": {"kind": "sine_combo", "params": [[1, 1]]},
            "u1": {"kind": "zero"}, "estimate_ids": ["est1"]})
        out = tmp_path / "out"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 0
        rep = json.loads((out / "estimates.json").read_text())["reports"][0]
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-8)
        csv = (out / "estimates.csv").read_text().splitlines()
        assert csv[0] == "estimate_id,ratio,problem_hash"

    def test_core_suite_all_finite(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": LIN5_NU, "grid_n": 256, "n_max": 8, "T": 1.0,
            "n_times": 17, "u0": {"kind": "parabola"},
            "u1": {"kind": "sine_combo", "params": [[0.5, 2]]},
            "forcing": {"space": {"kind": "sine_combo", "params": [[1, 3]]},
                        "time": {"kind": "cos", "params": [1.0, 2.0]}},
            "estimate_ids": "core"})
        out = tmp_path / "out"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 0
        reports = json.loads((out / "estimates.json").read_text())["reports"]
        assert len(reports) == 13
        assert all(np.isfinite(r["ratio"]) for r in reports)

    def test_each_norm_formed_once_per_run(self, tmp_path, monkeypatch):
        # the 17 ids share one set of squared norms: ||nu||_inf, ||q||_inf
        # and the second differences of u0 and u1 once each, where each id
        # once formed its own; the check before any build reads the atoms
        # alone, and q_linf checks them again
        import vww.estimates
        from vww.potential import Potential
        calls = []
        for owner, name in ((Potential, "norm_linf"), (Potential, "q_linf"),
                            (Potential, "check_q_linf"),
                            (vww.estimates, "_second_derivative_sq")):
            def call(*args, _name=name, _original=getattr(owner, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(owner, name, call)
        cfg = write_config(tmp_path, "c.json", {
            "nu": LIN5_NU, "grid_n": 64, "n_max": 4, "T": 1.0,
            "n_times": 9, "u0": {"kind": "parabola"},
            "u1": {"kind": "sine_combo", "params": [[0.5, 2]]},
            "forcing": {"space": {"kind": "sine_combo", "params": [[1, 3]]},
                        "time": {"kind": "cos", "params": [1.0, 2.0]}},
            "estimate_ids": "all"})
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 0
        assert len(_strict_json(out / "estimates.json")["reports"]) == 17
        assert sorted(calls) == ["_second_derivative_sq"] * 2 + [
            "check_q_linf"] * 2 + ["norm_linf", "q_linf"]

    def test_q_linf_on_atoms_exits_3_before_any_basis(
            self, tmp_path, capsys, monkeypatch):
        # est4, ec2, ec3, ec4 and esnh4 of "core" read ||q||_inf, which a
        # delta has not: refused from the config, with no build
        import vww.cli
        built = []
        monkeypatch.setattr(vww.cli, "build_basis",
                            lambda *args, **kw: built.append(args))
        cfg = write_config(tmp_path, "c.json",
                           dict(DELTA_ESTIMATES, estimate_ids="core"))
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "vww: numerical failure: MissingNorm: potential has Dirac "
            "atoms; no L-infinity norm"]
        assert not out.exists() and built == []

    def test_ids_without_q_linf_run_on_atoms(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", dict(
            DELTA_ESTIMATES, estimate_ids=["est1", "est2", "est3"]))
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 0
        reports = _strict_json(out / "estimates.json")["reports"]
        assert [r["estimate_id"] for r in reports] == ["est1", "est2", "est3"]

    @pytest.mark.parametrize("change, error", [
        ({"n_times": 10**12}, "exceed the ceiling"),
        ({"u0": {"kind": "samples", "params": [0.0] * 10}},
         "samples data needs 65 values, got 10"),
        ({"forcing": {"space": {"kind": "samples", "params": [1.0]},
                      "time": {"kind": "const"}}},
         "samples data needs 65 values, got 1"),
    ], ids=["oversize_time_grid", "short_u0_samples", "short_forcing_samples"])
    def test_config_error_comes_before_q_linf(self, tmp_path, capsys, change,
                                              error):
        cfg = write_config(tmp_path, "c.json", dict(
            DELTA_ESTIMATES, estimate_ids="core", **change))
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_estimate_id_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
            "u0": {"kind": "zero"}, "u1": {"kind": "zero"},
            "estimate_ids": ["est1", "nope"]})
        assert run_cli("estimates", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 2


VW_BASE = {
    "mode": "consistency", "nu": LIN5_NU, "grid_n": 512, "n_max": 8,
    "T": 0.5, "n_times": 17, "u0": {"kind": "parabola"},
    "u1": {"kind": "zero"}, "ladder": {"k_min": 2, "k_max": 5},
}


class TestVeryweakCommand:
    def test_consistency_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", VW_BASE)
        out = tmp_path / "out"
        assert run_cli("veryweak", "--config", cfg, "--out", str(out)) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["mode"] == "consistency"
        assert rep["report"]["strictly_decreasing"]
        net = (out / "net.csv").read_text().splitlines()
        assert net[0] == "epsilon,norm,norm_kind"
        dat = (out / "loglog.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 5

    def test_existence_uniqueness_modes(self, tmp_path):
        cfg_e = dict(VW_BASE, mode="existence",
                     nu={"smooth": {"kind": "zero"}, "jumps": [[0.5, 1.0]]},
                     grid_n=1024, ladder={"k_min": 2, "k_max": 6})
        out_e = tmp_path / "oe"
        assert run_cli("veryweak", "--config",
                       write_config(tmp_path, "e.json", cfg_e),
                       "--out", str(out_e)) == 0
        rep = json.loads((out_e / "report.json").read_text())["report"]
        assert rep["moderate"]
        assert abs(rep["q_exponent"]["slope"] - 1.0) <= 0.05

        cfg_u = dict(VW_BASE, mode="uniqueness", nu=FREE_NU, order=2,
                     w0={"kind": "sine_combo", "params": [[1, 2]]})
        out_u = tmp_path / "ou"
        assert run_cli("veryweak", "--config",
                       write_config(tmp_path, "u.json", cfg_u),
                       "--out", str(out_u)) == 0
        rep = json.loads((out_u / "report.json").read_text())["report"]
        assert rep["passed"] and rep["slope"] >= 1.8

    def test_existence_ladder_finer_than_grid(self, tmp_path):
        # the default range's finest rung, eps = 2^-9, has a panel (1/2,
        # 1/2 + 2^-9] with no node of grid 256
        cfg = dict(VW_BASE, mode="existence",
                   nu={"smooth": {"kind": "zero"}, "jumps": [[0.5, 1.0]]},
                   grid_n=256, T=1.0, u0={"kind": "sine_combo",
                                          "params": [[1, 1]]},
                   ladder={"k_min": 2, "k_max": 9})
        out = tmp_path / "o"
        assert run_cli("veryweak", "--config",
                       write_config(tmp_path, "e.json", cfg),
                       "--out", str(out)) == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        assert rep["moderate"] and len(rep["ladder"]) == 8
        assert abs(rep["q_exponent"]["slope"] - 1.0) <= 0.05

    def test_short_ladder_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           dict(VW_BASE, ladder=[0.25, 0.125, 0.0625]))
        assert run_cli("veryweak", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 2

    def test_reversed_k_range_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json",
                           dict(VW_BASE, ladder={"k_min": 5, "k_max": 2}))
        assert run_cli("veryweak", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("mode, extra, layout", [
        ("existence", {"nu": {"smooth": {"kind": "zero"},
                              "jumps": [[0.5, 1.0]]}},
         [("u_norms", "L2_sup_t", "u_norm"),
          ("dtu_norms", "dt_L2_sup_t", "dtu_norm"),
          ("q_linf_norms", "q_Linf", "q_linf")]),
        ("uniqueness", {"nu": FREE_NU, "order": 2,
                        "w0": {"kind": "sine_combo", "params": [[1, 2]]}},
         [("diff_norms", "diff_L2_sup_t", "diff_norm")]),
        ("consistency", {},
         [("discrepancies", "discrepancy_sup_t", "discrepancy")]),
    ])
    def test_net_files_follow_report(self, tmp_path, mode, extra, layout):
        cfg = write_config(tmp_path, "c.json", dict(VW_BASE, mode=mode, **extra))
        out = tmp_path / "o"
        assert run_cli("veryweak", "--config", cfg, "--out", str(out)) == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        net = (out / "net.csv").read_text().splitlines()
        assert net[0] == "epsilon,norm,norm_kind"
        assert [row.split(",") for row in net[1:]] == [
            [repr(eps), repr(v), kind] for field, kind, _ in layout
            for eps, v in zip(rep["ladder"], rep[field])]
        dat = (out / "loglog.dat").read_text().splitlines()
        assert dat[0] == "# epsilon " + " ".join(col for *_, col in layout)
        columns = zip(*([float(v) for v in row.split()] for row in dat[1:]))
        assert [list(c) for c in columns] == [
            rep["ladder"], *(rep[field] for field, *_ in layout)]

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", VW_BASE)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("veryweak", "--config", cfg, "--out", str(out1)) == 0
        assert run_cli("veryweak", "--config", cfg, "--out", str(out2)) == 0
        for name in ("report.json", "net.csv", "loglog.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# jsonschema and the packages it imports
JSONSCHEMA_STACK = ("jsonschema", "attrs", "referencing", "rpds")


class TestImportPath:
    """scipy costs most of an import of vww; only ``samples`` loads it.
    jsonschema, a third of the rest, no vww process loads; orjson only
    ``solve`` and ``forced`` load."""

    def test_import_loads_no_scipy(self):
        assert modules_in_fresh_python("import vww, vww.cli", "scipy") == []

    def test_forced_run_loads_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, forcing={
                "space": {"kind": "sine_combo", "params": [[1.0, 1]]},
                "time": {"kind": "const"}}))
        code = ("import vww.cli\n"
                f"assert vww.cli.main(['forced', '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / 'o')!r}]) == 0")
        assert modules_in_fresh_python(code, "scipy") == []

    def test_import_loads_no_orjson(self):
        # only the solution.csv writer imports it
        assert modules_in_fresh_python("import vww, vww.cli", "orjson") == []

    def test_import_loads_no_jsonschema(self):
        assert modules_in_fresh_python("import vww, vww.cli",
                                       *JSONSCHEMA_STACK) == []

    def test_eigs_run_loads_no_jsonschema(self, tmp_path):
        # a lazy import would show here and not after the bare import
        cfg = write_config(tmp_path, "c.json",
                           {"nu": FREE_NU, "grid_n": 64, "n_max": 2})
        code = ("import vww.cli\n"
                f"assert vww.cli.main(['eigs', '--config', {cfg!r}, "
                f"'--out', {str(tmp_path / 'o')!r}]) == 0")
        assert modules_in_fresh_python(code, *JSONSCHEMA_STACK) == []


class TestOptions:
    # argparse refuses these itself: SystemExit 2 before any config is read
    @pytest.mark.parametrize("extra", [
        ["--out", "o", "--threads", "2"],
        ["--out", "o", "--selftest"],
        [],
    ], ids=["threads", "selftest", "missing_out"])
    def test_flag_refused(self, tmp_path, extra):
        cfg = write_config(tmp_path, "c.json", VW_BASE)
        with pytest.raises(SystemExit) as exc:
            run_cli("veryweak", "--config", cfg, *extra)
        assert exc.value.code == 2


class TestIOFailure:
    def test_unwritable_out_dir_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 2})
        assert run_cli("eigs", "--config", cfg, "--out", str(blocker)) == 4

    def test_failure_mid_stream_leaves_no_file(self, tmp_path):
        # a streamed file's texts are drawn while it is written
        def texts():
            yield "t,x,u,u_t\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(str(tmp_path / "solution.csv"), texts())
        assert os.listdir(tmp_path) == []


class TestFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask_022", "umask_077"])
    def test_outputs_get_the_umask_mode(self, tmp_path, umask, mode):
        # as a plain open would create them, not the temp file's 0o600
        cfg = write_config(tmp_path, "c.json", dict(SOLVE_BASE, n_times=3))
        out = tmp_path / "o"
        old = os.umask(umask)
        try:
            assert run_cli("solve", "--config", cfg, "--out", str(out)) == 0
        finally:
            os.umask(old)
        assert sorted(os.listdir(out)) == ["energy.json", "solution.csv"]
        for name in os.listdir(out):
            assert (out / name).stat().st_mode & 0o777 == mode


class TestNumericalFailure:
    """Finite but extreme potentials end in a named failure, exit 3."""

    @pytest.mark.parametrize("nu, grid_n, error", [
        ({"smooth": {"kind": "const", "params": [1e308]},
          "jumps": [[0.5, 1e308]]}, 64,
         r"BracketFailure: trial lambda \S+ for mode n=1 is not finite"),
        ({"smooth": {"kind": "linear", "params": [1e100]}}, 64,
         r"MeshTooLarge: a Magnus mesh of \S+ cells exceeds the ceiling"),
        # a const 1e200 was refused here while Newton's mesh read max |nu|
        # (TestEigs.test_level_of_nu_is_not_read); the square of this nu
        # less its line overflows in the cells' terms
        ({"smooth": {"kind": "sine", "params": [1e200, 1]}}, 64,
         r"NonFiniteResult: a Magnus mesh term is not finite for max \|nu\| "
         r"= 1e\+200"),
        # Newton's first mesh follows sqrt(lambda) alone, so |nu| = 1e6
        # overflows on its 64 cells in milliseconds; 1e4 puts lambda_1 far
        # below the floor, and 1e80 asks for a mesh past the ceiling
        ({"smooth": {"kind": "sine", "params": [-1e6, 3]}}, 64,
         r"NonFiniteResult: nu varies too fast for a block of 8 Magnus "
         r"cells of width h = 0\.0156: their growth overflows a float"),
        ({"smooth": {"kind": "sine", "params": [1e80, 1]}}, 8,
         r"MeshTooLarge: a Magnus mesh of \S+ cells exceeds the ceiling"),
        ({"smooth": {"kind": "sine", "params": [-1e4, 3]}}, 64,
         r"BracketFailure: no sign change for mode n=1 in bracket "
         r"\[0\.01, 0\.01\]"),
    ], ids=["overflowing_newton_start", "mesh_above_ceiling",
            "overflowing_nu_square", "overflowing_hyperbolic_cell",
            "infinite_cell_omega", "overflowing_block"])
    def test_eigs_exits_3(self, tmp_path, capsys, nu, grid_n, error):
        # one stderr line and no numpy warning on the way, also where
        # Newton's start (2e308 at the atom) overflows, within 0.5 s:
        # sine (-1e6, 3) took 2.6 s on a 2^21-cell mesh while max |nu|
        # sized Newton's first mesh
        cfg = write_config(tmp_path, "c.json",
                           {"nu": nu, "grid_n": grid_n, "n_max": 2})
        out = tmp_path / "o"
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 3
        assert time.perf_counter() - start < 0.5
        assert not [w for w in seen if w.category is RuntimeWarning]
        (line,) = capsys.readouterr().err.splitlines()
        assert re.search(error, line)
        assert not out.exists()

    def test_mode_at_two_nodes_per_wavelength_exits_3(self, tmp_path,
                                                      capsys):
        # est1 read lhs_max 0.6667 here for ||u0||^2 = 0.5: the Simpson
        # norm^2 of sin^2 at two nodes per wavelength is 2/3
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 16, "n_max": 8, "T": 1.0, "n_times": 5,
            "u0": {"kind": "sine_combo", "params": [[1, 8]]},
            "u1": {"kind": "zero"}, "estimate_ids": ["est1"]})
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "vww: numerical failure: UnresolvedBasis: mode n=8 is not "
            "resolved on a grid of 16 intervals: its Simpson and trapezoid "
            "norms^2 differ by 0.333 relative, above 0.01"]
        assert not out.exists()

    def test_mollifier_table_above_ceiling_exits_3(self, tmp_path, capsys):
        # sine (1, 1e6) at eps = 1/4 spans 5e5 periods a window, a rule of
        # 62,500 panels: refused from the count, naming the rung, before
        # any node exists
        cfg = write_config(tmp_path, "c.json", dict(
            VW_BASE, mode="existence",
            nu={"smooth": {"kind": "sine", "params": [1.0, 1e6]}}))
        out = tmp_path / "o"
        assert run_cli("veryweak", "--config", cfg, "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "vww: numerical failure: MeshTooLarge: rung eps=0.25: a "
            "mollifier window of 5e+05 periods of nu exceeds the ceiling of "
            "1024 periods (128 panels of 32 nodes)"]
        assert not out.exists()

    # q = sigma plus an atom alpha < 0 near x = 1 binds mode 1 at lambda_1
    # ~ sigma - alpha^2 / 4, so that y grows as exp(|alpha| x / 2) up to
    # the atom, by construction (tests/test_prufer.py takes the same two)
    def test_overflowing_eigenfunctions_exit_3(self, tmp_path, capsys):
        # |alpha| x0 / 2 ~ 800: r passes a float's range, and the basis is
        # refused by its Gram defect, NaN, with no numpy warning on the way
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "linear", "params": [8e5]},
                   "jumps": [[0.995, -1600]]},
            "grid_n": 64, "n_max": 1})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("eigs", "--config", cfg, "--out",
                           str(tmp_path / "o")) == 3
        assert not [w for w in seen if w.category is RuntimeWarning]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.search(r"UnresolvedBasis: .*Gram defect nan is not <= 0\.01",
                         err[0])
        assert not (tmp_path / "o").exists()

    def test_infinite_eigenfunction_norm_solve_exits_3(self, tmp_path,
                                                       capsys):
        # |alpha| x0 / 2 ~ 400: r^2 overflows the norm, and a zero row of
        # phi passes the Gram check; solve once wrote its solution from it
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, nu={"smooth": {"kind": "linear", "params": [2e5]},
                            "jumps": [[0.99, -808]]},
            grid_n=64, n_max=1, u0={"kind": "sine_combo", "params": [[1, 1]]}))
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run_cli("solve", "--config", cfg, "--out", str(out)) == 3
        assert not [w for w in seen if w.category is RuntimeWarning]
        assert capsys.readouterr().err.splitlines() == [
            "vww: numerical failure: UnresolvedBasis: mode n=1 is not "
            "resolved at tol=1e-11: its eigenfunction norm inf is not finite "
            "and positive"]
        assert not out.exists()

    def test_estimate_weight_overflow_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, u0={"kind": "sine_combo", "params": [[1, 1]]},
            estimate_ids=["est5"], k=1e300))
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 3
        assert re.search(r"NonFiniteResult: lambda\^k overflows for k=1e\+300",
                         capsys.readouterr().err)
        assert not (out / "estimates.json").exists()

    def test_estimate_weight_underflow_exits_3(self, tmp_path, capsys):
        # every lambda^k is 0 for k = -1e300: a ratio of 0.0 would hold
        # only because both sides vanished
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, u0={"kind": "sine_combo", "params": [[1, 1]]},
            estimate_ids=["est5"], k=-1e300))
        out = tmp_path / "o"
        assert run_cli("estimates", "--config", cfg, "--out", str(out)) == 3
        assert re.search(r"NonFiniteResult: lambda\^k underflows for "
                         r"k=-1e\+300 at lambda_min=9\.8696",
                         capsys.readouterr().err)
        assert not (out / "estimates.json").exists()

    def test_uniqueness_bound_overflow_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, mode="uniqueness", T=1e300,
            ladder=[0.5, 0.25, 0.125, 0.0625], order=1,
            w0={"kind": "sine_combo", "params": [[1, 1]]}))
        assert run_cli("veryweak", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 3
        assert re.search(r"NonFiniteResult: rung eps=0\.5: the uniqueness "
                         r"bound is nan for T=1e\+300",
                         capsys.readouterr().err)


# passes the schema; building the potential raises ConfigError
JUMP_OUTSIDE = {"nu": {"smooth": {"kind": "zero"}, "jumps": [[1.5, 1.0]]},
                "grid_n": 256, "n_max": 5}


class TestFailedCommandOutDir:
    # each config passes the schema; the command itself raises ConfigError
    @pytest.mark.parametrize("command, payload", [
        ("eigs", JUMP_OUTSIDE),
        ("veryweak", dict(VW_BASE, mode="uniqueness", nu=FREE_NU)),
        ("solve", {"nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
                   "u0": {"kind": "samples", "params": [0.0] * 10},
                   "u1": {"kind": "zero"}}),
        # the params of a zero nu once went to basis_cache.json
        ("eigs", {"nu": {"smooth": {"kind": "zero", "params": [3]}},
                  "grid_n": 64, "n_max": 2}),
    ], ids=["jump_outside_interval", "uniqueness_without_order",
            "samples_wrong_length", "zero_nu_with_params"])
    def test_config_error_leaves_no_out_dir(self, tmp_path, command, payload):
        out = tmp_path / "o"
        assert run_cli(command, "--config",
                       write_config(tmp_path, "c.json", payload),
                       "--out", str(out)) == 2
        assert not out.exists()

    def test_existing_out_dir_survives(self, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        cfg = write_config(tmp_path, "c.json", JUMP_OUTSIDE)
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 2
        assert out.is_dir() and not os.listdir(out)


SOLVE_BASE = {"nu": FREE_NU, "grid_n": 64, "n_max": 2, "T": 1.0,
              "u0": {"kind": "zero"}, "u1": {"kind": "zero"}}
# finite terms whose sum overflows at x = 1/2
OVERFLOWING_SINES = {"kind": "sine_combo", "params": [[1e308, 1], [1e308, 1]]}


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"non-finite token {token} in {path}")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestNonFiniteOutput:
    """A non-finite number refuses the command (exit 3) before any file is
    written, naming the file and the field."""

    # the solve squares u_t ~ 1e300: the gate is the one report of it, and
    # the suite's error::RuntimeWarning filter fails on any numpy warning
    def _overflow_exits_3(self, tmp_path, capsys, command, message, **extra):
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, n_max=4, n_times=5, forcing={
                "space": {"kind": "sine_combo", "params": [[1e300, 1]]},
                "time": {"kind": "const"}}, **extra))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            f"vww: numerical failure: NonFiniteResult: {message}\n")
        assert not out.exists()

    def test_forced_energy_overflow_writes_nothing(self, tmp_path, capsys):
        self._overflow_exits_3(tmp_path, capsys, "forced",
                               "energy.json: field energy/1 is not finite")

    def test_core_estimates_overflow_writes_nothing(self, tmp_path, capsys):
        self._overflow_exits_3(
            tmp_path, capsys, "estimates",
            "estimates.json: field reports/0/lhs_max is not finite",
            u0={"kind": "parabola"}, estimate_ids="core")

    def test_non_finite_energy_has_one_stderr_line(self, tmp_path):
        # energy +inf at every time: the drift inf - inf is nan, which only
        # the gate reports; a fresh process shows any numpy warning
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, n_max=4, n_times=5,
            u0={"kind": "parabola", "params": [1e300]}))
        out = tmp_path / "o"
        done = subprocess.run(
            [sys.executable, "-m", "vww", "solve", "--config", cfg,
             "--out", str(out)],
            env=checkout_env(), capture_output=True, text=True)
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            "vww: numerical failure: NonFiniteResult: energy.json: field "
            "energy/0 is not finite"]
        assert not out.exists()

    @pytest.mark.parametrize("time", [
        {"kind": "poly", "params": [1e300, 1e300, 1e300]},
        {"kind": "cos", "params": [1e308, 1e300]},
        {"kind": "const", "params": [1e308]},
    ], ids=["poly", "cos", "const"])
    @pytest.mark.parametrize("space", [
        {"kind": "parabola", "params": [1e300]},
        {"kind": "sine_combo", "params": [[1e308, 1]]},
    ], ids=["parabola", "sine_combo"])
    def test_overflowing_forcing_is_named(self, tmp_path, capsys, time,
                                          space):
        # g(t) w(x) overflows: named as the forcing, in one stderr line,
        # before numpy warns of it
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, grid_n=16, n_max=4, T=100.0,
            forcing={"space": space, "time": time}))
        out = tmp_path / "o"
        assert run_cli("forced", "--config", cfg, "--out", str(out)) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("vww: numerical failure: NonFiniteResult: "
                               "forcing g(t) w(x) is not finite: max |g| = ")
        assert not out.exists()

    @pytest.mark.parametrize("command, payload, name", [
        ("solve", dict(SOLVE_BASE, u0=OVERFLOWING_SINES), "u0"),
        ("forced", dict(SOLVE_BASE, forcing={
            "space": OVERFLOWING_SINES, "time": {"kind": "const"}}),
         "forcing/space"),
        ("veryweak", dict(VW_BASE, mode="uniqueness", order=1,
                          w1=OVERFLOWING_SINES), "w1"),
    ], ids=["u0", "forcing_space", "veryweak_w1"])
    def test_overflowing_data_is_named_before_any_basis(
            self, tmp_path, capsys, monkeypatch, command, payload, name):
        # two finite terms whose sum overflows: named as the config field,
        # in one stderr line, before any basis or numpy warning
        import vww.cli
        import vww.veryweak
        built = []
        for module in (vww.cli, vww.veryweak):
            monkeypatch.setattr(module, "build_basis",
                                lambda *args, **kw: built.append(args))
        cfg = write_config(tmp_path, "c.json", dict(payload, grid_n=16))
        out = tmp_path / "o"
        assert run_cli(command, "--config", cfg, "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"vww: numerical failure: NonFiniteResult: data {name} is not "
            "finite: its sine_combo terms overflow together"]
        assert not out.exists() and built == []

    @pytest.mark.parametrize("fmt, args, message", [
        (_json_text, ({"a": {"b": [1.0, math.inf]}},),
         "field a/b/1 is not finite"),
        (_csv_text, (("n", "ratio"), [(1, 0.5), (2, math.nan)]),
         "field ratio is nan"),
        (_dat_text, ({"epsilon": [0.5], "u_norm": [-math.inf]},),
         "field u_norm is -inf"),
        (_solution_text, ([0.0], np.zeros(3), np.zeros((1, 3)),
                          np.array([[0.0, math.nan, 0.0]])),
         "field u_t holds a non-finite value"),
    ], ids=["json", "csv", "dat", "solution_csv"])
    def test_formatter_names_the_field(self, fmt, args, message):
        with pytest.raises(NonFiniteResult, match=f"^{re.escape(message)}$"):
            fmt(*args)

    @staticmethod
    def _constant_w_report(tmp_path, w, **extra):
        """The uniqueness report of linear 5 perturbed by a constant w,
        which leaves q, so the bound, unchanged."""
        cfg = write_config(tmp_path, "c.json", dict(
            VW_BASE, mode="uniqueness", nu=LIN5_NU, grid_n=256, n_max=4,
            w_primitive={"smooth": {"kind": "const", "params": [w]}},
            **{"order": 1, **extra}))
        out = tmp_path / "o"
        assert run_cli("veryweak", "--config", cfg, "--out", str(out)) == 0
        return _strict_json(out / "report.json")["report"]

    def test_uniqueness_ratio_null_where_bound_is_zero(self, tmp_path):
        # the bound is 0, while the solver's difference is 0 or a few
        # 1e-16: w = 0.1 leaves all four rungs above 0 (1.9e-16 to 3.4e-17)
        rep = self._constant_w_report(tmp_path, 0.1)
        diffs = rep["diff_norms"]
        assert all(0.0 <= d < 1e-15 for d in diffs)
        assert rep["esnh1_ratios"] == [None if d > 0.0 else 0.0 for d in diffs]
        unbounded = [eps for eps, d in zip(
            ("0.25", "0.125", "0.0625", "0.03125"), diffs) if d > 0.0]
        assert unbounded  # the branch of a bound 0 under a difference
        assert rep["esnh1_reason"] == (
            "the bound is 0 where the difference is not, at eps="
            + ", ".join(unbounded))

    def test_uniqueness_zero_difference_reads_ratio_zero(self, tmp_path):
        # at order 240, eps^order underflows to 0.0 on the finest rung
        # alone (2^-1200; 2^-960 on the next), whose perturbed potential is
        # then its base bit for bit: its difference is exactly 0, as is its
        # bound, so the ratio reads 0, not NaN, and the reason skips that
        # rung.  The coarser rungs read 0 or round-off, as above
        rep = self._constant_w_report(tmp_path, 1.0, order=240)
        diffs = rep["diff_norms"]
        assert diffs[3] == 0.0
        assert all(0.0 <= d < 1e-15 for d in diffs)
        assert rep["esnh1_ratios"] == [None if d > 0.0 else 0.0 for d in diffs]
        unbounded = [eps for eps, d in zip(
            ("0.25", "0.125", "0.0625"), diffs) if d > 0.0]
        assert rep["esnh1_reason"] == (
            "the bound is 0 where the difference is not, at eps="
            + ", ".join(unbounded) if unbounded else None)

    def test_uniqueness_roundoff_difference_is_negligible(self, tmp_path):
        # q unchanged, so the difference net is round-off (0 to 3e-16,
        # once fitted to a slope of 0.64 and failed); its raw values are
        # still reported
        rep = self._constant_w_report(tmp_path, 1.0, T=1.0, n_times=5)
        assert all(0.0 <= d < 1e-15 for d in rep["diff_norms"])
        assert any(d > 0.0 for d in rep["diff_norms"])
        assert rep["slope"] is None
        assert rep["passed"] is True
        assert rep["verdict_reason"] == (
            "the net is at round-off from eps=0.25 on")


class TestTimeGridCeiling:
    # 1e12 times: refused from the counts alone, before any table exists
    @pytest.mark.parametrize("command, payload", [
        ("solve", dict(SOLVE_BASE, n_times=10**12)),
        ("veryweak", dict(VW_BASE, n_times=10**12)),
    ], ids=["solve", "veryweak"])
    def test_oversize_time_grid_exits_2(self, tmp_path, capsys, command,
                                        payload):
        nodes = payload["grid_n"] + 1
        out = tmp_path / "o"
        assert run_cli(command, "--config",
                       write_config(tmp_path, "c.json", payload),
                       "--out", str(out)) == 2
        assert (f"1000000000000 times x {nodes} nodes = {10**12 * nodes} "
                f"table entries exceed the ceiling of {MAX_TABLE_ENTRIES}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_forcing_time_steps_refused_before_any_basis(
            self, tmp_path, capsys, monkeypatch):
        # a given time_steps sizes the forcing table with no basis
        import vww.cli
        built = []
        monkeypatch.setattr(vww.cli, "build_basis",
                            lambda *args, **kw: built.append(args))
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, grid_n=16, forcing={
                "space": {"kind": "parabola"}, "time": {"kind": "const"},
                "time_steps": 10**9}))
        out = tmp_path / "o"
        assert run_cli("forced", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "vww: config error: 1000000001 times x 17 nodes = 17000000017 "
            f"table entries exceed the ceiling of {MAX_TABLE_ENTRIES}"]
        assert not out.exists() and built == []

    def test_benchmark_tables_fit(self):
        # the largest (times, nodes) table of the tests and the benchmark
        check_time_grid(201, Grid(2048))


class TestGridSize:
    """grid_n is an even interval count of at least 4, the fewest whose
    nodes hold the one-sided second difference of the estimates."""

    @pytest.mark.parametrize("command, payload", [
        ("eigs", {"nu": FREE_NU, "n_max": 1}),
        ("solve", SOLVE_BASE),
        ("forced", dict(SOLVE_BASE, forcing={
            "space": {"kind": "parabola"}, "time": {"kind": "const"}})),
        ("estimates", dict(SOLVE_BASE, estimate_ids=["ec2"])),
        ("veryweak", VW_BASE),
    ])
    def test_two_intervals_exit_2(self, tmp_path, capsys, command, payload):
        out = tmp_path / "o"
        assert run_cli(command, "--config", write_config(
            tmp_path, "c.json", dict(payload, grid_n=2, n_max=1)),
            "--out", str(out)) == 2
        assert "grid_n: 2 is less than 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("estimate_id",
                             ["ec2", "ec3", "ec4", "ecnh2", "ecnh3", "ecnh4"])
    def test_four_intervals_estimate(self, tmp_path, estimate_id):
        cfg = write_config(tmp_path, "c.json", dict(
            SOLVE_BASE, grid_n=4, n_max=1, n_times=5,
            u0={"kind": "parabola"}, estimate_ids=[estimate_id],
            forcing={"space": {"kind": "parabola"},
                     "time": {"kind": "const"}}))
        assert run_cli("estimates", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 0


class TestConfigLoader:
    """Configs the schema refuses, or that are not finite JSON, exit 2
    before --out is created."""

    def _refused(self, tmp_path, command, data: bytes):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(data)
        out = tmp_path / "o"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()

    # "ode_tol": NaN never fails the step-size floor, so it hangs a
    # loader that lets it through
    @pytest.mark.parametrize("command, payload, token", [
        ("solve", dict(SOLVE_BASE, T="@"), "NaN"),
        ("solve", dict(SOLVE_BASE, T="@"), "1e400"),
        ("solve", dict(SOLVE_BASE, T="@"), "1" + "0" * 400),
        ("solve", dict(SOLVE_BASE, ode_tol="@"), "NaN"),
        ("solve", dict(SOLVE_BASE, nu={"smooth": {"kind": "zero"},
                                       "jumps": [[0.5, "@"]]}), "NaN"),
        ("solve", dict(SOLVE_BASE, nu={"smooth": {"kind": "linear",
                                                  "params": ["@"]}}),
         "Infinity"),
        ("solve", dict(SOLVE_BASE, nu={"smooth": {"kind": "linear",
                                                  "params": ["@"]}}),
         "-Infinity"),
    ], ids=["T_nan", "T_overflow", "T_overflow_int", "ode_tol_nan",
            "jump_nan", "linear_inf", "linear_minus_inf"])
    def test_non_finite_number_refused(self, tmp_path, command, payload,
                                       token):
        text = json.dumps(payload).replace('"@"', token)
        validate_config(command, json.loads(text))  # the schema lets it by
        self._refused(tmp_path, command, text.encode())

    @pytest.mark.parametrize("tol", [1e-200, 1e-30])
    def test_ode_tol_below_floor_exits_2(self, tmp_path, capsys, tol):
        # at 1e-200 the sampled pass divided by a zero-width stretch, at
        # 1e-30 it ran past 20 s
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "sine", "params": [1, 1]}},
            "grid_n": 256, "n_max": 8, "ode_tol": tol})
        out = tmp_path / "o"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"vww: config error: config invalid at ode_tol: {tol!r} is less "
            "than 1e-15"]
        assert not out.exists()

    @pytest.mark.parametrize("tol", [1e-2, 1e6])
    def test_ode_tol_above_ceiling_exits_2(self, tmp_path, capsys, tol):
        # at 1e-2 lambda was 1.8 % off on sine (1, 1) while the Gram check
        # passed the basis; at 1e6 the RK45 pass overflowed r
        cfg = write_config(tmp_path, "c.json", {
            "nu": {"smooth": {"kind": "sine", "params": [1, 1]}},
            "grid_n": 256, "n_max": 8, "ode_tol": tol})
        out = tmp_path / "o"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"vww: config error: config invalid at ode_tol: {tol!r} is "
            "greater than 1e-06"]
        assert not out.exists()

    @pytest.mark.parametrize("command, payload", [
        ("solve", dict(SOLVE_BASE, u0={"kind": "parabola", "params": ["x"]})),
        ("solve", dict(SOLVE_BASE, u0={"kind": "parabola",
                                       "params": [[1, 2]]})),
        ("solve", dict(SOLVE_BASE, u0={"kind": "parabola", "params": [1, 2]})),
        ("solve", dict(SOLVE_BASE, u0={"kind": "sine_combo",
                                       "params": [[1]]})),
        ("solve", dict(SOLVE_BASE, u0={"kind": "sine_combo",
                                       "params": [1, 2]})),
        ("solve", dict(SOLVE_BASE, u0={"kind": "samples",
                                       "params": [[1.0]] * 65})),
        ("solve", dict(SOLVE_BASE, u0={"kind": "zero", "params": [1]})),
        ("solve", dict(SOLVE_BASE, nu={"smooth": {"kind": "nope"}})),
        ("veryweak", dict(VW_BASE, mollifier="nope")),
        ("estimates", dict(SOLVE_BASE, estimate_ids=["est1", "nope"])),
    ], ids=["parabola_string", "parabola_pair", "parabola_two_numbers",
            "sine_combo_short_pair", "sine_combo_numbers", "samples_nested",
            "zero_with_params", "smooth_kind", "mollifier", "estimate_id"])
    def test_schema_refuses_before_out_dir(self, tmp_path, command, payload):
        self._refused(tmp_path, command, json.dumps(payload).encode())

    def test_undecodable_config_refused(self, tmp_path):
        self._refused(tmp_path, "eigs", b'{"nu": "\xff"}')

    def test_catalog_members_pass_schema(self):
        for kind in SMOOTH_KINDS:
            validate_config("solve", dict(SOLVE_BASE, nu={"smooth": {
                "kind": kind}}))
        for name in PROFILES:
            validate_config("veryweak", dict(VW_BASE, mollifier=name))
        validate_config("estimates", dict(
            SOLVE_BASE, estimate_ids=list(ALL_ESTIMATE_IDS)))


# the Draft 2020-12 keywords that vww.cli._schema_errors reads
WALKER_KEYWORDS = {"type", "enum", "const", "properties", "required",
                   "additionalProperties", "items", "minItems", "maxItems",
                   "minimum", "maximum", "exclusiveMinimum", "anyOf", "allOf",
                   "if", "then"}


def _subschemas(schema: dict):
    """schema and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(),
              *schema.get("anyOf", ()), *schema.get("allOf", ())]
    nested += [schema[k] for k in ("items", "if", "then") if k in schema]
    for sub in nested:
        yield from _subschemas(sub)


# one config per command that sets every property its schema names, with
# data and forcing kinds spread over the if/then branches
_FULL_NU = {"smooth": {"kind": "linear", "params": [2.0]},
            "jumps": [[0.3, 3.0]]}
_FULL_PROBLEM = {
    "nu": _FULL_NU, "grid_n": 64, "n_max": 2, "ode_tol": 1e-9, "T": 1.0,
    "n_times": 5, "u0": {"kind": "parabola", "params": [1.0]},
    "u1": {"kind": "sine_combo", "params": [[0.5, 2]]}}
_FULL_FORCING = {"space": {"kind": "samples", "params": [0.0, 1.0, 0.0]},
                 "time": {"kind": "cos", "params": [1.0, 3.0]},
                 "time_steps": 16}
DIFFERENTIAL_BASES = [
    ("eigs", {"nu": _FULL_NU, "grid_n": 2048, "n_max": 40, "ode_tol": 1e-11,
              "cache_eigenfunctions": True, "write_cache": False}),
    ("solve", _FULL_PROBLEM),
    ("forced", dict(_FULL_PROBLEM, forcing=_FULL_FORCING)),
    ("estimates", dict(_FULL_PROBLEM, forcing=_FULL_FORCING,
                       estimate_ids=["est1", "est5"], k=1.0)),
    ("estimates", dict(SOLVE_BASE, estimate_ids="core")),
    ("veryweak", dict(_FULL_PROBLEM, mode="uniqueness",
                      ladder=[0.5, 0.25, 0.125, 0.0625], mollifier="bump",
                      declared_order=0, order=1, w_primitive=_FULL_NU,
                      w0={"kind": "zero", "params": []},
                      w1={"kind": "sine_combo", "params": [[1, 1]]},
                      tolerance=1e-3, u0_scale_exponent=0.5,
                      u1_scale_exponent=0)),
    ("veryweak", VW_BASE),
]


def _strings(schema: dict) -> list:
    """Every enum member, const and property name in schema."""
    out = []
    for sub in _subschemas(schema):
        out += [*sub.get("enum", ()), *sub.get("properties", {})]
        out += [sub["const"]] if "const" in sub else []
    return sorted(set(out))


_ATOMS = [None, True, False, 0, 1, -1, 2, 8, 7, 1.0, 2.0, 0.5, -0.5, 0.0,
          -0.0, 1e300, 10**20, float("nan"), float("inf"), "", "x", [],
          [1.0], [1, 2], [1, 2, 3], [[1, 2]], [[1]], [True, 1], {},
          {"kind": "zero"}, {"kind": "parabola", "params": [1]},
          {"kind": "sine_combo", "params": [[1, 2]]},
          {"k_min": 1, "k_max": 4}, {"smooth": {"kind": "zero"}}]


def _mutate(rng: random.Random, config: dict, strings: list) -> dict:
    """config with one to three nodes replaced, removed or added."""
    config = copy.deepcopy(config)
    for _ in range(rng.choice((1, 1, 2, 3))):
        slots = []  # (container, key) of every node below the root

        def collect(node):
            keys = (node if isinstance(node, dict)
                    else range(len(node)) if isinstance(node, list) else ())
            for key in keys:
                slots.append((node, key))
                collect(node[key])

        collect(config)
        container, key = rng.choice(slots) if slots else (config, None)
        op = rng.randrange(3)
        atom = copy.deepcopy(rng.choice(_ATOMS + strings))
        if op == 0 and key is not None:
            container[key] = atom
        elif op == 1 and key is not None:
            del container[key]
        elif isinstance(container, dict):
            container[rng.choice(strings + ["nope"])] = atom
        else:
            container.append(atom)
    return config


class TestSchemaWalker:
    """The in-house walker refuses what Draft 2020-12 refuses."""

    def test_schemas_use_only_walker_keywords(self):
        for command, schema in _SCHEMAS.items():
            for sub in _subschemas(schema):
                assert set(sub) <= WALKER_KEYWORDS, (command, sub)
                assert sub.get("additionalProperties", False) is False
                assert sub.get("type", "number") in {
                    "object", "array", "number", "integer", "boolean"}
                # so that the walker's ``in`` and ``==`` are JSON equality
                assert all(isinstance(v, str) for v in
                           [*sub.get("enum", ()), sub.get("const", "")])

    def test_mutated_configs_match_draft_2020_12(self):
        jsonschema = pytest.importorskip("jsonschema")
        rng = random.Random(20201202)
        counts = {"accepted": 0, "refused": 0}
        for i in range(3000):
            command, base = DIFFERENTIAL_BASES[i % len(DIFFERENTIAL_BASES)]
            schema = _SCHEMAS[command]
            config = _mutate(rng, base, _strings(schema))
            oracle = jsonschema.Draft202012Validator(schema).is_valid(config)
            try:
                validate_config(command, config)
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == oracle, (command, config)
            counts["accepted" if accepted else "refused"] += 1
        assert min(counts.values()) >= 150, counts

    def test_bases_pass(self):
        for command, base in DIFFERENTIAL_BASES:
            validate_config(command, base)
