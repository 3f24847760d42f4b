"""CLI subcommands: file outputs, exit codes, determinism."""

import json
import math
import os

import numpy as np
import pytest

from vww.cli import _write_csv, _write_solution_csv, main, validate_config
from vww.estimates import ALL_ESTIMATE_IDS
from vww.potential import PROFILES, SMOOTH_KINDS

from conftest import scipy_modules_in_fresh_python


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

    def test_constant_potential_shift(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": LIN5_NU, "grid_n": 512, "n_max": 5})
        out = tmp_path / "out"
        assert run_cli("eigs", "--config", cfg, "--out", str(out)) == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        lams = [float(r.split(",")[1]) for r in rows]
        want = [(n * math.pi) ** 2 + 5.0 for n in range(1, 6)]
        assert np.max(np.abs(np.array(lams) - np.array(want))) <= 1e-7

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
        from vww.prufer import basis_from_cache
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
        # reference: one float() tuple per cell, formatted by _write_csv
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
        _write_csv(str(tmp_path / "want.csv"), ("t", "x", "u", "u_t"), rows)
        _write_solution_csv(str(tmp_path / "got.csv"),
                            [float(t) for t in times], nodes, values,
                            dt_values)
        want = (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "got.csv").read_bytes() == want
        assert want.startswith(b"t,x,u,u_t\n0.0,0.0,-0.0,")
        for cell in (b",5e-324,", b",1e-300,", b",1e+16,"):
            assert cell in want

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

    def test_missing_forcing_block_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 5, "T": 1.0,
            "u0": {"kind": "zero"}, "u1": {"kind": "zero"}})
        assert run_cli("forced", "--config", cfg, "--out",
                       str(tmp_path / "o")) == 2


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


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_cli("eigs", "--selftest") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestImportPath:
    """scipy costs most of an import of vww; only ``samples`` loads it."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_in_fresh_python("import vww, vww.cli") == []

    def test_forced_selftest_loads_no_scipy(self):
        code = ("import vww.cli\n"
                "assert vww.cli.main(['forced', '--selftest']) == 0")
        assert scipy_modules_in_fresh_python(code) == []


class TestOptions:
    def test_threads_flag_refused(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", VW_BASE)
        with pytest.raises(SystemExit) as exc:
            run_cli("veryweak", "--config", cfg, "--out", str(tmp_path / "o"),
                    "--threads", "2")
        assert exc.value.code == 2


class TestIOFailure:
    def test_unwritable_out_dir_exits_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = write_config(tmp_path, "c.json", {
            "nu": FREE_NU, "grid_n": 256, "n_max": 2})
        assert run_cli("eigs", "--config", cfg, "--out", str(blocker)) == 4


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
    ], ids=["jump_outside_interval", "uniqueness_without_order",
            "samples_wrong_length"])
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
