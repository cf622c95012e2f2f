"""CLI configuration, command dispatch, report emission and exit codes."""

import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkcce
from hkcce import cli
from hkcce.cli import RunConfig, fmt15, main, parse_config
from hkcce.compactification import CompactifiedGeometry
from hkcce.special_fn import K_DECADES, QCurvParams, sphere_q_value


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["qcurv"])
        assert cfg.command == "qcurv"
        assert cfg.n == [4] and cfg.gamma == [0.5] and cfg.k == [1.0]
        assert cfg.quad_tol == 1e-6
        assert cfg.emit_csv and cfg.emit_json

    def test_explicit_case(self):
        cfg = parse_config(["qcurv", "--n", "4", "--gamma", "0.5", "--k", "1"])
        assert (cfg.n, cfg.gamma, cfg.k) == ([4], [0.5], [1.0])

    def test_range_syntax(self):
        cfg = parse_config(["verify", "prop21", "--n", "5..8"])
        assert cfg.n == [5, 6, 7, 8]
        assert cfg.verify_target == "prop21"

    def test_comma_lists(self):
        cfg = parse_config(["sweep", "--gamma", "0.25,0.5,0.75", "--k", "0.5,1,2"])
        assert cfg.gamma == [0.25, 0.5, 0.75]
        assert cfg.k == [0.5, 1.0, 2.0]

    def test_resonance_guard(self):
        with pytest.raises(ValueError):
            parse_config(["qcurv", "--gamma", "0.99"])

    def test_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"gamma": [0.25, 0.5, 0.75], "k": [2.0]}))
        cfg = parse_config(["qcurv", "--config", str(cfg_file), "--gamma", "0.5"])
        assert cfg.gamma == [0.5]       # flag wins
        assert cfg.k == [2.0]           # file fills the rest

    def test_env_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HKCCE_OUT", str(tmp_path / "envout"))
        cfg = parse_config(["qcurv"])
        assert cfg.out == str(tmp_path / "envout")

    def test_emit_selection(self):
        cfg = parse_config(["qcurv", "--emit", "csv"])
        assert cfg.emit_csv and not cfg.emit_json

    def test_bad_emit(self):
        with pytest.raises(ValueError):
            parse_config(["qcurv", "--emit", "yaml"])

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config([])
        assert exc.value.code != 0

    def test_validate_ranges(self):
        with pytest.raises(ValueError):
            RunConfig(command="qcurv", quad_tol=1e-12).validate()
        with pytest.raises(ValueError):
            RunConfig(command="qcurv", n=[]).validate()

    @pytest.mark.parametrize("flag", ["--ode-tol", "--T"])
    def test_removed_solver_flags_are_usage_errors(self, flag):
        # the series connection has no integrator tolerance and no window
        with pytest.raises(SystemExit) as exc:
            parse_config(["qcurv", flag, "10"])
        assert exc.value.code != 0


class TestFormatting:
    def test_fmt15(self):
        assert fmt15(1.0) == "1"
        assert fmt15(0.1) == "0.1"
        assert len(fmt15(2.0 / 3.0).replace("0.", "")) == 15


class TestCommands:
    def test_qcurv_unit_case(self, tmp_path, capsys):
        rc = main(["qcurv", "--n", "4", "--gamma", "0.5", "--k", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "tables" / "qcurv.csv").read_text().strip().split("\n")
        assert lines[0].startswith("n,gamma,k,Q_num,Q_oracle,rel_err")
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(1.0, abs=1e-6)
        assert float(row[5]) <= 1e-6
        assert row[-1] == "pass"

    def test_prop21_certificate(self, tmp_path):
        rc = main(["verify", "prop21", "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "reports" / "prop21_n5.json").read_text())
        assert payload["beta"]["intE2"] == "1/135"
        assert payload["ok"] is True

    def test_prop21_small_n_rejected(self, tmp_path):
        # refused up front, before any certificate is computed
        with pytest.raises(ValueError, match="prop21 requires n >= 5"):
            parse_config(["verify", "prop21", "--n", "4,5", "--out", str(tmp_path / "o")])

    def test_verify_adapted_strict_exit_zero(self, tmp_path):
        rc = main(["verify", "hk-adapted", "--gamma", "0.25",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = json.loads((tmp_path / "o" / "reports" / "hk-adapted.json").read_text())
        assert rows[0]["verdict"] == "strict"

    def test_sweep_cardinality_and_schema(self, tmp_path):
        rc = main(["sweep", "--n", "4", "--gamma", "0.25,0.5", "--k", "1,2",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "tables" / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "n,gamma,k,Q_num,Q_oracle,rel_err,lhs,rhs,gap,verdict"
        assert len(lines) == 1 + 4

    def test_sweep_rows_equal_qcurv_and_verify_rows(self, tmp_path):
        # the sweep's Q columns come from the same helper as qcurv's, and its
        # lhs/rhs/gap from the same report as `verify hk-adapted`
        grid = ["--n", "3,5", "--gamma", "0.3,0.5", "--k", "0.5,2", "--jobs", "1"]
        rows = {}
        for name, command in (("sweep", ["sweep"]), ("qcurv", ["qcurv"]),
                              ("hk-adapted", ["verify", "hk-adapted"])):
            assert main(command + grid + ["--out", str(tmp_path / name)]) == 0
            rows[name] = json.loads((tmp_path / name / "reports" / f"{name}.json").read_text())
        assert len(rows["sweep"]) == len(rows["qcurv"]) == len(rows["hk-adapted"]) == 8
        # the JSON reports keep each double's round-trip repr, so equal
        # values here are equal bits
        for sweep, qcurv, verify in zip(rows["sweep"], rows["qcurv"], rows["hk-adapted"]):
            for key in ("n", "gamma", "k", "Q_num", "Q_oracle", "rel_err"):
                assert sweep[key] == qcurv[key], key
            for key in ("n", "gamma", "k", "lhs", "rhs", "gap"):
                assert sweep[key] == verify[key], key

    def test_determinism_byte_identical(self, tmp_path):
        args = ["sweep", "--n", "4", "--gamma", "0.25,0.5", "--k", "1"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "tables" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "tables" / "sweep.csv").read_bytes()
        assert a == b

    def test_manifest_completeness(self, tmp_path):
        rc = main(["qcurv", "--out", str(tmp_path / "o"), "--quad-tol", "1e-7"])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["tolerances"] == {"quad_tol": 1e-7}
        assert "T" not in manifest
        assert manifest["all_pass"] is True
        assert "wall_clock_s" in manifest and "version" in manifest

    def test_residuals_command(self, tmp_path):
        rc = main(["residuals", "--n", "4", "--gamma", "0.5",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = json.loads((tmp_path / "o" / "reports" / "residuals.json").read_text())
        kinds = {r["kind"] for r in rows}
        assert kinds == {"adapted", "lee"}
        # profile dumps follow the documented column layout
        for name in ("profile_adapted_n4_g0.5_k1.0.csv", "profile_lee_n4_k1.0.csv"):
            data = (tmp_path / "o" / "tables" / name).read_bytes()
            assert b"\r" not in data               # LF, like every other table
            lines = data.decode().strip().split("\n")
            assert lines[0] == "t,r,rho,drho,grad_sq,T_or_J,res_rho,res_T_or_J"
            assert len(lines) == 1 + 200            # one row per window point
        assert not list((tmp_path / "o" / "tables").glob("*.tmp"))

    @pytest.mark.parametrize("argv", [
        ["qcurv"], ["sweep"], ["residuals"], ["residuals", "--emit", "json"],
        ["asymptotic"], ["verify", "defect"], ["verify", "prop21", "--n", "5"],
    ], ids=" ".join)
    def test_manifest_lists_every_file_written(self, tmp_path, argv):
        out = tmp_path / "o"
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p for p in out.rglob("*") if p.is_file()} - {out / "manifest.json"}
        assert sorted(map(Path, manifest["files"])) == sorted(on_disk)

    def test_residual_window_assembled_once(self, tmp_path, monkeypatch):
        # residual_suite and the profile dump read one window state; the
        # other assembly of each geometry is the one point r = 0, read by
        # `boundary`: no quadrature lattice is assembled
        assembled = []
        real = CompactifiedGeometry._assemble

        def counting(geom, tau, *args, **kwargs):
            assembled.append((geom.kind, len(tau)))
            return real(geom, tau, *args, **kwargs)

        monkeypatch.setattr(CompactifiedGeometry, "_assemble", counting)
        rc = main(["residuals", "--n", "4", "--gamma", "0.5", "--k", "1",
                   "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "tables" / "profile_lee_n4_k1.0.csv").is_file()
        assert [kind for kind, _ in assembled] == ["adapted"] * 2 + ["lee"] * 2
        assert [points for _, points in assembled] == [200, 1] * 2

    def test_asymptotic_command(self, tmp_path):
        rc = main(["asymptotic", "--n", "5", "--k", "1", "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "tables" / "asymptotic.csv").read_text().strip().split("\n")
        assert lines[0] == "n,k,r,ratio,abs_err"
        assert len(lines) == 1 + 20

    def test_parallel_jobs(self, tmp_path):
        rc = main(["qcurv", "--n", "4,5", "--gamma", "0.5", "--k", "1",
                   "--jobs", "2", "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "tables" / "qcurv.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2

    @pytest.mark.parametrize("n, jobs, cpus, used", [
        ("4,5", "1", 2, 1), ("4,5", "2", 2, 2),
        ("4", "2", 2, 1),                  # one case runs serially
        ("4,5", "0", 1, 1),                # one CPU: no pool
    ])
    def test_manifest_records_the_processes_used(self, tmp_path, monkeypatch,
                                                 n, jobs, cpus, used):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(["qcurv", "--n", n, "--gamma", "0.5", "--k", "1",
                     "--jobs", jobs, "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "manifest.json").read_text())["jobs"] == used

    @pytest.mark.parametrize("command", [
        ["sweep"], ["qcurv"], ["residuals"], ["asymptotic"], ["verify", "hk-adapted"],
        ["verify", "hk-cla"], ["verify", "hk-lee"], ["verify", "defect"], ["verify", "prop21"],
    ], ids=" ".join)
    def test_two_jobs_write_what_one_job_writes(self, tmp_path, command):
        grid = ["--n", "5,6"] if command[-1] == "prop21" else [
            "--n", "4,5", "--gamma", "0.25,0.5", "--k", "0.5,1,2"]
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(command + grid + ["--jobs", jobs, "--out", str(out)]) == 0
            written[jobs] = {str(p.relative_to(out)): p.read_bytes()
                             for p in out.rglob("*") if p.is_file()}
            del written[jobs]["manifest.json"]         # wall clock and jobs
        assert written["1"] == written["2"]
        assert len(written["1"]) >= 2

    @pytest.mark.parametrize("argv", [
        ["asymptotic", "--n", "4,5"],
        ["verify", "prop21", "--n", "5,6"],
        ["verify", "hk-adapted", "--gamma", "0.25,0.5"],
        ["verify", "hk-cla", "--k", "1,2"],
        ["verify", "hk-lee", "--n", "4,5"],
        ["verify", "defect", "--gamma", "0.25"],      # one adapted, one Lee
    ], ids=" ".join)
    def test_jobs_reach_every_command(self, tmp_path, pool, argv):
        # two cases at --jobs 2: both go to a pool of two workers
        assert main(argv + ["--jobs", "2", "--out", str(tmp_path / "o")]) == 0
        assert pool["workers"] == [2]
        assert sum(len(c) for c in pool["chunks"]) == 2

    @pytest.fixture
    def pool(self, monkeypatch):
        """Record the pool's worker count and chunks; run the cases in process."""
        seen = {"workers": [], "chunks": []}

        class InProcess:
            def __init__(self, max_workers):
                seen["workers"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize=1):
                args = list(args)
                seen["chunks"].extend(args[i:i + chunksize]
                                      for i in range(0, len(args), chunksize))
                return map(fn, args)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcess)
        return seen

    @pytest.mark.parametrize("command", ["sweep", "qcurv", "residuals"])
    def test_pool_chunks_keep_each_n_gamma_on_one_worker(self, tmp_path, pool, command):
        # the k of one (n, gamma) share its interior, which a worker's memo
        # keeps only while they arrive together
        assert main([command, "--n", "4,5", "--gamma", "0.25,0.5", "--k", "0.5,1,2",
                     "--jobs", "2", "--out", str(tmp_path / "o")]) == 0
        groups = [{tuple(a[:3] if command == "residuals" else a[:2]) for a in c}
                  for c in pool["chunks"]]
        assert all(len(g) == 1 for g in groups)
        assert len(groups) == len({g.pop() for g in groups})      # no group split
        assert pool["workers"] == [2]

    @pytest.mark.parametrize("cpus, k, chunks, workers", [
        (4, "0.5,1,1.5,2,2.5,3", [2, 2, 2], [3]),      # one group split evenly
        (2, "0.5,1,1.5,2,2.5,3", [3, 3], [2]),
        (8, "0.5,1,2", [1, 1, 1], [3]),                # never more workers than cases
        (1, "0.5,1,2", [], []),                        # one CPU: no pool
    ])
    def test_one_n_gamma_is_shared_out_over_the_workers(self, tmp_path, monkeypatch, pool,
                                                        cpus, k, chunks, workers):
        # --jobs 0 counts the CPUs this process may run on, not the machine's
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(["qcurv", "--n", "4", "--gamma", "0.5", "--k", k,
                     "--jobs", "0", "--out", str(tmp_path / "o")]) == 0
        assert [len(c) for c in pool["chunks"]] == chunks
        assert pool["workers"] == workers

    def test_failing_verdict_exits_one(self, tmp_path, capsys, monkeypatch):
        # an inconclusive report is a failing verdict
        real = hkcce.cli.verify_adapted

        def inconclusive(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), verdict="inconclusive")

        monkeypatch.setattr(hkcce.cli, "verify_adapted", inconclusive)
        rc = main(["verify", "hk-adapted", "--gamma", "0.25",
                   "--quad-tol", "1e-10", "--out", str(tmp_path / "o")])
        assert rc == 1
        captured = capsys.readouterr()
        assert "failing verdict" in captured.err
        # the label names the verdict kind; `fail` is kept for a failed check
        assert "  inconclusive hk-adapted_n4_g0.25_k1.0\n" in captured.err
        assert "fail " not in captured.err.lower()

    def test_sweep_q_miss_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        # a Q off its oracle is a numerical shortfall, never `fail`
        monkeypatch.setattr(hkcce.cli, "sphere_q_value",
                            lambda n, gamma, k: sphere_q_value(n, gamma, k) + 1e-5)
        rc = main(["sweep", "--n", "4", "--gamma", "0.5", "--k", "1", "--jobs", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        rows = json.loads((tmp_path / "o" / "reports" / "sweep.json").read_text())
        assert [row["verdict"] for row in rows] == ["inconclusive"]
        err = capsys.readouterr().err
        assert "  inconclusive sweep n=4 gamma=0.5 k=1.0\n" in err
        assert "fail " not in err.lower()

    def test_qcurv_q_miss_is_inconclusive(self, tmp_path, capsys, monkeypatch):
        # the same shortfall in a qcurv row is named as in a sweep row
        monkeypatch.setattr(hkcce.cli, "sphere_q_value",
                            lambda n, gamma, k: sphere_q_value(n, gamma, k) + 1e-5)
        rc = main(["qcurv", "--n", "4", "--gamma", "0.5", "--k", "1", "--jobs", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        rows = json.loads((tmp_path / "o" / "reports" / "qcurv.json").read_text())
        assert [row["verdict"] for row in rows] == ["inconclusive"]
        err = capsys.readouterr().err
        assert "  inconclusive qcurv n=4 gamma=0.5 k=1.0\n" in err
        assert "fail " not in err.lower()

    @pytest.mark.parametrize("command", ["sweep", "qcurv"])
    def test_relative_q_miss_is_inconclusive_at_a_large_oracle(self, command, tmp_path, capsys,
                                                                 monkeypatch):
        # Q = 15.3 here: a 5e-6 relative miss is above the 1e-6 gate, which
        # is relative already and is not scaled by |Q| a second time
        monkeypatch.setattr(hkcce.cli, "sphere_q_value",
                            lambda n, gamma, k: sphere_q_value(n, gamma, k) * (1 + 5e-6))
        rc = main([command, "--n", "20", "--gamma", "0.95", "--k", "2", "--jobs", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        rows = json.loads((tmp_path / "o" / "reports" / f"{command}.json").read_text())
        assert [row["verdict"] for row in rows] == ["inconclusive"]
        assert rows[0]["Q_oracle"] > 15
        err = capsys.readouterr().err
        assert f"  inconclusive {command} n=20 gamma=0.95 k=2.0\n" in err

    def test_io_failure_exits_two(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["qcurv", "--out", str(blocker / "sub")])
        assert rc == 2

    def test_undecidable_case_is_named(self, tmp_path, capsys):
        # the tau = 3 connection fails its condition guard (4.5e13 > 1e12)
        # at n = 250: one named line on stderr and status 2, no traceback
        rc = main(["qcurv", "--n", "250", "--gamma", "0.5", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("hkcce: MatchingError: matching system condition")

    def test_gamma_free_targets_once_per_n_k(self, tmp_path):
        rc = main(["verify", "defect", "--n", "4", "--gamma", "0.25,0.75", "--k", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = json.loads((tmp_path / "o" / "reports" / "defect.json").read_text())
        assert sorted(row["name"] for row in rows) == [
            "defect-adapted", "defect-adapted", "defect-lee"]

    def test_usage_error_nonzero(self):
        rc = main(["qcurv", "--gamma", "0.99"])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "prop21", "--n", "4"],
        ["verify", "hk-lee", "--k", "inf"],
        ["qcurv", "--k", "inf"],
        ["qcurv", "--k", "nan"],
    ])
    def test_bad_values_refused_up_front(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hkcce: ")
        assert not out.exists()

    @pytest.mark.parametrize("n, gamma, k", [
        (2, 0.5, 1.0), (4, 0.99, 1.0), (4, 0.01, 1.0), (4, 0.5, math.inf), (4, 0.5, 1e20)])
    def test_cli_refuses_what_the_library_refuses(self, tmp_path, capsys, n, gamma, k):
        # the CLI's gate is the library's: one line, in the library's words
        with pytest.raises(ValueError) as refused:
            QCurvParams(n, gamma, k)
        out = tmp_path / "o"
        assert main(["qcurv", "--n", str(n), "--gamma", repr(gamma), "--k", repr(k),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["hkcce: " + str(refused.value)]
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", (4, 20))
    @pytest.mark.parametrize("k", [10.0 ** (sign * e) for e in (10, 20, 30, 50, 100, 300)
                                   for sign in (1, -1)])
    def test_extreme_k_correct_or_refused_up_front(self, tmp_path, capsys, n, k):
        # far from k = 1 the branch coefficients and the reports leave the
        # double range: such a k is refused before any case runs
        out = tmp_path / "o"
        rc = main(["qcurv", "--n", str(n), "--gamma", "0.05,0.5,0.95", "--k", repr(k),
                   "--out", str(out)])
        accepted = abs(math.log10(k)) * (n / 2 + 10) <= K_DECADES
        assert rc == (0 if accepted else 2)
        if accepted:
            lines = (out / "tables" / "qcurv.csv").read_text().strip().split("\n")
            for line in lines[1:]:
                row = line.split(",")
                oracle = sphere_q_value(n, float(row[1]), k)
                assert abs(float(row[3]) / oracle - 1) <= 1e-12, row
        else:
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"hkcce: k={k} out of range at n={n}")
            assert not out.exists()

    def test_missing_config_file_refused(self, tmp_path, capsys):
        rc = main(["qcurv", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hkcce: cannot read config file")

    def test_non_object_config_refused(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('[{"n": 5}]')
        rc = main(["qcurv", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "must hold a JSON object" in err[0]

    @pytest.mark.parametrize("text, key", [
        ('{"n": [{}]}', "'n'"),
        ('{"emit": 5}', "'emit'"),
        ('{"n": 4.5}', "'n'"),
        ('{"jobs": true}', "'jobs'"),
    ])
    def test_wrong_type_config_refused(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        rc = main(["qcurv", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hkcce: config file ")
        assert f"{key} must be" in err[0]
        assert not out.exists()

    def test_unknown_config_key_refused(self, tmp_path, capsys):
        # a misspelt key would otherwise leave its default in place silently
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"gama": [0.3], "quad-tol": 1e-3}')
        out = tmp_path / "o"
        rc = main(["qcurv", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"hkcce: config file {cfg}: unknown key 'gama'")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("config, flags, source", [
        ('{"jobs": "2.0"}', [], "config file {cfg}: 'jobs': "),
        ('{"gamma": "0.5,x"}', [], "config file {cfg}: 'gamma': "),
        (None, ["--n", "4.5"], "--n: "),
        (None, ["--k", "1,abc"], "--k: "),
        (None, ["--n", "5..x"], "--n: "),
        (None, ["--n", "4,12..5"], "--n: reversed range '12..5'"),
    ], ids=["config-jobs", "config-gamma", "flag-n", "flag-k", "flag-n-range",
            "flag-n-reversed-range"])
    def test_uncastable_value_names_its_source(self, tmp_path, capsys, config, flags, source):
        # a value of the right type that its cast refuses names its key or flag
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
            flags = ["--config", str(cfg)]
        out = tmp_path / "o"
        assert main(["qcurv", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hkcce: " + source.format(cfg=cfg)), err
        assert not out.exists()

    def test_config_lists_and_strings_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": [4.0, "5"], "k": "0.5,1", "emit": ["csv"], "jobs": "1"}')
        got = parse_config(["qcurv", "--config", str(cfg)])
        assert (got.n, got.k, got.jobs) == ([4, 5], [0.5, 1.0], 1)
        assert got.emit_csv and not got.emit_json


class TestImport:
    def test_no_scipy_at_import(self):
        # hkcce needs numpy only; scipy costs ~0.4 s and ~50 MB per interpreter
        code = ("import sys, hkcce, hkcce.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ)
        src = str(Path(hkcce.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"
