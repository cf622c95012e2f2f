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
from hkcce.hk_verifier import (asymptotic_ratio, defect_identity, verify_adapted, verify_cla,
                               verify_lee)
from hkcce.special_fn import K_DECADES, QCurvParams, sphere_q_value


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["qcurv"])
        assert cfg.command == "qcurv"
        assert cfg.n == [4] and cfg.gamma == [0.5] and cfg.k == [1.0]
        assert cfg.emit == {"csv", "json"}

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

    def test_out_is_read_from_its_flag_alone(self, tmp_path, monkeypatch):
        # no environment variable places the output
        monkeypatch.setenv("HKCCE_OUT", str(tmp_path / "envout"))
        assert parse_config(["qcurv"]).out == "out"
        assert parse_config(["qcurv", "--out", str(tmp_path / "o")]).out == str(tmp_path / "o")

    def test_emit_selection(self):
        cfg = parse_config(["qcurv", "--emit", "csv"])
        assert cfg.emit == {"csv"}

    def test_bad_emit(self):
        with pytest.raises(ValueError):
            parse_config(["qcurv", "--emit", "yaml"])

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config([])
        assert exc.value.code != 0

    def test_validate_ranges(self):
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
        rc = main(["qcurv", "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert "tolerances" not in manifest
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

    @pytest.mark.parametrize("argv, files", [
        (["verify", "hk-lee", "--n", "5", "--emit", "csv"],
         ["tables/hk-lee.csv", "reports/hk-lee_n5_k1.0.json"]),
        (["verify", "hk-lee", "--n", "5", "--emit", "json"],
         ["reports/hk-lee.json", "reports/hk-lee_n5_k1.0.json"]),
        (["residuals", "--n", "4", "--gamma", "0.5", "--emit", "json"],
         ["reports/residuals.json"]),
        (["residuals", "--n", "4", "--gamma", "0.5", "--emit", "csv"],
         ["tables/residuals.csv", "tables/profile_adapted_n4_g0.5_k1.0.csv",
          "tables/profile_lee_n4_k1.0.csv"]),
    ], ids=["verify-csv", "verify-json", "residuals-json", "residuals-csv"])
    def test_emit_picks_the_table_and_dump_formats(self, tmp_path, argv, files):
        # --emit picks the formats of the command's table and of the profile
        # dumps (CSV only); a verify target's per-case JSON reports are
        # written whatever it says.  The manifest lists them in writing order.
        out = tmp_path / "o"
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert on_disk == {*files, "manifest.json"}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == [str(out / f) for f in files]

    @pytest.mark.parametrize("target, reports", [
        ("hk-adapted", {"hk-adapted_n4_g0.3_k1.0": lambda: verify_adapted(4, 0.3, 1.0)}),
        ("hk-cla", {"hk-cla_n4_k1.0": lambda: verify_cla(4, 1.0)}),
        ("hk-lee", {"hk-lee_n4_k1.0": lambda: verify_lee(4, 1.0)}),
        ("defect", {"defect-adapted_n4_g0.3_k1.0":
                    lambda: defect_identity("adapted", 4, 1.0, gamma=0.3),
                    "defect-lee_n4_k1.0": lambda: defect_identity("lee", 4, 1.0)}),
    ])
    def test_case_json_is_the_library_report(self, tmp_path, target, reports):
        # each per-case JSON the CLI writes is the library's report of that
        # case, every field of it
        out = tmp_path / "o"
        assert main(["verify", target, "--n", "4", "--gamma", "0.3", "--k", "1",
                     "--emit", "csv", "--jobs", "1", "--out", str(out)]) == 0
        written = {p.stem: json.loads(p.read_text()) for p in (out / "reports").glob("*.json")}
        assert written == {tag: json.loads(json.dumps(report().to_dict()))
                           for tag, report in reports.items()}

    _BRANCH_CANCELS = pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 1-2: with the centre/branch split fixed at tau = 3 the "
        "branch sum cancels by condition_estimate just past it, and res_T "
        "exceeds its 1e-5 bound"))

    @pytest.mark.parametrize("n, gamma, k", [
        (151, 0.5, 1.0), (162, 0.5, 0.5),
        pytest.param(152, 0.5, 1.0, marks=_BRANCH_CANCELS),
        pytest.param(140, 0.5, 2.0, marks=_BRANCH_CANCELS),
        pytest.param(163, 0.5, 0.5, marks=_BRANCH_CANCELS),
    ])
    def test_residuals_pass_on_accepted_cases_near_half(self, n, gamma, k):
        # sup res_T reads 8.0e-6 and 7.9e-6 on the first two cells, and
        # 2.2e-5, 1.2e-5 and 1.2e-5 (a false `fail`) on the last three
        rows, _, failing = cli._residual_case(("adapted", n, gamma, k))
        assert rows[0]["verdict"] == "pass", rows[0]["sup_res_T_or_J"]
        assert failing == []

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
        rc = main(["verify", "hk-adapted", "--gamma", "0.25", "--out", str(tmp_path / "o")])
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

    def test_io_failure_exits_two(self, tmp_path, capsys):
        # one line on stderr, however many layers the failure passes through
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["qcurv", "--out", str(blocker / "sub")])
        assert rc == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("hkcce: I/O failure:"), err
        assert captured.out == ""

    def test_undecidable_case_is_named(self, tmp_path, capsys):
        # the tau = 3 connection fails its condition guard (6.0e10 > 1.7e9)
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

    @pytest.mark.parametrize("k", [math.inf, 1e30, 1e-30])
    def test_library_refuses_what_the_cli_refuses(self, tmp_path, capsys, k):
        # the gamma-free reports gate k through `ModelSpace`, on the same line
        out = tmp_path / "o"
        assert main(["verify", "hk-lee", "--n", "4", "--k", repr(k), "--out", str(out)]) == 2
        line = capsys.readouterr().err.splitlines()
        assert not out.exists()
        for call in (lambda: verify_lee(4, k), lambda: defect_identity("lee", 4, k),
                     lambda: asymptotic_ratio(4, k, [1e-16])):
            with pytest.raises(ValueError) as refused:
                call()
            assert line == ["hkcce: " + str(refused.value)]

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

    def test_verdict_band_has_no_knob(self, tmp_path, capsys):
        # gap/lhs = 0.0228 is strict; no flag can widen the verdict band to
        # call it `equality`
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "hk-adapted", "--n", "4", "--gamma", "0.4",
                  "--quad-tol", "1e-2", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert [line for line in err if line.startswith("usage:")] == [err[0]]
        assert "unrecognized arguments: --quad-tol" in err[-1]
        assert not out.exists()
        assert verify_adapted(4, 0.4, 1.0).verdict == "strict"

    @pytest.mark.parametrize("flags, source", [
        (["--n", "4.5"], "--n: "),
        (["--k", "1,abc"], "--k: "),
        (["--n", "5..x"], "--n: "),
        (["--n", "4,12..5"], "--n: reversed range '12..5'"),
        (["--jobs", "2.0"], "--jobs: "),
    ], ids=["flag-n", "flag-k", "flag-n-range", "flag-n-reversed-range", "flag-jobs"])
    def test_uncastable_value_names_its_source(self, tmp_path, capsys, flags, source):
        # a value that its flag's reader refuses names the flag
        out = tmp_path / "o"
        assert main(["qcurv", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("hkcce: " + source), err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["qcurv"], ["verify", "hk-adapted"], ["verify", "prop21"],
                                      ["residuals"], ["asymptotic"], ["sweep"]], ids=" ".join)
    def test_config_file_is_a_usage_error(self, tmp_path, capsys, argv):
        # settings come from flags alone: --config is not a flag of any command
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": [5]}')
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert err[0].startswith("usage: hkcce")
        assert "unrecognized arguments: --config" in err[-1]
        assert captured.out == "" and not out.exists()


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
