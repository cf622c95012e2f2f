"""Command line runner: configuration, sweeps and persistent reports.

Commands
    qcurv                Q-curvature table (series connection vs closed-form oracle)
    verify hk-adapted    fractional Heintze-Karcher inequality
    verify hk-cla        classical form at gamma = 1/2
    verify hk-lee        Lee-compactification form
    verify defect        integrated defect identities (adapted + lee)
    verify prop21        exact-rational order-r^4 certificate
    residuals            elliptic identity residual suite (+ profile dumps)
    asymptotic           surface/volume ratio table on a log grid
    sweep                qcurv + hk-adapted over the full parameter grid

Output files (under --out, or $HKCCE_OUT): manifest.json, reports/*.json,
tables/*.csv, all UTF-8, written atomically (temp file + rename), rows sorted
by (n, gamma, k), floats at 15 significant digits.  Exit status is 0 iff
every verdict passes, 1 on a failing verdict (each listed on stderr as
"<kind> <label>", kind `fail` for a failed check or the report's verdict,
e.g. `inconclusive`), 2 on a usage error, an I/O failure, or a case the
solver cannot decide (MatchingError, GeometryError), which is reported on one
line as "hkcce: <kind>: <reason>".  Usage errors (bad flags, an unreadable or
non-object config file, a config value of the wrong JSON type) are refused
before any case runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .jet_algebra import verify_prop21
from .model_geometry import ModelSpace
from .compactification import (GeometryError, build_adapted, build_lee,
                               residual_suite)
from .hk_verifier import (asymptotic_ratio, defect_identity, verify_adapted,
                          verify_cla, verify_lee)
from .scattering import MatchingError, solve_case
from .special_fn import (GAMMA_MAX, GAMMA_MIN, QCurvParams, check_k,
                         sphere_q_value)

_COMMANDS = ("qcurv", "verify", "residuals", "asymptotic", "sweep")
_VERIFY_TARGETS = ("hk-adapted", "hk-cla", "hk-lee", "defect", "prop21")


def fmt15(x) -> str:
    """Locale-independent 15-significant-digit formatting."""
    if isinstance(x, float):
        return format(x, ".15g")
    return str(x)


@dataclass
class RunConfig:
    command: str
    verify_target: str | None = None
    n: list = field(default_factory=lambda: [4])
    gamma: list = field(default_factory=lambda: [0.5])
    k: list = field(default_factory=lambda: [1.0])
    quad_tol: float = 1e-6
    out: str = "out"
    emit_csv: bool = True
    emit_json: bool = True
    jobs: int = 0  # 0 = available parallelism

    def validate(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command == "verify" and self.verify_target not in _VERIFY_TARGETS:
            raise ValueError(f"verify target must be one of {_VERIFY_TARGETS}")
        if not self.n or not self.gamma or not self.k:
            raise ValueError("parameter lists must be non-empty")
        for n in self.n:
            if int(n) != n or n < 3:
                raise ValueError(f"n must be an integer >= 3, got {n}")
            if self.verify_target == "prop21" and n < 5:
                raise ValueError(f"prop21 requires n >= 5, got {n}")
        for g in self.gamma:
            if not (GAMMA_MIN <= g <= GAMMA_MAX):
                raise ValueError(
                    f"gamma={g} outside [{GAMMA_MIN}, {GAMMA_MAX}] (resonance guard)")
        for n in self.n:
            for k in self.k:
                check_k(n, k)
        if not (1e-10 <= self.quad_tol <= 1e-2):
            raise ValueError(f"quad_tol {self.quad_tol} outside [1e-10, 1e-2]")
        if int(self.jobs) != self.jobs or self.jobs < 0:
            raise ValueError("jobs must be a nonnegative integer")
        return self


def _parse_number_list(text: str, cast):
    """Comma lists and integer ranges: '4,5,6' or '5..12'."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            out.extend(cast(v) for v in range(int(lo), int(hi) + 1))
        else:
            out.append(cast(chunk))
    return out


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) \
        or isinstance(v, float) and v.is_integer()


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _string(v) -> bool:
    return isinstance(v, str)


# What a config file may give for each key: (description, the tests one value
# may pass, whether a list of such values is allowed).  Strings go through the
# same casts as the flags; any other type would fail deep inside a cast.
_CONFIG_KEYS = {
    "n": ("an integer or string", (_integer, _string), True),
    "gamma": ("a number or string", (_number, _string), True),
    "k": ("a number or string", (_number, _string), True),
    "quad_tol": ("a number or string", (_number, _string), False),
    "jobs": ("an integer or string", (_integer, _string), False),
    "out": ("a string", (_string,), False),
    "emit": ("a string", (_string,), True),
}


def _check_config_types(file_cfg: dict, path: str):
    """Refuse a config value of the wrong JSON type, naming its key."""
    for key, value in file_cfg.items():
        if key not in _CONFIG_KEYS:
            continue
        what, tests, listable = _CONFIG_KEYS[key]
        items = value if listable and isinstance(value, list) else [value]
        if not all(any(test(v) for test in tests) for v in items):
            kind = f"{what}, or a list of those" if listable else what
            raise ValueError(f"config file {path}: {key!r} must be {kind}, "
                             f"got {json.dumps(value)}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hkcce",
        description="Fractional Q-curvature and Heintze-Karcher verification lab",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=str, default=None, help="boundary dimensions, e.g. 4,5,6 or 5..12")
        p.add_argument("--gamma", type=str, default=None, help="fractional orders, e.g. 0.25,0.5")
        p.add_argument("--k", type=str, default=None, help="boundary Einstein constants, e.g. 0.5,1,2")
        p.add_argument("--quad-tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--emit", type=str, default=None, help="comma list from {csv,json}")
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")

    for name in ("qcurv", "residuals", "asymptotic", "sweep"):
        common(sub.add_parser(name))
    pv = sub.add_parser("verify")
    pv.add_argument("target", choices=_VERIFY_TARGETS)
    common(pv)
    return ap


def parse_config(argv) -> RunConfig:
    """Parse flags (plus optional JSON config file; flags override)."""
    ns = _build_parser().parse_args(argv)
    file_cfg = {}
    if ns.config:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {ns.config} must hold a JSON object")
        _check_config_types(file_cfg, ns.config)

    def pick(flag, key, default):
        if flag is not None:
            return flag
        if key in file_cfg:
            return file_cfg[key]
        return default

    def pick_list(flag_text, key, default, cast):
        if flag_text is not None:
            return _parse_number_list(flag_text, cast)
        if key in file_cfg:
            v = file_cfg[key]
            if isinstance(v, str):
                return _parse_number_list(v, cast)
            return [cast(x) for x in (v if isinstance(v, list) else [v])]
        return default

    emit = pick(ns.emit, "emit", "csv,json")
    if isinstance(emit, list):
        emit = ",".join(emit)
    emit_set = {e.strip() for e in emit.split(",") if e.strip()}
    bad = emit_set - {"csv", "json"}
    if bad:
        raise ValueError(f"unknown emit formats: {sorted(bad)}")
    out = ns.out if ns.out is not None else os.environ.get(
        "HKCCE_OUT", file_cfg.get("out", "out"))
    cfg = RunConfig(
        command=ns.command,
        verify_target=getattr(ns, "target", None),
        n=[int(x) for x in pick_list(ns.n, "n", [4], int)],
        gamma=[float(x) for x in pick_list(ns.gamma, "gamma", [0.5], float)],
        k=[float(x) for x in pick_list(ns.k, "k", [1.0], float)],
        quad_tol=float(pick(ns.quad_tol, "quad_tol", 1e-6)),
        out=str(out),
        emit_csv="csv" in emit_set,
        emit_json="json" in emit_set,
        jobs=int(pick(ns.jobs, "jobs", 0)),
    )
    return cfg.validate()


# ---------------------------------------------------------------------------
# Case workers (module level: picklable for the process pool)
# ---------------------------------------------------------------------------

def _qcurv_case(args) -> dict:
    n, gamma, k = args
    p = QCurvParams(n, gamma, k)
    profile, sr = solve_case(p)
    oracle = sphere_q_value(n, gamma, k)
    rel = abs(sr.q_value - oracle) / max(1.0, abs(oracle))
    return {
        "n": n, "gamma": gamma, "k": k,
        "Q_num": sr.q_value, "Q_oracle": oracle, "rel_err": rel,
        "c1": sr.c1, "c2": sr.c2, "condition": sr.condition_estimate,
        "consistency_gap": sr.consistency_gap, "T_match": sr.T_match,
        "verdict": "pass" if rel <= 1e-6 * max(1.0, abs(oracle)) else "fail",
    }


def _sweep_case(args) -> dict:
    n, gamma, k, quad_tol = args
    row = _qcurv_case((n, gamma, k))
    rep = verify_adapted(n, gamma, k, tol=quad_tol)
    return {
        "n": n, "gamma": gamma, "k": k,
        "Q_num": row["Q_num"], "Q_oracle": row["Q_oracle"],
        "rel_err": row["rel_err"], "lhs": rep.lhs, "rhs": rep.rhs,
        "gap": rep.gap, "verdict": rep.verdict if row["verdict"] == "pass" else "fail",
    }


def _residual_case(args) -> dict:
    kind, n, gamma, k, dump_dir = args
    m = ModelSpace(n, k)
    if kind == "adapted":
        p = QCurvParams(n, gamma, k)
        profile, sr = solve_case(p)
        g = build_adapted(m, sr, profile)
    else:
        g = build_lee(m)
    res = residual_suite(g)
    other = res["res_T" if kind == "adapted" else "res_J"]
    tol = 1e-8 if kind == "lee" else 1e-5
    ok = all(rp.sup_weighted <= tol for rp in res.values())
    if dump_dir is not None:
        tag = (f"profile_adapted_n{n}_g{gamma}_k{k}" if kind == "adapted"
               else f"profile_lee_n{n}_k{k}")
        taus = res["res_rho"].tau
        st = g.state(taus)
        columns = {"t": taus + m.t0, "r": st.r, "rho": st.rho, "drho": st.w * st.rho,
                   "grad_sq": st.grad_sq, "T_or_J": st.T if kind == "adapted" else st.Jbar,
                   "res_rho": res["res_rho"].values, "res_T_or_J": other.values}
        rows = [{c: float(v[i]) for c, v in columns.items()} for i in range(len(taus))]
        _atomic_write(Path(dump_dir) / f"{tag}.csv", _csv_text(rows))
    return {
        "kind": kind, "n": n, "gamma": gamma if kind == "adapted" else "",
        "k": k,
        "sup_res_rho": res["res_rho"].sup_weighted,
        "sup_res_T_or_J": other.sup_weighted,
        "sup_jbar_crosscheck": res["jbar_crosscheck"].sup_weighted,
        "boundary_gap": (g.boundary.get("T_boundary_rel_gap")
                         if kind == "adapted" else g.boundary.get("J_boundary_rel_gap")),
        "verdict": "pass" if ok else "fail",
    }


def _run_cases(worker, case_args, jobs: int):
    case_args = list(case_args)
    if jobs == 1 or len(case_args) <= 1:
        return [worker(a) for a in case_args]
    workers = jobs if jobs > 0 else (os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(case_args))) as ex:
        return list(ex.map(worker, case_args))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows: list[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(fmt15(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _sort_rows(rows: list[dict]) -> list[dict]:
    def key(row):
        return (row.get("kind", ""), row.get("n", 0),
                row.get("gamma", 0) or 0, row.get("k", 0) or 0, row.get("r", 0))
    return sorted(rows, key=key)


def emit_report(reports: dict, cfg: RunConfig, started: float) -> list[Path]:
    """Write tables (CSV), reports (JSON) and the manifest; returns paths.

    reports = {"rows": {table_name: [row dicts]}, "json": {name: payload},
               "all_pass": bool}
    """
    out = Path(cfg.out)
    written: list[Path] = []
    try:
        for name, rows in sorted(reports.get("rows", {}).items()):
            rows = _sort_rows(rows)
            if cfg.emit_csv and rows:
                path = out / "tables" / f"{name}.csv"
                _atomic_write(path, _csv_text(rows))
                written.append(path)
            if cfg.emit_json:
                path = out / "reports" / f"{name}.json"
                _atomic_write(path, json.dumps(rows, indent=2, sort_keys=True,
                                               default=float))
                written.append(path)
        for name, payload in sorted(reports.get("json", {}).items()):
            path = out / "reports" / f"{name}.json"
            _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True,
                                           default=float))
            written.append(path)
        manifest = {
            "tool": "hkcce",
            "version": __version__,
            "command": cfg.command,
            "verify_target": cfg.verify_target,
            "parameters": {"n": cfg.n, "gamma": cfg.gamma, "k": cfg.k},
            "tolerances": {"quad_tol": cfg.quad_tol},
            "jobs": cfg.jobs,
            "emit": {"csv": cfg.emit_csv, "json": cfg.emit_json},
            "wall_clock_s": time.time() - started,
            "all_pass": reports.get("all_pass", False),
            "files": [str(p) for p in written],
        }
        path = out / "manifest.json"
        _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True))
        written.append(path)
    except OSError as exc:
        print(f"hkcce: I/O failure: {exc}", file=sys.stderr)
        raise
    return written


# ---------------------------------------------------------------------------
# Command dispatch
# ---------------------------------------------------------------------------

def _grid(cfg: RunConfig):
    for n in sorted(cfg.n):
        for gamma in sorted(cfg.gamma):
            for k in sorted(cfg.k):
                yield n, gamma, k


def _grid_nk(cfg: RunConfig):
    """(n, k) pairs for the gamma-free targets."""
    for n in sorted(cfg.n):
        for k in sorted(cfg.k):
            yield n, k


def run_command(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    started = time.time()
    rows_by_table: dict[str, list[dict]] = {}
    json_reports: dict[str, dict] = {}
    failing: list[str] = []

    def note(ok: bool, label: str, kind: str = "fail"):
        # a failing label names its kind: a failed check or the verdict
        if not ok:
            failing.append(f"{kind} {label}")

    if cfg.command == "qcurv":
        rows = _run_cases(_qcurv_case, list(_grid(cfg)), cfg.jobs)
        rows_by_table["qcurv"] = rows
        for row in rows:
            note(row["verdict"] == "pass", f"qcurv n={row['n']} gamma={row['gamma']} k={row['k']}")

    elif cfg.command == "sweep":
        rows = _run_cases(_sweep_case,
                          [(n, g, k, cfg.quad_tol) for n, g, k in _grid(cfg)],
                          cfg.jobs)
        rows_by_table["sweep"] = rows
        for row in rows:
            note(row["verdict"] in ("equality", "strict"),
                 f"sweep n={row['n']} gamma={row['gamma']} k={row['k']}", row["verdict"])

    elif cfg.command == "verify":
        reports = []
        if cfg.verify_target == "prop21":
            for n in sorted(cfg.n):
                cert = verify_prop21(n)
                json_reports[f"prop21_n{n}"] = json.loads(cert.to_json())
                note(cert.ok, f"prop21 n={n}")
                reports.append({"n": n, "gamma": "", "k": "",
                                "beta_e2": str(cert.beta.e2),
                                "verdict": "pass" if cert.ok else "fail"})
            rows_by_table["prop21"] = reports
        else:
            tol = cfg.quad_tol
            if cfg.verify_target == "hk-adapted":
                items = [verify_adapted(n, g, k, tol) for n, g, k in _grid(cfg)]
            elif cfg.verify_target == "hk-cla":
                items = [verify_cla(n, k, tol) for n, k in _grid_nk(cfg)]
            elif cfg.verify_target == "hk-lee":
                items = [verify_lee(n, k, tol) for n, k in _grid_nk(cfg)]
            else:  # defect
                items = [defect_identity("adapted", n, k, tol, gamma=g)
                         for n, g, k in _grid(cfg)]
                items += [defect_identity("lee", n, k, tol) for n, k in _grid_nk(cfg)]
            for rep in items:
                n, k, gamma = rep.params["n"], rep.params["k"], rep.params.get("gamma")
                tag = f"{rep.name}_n{n}_k{k}" if gamma is None \
                    else f"{rep.name}_n{n}_g{gamma}_k{k}"
                json_reports[tag] = rep.to_dict()
                note(rep.passing, tag, rep.verdict)
                reports.append({
                    "name": rep.name, "n": n, "gamma": "" if gamma is None else gamma,
                    "k": k, "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
                    "err_est": rep.err_est, "verdict": rep.verdict,
                })
            rows_by_table[cfg.verify_target] = reports

    elif cfg.command == "residuals":
        dump_dir = str(Path(cfg.out) / "tables") if cfg.emit_csv else None
        args = [("adapted", n, g, k, dump_dir) for n, g, k in _grid(cfg)]
        args += [("lee", n, None, k, dump_dir) for n, k in _grid_nk(cfg)]
        rows = _run_cases(_residual_case, args, cfg.jobs)
        rows_by_table["residuals"] = rows
        for row in rows:
            note(row["verdict"] == "pass",
                 f"residuals {row['kind']} n={row['n']} gamma={row['gamma']} k={row['k']}")

    elif cfg.command == "asymptotic":
        # fixed CSV schema n,k,r,ratio,abs_err; pass/fail tracked separately
        rows = []
        for n in sorted(cfg.n):
            for k in sorted(cfg.k):
                r_hi = 0.5 / math.sqrt(k)
                r_values = r_hi * np.logspace(-3, 0, 20)
                for row in asymptotic_ratio(n, k, r_values):
                    note(abs(row["ratio"] - 1.0) <= 1e-8,
                         f"asymptotic n={n} k={k} r={row['r']:.4g}")
                    rows.append(row)
        rows_by_table["asymptotic"] = rows

    reports = {"rows": rows_by_table, "json": json_reports,
               "all_pass": not failing}
    try:
        written = emit_report(reports, cfg, started)
    except OSError:
        return 2
    if failing:
        report_dir = Path(cfg.out) / "reports"
        print(f"hkcce: {len(failing)} failing verdict(s); see {report_dir}",
              file=sys.stderr)
        for label in failing[:10]:
            print(f"  {label}", file=sys.stderr)
        return 1
    print(f"hkcce: all verdicts pass; wrote {len(written)} file(s) under {cfg.out}")
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except ValueError as exc:
        print(f"hkcce: {exc}", file=sys.stderr)
        return 2
    try:
        return run_command(cfg)
    except OSError as exc:
        print(f"hkcce: I/O failure: {exc}", file=sys.stderr)
        return 2
    except (MatchingError, GeometryError) as exc:
        print(f"hkcce: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
