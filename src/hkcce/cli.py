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

Every command is one worker over one sorted list of cases (k fastest), run
by `_run_cases`: serially at --jobs 1 or when this process may use one CPU
only, otherwise on a process pool of --jobs workers (0, the default: one per
CPU this process may use).  The rows, reports and failing verdicts do not
depend on --jobs.  Every (n, gamma, k) of the grid goes through the
library's own gate, `QCurvParams`, before any case runs, so the CLI refuses
what the library refuses, in its words (prop21 also needs n >= 5).

Each case's worker returns its (rows, files, failing), and `emit_report`
alone writes what they return.  Output files (under --out): manifest.json,
reports/*.json, tables/*.csv, all UTF-8, written atomically (temp file +
rename), rows sorted by (n, gamma, k), floats at 15 significant digits.
--emit picks the formats of the command's table (tables/<name>.csv,
reports/<name>.json, named by the command or the verify target) and of the
`residuals` profile dumps, which are CSV only; the per-case JSON reports of
`verify` are written whatever --emit says.

Exit status is 0 iff every verdict passes, 1 on a failing verdict (each
listed on stderr as "<kind> <label>", kind `fail` for a failed check or the
report's verdict, e.g. `inconclusive`), 2 on a usage error, an I/O failure,
or a case the solver cannot decide (MatchingError, GeometryError), which is
reported on one line as "hkcce: <kind>: <reason>" by `main`.  Usage errors
(bad flags, a value a flag cannot read, a reversed range) are refused before
any case runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
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
from .special_fn import QCurvParams, sphere_q_value

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
    out: str = "out"
    emit_csv: bool = True
    emit_json: bool = True
    jobs: int = 0  # 0 = one worker per CPU this process may use

    def validate(self):
        if not self.n or not self.gamma or not self.k:
            raise ValueError("parameter lists must be non-empty")
        for n in self.n:        # the library's own gate refuses a case it cannot take
            for g in self.gamma:
                for k in self.k:
                    QCurvParams(n, g, k)
        for n in self.n:
            if self.verify_target == "prop21" and n < 5:
                raise ValueError(f"prop21 requires n >= 5, got {n}")
        if int(self.jobs) != self.jobs or self.jobs < 0:
            raise ValueError("jobs must be a nonnegative integer")
        return self


def _parse_number_list(text: str, cast):
    """Comma lists and integer ranges: '4,5,6' or '5..12' (not '12..5')."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ".." in chunk:
            lo, hi = (int(v) for v in chunk.split("..", 1))
            if hi < lo:
                raise ValueError(f"reversed range {chunk!r}: {hi} < {lo}")
            out.extend(cast(v) for v in range(lo, hi + 1))
        else:
            out.append(cast(chunk))
    return out


def _emit_formats(text: str) -> set:
    """The formats named by a comma string."""
    formats = {e.strip() for e in text.split(",") if e.strip()}
    bad = formats - {"csv", "json"}
    if bad:
        raise ValueError(f"unknown emit formats: {sorted(bad)}")
    return formats


# How each flag's text is read.  Flags are read in this order, so a bad emit
# list is named before a bad number.
_FLAG_READERS = {
    "emit": _emit_formats,
    "out": str,
    "n": functools.partial(_parse_number_list, cast=int),
    "gamma": functools.partial(_parse_number_list, cast=float),
    "k": functools.partial(_parse_number_list, cast=float),
    "jobs": int,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as built."""
    ap = argparse.ArgumentParser(
        prog="hkcce",
        description="Fractional Q-curvature and Heintze-Karcher verification lab",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=str, default=None, help="boundary dimensions, e.g. 4,5,6 or 5..12")
        p.add_argument("--gamma", type=str, default=None, help="fractional orders, e.g. 0.25,0.5")
        p.add_argument("--k", type=str, default=None, help="boundary Einstein constants, e.g. 0.5,1,2")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--emit", type=str, default=None, help="comma list from {csv,json}")
        p.add_argument("--jobs", type=str, default=None)

    for name in ("qcurv", "residuals", "asymptotic", "sweep"):
        common(sub.add_parser(name))
    pv = sub.add_parser("verify")
    pv.add_argument("target", choices=_VERIFY_TARGETS)
    common(pv)
    return ap


def parse_config(argv) -> RunConfig:
    """Parse the flags; a flag not given leaves RunConfig's default."""
    ns = _build_parser().parse_args(argv)
    given = {}
    for key, read in _FLAG_READERS.items():
        value = getattr(ns, key)
        if value is not None:
            try:
                given[key] = read(value)
            except ValueError as exc:
                raise ValueError(f"--{key}: {exc}") from exc
    if "emit" in given:
        emit = given.pop("emit")
        given.update(emit_csv="csv" in emit, emit_json="json" in emit)
    cfg = RunConfig(command=ns.command, verify_target=getattr(ns, "target", None), **given)
    return cfg.validate()


# ---------------------------------------------------------------------------
# Case workers (module level: picklable for the process pool).  Each returns
# (rows, files, failing): its table rows, the files it adds by path under
# --out ("reports/<tag>.json": a report's payload, "tables/<tag>.csv": a
# profile dump's rows), and one "<kind> <label>" per failing verdict, kind
# `fail` for a failed check or the verdict that failed.  No worker writes a
# file: `emit_report` writes them all.
# ---------------------------------------------------------------------------

def _label(row: dict) -> str:
    return f"n={row['n']} gamma={row['gamma']} k={row['k']}"


def _q_row(n: int, gamma: float, k: float):
    """(ScatteringResult, the Q columns of a row, whether Q meets its oracle)."""
    sr = solve_case(QCurvParams(n, gamma, k))
    oracle = sphere_q_value(n, gamma, k)
    rel = abs(sr.q_value - oracle) / max(1.0, abs(oracle))
    row = {"n": n, "gamma": gamma, "k": k,
           "Q_num": sr.q_value, "Q_oracle": oracle, "rel_err": rel}
    return sr, row, rel <= 1e-6


def _qcurv_case(args):
    sr, row, ok = _q_row(*args)
    # a Q off its oracle is a numerical shortfall, not a failed check
    row.update(c1=sr.c1, c2=sr.c2, condition=sr.condition_estimate,
               verdict="pass" if ok else "inconclusive")
    return [row], {}, [] if ok else [f"inconclusive qcurv {_label(row)}"]


def _sweep_case(args):
    _, row, ok = _q_row(*args)
    rep = verify_adapted(*args)
    # a Q off its oracle is a numerical shortfall, not a refuted inequality
    verdict = rep.verdict if ok else "inconclusive"
    row.update(lhs=rep.lhs, rhs=rep.rhs, gap=rep.gap, verdict=verdict)
    return [row], {}, [] if ok and rep.passing else [f"{verdict} sweep {_label(row)}"]


# The call of each report a verify target runs.  Each looks its function up
# on this module when it runs, so a function replaced here is the one called.
_REPORTS = {
    "hk-adapted": lambda n, gamma, k: verify_adapted(n, gamma, k),
    "hk-cla": lambda n, gamma, k: verify_cla(n, k),
    "hk-lee": lambda n, gamma, k: verify_lee(n, k),
    "defect-adapted": lambda n, gamma, k: defect_identity("adapted", n, k, gamma=gamma),
    "defect-lee": lambda n, gamma, k: defect_identity("lee", n, k),
}


def _report_case(args):
    """One report of a verify target, by its name in `_REPORTS` (gamma
    None for the gamma-free ones)."""
    name, n, gamma, k = args
    rep = _REPORTS[name](n, gamma, k)
    n, k, gamma = rep.params["n"], rep.params["k"], rep.params.get("gamma")
    tag = f"{rep.name}_n{n}_k{k}" if gamma is None else f"{rep.name}_n{n}_g{gamma}_k{k}"
    row = {"name": rep.name, "n": n, "gamma": "" if gamma is None else gamma,
           "k": k, "lhs": rep.lhs, "rhs": rep.rhs, "gap": rep.gap,
           "err_est": rep.err_est, "verdict": rep.verdict}
    return ([row], {f"reports/{tag}.json": rep.to_dict()},
            [] if rep.passing else [f"{rep.verdict} {tag}"])


def _prop21_case(n: int):
    cert = verify_prop21(n)
    row = {"n": n, "gamma": "", "k": "", "beta_e2": str(cert.beta.e2),
           "verdict": "pass" if cert.ok else "fail"}
    return ([row], {f"reports/prop21_n{n}.json": cert.to_dict()},
            [] if cert.ok else [f"fail prop21 n={n}"])


def _asymptotic_case(args):
    # fixed CSV schema n,k,r,ratio,abs_err; pass/fail tracked separately
    n, k = args
    rows = asymptotic_ratio(n, k, 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20))
    return rows, {}, [f"fail asymptotic n={n} k={k} r={row['r']:.4g}" for row in rows
                      if not abs(row["ratio"] - 1.0) <= 1e-8]


def _residual_case(args):
    kind, n, gamma, k = args
    g = (build_adapted(solve_case(QCurvParams(n, gamma, k))) if kind == "adapted"
         else build_lee(ModelSpace(n, k)))
    res = residual_suite(g)
    other = res["res_T" if kind == "adapted" else "res_J"]
    tol = 1e-8 if kind == "lee" else 1e-5
    ok = all(rp.sup_weighted <= tol for rp in res.values())
    tag = (f"profile_adapted_n{n}_g{gamma}_k{k}" if kind == "adapted"
           else f"profile_lee_n{n}_k{k}")
    st = g.window          # the state `residual_suite` read
    columns = {"t": st.tau + g.base.t0, "r": st.r, "rho": st.rho, "drho": st.w * st.rho,
               "grad_sq": st.grad_sq, "T_or_J": st.T if kind == "adapted" else st.Jbar,
               "res_rho": res["res_rho"].values, "res_T_or_J": other.values}
    dump = [{c: float(v[i]) for c, v in columns.items()} for i in range(len(st.tau))]
    row = {
        "kind": kind, "n": n, "gamma": gamma if kind == "adapted" else "",
        "k": k,
        "sup_res_rho": res["res_rho"].sup_weighted,
        "sup_res_T_or_J": other.sup_weighted,
        "sup_jbar_crosscheck": res["jbar_crosscheck"].sup_weighted,
        "boundary_gap": (g.boundary.get("T_boundary_rel_gap")
                         if kind == "adapted" else g.boundary.get("J_boundary_rel_gap")),
        "verdict": "pass" if ok else "fail",
    }
    return ([row], {f"tables/{tag}.csv": dump},
            [] if ok else [f"fail residuals {kind} {_label(row)}"])


def _run_cases(worker, case_args, jobs: int, group: int):
    """(results, workers): worker over case_args, in order, on `jobs`
    processes (0: one per CPU this process may run on), and the number of
    processes used; with one they run here, serially.

    The grids run k fastest, so runs of `group` = len(k) cases share one
    (n, gamma), and with it the interior a worker's memo keeps.  The cases
    go to the workers in chunks of min(group, cases / workers): whole runs
    while there are at least as many runs as workers, even shares of the
    cases otherwise.  No more workers start than there are chunks.
    """
    case_args = list(case_args)
    workers = jobs or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
    if workers == 1 or len(case_args) <= 1:
        return [worker(a) for a in case_args], 1
    chunk = min(group, -(-len(case_args) // workers))
    workers = min(workers, -(-len(case_args) // chunk))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(worker, case_args, chunksize=chunk)), workers


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


def emit_report(cfg: RunConfig, table: str, rows: list[dict], files: dict,
                jobs: int, all_pass: bool, started: float) -> list[Path]:
    """Write the command's table (tables/<table>.csv, then, with --emit
    json, reports/<table>.json), then `files` (CSV dumps, then JSON reports,
    each in the order of their names), then the manifest, which lists every
    other file written; returns the paths written, manifest last.  Each file
    is rendered by its suffix: a .json always, a .csv only with --emit csv.
    """
    out = Path(cfg.out)
    rows = _sort_rows(rows)
    table_files = [(f"tables/{table}.csv", rows)]
    if cfg.emit_json:
        table_files.append((f"reports/{table}.json", rows))
    case_files = sorted(files.items(), key=lambda f: (f[0].endswith(".json"), Path(f[0]).stem))
    written: list[Path] = []
    for name, payload in table_files + case_files:
        path = out / name
        if path.suffix == ".json":
            _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True, default=float))
        elif cfg.emit_csv:
            _atomic_write(path, _csv_text(payload))
        else:
            continue
        written.append(path)
    manifest = {
        "tool": "hkcce",
        "version": __version__,
        "command": cfg.command,
        "verify_target": cfg.verify_target,
        "parameters": {"n": cfg.n, "gamma": cfg.gamma, "k": cfg.k},
        "jobs": jobs,
        "emit": {"csv": cfg.emit_csv, "json": cfg.emit_json},
        "wall_clock_s": time.time() - started,
        "all_pass": all_pass,
        "files": [str(p) for p in written],
    }
    path = out / "manifest.json"
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True))
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# Command dispatch
# ---------------------------------------------------------------------------

# The reports of each verify target.  In these and in `residuals`, a kind
# ending in "adapted" runs over the (n, gamma, k) grid, the rest (gamma-free)
# once per (n, k).
_TARGET_REPORTS = {"hk-adapted": ("hk-adapted",), "hk-cla": ("hk-cla",),
                   "hk-lee": ("hk-lee",), "defect": ("defect-adapted", "defect-lee")}


def _plan(cfg: RunConfig):
    """(table, worker, cases) of the configured command.  The cases run k
    fastest, so the k of one (n, gamma), which share its interior, come
    together; gamma-free cases follow the grid."""
    ns, ks = sorted(cfg.n), sorted(cfg.k)
    grid = [(n, g, k) for n in ns for g in sorted(cfg.gamma) for k in ks]
    free = [(n, None, k) for n in ns for k in ks]

    def kinds(names):
        return [(name, *case) for name in names
                for case in (grid if name.endswith("adapted") else free)]

    table = cfg.verify_target if cfg.command == "verify" else cfg.command
    if table == "qcurv":
        return table, _qcurv_case, grid
    if table == "sweep":
        return table, _sweep_case, grid
    if table == "residuals":
        return table, _residual_case, kinds(("adapted", "lee"))
    if table == "asymptotic":
        return table, _asymptotic_case, [(n, k) for n, _, k in free]
    if table == "prop21":
        return table, _prop21_case, ns
    return table, _report_case, kinds(_TARGET_REPORTS[table])


def run_command(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    started = time.time()
    table, worker, cases = _plan(cfg)
    results, jobs = _run_cases(worker, cases, cfg.jobs, len(cfg.k))
    rows, files, failing = [], {}, []
    for case_rows, case_files, case_failing in results:
        rows += case_rows
        files.update(case_files)
        failing += case_failing
    written = emit_report(cfg, table, rows, files, jobs, not failing, started)
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
