"""Digest every output of hkcce over a fixed grid: do two checkouts give the same numbers?

    python3 tools/same_numbers.py

Run from any directory; hkcce is imported from this checkout's ``src/``.  The
grid is n 3,4,10 x gamma 0.25,0.5 x k 0.5,1,2.  The items are

  - every CLI command on that grid (qcurv, sweep, residuals with their
    profile dumps, asymptotic, and verify hk-adapted, hk-cla, hk-lee,
    defect), plus ``verify prop21 --n 5..20``, and ``verify defect`` and
    ``residuals`` again at ``--emit csv`` and at ``--emit json``: the exit
    status and the bytes of every file written at ``--jobs 1``, the manifest
    read without ``wall_clock_s``.  Each command also runs at ``--jobs 2``,
    on a process pool, and the script stops with an error if that run writes
    other files (its manifest's ``jobs`` aside), or if a run writes a file
    that its manifest does not list;
  - the scattering results at n 3,4,10,150 (n = 150 checks the tau = 3
    connection at a large n, condition ~1e9);
  - both branches' roots and coefficients at n 3,4,10,150, long doubles;
  - the interiors at n 3,4,10,150 and gamma 0.25, 0.5, 0.05, 0.95 (where
    the series' term counts peak): each centre series' table (u, du, y), its
    connection pair (u, u') at tau = 3, a long-double pair, and its
    (u, du, y) summed afresh at 40 points of [0.05, 3] off the table;
  - every residual profile of ``residual_suite`` (raw values, sup included),
    which reads the full, second-order state;
  - both ``boundary`` dicts (adapted and Lee) of every geometry;
  - the first-order fields of every geometry's quadrature lattice, its
    weights and the indices of its coarse nodes, and those of its state at
    r = 0;
  - ``asymptotic_ratio`` tables at n 60 and 120, beyond the CLI's grid;
  - ``verify_prop21(n).to_dict()`` as indented, key-sorted JSON at n 21..60,
    beyond the CLI's 5..20;
  - ``to_dict()`` of all five report kinds (hk-adapted, defect-adapted,
    hk-cla, hk-lee, defect-lee) at n = 150, gamma 0.25 and 0.5, k 0.5 and 2,
    also beyond the CLI's grid;
  - the benchmark's own cells: ``sweep`` on the ``grid45`` workload's grid
    (n 4,5,6 x gamma 0.25,0.4,0.5,0.6,0.75 x k 0.5,1,2), and ``to_dict()``
    of hk-adapted and defect-adapted at the ``edge`` workload's five anchor
    cells (``EDGE_ANCHORS`` in ``bench/workloads.py``) and at (8, 0.13, 0.5)
    and (15, 0.86, 2), whose verdicts and errors the benchmark reads;
  - ``to_dict()`` of hk-adapted and defect-adapted at every distinct cell
    that ``edge_cases`` in ``bench/workloads.py`` draws for seeds 1-30, the
    anchors among them: a one-ulp move of Q at any cell the ``edge``
    workload may time shows here.

One sha256 digest is printed per item, then their total.  Two checkouts
give the same numbers on this set when every line agrees.  A RuntimeWarning
is an error.  Floats are hashed by their bits, so the digests depend on the
platform (np.longdouble is 80-bit on x86 and plain double elsewhere):
compare two checkouts on one machine.  Long doubles are hashed by value
(their shortest round-trip decimal), because their bytes hold padding
besides the 80 bits of the number.  The branch coefficients are hashed
element by element as long doubles, so the same values give one digest
whether a tuple or an array holds them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
warnings.simplefilter("error", RuntimeWarning)

import numpy as np  # noqa: E402

from hkcce import cli  # noqa: E402
from hkcce.compactification import (GeometryState, build_adapted, build_lee,  # noqa: E402
                                    residual_suite)
from hkcce.hk_verifier import (asymptotic_ratio, defect_identity, verify_adapted,  # noqa: E402
                               verify_cla, verify_lee)
from hkcce.jet_algebra import verify_prop21  # noqa: E402
from hkcce.model_geometry import ModelSpace  # noqa: E402
from hkcce.scattering import solve_case, solve_interior  # noqa: E402
from hkcce.special_fn import QCurvParams  # noqa: E402
from workloads import edge_cases  # noqa: E402

NS, GAMMAS, KS = (3, 4, 10), (0.25, 0.5), (0.5, 1.0, 2.0)
GRID = ["--n", "3,4,10", "--gamma", "0.25,0.5", "--k", "0.5,1,2"]
COMMANDS = {
    "cli qcurv": ["qcurv", *GRID],
    "cli sweep": ["sweep", *GRID],
    "cli residuals": ["residuals", *GRID],
    "cli asymptotic": ["asymptotic", *GRID],
    "cli verify hk-adapted": ["verify", "hk-adapted", *GRID],
    "cli verify hk-cla": ["verify", "hk-cla", *GRID],
    "cli verify hk-lee": ["verify", "hk-lee", *GRID],
    "cli verify defect": ["verify", "defect", *GRID],
    "cli verify prop21": ["verify", "prop21", "--n", "5..20"],
    # --emit picks the formats of the table and of the profile dumps, not of
    # the per-case reports
    **{f"cli {name} --emit {fmt}": [*argv, *GRID, "--emit", fmt]
       for name, argv in (("verify defect", ["verify", "defect"]), ("residuals", ["residuals"]))
       for fmt in ("csv", "json")},
}
GRID45 = ["--n", "4,5,6", "--gamma", "0.25,0.4,0.5,0.6,0.75", "--k", "0.5,1,2"]
# bench/workloads.py's EDGE_ANCHORS, then one drawn cell from each side of the edge
EDGE_CELLS = ((3, 0.05, 1.0), (20, 0.05, 1.0), (3, 0.95, 1.0), (20, 0.95, 1.0),
              (3, 0.9025, 1.0), (8, 0.13, 0.5), (15, 0.86, 2.0))
EDGE_SEEDS = range(1, 31)
SECOND_ORDER = ("ddS_hat", "ddT")     # left out of the lattice state
OFF_TABLE_TAU = np.linspace(0.05, 3.0, 40)    # where an interior sums afresh


def _feed(h, obj):
    """Hash obj by type and content: floats and arrays by their bytes, long
    doubles by value."""
    if isinstance(obj, np.longdouble):
        h.update(b"longdouble " + np.format_float_scientific(obj, unique=True).encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype} {obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"float " + np.asarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}".encode())
        for key in sorted(obj, key=str):
            _feed(h, str(key))
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq {len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(f"{type(obj).__name__} {obj!r}".encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _cli_files(argv, jobs: str) -> dict:
    """Exit status and every file a CLI run writes, by path under its out dir;
    raises RuntimeError if the manifest does not list exactly the others."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main([*argv, "--jobs", jobs, "--out", tmp])
        files = {}
        for path in sorted(Path(tmp).rglob("*")):
            if not path.is_file():
                continue
            data = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(data)
                del manifest["wall_clock_s"]
                manifest["files"] = [os.path.relpath(f, tmp) for f in manifest["files"]]
                data = json.dumps(manifest, sort_keys=True).encode()
            files[str(path.relative_to(tmp))] = data
    listed = json.loads(files["manifest.json"])["files"]
    if sorted(listed) != sorted(set(files) - {"manifest.json"}):
        raise RuntimeError(f"hkcce {' '.join(argv)} --jobs {jobs}: the manifest lists "
                           f"{sorted(listed)}, the run wrote {sorted(files)}")
    return {"status": status, "files": files}


def cli_run(argv) -> dict:
    """`_cli_files` at --jobs 1, after checking that the process pool of
    --jobs 2 writes the same files (the manifest's `jobs` aside)."""
    serial, pooled = _cli_files(argv, "1"), _cli_files(argv, "2")
    manifest = json.loads(pooled["files"]["manifest.json"])
    manifest["jobs"] = 1
    pooled["files"]["manifest.json"] = json.dumps(manifest, sort_keys=True).encode()
    if pooled != serial:
        raise RuntimeError(f"hkcce {' '.join(argv)}: --jobs 2 writes other files than --jobs 1")
    return serial


def geometries():
    """(label, geometry) for every adapted case of the grid and every Lee (n, k)."""
    for n in NS:
        for k in KS:
            for gamma in GAMMAS:
                sr = solve_case(QCurvParams(n, gamma, k))
                yield f"adapted {n} {gamma} {k}", build_adapted(sr)
            yield f"lee {n} {k}", build_lee(ModelSpace(n, k))


def scattering_results() -> dict:
    out = {}
    for n in (*NS, 150):
        for gamma in GAMMAS:
            for k in KS:
                sr = solve_case(QCurvParams(n, gamma, k))
                out[f"{n} {gamma} {k}"] = [sr.c1, sr.c2, sr.scattering_value, sr.q_value,
                                           sr.condition_estimate]
    return out


def branches() -> dict:
    out = {}
    for n in (*NS, 150):
        for gamma in GAMMAS:
            for k in KS:
                sr = solve_case(QCurvParams(n, gamma, k))
                out[f"{n} {gamma} {k}"] = [[b.mu, [np.longdouble(c) for c in b.coeffs]]
                                           for b in (sr.branch_low, sr.branch_high)]
    return out


def interiors() -> dict:
    out = {}
    for n in (*NS, 150):
        for gamma in (*GAMMAS, 0.05, 0.95):
            series = solve_interior(QCurvParams(n, gamma, 1.0))
            out[f"{n} {gamma}"] = [series.u, series.du, series.y, series.connection,
                                   series(OFF_TABLE_TAU)]
    return out


def residuals() -> dict:
    return {label: {name: [p.tau, p.r, p.values, p.weighted, p.sup_weighted]
                    for name, p in residual_suite(g).items()}
            for label, g in geometries()}


def boundaries() -> dict:
    return {label: g.boundary for label, g in geometries()}


def lattices() -> dict:
    def first_order(st):
        return {f.name: getattr(st, f.name) for f in fields(GeometryState)
                if f.name not in SECOND_ORDER}

    out = {}
    for label, g in geometries():
        lat = g.lattice
        # the coarse nodes by index, which a mask and a slice give alike
        out[label] = [first_order(lat.state), first_order(g.state_of_r(0.0)),
                      lat.weights, np.arange(len(lat.weights))[lat.coarse]]
    return out


def asymptotic_tables() -> dict:
    return {f"{n} {k}": asymptotic_ratio(n, k, 0.5 / k ** 0.5 * np.logspace(-3, 0, 20))
            for n in (60, 120) for k in KS}


def prop21_certificates() -> dict:
    return {n: json.dumps(verify_prop21(n).to_dict(), indent=2, sort_keys=True)
            for n in range(21, 61)}


def reports_n150() -> dict:
    n, out = 150, {}
    for k in (0.5, 2.0):
        for gamma in (0.25, 0.5):
            out[f"hk-adapted {gamma} {k}"] = verify_adapted(n, gamma, k).to_dict()
            out[f"defect-adapted {gamma} {k}"] = defect_identity(
                "adapted", n, k, gamma=gamma).to_dict()
        out[f"hk-cla {k}"] = verify_cla(n, k).to_dict()
        out[f"hk-lee {k}"] = verify_lee(n, k).to_dict()
        out[f"defect-lee {k}"] = defect_identity("lee", n, k).to_dict()
    return out


def edge_reports(cells=EDGE_CELLS) -> dict:
    out = {}
    for n, gamma, k in cells:
        out[f"hk-adapted {n} {gamma} {k}"] = verify_adapted(n, gamma, k).to_dict()
        out[f"defect-adapted {n} {gamma} {k}"] = defect_identity(
            "adapted", n, k, gamma=gamma).to_dict()
    return out


def main() -> int:
    items = {name: (lambda argv=argv: cli_run(argv)) for name, argv in COMMANDS.items()}
    items.update({
        "scattering results": scattering_results,
        "branches n 3,4,10,150": branches,
        "interior tables and connections": interiors,
        "residual suites": residuals,
        "boundary dicts": boundaries,
        "lattice first-order state": lattices,
        "asymptotic tables n 60, 120": asymptotic_tables,
        "reports n 150": reports_n150,
        "prop21 certificates n 21..60": prop21_certificates,
        "bench grid45 sweep": lambda: cli_run(["sweep", *GRID45]),
        "bench edge reports": edge_reports,
        "bench edge drawn cells, seeds 1..30": lambda: edge_reports(sorted(
            {cell for seed in EDGE_SEEDS for cell in edge_cases(random.Random(seed), False)})),
    })
    total = hashlib.sha256()
    for name, make in items.items():
        d = digest(make())
        total.update(d.encode())
        print(f"{d}  {name}")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
