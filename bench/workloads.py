"""Seeded case lists, timed calls into hkcce and the checks on their outputs.

A run draws its case list once from the seed and makes passes over it for
about `--seconds`.  Every call into hkcce's public API is timed from outside
with `time.perf_counter`, and every output is checked against a closed-form
oracle or a known verdict.

On a shared virtual machine the CPU speed can drift by 2x over seconds to
minutes, which no statistic of raw times survives.  So around every timed
call the run also times bursts of a fixed reference computation
(`reference_unit`, no hkcce code), about `REF_SHARE` of the call's time.  A
call's cost is its time divided by the mean reference time of the bursts just
before and just after it: the drift scales both and cancels, while any change
to hkcce moves only the numerator.  The `*_ref` metrics are these costs; raw
wall times are printed beside them.

Checks come in two kinds:

* gated: the answer is known and hkcce 0.1.0 meets it (Q within 1e-6 of the
  oracle, equality at gamma = 1/2 and for the Lee forms, the exact prop21
  certificate, the asymptotic ratio equal to 1 within 1e-8, every verdict on
  the 45-case grid).  A miss makes the run incorrect.
* measured: the verdicts of the `edge` workload, where hkcce 0.1.0 answers
  `inconclusive` (gamma up to ~0.12, gamma >= 0.9) or a false `fail`
  (defect-adapted near gamma = 0.15).  Misses are counted into `ok_share`,
  never filtered or re-drawn.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID_N = (4, 5, 6)
GRID_GAMMA = (0.25, 0.4, 0.5, 0.6, 0.75)
GRID_K = (0.5, 1.0, 2.0)

EDGE_N = tuple(range(3, 21))
EDGE_SIDES = ((0.05, 0.2), (0.8, 0.95))
# Fixed in every edge pass: the corners of the (n, gamma) box, and n = 3 just
# above the gamma = 0.9 switch of the matching window, where hkcce 0.1.0's Q
# error peaks.  They keep the worst-case guards from hinging on which cells
# the seed drew.
EDGE_ANCHORS = ((3, 0.05, 1.0), (20, 0.05, 1.0), (3, 0.95, 1.0),
                (20, 0.95, 1.0), (3, 0.9025, 1.0))

CLOSED_N = tuple(range(3, 21))
CLOSED_K = (0.5, 1.0, 2.0)

REF_SHARE = 0.3       # reference time per unit of timed call time

Q_TOL = 1e-6          # acceptance criterion 1
RATIO_TOL = 1e-8      # acceptance criterion 7
LEE_RESIDUAL_TOL = 1e-8


def q_oracle(n: int, gamma: float, k: float) -> float:
    """Closed-form Q_{2 gamma} of the round sphere, k^g (2/(n-2g)) G(n/2+g)/G(n/2-g)."""
    return k ** gamma * 2.0 / (n - 2.0 * gamma) \
        * math.gamma(n / 2.0 + gamma) / math.gamma(n / 2.0 - gamma)


def reference_unit() -> float:
    """~1.5 ms of interpreter loop and small-array numpy, like hkcce's own mix."""
    total = 0
    for i in range(20000):
        total += i * i
    a = np.arange(2000.0)
    for _ in range(50):
        a = np.sqrt(a + 1.0)
    return total + float(a[0])


@dataclass
class Tally:
    """Timings, check counts and accuracy guards of one run phase."""

    calls: dict = field(default_factory=dict)   # call label -> cost per pass
    cases: int = 0                               # cases per pass
    passes: int = 0
    attempted: int = 0
    failed: int = 0          # gated misses and exceptions
    missed: int = 0          # measured verdict misses (edge)
    guards: dict = field(default_factory=dict)
    miss_labels: list = field(default_factory=list)
    call_s: float = 0.0      # wall time of all timed calls
    ref_s: float = 0.0       # wall time of all reference units
    ref_units: int = 0
    _last_burst: float = 0.0

    def _burst(self, units: int) -> float:
        """Run reference units; their mean time."""
        t0 = time.perf_counter()
        for _ in range(units):
            reference_unit()
        elapsed = time.perf_counter() - t0
        self.ref_s += elapsed
        self.ref_units += units
        return elapsed / units

    def timed(self, label: str, fn, *args, **kwargs):
        if not self.ref_units:
            self._last_burst = self._burst(1)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        after = self._burst(max(1, round(REF_SHARE * elapsed / self.ref_unit_s)))
        local = 0.5 * (self._last_burst + after)
        self._last_burst = after
        self.calls.setdefault(label, []).append(elapsed / local)
        self.call_s += elapsed
        return out

    def gate(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.miss_labels.append("FAILED " + label)

    def measure(self, ok: bool, label: str):
        self.attempted += 1
        if not ok:
            self.missed += 1
            self.miss_labels.append("missed " + label)

    def guard(self, name: str, value: float):
        self.guards[name] = max(self.guards.get(name, 0.0), float(value))

    def error(self, label: str):
        self.attempted += 1
        self.failed += 1
        self.miss_labels.append(f"ERROR {label}: {traceback.format_exc(limit=3)}")

    @property
    def ref_unit_s(self) -> float:
        return self.ref_s / self.ref_units

    def cases_per_s(self) -> float:
        return self.passes * self.cases / self.call_s

    def case_cost_ref(self) -> float:
        """Mean cost per case, in reference units."""
        return sum(map(sum, self.calls.values())) / (self.passes * self.cases)

    def call_cost_ref(self) -> list[float]:
        """Each call's mean cost over the passes, in reference units."""
        return [sum(c) / len(c) for c in self.calls.values()]


@dataclass
class Context:
    """What a pass needs: the package, a scratch directory, the tracer."""

    hk: object
    scratch: Path
    tracer: object = None
    tiny: bool = False

    def new_case(self):
        if self.tracer is not None:
            self.tracer.case += 1


# ---------------------------------------------------------------------------
# Case lists
# ---------------------------------------------------------------------------

def grid_flags(rng: random.Random, tiny: bool):
    """One sweep's --n/--gamma/--k lists in seeded order (the CLI sorts them)."""
    if tiny:
        return [([4], [0.5], [1.0, 2.0])]
    lists = [list(GRID_N), list(GRID_GAMMA), list(GRID_K)]
    for values in lists:
        rng.shuffle(values)
    return [lists]


def edge_cases(rng: random.Random, tiny: bool):
    """Every n in 3..20 once, gamma drawn in its stratum, plus the anchors.

    Each side of the edge box is cut into 9 gamma strata.  Cell j takes
    n = 3 + (5 j mod 18) and stratum j // 2 of side j % 2: a fixed scramble
    under which small and large n each meet small and large gamma.  The seed
    draws gamma inside each stratum, a balanced k for each cell, and the
    order.  A seeded pairing would move the work and the verdict mix from
    seed to seed by more than the timing bounds.
    """
    if tiny:
        return [(4, 0.15, 1.0)]
    count = len(EDGE_N)
    strata = count // len(EDGE_SIDES)
    cells = []
    for j in range(count):
        lo, hi = EDGE_SIDES[j % 2]
        width = (hi - lo) / strata
        # rounding keeps gamma inside the accepted [0.05, 0.95]
        gamma = round(lo + (j // 2 + rng.random()) * width, 4)
        cells.append((EDGE_N[(5 * j) % count], gamma))
    ks = [k for k in CLOSED_K for _ in range(count // len(CLOSED_K))]
    rng.shuffle(ks)
    cases = [(n, g, k) for (n, g), k in zip(cells, ks)] + list(EDGE_ANCHORS)
    rng.shuffle(cases)
    return cases


def closed_form_cases(rng: random.Random, tiny: bool):
    if tiny:
        return [(5, 1.0)]
    cases = [(n, k) for n in CLOSED_N for k in CLOSED_K]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def sweep_pass(ctx: Context, sweeps, tally: Tally, jobs: int):
    """`hkcce sweep` through cli.main, emitting CSV+JSON to a temp dir."""
    for ns, gammas, ks in sweeps:
        cases = len(ns) * len(gammas) * len(ks)
        out = Path(tempfile.mkdtemp(prefix="sweep-", dir=ctx.scratch))
        argv = ["sweep", "--n", ",".join(map(str, ns)),
                "--gamma", ",".join(map(str, gammas)), "--k", ",".join(map(str, ks)),
                "--jobs", str(jobs), "--out", str(out), "--emit", "csv,json"]
        ctx.new_case()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = tally.timed(" ".join(argv[:7]), ctx.hk.cli.main, argv)
            tally.gate(code == 0, f"sweep exit status {code}")
            rows = json.loads((out / "reports" / "sweep.json").read_text(encoding="utf-8"))
            csv_lines = (out / "tables" / "sweep.csv").read_text(encoding="utf-8").splitlines()
            tally.gate(len(rows) == cases and len(csv_lines) == cases + 1
                       and (out / "manifest.json").is_file(), "sweep files")
            for row in rows:
                n, g, k = row["n"], row["gamma"], row["k"]
                label = f"sweep n={n} gamma={g} k={k}"
                oracle = q_oracle(n, g, k)
                err = abs(row["Q_num"] - oracle) / max(1.0, abs(oracle))
                tally.guard("q_rel_err_max", err)
                tally.gate(err <= Q_TOL, f"{label} Q error {err:.2e}")
                want = "equality" if g == 0.5 else "strict"
                if g == 0.5:
                    tally.guard("equality_gap_max", abs(row["gap"]) / abs(row["lhs"]))
                tally.gate(row["verdict"] == want, f"{label} verdict {row['verdict']}")
        except Exception:
            tally.error("sweep")
        finally:
            shutil.rmtree(out, ignore_errors=True)


def edge_pass(ctx: Context, cases, tally: Tally):
    hk = ctx.hk
    for n, g, k in cases:
        label = f"n={n} gamma={g} k={k}"
        ctx.new_case()
        try:
            rep = tally.timed(f"hk-adapted {label}", hk.verify_adapted, n, g, k)
            defect = tally.timed(f"defect-adapted {label}", hk.defect_identity,
                                 "adapted", n, k, gamma=g)
        except Exception:
            tally.error(f"edge {label}")
            continue
        oracle = q_oracle(n, g, k)
        err = abs(rep.params["q_value"] - oracle) / max(1.0, abs(oracle))
        tally.guard("q_rel_err_max", err)
        tally.gate(err <= Q_TOL, f"hk-adapted {label} Q error {err:.2e}")
        tally.measure(rep.verdict == "strict", f"hk-adapted {label} {rep.verdict}")
        tally.guard("defect_balance_max", abs(defect.gap) / abs(defect.lhs))
        tally.measure(defect.verdict == "equality", f"defect-adapted {label} {defect.verdict}")


def _lee_residuals(hk, n, k):
    return hk.residual_suite(hk.build_lee(hk.ModelSpace(n, k)))


def closed_form_pass(ctx: Context, cases, tally: Tally):
    hk = ctx.hk
    for n, k in cases:
        label = f"n={n} k={k}"
        r_values = 0.5 / math.sqrt(k) * np.logspace(-3, 0, 20)
        ctx.new_case()
        try:
            lee = tally.timed(f"hk-lee {label}", hk.verify_lee, n, k)
            defect = tally.timed(f"defect-lee {label}", hk.defect_identity, "lee", n, k)
            residuals = tally.timed(f"residuals {label}", _lee_residuals, hk, n, k)
            ratios = tally.timed(f"asymptotic {label}", hk.asymptotic_ratio, n, k, r_values)
            cert = (tally.timed(f"prop21 {label}", hk.verify_prop21, n)
                    if n >= 5 else None)
        except Exception:
            tally.error(f"closed-form {label}")
            continue
        tally.guard("equality_gap_max", abs(lee.gap) / abs(lee.lhs))
        tally.gate(lee.verdict == "equality", f"hk-lee {label} {lee.verdict}")
        tally.guard("defect_balance_max", abs(defect.gap) / abs(defect.lhs))
        tally.gate(defect.verdict == "equality", f"defect-lee {label} {defect.verdict}")
        worst = max(rp.sup_weighted for rp in residuals.values())
        tally.gate(worst <= LEE_RESIDUAL_TOL, f"lee residuals {label} {worst:.2e}")
        ratio_err = max(abs(row["ratio"] - 1.0) for row in ratios)
        tally.guard("asym_ratio_err_max", ratio_err)
        tally.gate(len(ratios) == len(r_values) and ratio_err <= RATIO_TOL,
                   f"asymptotic {label} {ratio_err:.2e}")
        if cert is not None:
            tally.gate(cert.ok, f"prop21 n={n}")


@dataclass(frozen=True)
class Workload:
    draw: object        # (rng, tiny) -> case list
    one_pass: object    # (ctx, cases, tally) -> None
    cases: object       # case list -> cases per pass


def _sweep_cases(sweeps) -> int:
    return sum(len(ns) * len(gammas) * len(ks) for ns, gammas, ks in sweeps)


WORKLOADS = {
    "grid45": Workload(grid_flags,
                       lambda ctx, cases, tally: sweep_pass(ctx, cases, tally, jobs=1),
                       _sweep_cases),
    "grid45-j2": Workload(grid_flags,
                          lambda ctx, cases, tally: sweep_pass(ctx, cases, tally, jobs=2),
                          _sweep_cases),
    "edge": Workload(edge_cases, edge_pass, len),
    "closed-form": Workload(closed_form_cases, closed_form_pass, len),
}


def run_passes(workload: str, ctx: Context, cases, seconds: float) -> Tally:
    """Whole passes over `cases` for about `seconds` of wall time; at least one.

    Another pass starts only if one more pass as long as the last one ends
    within `seconds`, so a run never overshoots by a whole pass.
    """
    spec = WORKLOADS[workload]
    tally = Tally(cases=spec.cases(cases))
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        spec.one_pass(ctx, cases, tally)
        tally.passes += 1
        now = time.perf_counter()
        if ctx.tiny or now - start + (now - t0) > seconds:
            return tally


def report_misses(tally: Tally, limit: int = 20):
    for label in tally.miss_labels[:limit]:
        print(f"# {label}", file=sys.stderr)
    if len(tally.miss_labels) > limit:
        print(f"# ... {len(tally.miss_labels) - limit} more", file=sys.stderr)
