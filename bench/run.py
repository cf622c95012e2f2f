"""hkcce benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload grid45 --seed 1 --seconds 15 --trace 0

Run from the repository root.  hkcce is imported from ``src/``.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Lines before it (prefixed ``#``) give each
metric's base counts and the accuracy guards by kind.  Sweep outputs, trace
files and temporary files go under ``.bench_out/``.  The exit status is 0
when the run completed, whether or not its outputs were correct, and 2 when
hkcce cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from warmup import ROOT, import_hkcce, warm_up  # noqa: E402

WARMUP_SCRIPT = Path(__file__).resolve().parent / "warmup.py"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "case_cost_ref": "ref",
    "call_cost_ref.p50": "ref",
    "ok_share": "share",
    "oracle_err_max": "rel",
    "identity_gap_max": "rel",
    "peak_rss_mb": "MB",
}


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__}")


def measure_setup(workload: str, scratch: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing hkcce and warming up."""
    times = []
    for _ in range(repeats):
        out = tempfile.mkdtemp(prefix="setup-", dir=scratch)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(WARMUP_SCRIPT), workload, out],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
    return times


def end_to_end_metrics(tally: wl.Tally, setup: list[float]) -> dict:
    g = tally.guards
    return {
        "setup_s": statistics.median(setup),
        "case_cost_ref": tally.case_cost_ref(),
        "call_cost_ref.p50": float(np.percentile(tally.call_cost_ref(), 50)),
        "ok_share": (tally.attempted - tally.failed - tally.missed) / tally.attempted,
        "oracle_err_max": max(g.get("q_rel_err_max", 0.0),
                              g.get("asym_ratio_err_max", 0.0)),
        "identity_gap_max": max(g.get("equality_gap_max", 0.0),
                                g.get("defect_balance_max", 0.0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path = ROOT, tiny: bool = False) -> dict:
    """Run one workload; returns the result line plus what the self-test needs."""
    hk = import_hkcce(root)
    bench_out = root / ".bench_out"
    bench_out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=bench_out))
    saved_tmpdir = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    cases = wl.WORKLOADS[workload].draw(random.Random(seed), tiny)
    ctx = wl.Context(hk=hk, scratch=scratch, tiny=tiny)
    spans: list = []
    info: list[str] = [machine()]
    try:
        setup = measure_setup(workload, scratch, 1 if tiny else SETUP_REPEATS)
        warm_up(workload, hk, str(Path(tempfile.mkdtemp(prefix="warmup-", dir=scratch))))
        if not trace:
            tally = wl.run_passes(workload, ctx, cases, seconds)
            metrics = end_to_end_metrics(tally, setup)
            units = END_TO_END
            info.append(f"setup runs={len(setup)} "
                        + " ".join(f"{t:.4f}" for t in setup))
            costs = tally.call_cost_ref()
            info.append(f"raw wall time: cases_per_s={tally.cases_per_s():.4f}; "
                        f"call_cost_ref over {len(costs)} calls " + " ".join(
                            f"p{q}={np.percentile(costs, q):.4f}" for q in (50, 75, 90)))
        else:
            plain = wl.run_passes(workload, ctx, cases, seconds / 2.0)
            tracer = Tracer()
            ctx.tracer = tracer
            tracer.install()
            try:
                tally = wl.run_passes(workload, ctx, cases, seconds / 2.0)
            finally:
                tracer.restore()
            spans = tracer.spans
            tracer.write(str(bench_out / f"trace-{workload}-seed{seed}.json"))
            metrics = tracer.layer_metrics(tally.passes)
            traced_cost = tally.case_cost_ref()
            plain_cost = plain.case_cost_ref()
            metrics["trace.case_cost_ref"] = traced_cost
            metrics["trace.overhead_share"] = traced_cost / plain_cost - 1.0
            metrics["machine.ref_unit_ms"] = tally.ref_unit_s * 1e3
            units = PER_LAYER
            info.append(f"case_cost_ref untraced={plain_cost:.4f} "
                        f"({plain.passes} passes) traced={traced_cost:.4f} "
                        f"({tally.passes} passes, {len(spans)} spans)")
            tally.attempted += plain.attempted
            tally.failed += plain.failed
            tally.missed += plain.missed
            tally.miss_labels += plain.miss_labels
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if saved_tmpdir is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmpdir
        tempfile.tempdir = None

    info.append(f"passes={tally.passes} cases/pass={tally.cases} "
                f"calls/pass={len(tally.calls)} call_s={tally.call_s:.4f} "
                f"reference units={tally.ref_units} mean={tally.ref_unit_s * 1e3:.4f} ms")
    info.append(f"checks attempted={tally.attempted} gated_failed={tally.failed} "
                f"measured_missed={tally.missed} failed_share="
                f"{tally.failed + tally.missed}/{tally.attempted}")
    for name in ("q_rel_err_max", "defect_balance_max", "equality_gap_max",
                 "asym_ratio_err_max"):
        if name in tally.guards:
            info.append(f"{name}={tally.guards[name]:.6e}")
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return {"line": line, "info": info, "tally": tally, "spans": spans}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    emit(result)
    return 0


def emit(result: dict) -> None:
    """Misses to stderr; info lines, then the result line, to stdout."""
    wl.report_misses(result["tally"])
    for text in result["info"]:
        print(f"# {text}")
    print(json.dumps(result["line"]))


if __name__ == "__main__":
    sys.exit(main())
