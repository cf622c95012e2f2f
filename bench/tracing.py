"""Per-layer tracing from outside the program.

A `Tracer` replaces hkcce's public functions at every import site (each
``hkcce.*`` module attribute bound to the same function object, plus a few
methods on their classes) with wrappers that record a span per call and the
layer counters listed in `PER_LAYER`.  `Tracer.restore` puts every original
object back.  Spans stay in memory as ``[id, parent, case, name, t0, t1]`` and
are written out once, when the run ends.

Calls made inside forked worker processes (``--jobs 2``) record their spans in
the worker and are lost; only the parent-side spans are reported.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of every traced function; "Class.method" patches the
# class attribute.  The span name is the attribute's last component.
TARGETS = {
    "scattering": [("hkcce.scattering", "solve_case"),
                   ("hkcce.scattering", "solve_interior"),
                   ("hkcce.scattering", "match_and_q")],
    "compactification": [("hkcce.compactification", "build_adapted"),
                         ("hkcce.compactification", "build_lee"),
                         ("hkcce.compactification", "residual_suite"),
                         ("hkcce.compactification", "CompactifiedGeometry.state"),
                         ("hkcce.compactification", "CompactifiedGeometry.state_of_r")],
    "hk_verifier": [("hkcce.hk_verifier", "RadialIntegrator.__init__"),
                    ("hkcce.hk_verifier", "RadialIntegrator.integrate"),
                    ("hkcce.hk_verifier", "verify_adapted"),
                    ("hkcce.hk_verifier", "verify_cla"),
                    ("hkcce.hk_verifier", "verify_lee"),
                    ("hkcce.hk_verifier", "defect_identity"),
                    ("hkcce.hk_verifier", "asymptotic_ratio")],
    "jet_algebra": [("hkcce.jet_algebra", "verify_prop21")],
    "cli": [("hkcce.cli", "_run_cases"),
            ("hkcce.cli", "emit_report")],
}

# Per-layer metrics: name -> unit.  Counts and times are per pass over the
# workload's case list, so runs of different length compare.
PER_LAYER = {
    "scattering.solve_case.calls": "count",
    "scattering.solve_case.busy_s": "s",
    "scattering.solve_interior.busy_s": "s",
    "scattering.match_and_q.busy_s": "s",
    "scattering.ode_steps": "count",
    "scattering.match_condition_max": "ratio",
    "scattering.unique_interior_ratio": "ratio",
    "compactification.build_adapted.calls": "count",
    "compactification.build_adapted.busy_s": "s",
    "compactification.build_lee.busy_s": "s",
    "compactification.residual_suite.busy_s": "s",
    "compactification.state.calls": "count",
    "compactification.state.points": "count",
    "compactification.state.busy_s": "s",
    "hk_verifier.integrator_init.calls": "count",
    "hk_verifier.integrator_init.busy_s": "s",
    "hk_verifier.integrate.calls": "count",
    "hk_verifier.integrate.busy_s": "s",
    "hk_verifier.verify.self_s": "s",
    "hk_verifier.asymptotic_ratio.busy_s": "s",
    "jet_algebra.verify_prop21.calls": "count",
    "jet_algebra.verify_prop21.busy_s": "s",
    "cli.run_cases.busy_s": "s",
    "cli.emit_report.busy_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.case_cost_ref": "ref",
    "trace.overhead_share": "ratio",
    "machine.ref_unit_ms": "ms",
}

_VERIFY_SPANS = ("verify_adapted", "verify_cla", "verify_lee", "defect_identity")


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *cls, name = attr.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def import_sites(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) in the loaded hkcce package bound to fn."""
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "hkcce" or mod_name.startswith("hkcce.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                sites.append((mod, attr))
    return sites


class Tracer:
    """Spans and layer counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.case = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.interiors: set = set()

    # -- spans ---------------------------------------------------------------
    def _call(self, name, fn, args, kwargs):
        sid = len(self.spans)
        span = [sid, self._stack[-1] if self._stack else None, self.case, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        c = self.counts
        if name == "solve_case":
            p = args[0]
            self.interiors.add((p.n, p.gamma))
        elif name == "solve_interior":
            c["ode_steps"] += len(result.tau)
        elif name == "match_and_q":
            c["match_condition_max"] = max(c["match_condition_max"],
                                           result.condition_estimate)
        elif name in ("state", "state_of_r"):
            c["state_points"] += np.size(args[1])
        elif name == "emit_report":
            c["files_written"] += len(result)
            c["bytes_written"] += sum(os.path.getsize(p) for p in result)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    # -- install / restore ---------------------------------------------------
    def install(self):
        """Wrap every target at every import site."""
        for targets in TARGETS.values():
            for module, attr in targets:
                owner, name, fn = _resolve(module, attr)
                span_name = name if name != "__init__" else "integrator_init"
                wrapped = self._wrap(span_name, fn)
                sites = [(owner, name)] if "." in attr else import_sites(fn)
                for site, site_attr in sites:
                    self._saved.append((site, site_attr, fn))
                    setattr(site, site_attr, wrapped)

    def restore(self):
        for site, attr, fn in reversed(self._saved):
            setattr(site, attr, fn)
        self._saved.clear()

    # -- results ---------------------------------------------------------------
    def layer_metrics(self, passes: int) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, _case, name, t0, t1 in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child[parent] += t1 - t0
        verify_self = sum(t1 - t0 - child[sid]
                          for sid, _p, _c, name, t0, t1 in self.spans
                          if name in _VERIFY_SPANS)
        per = 1.0 / max(passes, 1)
        c = self.counts
        solves = calls["solve_case"]
        return {
            "scattering.solve_case.calls": solves * per,
            "scattering.solve_case.busy_s": busy["solve_case"] * per,
            "scattering.solve_interior.busy_s": busy["solve_interior"] * per,
            "scattering.match_and_q.busy_s": busy["match_and_q"] * per,
            "scattering.ode_steps": c["ode_steps"] * per,
            "scattering.match_condition_max": c["match_condition_max"],
            # every pass runs the same cases, so distinct interiors are per pass
            "scattering.unique_interior_ratio":
                len(self.interiors) / (solves * per) if solves else 0.0,
            "compactification.build_adapted.calls": calls["build_adapted"] * per,
            "compactification.build_adapted.busy_s": busy["build_adapted"] * per,
            "compactification.build_lee.busy_s": busy["build_lee"] * per,
            "compactification.residual_suite.busy_s": busy["residual_suite"] * per,
            "compactification.state.calls":
                (calls["state"] + calls["state_of_r"]) * per,
            "compactification.state.points": c["state_points"] * per,
            "compactification.state.busy_s":
                (busy["state"] + busy["state_of_r"]) * per,
            "hk_verifier.integrator_init.calls": calls["integrator_init"] * per,
            "hk_verifier.integrator_init.busy_s": busy["integrator_init"] * per,
            "hk_verifier.integrate.calls": calls["integrate"] * per,
            "hk_verifier.integrate.busy_s": busy["integrate"] * per,
            "hk_verifier.verify.self_s": verify_self * per,
            "hk_verifier.asymptotic_ratio.busy_s": busy["asymptotic_ratio"] * per,
            "jet_algebra.verify_prop21.calls": calls["verify_prop21"] * per,
            "jet_algebra.verify_prop21.busy_s": busy["verify_prop21"] * per,
            "cli.run_cases.busy_s": busy["_run_cases"] * per,
            "cli.emit_report.busy_s": busy["emit_report"] * per,
            "cli.files_written": c["files_written"] * per,
            "cli.bytes_written": c["bytes_written"] * per,
            "trace.spans": len(self.spans) * per,
        }

    def write(self, path):
        """Write all spans as JSON: one [id, parent, case, name, t0, t1] each."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "case", "name", "t0", "t1"],
                       "spans": self.spans}, fh)
