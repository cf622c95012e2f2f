"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _hkcce_attributes():
    """Every attribute of the loaded hkcce modules and of the patched classes."""
    hk = sys.modules["hkcce"]
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "hkcce" or name.startswith("hkcce.")):
            snapshot.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (hk.CompactifiedGeometry, hk.hk_verifier.RadialIntegrator):
        snapshot.update({(cls.__qualname__, attr): value
                         for attr, value in vars(cls).items()})
    return snapshot


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    """Run from an empty directory with $HKCCE_OUT pointing into it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HKCCE_OUT", str(tmp_path / "hkcce_out"))
    return tmp_path


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_tiny(workload, trace, isolated, capsys):
    run.import_hkcce()
    before = _hkcce_attributes()
    result = run.run(workload, seed=7, seconds=0, trace=bool(trace), tiny=True)
    run.emit(result)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in line["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())

    if trace:
        assert result["spans"], "the traced run recorded no spans"
    else:
        assert result["spans"] == []
    if trace and workload == "grid45":
        # two cases sharing one interior, each solved by qcurv and by hk-adapted
        assert line["metrics"]["scattering.solve_case.calls"]["value"] == 4.0
        assert line["metrics"]["scattering.unique_interior_ratio"]["value"] == 0.25

    after = _hkcce_attributes()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []

    # sweep output stays in the benchmark's temp dir, whatever $HKCCE_OUT says
    assert list(isolated.iterdir()) == []
    assert not any(run.ROOT.joinpath(".bench_out").glob(f"{workload}-*"))


def test_install_covers_every_import_site():
    hk = run.import_hkcce()
    originals = [tracing._resolve(module, attr)[2]
                 for targets in tracing.TARGETS.values() for module, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert [fn for fn in originals if tracing.import_sites(fn)] == []
        assert hk.cli.solve_case is hk.hk_verifier.solve_case
    finally:
        tracer.restore()
    assert hk.cli.solve_case is hk.scattering.solve_case is originals[0]


def test_edge_draw_is_seeded_and_in_range():
    import random

    a = workloads.edge_cases(random.Random(3), tiny=False)
    assert a == workloads.edge_cases(random.Random(3), tiny=False)
    assert a != workloads.edge_cases(random.Random(4), tiny=False)
    drawn = [case for case in a if case not in workloads.EDGE_ANCHORS]
    assert sorted(n for n, _, _ in drawn) == list(workloads.EDGE_N)
    assert all(0.05 <= g <= 0.2 or 0.8 <= g <= 0.95 for _, g, _ in a)


def test_oracle_matches_library():
    hk = run.import_hkcce()
    for n, g, k in [(3, 0.05, 0.5), (6, 0.5, 1.0), (20, 0.95, 2.0)]:
        assert workloads.q_oracle(n, g, k) == pytest.approx(
            hk.sphere_q_value(n, g, k), rel=1e-12)
