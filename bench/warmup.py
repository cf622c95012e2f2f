"""Import hkcce from the checkout and run one untimed warm-up case.

`setup_s` is the wall time of a fresh interpreter running this file:

    python3 bench/warmup.py <workload> <out_dir>

It imports hkcce from ``src/`` next to ``bench/`` (never from an installed
copy) and runs the workload's warm-up case, so work moved into import or
first-call set-up shows in `setup_s`.  The benchmark process runs the same
warm-up in-process, untimed, before it measures.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_hkcce(root: Path = ROOT):
    """hkcce (with hkcce.cli) imported from root/src; ImportError otherwise."""
    src = root / "src"
    if not (src / "hkcce" / "__init__.py").is_file():
        raise ImportError(f"no hkcce package under {src}")
    sys.path.insert(0, str(src))
    import hkcce
    import hkcce.cli  # noqa: F401  (not imported by the package itself)

    if Path(hkcce.__file__).resolve().parent != (src / "hkcce").resolve():
        raise ImportError(f"hkcce was imported from {hkcce.__file__}, not {src}")
    return hkcce


def warm_up(workload: str, hk, out_dir: str) -> None:
    """One case of the workload, through the same entry point it times."""
    if workload in ("grid45", "grid45-j2"):
        jobs = "2" if workload == "grid45-j2" else "1"
        argv = ["sweep", "--n", "4", "--gamma", "0.5", "--k", "1,2",
                "--jobs", jobs, "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = hk.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"warm-up sweep exited {code}")
    elif workload == "edge":
        hk.verify_adapted(4, 0.2, 1.0)
        hk.defect_identity("adapted", 4, 1.0, gamma=0.2)
    elif workload == "closed-form":
        hk.verify_lee(5, 1.0)
        hk.defect_identity("lee", 5, 1.0)
        hk.residual_suite(hk.build_lee(hk.ModelSpace(5, 1.0)))
        hk.asymptotic_ratio(5, 1.0, [0.1, 0.5])
        hk.verify_prop21(5)
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    warm_up(sys.argv[1], import_hkcce(), sys.argv[2])
