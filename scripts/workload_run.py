#!/usr/bin/env python3
"""One perfbench workload's set-up and one measured iteration, into a run
directory that is kept, so that two checkouts' outputs can be compared file
by file:

    python3 scripts/workload_run.py score-pipeline 2901 /tmp/runs/change
    python3 scripts/compare_runs.py /tmp/runs/parent /tmp/runs/change

The generated config, the set-up stages and the measured stages come from
``perfbench/workloads.py``; each stage is one ``sevcon.cli.main`` call at one
BLAS thread, as in perfbench, on the ``src/`` of the checkout that holds this
script. Exits with the first failing stage's exit code.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads, as perfbench/run.py sets it
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from sevcon.cli import main as sevcon_main  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("run_dir", type=Path)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "bench.ini"
        ini.write_text(workloads.config_ini(wl, args.seed))
        for i, stage in enumerate(wl.setup + wl.measured):
            config = ["--config", str(ini)] if i == 0 else []
            rc = sevcon_main(["--run-dir", str(args.run_dir)] + config + stage)
            if rc != 0:
                print(f"workload_run: {' '.join(stage)} exited {rc}", file=sys.stderr)
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
