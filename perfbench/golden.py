"""Record the final ``dist_err`` and ``r_opt`` of every workload per seed.

The values in ``golden.json`` were recorded from the seed implementation
of ``druid``; ``worker.py`` checks every run of a listed seed against
them.  Rerun only to extend the seed list, from an unchanged library:

    OPENBLAS_NUM_THREADS=1 python3 perfbench/golden.py --seeds 32
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    from druid.experiment import ExperimentConfig, run_experiment
    from workloads import WORKLOADS, write_dataset

    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        dataset, output = Path(tmp) / "dataset.txt", Path(tmp) / "trace.csv"
        for name, workload in WORKLOADS.items():
            golden[name] = {}
            for seed in range(args.seeds):
                write_dataset(dataset, *workload.generate(seed))
                run_experiment(ExperimentConfig(
                    **workload.config(seed, str(dataset), str(output))))
                lines = output.read_text().splitlines()
                row = dict(zip(lines[0].split(","), lines[-1].split(",")))
                golden[name][str(seed)] = {k: float(row[k]) for k in ("dist_err", "r_opt")}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
