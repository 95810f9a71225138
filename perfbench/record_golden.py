"""Record the golden outputs that the paper_tables workload and the CLI
timing compare against: the rows of both regression tables, and the report
row and trajectory digest of each shipped config.

The golden file defines correctness, so record it only at a commit whose
outputs are trusted, and commit the result:

    python3 perfbench/record_golden.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fliess as fl  # noqa: E402

from workloads import PaperTables, SHIPPED_CONFIGS, trajectory_digest  # noqa: E402


def main() -> None:
    golden = {"tables": {}, "configs": {}}
    for which in ("lc", "gc"):
        golden["tables"][which] = [r.report.row() for r in fl.reproduce_table(which).rows]
    for name in SHIPPED_CONFIGS:
        cfg = fl.load_config(str(ROOT / "configs" / f"{name}.json"))
        golden["configs"][name] = {
            "row": fl.run_experiment(cfg).row(),
            "trajectory_sha256": trajectory_digest(fl.emit_trajectory(cfg, PaperTables.resolution)),
        }
    golden["cli_stdout"] = subprocess.run(
        [sys.executable, "-m", "fliess.cli", "run", "configs/factorial_constant.json"],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        check=True,
    ).stdout
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
