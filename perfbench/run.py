"""Benchmark of the fliess package: three seeded workloads through the public
API, end-to-end metrics from an untraced run, per-layer metrics from a traced
run.  See perfbench/README.md for the workloads and every metric.

    python3 perfbench/run.py --workload rep_realization --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Each workload
runs in processes of its own; this process only starts them, one at a time,
and imports neither numpy nor fliess.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("paper_tables", "rep_realization", "word_series")
# set-up runs per benchmark run: SETUP_PROBES set-up-only processes plus the
# measuring process, whose median is setup_s
SETUP_PROBES = 4
# no single child may outlive this; the whole run stays under 180 s
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str]) -> dict:
    """Start a worker process, wait for it, and return its JSON last line."""
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_checkout() -> None:
    needed = [ROOT / "src" / "fliess" / "__init__.py", HERE / "golden.json",
              *(ROOT / "configs" / f"{n}.json"
                for n in ("factorial_constant", "geometric_resolvent", "sinusoid_drive"))]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a fliess checkout, missing: {', '.join(missing)}")


def run_workload(a) -> tuple[dict, list[str]]:
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace)]
    probes = [] if a.trace else [run_worker(["--phase", "setup", *common])
                                 for _ in range(SETUP_PROBES)]
    res = run_worker(["--phase", "measure", *common])
    notes = [f"numpy {res['numpy']}", *res["log"]]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    correct = res["failed"] == 0
    if not a.trace:
        probes.append(res)
        metrics["setup_s"] = {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"}
        notes.append("setup_s at reference speed: " + " ".join(f"{p['setup_s']:.4f}" for p in probes)
                     + "; raw wall: " + " ".join(f"{p['setup_raw_s']:.4f}" for p in probes))
        correct = correct and res["cli_wrong"] == 0
        n = res["attempted"]
        notes.append(f"case_ms_p50 and case_ms_p90 over n={n} cases; "
                     f"failed_share = {res['failed'] / n:.4g} ({res['failed']} of {n})")
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    return result, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, each in its own processes")
    ap.add_argument("--selftest", action="store_true",
                    help="check that the oracles pass real outputs and catch perturbed ones")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if sum((a.workload is not None, a.all, a.selftest)) != 1:
        ap.error("give exactly one of --workload, --all, --selftest")
    try:
        check_checkout()
        if a.selftest:
            res = run_worker(["--phase", "selftest", "--seed", str(a.seed)])
            print("\n".join(res["log"]))
            print("selftest " + ("passed" if res["ok"] else "FAILED"))
            return 0 if res["ok"] else 1
        if a.all:
            codes = [subprocess.run([sys.executable, str(Path(__file__)), "--workload", w,
                                     "--seed", str(a.seed), "--seconds", str(a.seconds),
                                     "--trace", str(a.trace)], cwd=ROOT).returncode
                     for w in WORKLOADS]
            return max(codes)
        # one processor for this process and every child, so that a reference
        # measurement and the work it scales run on the same core
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        load = os.getloadavg()
        print(f"# fliess benchmark: workload={a.workload} seed={a.seed} seconds={a.seconds:g} "
              f"trace={a.trace}")
        print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
              f"loadavg at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}, "
              f"{'/'.join(THREAD_VARIABLES)}=1, pinned to cpu {cpu}")
        result, notes = run_workload(a)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"# {note}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
