"""One workload process of the benchmark; started by run.py, never by hand.

Phases:
  setup     import fliess, generate and parse every config, run one untimed
            warm-up case, print the set-up time and exit;
  measure   the same set-up, then the closed loop (one caller, next case
            when the previous one ends) and the per-case oracle checks;
  selftest  run every case of every workload once, require each oracle to
            pass, and require every deliberate perturbation of an output to
            be caught.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# a run needs at least this many cases so that p90 has ten samples beyond it
MIN_CASES = 100
# the closed loop stops starting cases after this much wall time regardless
MAX_LOOP_S = 110.0
# fresh-interpreter CLI runs per measuring process; their median is cli_s_p50
CLI_RUNS = 11
CLI_COMMAND = ["-m", "fliess.cli", "run", "configs/factorial_constant.json"]
# reference for the CLI runs, and its median time on the machine the
# benchmark was defined on (see REFERENCE_S)
NUMPY_IMPORT = ["-c", "import numpy"]
NUMPY_IMPORT_S = 0.15


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# The processor speed of a shared 2-core virtual machine drifts by up to 1.8x
# over tens of seconds, and the same case slows with it; the ratio of a case's
# time to a fixed reference kernel run beside it stays within a few percent.
# Times are therefore reported at reference speed: measured time scaled by
# REFERENCE_S / (reference kernel time measured next to it).  REFERENCE_S is
# the kernel's median time on that machine; raw wall times are printed too.
REFERENCE_S = 0.0025


def reference_kernel() -> float:
    """Fixed mix of the work the program does: interpreter loops, small
    numpy calls and a small dense solve."""
    import numpy as np

    v = np.linspace(0.0, 1.0, 16)
    m = np.eye(4) + 0.01 * np.arange(16.0).reshape(4, 4)
    acc = 0.0
    for i in range(150):
        w = np.cumsum(v * 0.5)
        z = np.linalg.solve(m, w[:4])
        acc += float(z @ w[4:8])
        d = {(j, i): j * 0.5 for j in range(12)}
        acc += sum(d.values()) * 1e-6
        acc += math.fsum(x * 1e-3 for x in range(20))
    return acc


def reference_seconds(repeats: int = 5) -> float:
    """Median time of a few reference kernel runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def import_fliess():
    sys.path.insert(0, str(ROOT / "src"))
    import fliess

    if Path(fliess.__file__).resolve().parent != ROOT / "src" / "fliess":
        raise SystemExit(f"fliess imported from {fliess.__file__}, not from this checkout")
    return fliess


def set_up(workload: str, seed: int):
    import_fliess()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    cases = [wl.prepare(doc) for doc in wl.generate(seed)]
    wl.run(wl.prepare(wl.warmup_doc()))
    return wl, cases


def run_case(wl, case, log: list[str]):
    """Time one case; return (seconds, output or None)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(case)
    except Exception as exc:  # a failing case is counted, the loop goes on
        d = time.perf_counter() - t0
        log.append(f"{case.label}: raised {type(exc).__name__}: {exc}")
        return d, None
    return time.perf_counter() - t0, out


def checked(wl, case, out, log: list[str]) -> bool:
    if out is None:
        return False
    problems = wl.check(case, out)
    log.extend(f"{case.label}: {p}" for p in problems)
    return not problems


def measure(wl, cases, seconds: float) -> dict:
    """Closed loop over the case pool, in whole passes; a reference
    measurement follows every case, outside the timed region, and scales it
    to reference speed."""
    raw, scaled, failed, log = [], [], 0, []
    timed = 0.0
    start = time.perf_counter()
    ref_before = reference_seconds()
    i = 0
    # whole passes over the pool keep the case mix, and so the quantiles, exact
    while (len(raw) < MIN_CASES or timed < seconds or len(raw) % len(cases)) \
            and time.perf_counter() - start < MAX_LOOP_S:
        case = cases[i % len(cases)]
        i += 1
        d, out = run_case(wl, case, log)
        ref_after = reference_seconds()
        raw.append(d)
        scaled.append(d * 2.0 * REFERENCE_S / (ref_before + ref_after))
        ref_before = ref_after
        timed += d
        failed += not checked(wl, case, out, log)
    n = len(raw)
    log.append(f"raw wall time: cases_per_s {(n - failed) / timed:.4f} 1/s, case_ms_p50 "
               f"{1e3 * quantile(raw, 0.5):.3f} ms, case_ms_p90 {1e3 * quantile(raw, 0.9):.3f} ms")
    metrics = {
        "cases_per_s": ((n - failed) / sum(scaled), "1/s"),
        "case_ms_p50": (1e3 * quantile(scaled, 0.5), "ms"),
        "case_ms_p90": (1e3 * quantile(scaled, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {"attempted": n, "failed": failed, "log": log, "metrics": metrics}


def cli_seconds(runs: int, expected: str, env: dict) -> tuple[list[float], list[float], int]:
    """Raw and reference-speed wall times of fresh-interpreter CLI runs, and
    how many printed something other than the golden output.

    Start-up time drifts with the file and page cache as well as with the
    processor, which the reference kernel does not see; a fresh interpreter
    importing numpy does, so it is the reference for these runs."""
    def spawn(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        return time.perf_counter() - t0, proc

    raw, scaled, wrong = [], [], 0
    ref_before, _ = spawn(NUMPY_IMPORT)
    for _ in range(runs):
        d, proc = spawn(CLI_COMMAND)
        ref_after, _ = spawn(NUMPY_IMPORT)
        raw.append(d)
        scaled.append(d * 2.0 * NUMPY_IMPORT_S / (ref_before + ref_after))
        ref_before = ref_after
        wrong += proc.returncode != 0 or proc.stdout != expected
    return raw, scaled, wrong


# per-layer metrics read from the tracer, by traced name
CALLS = ("signals.input_value", "algebra.coefficient", "operators.dt_fliess_trajectory",
         "operators.iterated_integral", "operators.iterated_integral_pc",
         "signals.discretize", "bounds.regime_check")
INCLUSIVE = ("realization.ct_bilinear_simulate", "realization.simulate_forward",
             "realization.simulate_backward", "algebra.coefficient",
             "operators.dt_fliess_trajectory", "operators.iterated_integral",
             "operators.fliess_truncated", "operators.chen_truncation", "signals.discretize",
             "harness.run_experiment", "harness.emit_trajectory", "harness.reproduce_table")
COMPUTED = ("realization.rk4_steps", "realization.resolvent_solves",
            "algebra.enumerate_words.words", "operators.dt.word_steps")
BOUND_FUNCTIONS = ("bounds.lc_bounds", "bounds.gc_bounds", "bounds.regime_check",
                   "bounds.dt_tail_bound")
SELF_MODULES = ("signals", "algebra", "operators", "bounds", "realization", "harness")


def traced_run(wl, cases, seconds: float, workload: str, seed: int) -> dict:
    """Alternate untraced and traced passes over the whole case pool until
    ``seconds`` have gone by.  Totals are reported per pass, so counts repeat
    exactly for a given seed."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    plain, traced, failed, log = [], [], 0, []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for case in cases:
            d, out = run_case(wl, case, log)
            plain.append(d)
            failed += not checked(wl, case, out, log)
        for case_id, case in enumerate(cases):
            tracer.begin_case(case_id)
            tracer.enable()
            d, out = run_case(wl, case, log)
            tracer.disable()
            tracer.end_case()
            traced.append(d)
            failed += not checked(wl, case, out, log)
        passes += 1

    def per_pass(x: float) -> float:
        return x / passes

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (per_pass(tracer.calls.get(name, 0)), "count")
    for name in INCLUSIVE:
        m[f"{name}.ms"] = (per_pass(1e3 * tracer.incl_s.get(name, 0.0)), "ms")
    for key in COMPUTED:
        m[key] = (per_pass(tracer.counts.get(key, 0)), "count")
    m["operators.suffix_reuse_ratio"] = (tracer.suffix_reuse_ratio(), "ratio")
    m["bounds.ms"] = (per_pass(1e3 * sum(tracer.self_s.get(n, 0.0) for n in BOUND_FUNCTIONS)), "ms")
    for module in SELF_MODULES:
        m[f"{module}.self_ms"] = (per_pass(tracer.module_self_ms(module)), "ms")
    m["bench.self_ms"] = (per_pass(1e3 * (sum(traced) - tracer.top_s)), "ms")
    p50_plain, p50_traced = quantile(plain, 0.5), quantile(traced, 0.5)
    m["trace.case_ms_p50_untraced"] = (1e3 * p50_plain, "ms")
    m["trace.case_ms_p50_traced"] = (1e3 * p50_traced, "ms")
    m["trace.overhead_ms_p50"] = (1e3 * (p50_traced - p50_plain), "ms")
    m["trace.case_ms_mean_untraced"] = (1e3 * sum(plain) / len(plain), "ms")
    m["trace.case_ms_mean_traced"] = (1e3 * sum(traced) / len(traced), "ms")
    m["trace.layer_self_ms_per_case"] = (1e3 * tracer.top_s / len(traced), "ms")
    m["trace.spans"] = (per_pass(len(tracer.spans)), "count")

    log.append(f"self times per case: layers {m['trace.layer_self_ms_per_case'][0]:.3f} ms + benchmark "
               f"{m['bench.self_ms'][0] / len(cases):.3f} ms = traced mean "
               f"{m['trace.case_ms_mean_traced'][0]:.3f} ms; untraced mean "
               f"{m['trace.case_ms_mean_untraced'][0]:.3f} ms, so tracing overhead "
               f"{m['trace.case_ms_mean_traced'][0] - m['trace.case_ms_mean_untraced'][0]:.3f} ms")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    log.insert(0, f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans, "
                  f"{passes} traced pass(es) of {len(cases)} cases)")
    return {"attempted": len(plain) + len(traced), "failed": failed, "log": log, "metrics": m}


def selftest(seed: int) -> dict:
    import_fliess()
    from workloads import WORKLOADS

    log, ok = [], True
    for name, cls in WORKLOADS.items():
        wl = cls()
        caught = {p: 0 for p in wl.perturbations()}
        for case in (wl.prepare(doc) for doc in wl.generate(seed)):
            out = wl.run(case)
            problems = wl.check(case, out)
            if problems:
                ok = False
                log.append(f"{name} {case.label}: unperturbed output failed: {problems}")
            for pname, perturb in wl.perturbations().items():
                bad = perturb(out)
                if bad is None:
                    continue
                if wl.check(case, bad):
                    caught[pname] += 1
                else:
                    ok = False
                    log.append(f"{name} {case.label}: perturbation '{pname}' was not caught")
        for pname, n in caught.items():
            if n == 0:
                ok = False
            log.append(f"{name}: perturbation '{pname}' counted as failed on {n} case(s)")
    return {"ok": ok, "log": log}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--phase", choices=("setup", "measure", "selftest"), required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, help="time.monotonic() when run.py started this process")
    args = ap.parse_args()

    if args.phase == "selftest":
        print(json.dumps(selftest(args.seed)))
        return 0
    wl, cases = set_up(args.workload, args.seed)
    # CLOCK_MONOTONIC is system-wide on Linux, so this spans interpreter start
    setup_raw = time.monotonic() - args.t0
    reference_seconds(1)  # the first run pays numpy's one-time set-up
    setup_s = setup_raw * REFERENCE_S / reference_seconds()
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0
    import numpy

    if args.trace:
        result = traced_run(wl, cases, args.seconds, args.workload, args.seed)
    else:
        result = measure(wl, cases, args.seconds)
        golden = json.loads((HERE / "golden.json").read_text())["cli_stdout"]
        raw, scaled, wrong = cli_seconds(CLI_RUNS, golden, dict(os.environ))
        result["metrics"]["cli_s_p50"] = (quantile(scaled, 0.5), "s")
        result["log"].append(f"cli_s_p50 over n={CLI_RUNS} fresh interpreters (raw wall "
                             f"{quantile(raw, 0.5):.4f} s); {wrong} printed other than the golden row")
        result["cli_wrong"] = wrong
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
