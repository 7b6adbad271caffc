"""Benchmark of the `orlicz` package: one workload per invocation.

    python3 perfbench/run.py --workload grid --seed 7 --seconds 30 --trace 0

Workloads: grid, diagnose, cli-light (see README.md).  The run starts the
workload in its own process (`worker.py`) with BLAS and OpenMP capped at one
thread, after a few set-up-only processes that time importing the program
and building the inputs.  It prints a short header and, as its last line,
one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` they are the per-layer ones from a traced pass, whose spans are
written to `.bench_out/`.  Exit code 0 means every output passed its checks.
"""

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
WORKLOADS = ("grid", "diagnose", "cli-light")
SETUP_RUNS = 5  # set-up samples per run; the timed process is one of them
DEADLINE_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _env() -> dict:
    env = dict(os.environ)
    env.pop("ORLICZ_SEED", None)  # the CLI would let it override the seeded inputs
    for var in THREAD_VARS:
        env[var] = "1"  # one process per workload, and no extra threads in it
    return env


def _worker(args: list[str], env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    if not (ROOT / "src" / "orlicz" / "__init__.py").is_file():
        print(f"error: no orlicz package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_runs = [
            _worker(common + ["--mode", "setup"], env, DEADLINE_S - (time.monotonic() - start))
            for _ in range(SETUP_RUNS - 1)
        ]
        mode = "traced" if args.trace else "timed"
        res = _worker(common + ["--mode", mode, "--seconds", str(args.seconds)], env,
                      DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in setup_runs] + [res["setup_s"]]
    raw_setups = [r["raw_setup_s"] for r in setup_runs] + [res["raw_setup_s"]]

    print(f"# orlicz benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={_nproc()} python={platform.python_version()} numpy={res['numpy']} "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    print(f"# rounds={res['rounds']} attempted={res['attempted']} failed={res['failed']}")
    raw = dict(res["raw"], setup_s=statistics.median(raw_setups))
    print("# unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for line in res["errors"] + res["problems"]:
        print(f"# {line}")

    if args.trace:
        metrics = res["metrics"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **res["metrics"],
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
