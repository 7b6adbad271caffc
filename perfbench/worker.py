"""One workload in one process: set up, run rounds, check, report one JSON line.

    python3 perfbench/worker.py --workload grid --seed 1 --seconds 30 --mode timed
    python3 perfbench/worker.py --workload grid --seed 1 --mode setup
    python3 perfbench/worker.py --workload grid --seed 1 --mode traced

`run.py` starts this with the thread caps already in its environment.  The
`orlicz` package is imported from `src/` of the checkout that holds this
file, never from an installed copy.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

# Set-up time, part one: importing the program.
_T0 = time.perf_counter()
import numpy as np  # noqa: E402

import orlicz  # noqa: E402
import orlicz.cli  # noqa: E402,F401

_IMPORT_S = time.perf_counter() - _T0

if Path(orlicz.__file__).resolve().parent != (SRC / "orlicz").resolve():
    raise SystemExit(f"orlicz imported from {orlicz.__file__}, not from {SRC}")

from workloads import WORKLOADS  # noqa: E402  (the benchmark's own imports are not set-up)

# Rounds in the traced pass; the same rounds also run untraced before and after it.
TRACED_ROUNDS = 1

# Host-speed calibration.  On a shared host the CPU speed can change in steps
# (up to 1.5x on the 2-core VM the bounds were set on) that last from seconds
# to minutes and hit every process alike, interpreted code more than numpy
# loops.  A fixed kernel that does not touch `orlicz`, of the same kind as the
# workload's hot path, runs before every round and after the last one.
# End-to-end times are reported scaled by CAL_REF_S / median(kernel time),
# i.e. at the speed where the kernel takes CAL_REF_S; raw values go to the
# header.  Set-up is interpreter work and uses the "python" kernel.
CAL_REF_S = {"numpy": 0.010, "python": 0.015}
_CAL_ROWS = np.random.default_rng(0).uniform(0.01, 1.0, size=(20000, 10))
# Preallocated, so that the kernel's time does not depend on the allocator's state.
_CAL_BUF = (np.empty_like(_CAL_ROWS), np.empty_like(_CAL_ROWS))


def calibration_s(kind: str) -> float:
    t0 = time.perf_counter()
    if kind == "numpy":
        x, y = _CAL_BUF
        for _ in range(4):
            np.divide(_CAL_ROWS, 1.3, out=x)
            np.multiply(x, x, out=y)
            y.sum(axis=1)
            np.divide(-1.0, x, out=y)
            np.exp(y, out=y)
            y.sum(axis=1)
    else:
        acc = 0.0
        for i in range(60_000):
            acc += i * i
        for i in range(3_000):  # the shape of a scalar M.eval call
            acc += float(np.asarray(0.5 + i * 1e-4, dtype=float) ** 1.5)
    return time.perf_counter() - t0


def _run_round(wl, r, record, tracer=None):
    """Run and time one round; returns [(op, output or None, seconds, error)]."""
    results = []
    for op in wl.ops(r):
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed; the run goes on
            out, err = None, f"{op.name}: {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        results.append((op, out, dt, err))
    record(results)
    return results


class Tally:
    """Attempted and failed operations, output problems, and the corruption self-test."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.self_tested: set[tuple] = set()
        self.op_seconds: list[float] = []

    def __call__(self, results):
        for op, out, dt, err in results:
            self.attempted += 1
            if err is not None:
                self.errors.append(err)
                continue
            self.op_seconds.append(dt)
            found = self.wl.check(op, out)
            self.problems.extend(found)
            kind = (op.name, op.inputs.get("family"))
            if not found and kind not in self.self_tested:
                self.self_tested.add(kind)
                for label, bad_out in self.wl.corruptions(op, out):
                    if not self.wl.check(op, bad_out):
                        self.problems.append(f"self-test: check of {op.name} accepted a corrupted output ({label})")


def timed(wl, seconds: float) -> dict:
    tally = Tally(wl)
    cal = []
    start = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        cal.append(calibration_s(wl.calibration))
        _run_round(wl, r, tally)
        r += 1
        now = time.perf_counter()
        # Whole rounds only; stop before a round that would overrun the run.
        if now + (now - t_round) > start + seconds:
            break
    cal.append(calibration_s(wl.calibration))
    speed = CAL_REF_S[wl.calibration] / statistics.median(cal)
    ops = tally.op_seconds
    raw = {
        "op_ms": 1000.0 * statistics.median(ops) if ops else float("nan"),
        "ops_per_s": len(ops) / sum(ops) if ops else float("nan"),
        "calibration_ms": 1000.0 * statistics.median(cal),
    }
    metrics = {
        "op_ms": {"value": raw["op_ms"] * speed, "unit": "ms"},
        "ops_per_s": {"value": raw["ops_per_s"] / speed, "unit": "1/s"},
    }
    return {"tally": tally, "metrics": metrics, "rounds": r, "raw": raw}


def traced(wl, spans_path: Path) -> dict:
    from tracing import Tracer, per_layer_metrics

    def op_seconds(rounds) -> float:
        return sum(dt for results in rounds for _, _, dt, _ in results)

    tally = Tally(wl)
    # Untraced passes before and after the traced one, so that warm-up falls on neither side alone.
    before = [_run_round(wl, r, tally) for r in range(TRACED_ROUNDS)]
    counters_before = dict(wl.counters)
    tracer = Tracer()
    tracer.install()
    try:
        def record(results):
            tracer.enabled = False
            try:
                tally(results)
            finally:
                tracer.enabled = True

        with_trace = [_run_round(wl, r, record, tracer) for r in range(TRACED_ROUNDS)]
    finally:
        tracer.uninstall()
    counters = {k: wl.counters[k] - counters_before[k] for k in wl.counters}
    after = [_run_round(wl, r, tally) for r in range(TRACED_ROUNDS)]
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    metrics = per_layer_metrics(tracer.aggregate(), counters)
    overhead = op_seconds(with_trace) - 0.5 * (op_seconds(before) + op_seconds(after))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {"tally": tally, "metrics": metrics, "rounds": TRACED_ROUNDS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), default="timed")
    args = ap.parse_args()

    # Set-up time, part two: building the workload's inputs.
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    setup_s = _IMPORT_S + time.perf_counter() - t0
    cal = statistics.median(calibration_s("python") for _ in range(5))
    report = {"setup_s": setup_s * CAL_REF_S["python"] / cal, "raw_setup_s": setup_s}
    if args.mode != "setup":
        try:
            if args.mode == "timed":
                res = timed(wl, args.seconds)
            else:
                res = traced(wl, ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv")
        finally:
            wl.close()
        tally = res["tally"]
        report.update(
            attempted=tally.attempted,
            failed=len(tally.errors),
            errors=tally.errors[:10],
            problems=tally.problems[:20],
            correct=not tally.problems,
            metrics=res["metrics"],
            rounds=res["rounds"],
            raw=res.get("raw", {}),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            numpy=np.__version__,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
