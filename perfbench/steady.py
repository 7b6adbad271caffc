"""Steadiness of the end-to-end metrics across seeds, against the bounds.

    python3 perfbench/steady.py --runs 10 --seed0 100 --save .bench_out/set1.json
    python3 perfbench/steady.py --runs 10 --seed0 200 --against .bench_out/set1.json

Runs `run.py --trace 0` once per seed (seed0, seed0+1, ...) on each workload,
one run at a time, and prints for every end-to-end metric the median, the
quartiles (`statistics.quantiles(n=4)`) and the spread (Q3 - Q1) / median,
next to the metric's bound in BENCHMARK.json.  A spread is "ok" below a
third of the bound; `setup_s` has no spread limit.  `--against` also checks
that each median lies within the bound of the saved set's median, in the
metric's worse direction, and that the share of failed operations is equal.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["unscaled"] = next((ln[len("# unscaled: "):] for ln in lines if ln.startswith("# unscaled: ")), "")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    previous = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else {}
    saved, ok = {}, True
    for wl in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(_run(wl, args.seed0 + i, args.seconds))
            print(f"{wl} seed {args.seed0 + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items())
                + f" | unscaled {runs[-1]['unscaled']}", flush=True)
        saved[wl] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"== {wl}: correct={correct} failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            line = (f"  {name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"spread={spread:.4f} bound={m['bound']}")
            if name != "setup_s":
                good = spread < m["bound"] / 3.0
                ok &= good
                line += " ok" if good else " WIDE"
            if wl in previous:
                old = statistics.median(r["metrics"][name]["value"] for r in previous[wl])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                good = worse <= m["bound"]
                ok &= good
                line += f" vs saved {old:.6g} ({worse:+.4f} worse) " + ("ok" if good else "REGRESSED")
            print(line, flush=True)
        if wl in previous:
            same = {r["failed"] / r["attempted"] for r in previous[wl]} == shares
            ok &= same
            print(f"  failed share equal to saved set: {same}")
    if args.save:
        Path(args.save).parent.mkdir(exist_ok=True)
        Path(args.save).write_text(json.dumps(saved), encoding="utf-8")
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
