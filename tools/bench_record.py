"""Write a bench record: the end-to-end numbers of a change against a base commit.

    python3 tools/bench_record.py --base <git-rev> --out BENCH_<n>.json

The change is the working tree that holds this script; the base is
`git archive <rev>` of the same repository, unpacked into a temporary
directory.  The record holds:

- acceptance criteria 07 (the sqdist solve) and 08 (the ball-quad support)
  on the 8.1M-point grid, criterion 07's solve with no grid evaluator (f
  streamed through eval_dense), criterion 09's 1,000 containment checks, and
  the sqdist solve with a scalar-only objective on the 68,921-point grid:
  seconds of the timed call and `ru_maxrss` of the process, each run in a
  fresh process, REPEATS times per side with the side that runs first
  alternating, and the report (minimizer, iterations, `converged` and
  value of a solve; the counts of criterion 09's checks), whether it is
  the same in every run and equal to the base's;
- the perfbench workloads: `perfbench/run.py --trace 0` of each side, for
  the run length BENCHMARK.json declares, in PAIRS alternating base/change
  pairs on seeds SEED0, SEED0 + 1, ... (the side that runs first
  alternates too), with each end-to-end metric per run, the medians and
  quartiles, and the pairs the change won;
- the eight command-line invocations of the README: each run in CLI_PAIRS
  alternating base/change pairs of fresh processes, with the median and
  quartiles of the wall time, the exit codes, whether every stdout is
  byte-identical to the base's, the largest ulp distance between its JSON
  floats and the base's (0 where stdout is identical), and whether every
  key, string, int, bool and exit code is identical;
- the help texts: `orlicz --help` and `orlicz <command> --help` for each
  command at COLUMNS=80, once per side, and whether each is byte-identical
  to the base's;
- the wellposed determinism set: `orlicz wellposed --family non-delta2`
  once per ORLICZ_SEED in WELLPOSED_SEEDS on each side, at the CLI's
  defaults and with each other argument set of WELLPOSED_ARGS, with the
  median wall time, the exit codes, whether every stdout is byte-identical
  to the base's for the same seed, and the same float and non-float
  comparison as the README invocations;
- the host: `nproc`, the Python and numpy versions.

Runs go one at a time, with BLAS and OpenMP capped at one thread and
ORLICZ_SEED unset outside the wellposed set, so two cores suffice.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid", "diagnose", "cli-light")
# Fresh-process runs per criterion and side, alternating base/change pairs
# per README invocation and per workload, and the perfbench seed of the
# first pair.  A process takes about 0.25 s and the host's load moves that
# by more than a few ms, so a per-process figure needs a dozen pairs.
REPEATS = 5
CLI_PAIRS = 12
PAIRS = 10
SEED0 = 200
# The wellposed determinism set: seeds, and the argument sets after the family.
WELLPOSED_SEEDS = range(10)
WELLPOSED_ARGS = ((), ("--samples", "100", "--levels", "0.25,0.0625,0.015625"))
# Direction of each perfbench end-to-end metric, as BENCHMARK.json declares it.
LOWER_IS_BETTER = {"setup_s": True, "op_ms": True, "ops_per_s": False, "peak_rss_mb": True}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# One criterion run in a fresh process; prints one JSON line.  "dense" is
# criterion 07's solve with eval_grid=None, so f goes through eval_dense in
# streamed chunks; "09" is criterion 09's loop of 1,000 containment checks
# with scalar-only objectives; "scalar" is criterion 07's solve with a
# scalar-only copy of the objective on the 41^3 = 68,921-point grid.
CRITERION = r"""
import dataclasses, json, resource, sys, time
import numpy as np
from orlicz import (GridOracle, GridSampler, Objective, SparseSequence, intersection_lemma_check,
                    make_power, perturb_minimize, support_from_below)
from orlicz.objectives import shifted_ball_objective, squared_distance_objective

M = make_power(2.0)
z = SparseSequence.from_pairs([(1, 31 * 0.01), (2, 17 * 0.01), (3, 5 * 0.01)])
case = sys.argv[1]


def quadratic(rng):
    w = rng.uniform(0.3, 2.0, size=2)
    c = rng.uniform(-0.5, 0.5, size=2)
    low = float(rng.uniform(0.0, 1.0))

    def eval_fn(x):
        return float(w[0] * (x.value_at(1) - c[0]) ** 2 + w[1] * (x.value_at(2) - c[1]) ** 2 + low)

    return Objective(eval=eval_fn, domain_radius=1.0, lower_bound=low)


def solve_report(rep, value, inner):
    return {"minimizer": [list(e) for e in rep.minimizer.entries], "iterations": inner.iterations,
            "converged": inner.converged, "value": value}


start = time.perf_counter()
if case == "07":
    rep = perturb_minimize(M, squared_distance_objective(M, z), eps=0.1, oracle=GridOracle((1, 2, 3), step=0.01))
    report = solve_report(rep, rep.min_value, rep)
elif case == "dense":
    f = dataclasses.replace(squared_distance_objective(M, z), eval_grid=None)
    rep = perturb_minimize(M, f, eps=0.1, oracle=GridOracle((1, 2, 3), step=0.01))
    report = solve_report(rep, rep.min_value, rep)
elif case == "08":
    rep = support_from_below(M, shifted_ball_objective(M, 1.0), 1.0, 2.0, GridOracle((1, 2, 3), step=0.01))
    report = solve_report(rep, rep.supported_value, rep.inner)
elif case == "09":
    rng = np.random.default_rng(909)
    sampler = GridSampler((1, 2), step=0.1, radius=1.0)
    checks = [
        intersection_lemma_check(M, quadratic(rng), quadratic(rng), K=1.0,
                                 delta=float(rng.uniform(0.02, 0.25)), sampler=sampler)
        for _ in range(1000)
    ]
    report = {"holds": sum(c.holds for c in checks), "hypothesis_nonempty": sum(c.hypothesis_nonempty for c in checks),
              "checked": sum(c.checked for c in checks)}
else:
    f = squared_distance_objective(M, z)
    scalar = Objective(eval=f.eval, domain_radius=f.domain_radius, lower_bound=f.lower_bound,
                       probe_points=f.probe_points, coercive=f.coercive)
    rep = perturb_minimize(M, scalar, eps=0.1, oracle=GridOracle((1, 2, 3), step=0.05))
    report = solve_report(rep, rep.min_value, rep)
seconds = time.perf_counter() - start
print(json.dumps({
    "seconds": seconds,
    "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "report": report,
}))
"""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _env(src: Path | None = None) -> dict:
    env = dict(os.environ)
    env.pop("ORLICZ_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def _last_json(cmd: list[str], cwd: Path, env: dict) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "runs": values}


def _in_turn(sides: dict[str, Path], k: int) -> list[tuple[str, Path]]:
    """The sides in the order of run k: the side that runs first alternates."""
    return list(sides.items())[:: 1 if k % 2 == 0 else -1]


def _criteria(sides: dict[str, Path]) -> dict:
    out = {}
    for name in ("07", "dense", "08", "09", "scalar"):
        runs = {side: [] for side in sides}
        for k in range(REPEATS):
            for side, tree in _in_turn(sides, k):
                runs[side].append(_last_json([sys.executable, "-c", CRITERION, name], tree, _env(tree / "src")))
                print(f"criterion {name} {side}: {runs[side][-1]['seconds']:.3f} s", file=sys.stderr)
        out[name] = {}
        for side, rs in runs.items():
            reports = [r["report"] for r in rs]
            out[name][side] = {
                "seconds": _summary([r["seconds"] for r in rs]),
                "ru_maxrss_mb": _summary([r["ru_maxrss_mb"] for r in rs]),
                "report": reports[0],
                "reports_agree_across_runs": all(r == reports[0] for r in reports),
                "report_equal_to_base": reports[0] == runs["base"][0]["report"],
            }
    return out


def _readme_invocations() -> list[list[str]]:
    """The arguments of each `orlicz ...` line of the README, continuations joined."""
    text = (ROOT / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("orlicz ")]


def _run_cli(tree: Path, args: list[str], seed: int | None = None, **env_vars: str) -> tuple[float, int, bytes]:
    """Wall seconds, exit code and stdout of one `orlicz` run in a fresh process."""
    env = dict(_env(tree / "src"), **env_vars)
    if seed is not None:
        env["ORLICZ_SEED"] = str(seed)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orlicz.cli", *args], cwd=tree, env=env, capture_output=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def _float_key(x: float) -> int:
    """x's bits as an integer that grows with x, so that adjacent floats are 1 apart."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _json_compare(a, b) -> tuple[bool, int]:
    """(every key and non-float value equal, largest ulp distance between corresponding floats)."""
    if isinstance(a, float) and isinstance(b, float):
        same = a == b or (a != a and b != b)
        return True, 0 if same else abs(_float_key(a) - _float_key(b))
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        parts = [_json_compare(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [_json_compare(x, y) for x, y in zip(a, b)]
    else:
        return type(a) is type(b) and a == b, 0
    return all(p[0] for p in parts), max((p[1] for p in parts), default=0)


def _stdout_compare(out: bytes, base: bytes) -> tuple[bool, int]:
    """_json_compare of two JSON stdouts; stdout that is not JSON must be byte-identical."""
    try:
        return _json_compare(json.loads(out), json.loads(base))
    except ValueError:
        return out == base, 0


def _cli_entry(runs: dict[str, list], base_runs: list[tuple]) -> dict:
    """Each side's runs, run k compared with base_runs[k]: byte for byte, and
    as JSON, by the largest ulp distance between floats and whether every
    key, string, int, bool and exit code is identical."""
    entry = {}
    for side, rs in runs.items():
        compared = [_stdout_compare(r[2], b[2]) for r, b in zip(rs, base_runs)]
        entry[side] = {
            "wall_s": _summary([r[0] for r in rs]),
            "exit_codes": sorted({r[1] for r in rs}),
            "stdout_identical_to_base": all(r[2] == b[2] for r, b in zip(rs, base_runs)),
            "max_float_ulps_from_base": max(c[1] for c in compared),
            "all_but_floats_identical_to_base": all(c[0] for c in compared)
            and all(r[1] == b[1] for r, b in zip(rs, base_runs)),
        }
    return entry


def _cli(sides: dict[str, Path]) -> dict:
    out = {}
    for args in _readme_invocations():
        runs = {side: [] for side in sides}
        for k in range(CLI_PAIRS):
            for side, tree in _in_turn(sides, k):
                runs[side].append(_run_cli(tree, args))
        entry = out[shlex.join(args)] = _cli_entry(runs, [runs["base"][0]] * CLI_PAIRS)
        print(f"cli {args[0]}: " + ", ".join(
            f"{side} {e['wall_s']['median']:.3f} s [{e['wall_s']['q1']:.3f}-{e['wall_s']['q3']:.3f}]"
            for side, e in entry.items()), file=sys.stderr)
    return out


def _help(sides: dict[str, Path]) -> dict:
    out = {}
    for args in [["--help"]] + [[cmd, "--help"] for cmd in sorted({a[0] for a in _readme_invocations()})]:
        stdouts = {side: _run_cli(tree, args, COLUMNS="80")[2] for side, tree in sides.items()}
        out[shlex.join(args)] = stdouts["change"] == stdouts["base"]
    return out


def _wellposed(sides: dict[str, Path]) -> dict:
    out = {}
    for extra in WELLPOSED_ARGS:
        args = ["wellposed", "--family", "non-delta2", *extra]
        runs = {side: [] for side in sides}
        for seed in WELLPOSED_SEEDS:
            for side, tree in _in_turn(sides, seed):
                runs[side].append(_run_cli(tree, args, seed))
            print(f"{shlex.join(args)} seed {seed}: " + ", ".join(f"{side} {rs[-1][0]:.3f} s" for side, rs in runs.items()), file=sys.stderr)
        out[shlex.join(args)] = {
            "seeds": list(WELLPOSED_SEEDS),
            **_cli_entry(runs, runs["base"]),
        }
    return out


def _perfbench(sides: dict[str, Path], seconds: float) -> dict:
    out = {}
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for k in range(PAIRS):
            for side, tree in _in_turn(sides, k):
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(SEED0 + k), "--seconds", f"{seconds:g}", "--trace", "0"]
                res = _last_json(cmd, tree, _env())
                runs[side].append(res)
                print(f"{workload} pair {k} {side}: op_ms {res['metrics']['op_ms']['value']:.3f}", file=sys.stderr)
        entry = {"seeds": [SEED0 + k for k in range(PAIRS)]}
        for side, rs in runs.items():
            entry[side] = {
                "correct": all(r["correct"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "attempted": sum(r["attempted"] for r in rs),
                **{m: _summary([r["metrics"][m]["value"] for r in rs]) for m in LOWER_IS_BETTER},
            }
        base, change = runs["base"], runs["change"]
        entry["pairs_won_by_change"] = {
            m: sum(
                (c["metrics"][m]["value"] < b["metrics"][m]["value"]) == lower
                and c["metrics"][m]["value"] != b["metrics"][m]["value"]
                for b, c in zip(base, change)
            )
            for m, lower in LOWER_IS_BETTER.items()
        }
        out[workload] = entry
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="path of the JSON record to write")
    args = ap.parse_args()
    seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    started = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        archive = Path(tmp) / "base.tar"
        subprocess.run(["git", "archive", "-o", str(archive), args.base], cwd=ROOT, check=True)
        subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(base)], check=True)
        sides = {"base": base, "change": ROOT}
        record = {
            "base": _git("rev-parse", args.base),
            "change": {"head": _git("rev-parse", "HEAD"), "src_differs_from_head": bool(_git("status", "--porcelain", "--", "src"))},
            "host": {
                "nproc": _nproc(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "machine": platform.machine(),
            },
            "criteria": _criteria(sides),
            "cli": _cli(sides),
            "help_identical_to_base": _help(sides),
            "wellposed": _wellposed(sides),
            "perfbench": {
                "seconds": seconds,
                "workloads": _perfbench(sides, seconds),
            },
        }
    record["wall_s"] = time.time() - started
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
