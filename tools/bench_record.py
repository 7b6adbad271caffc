"""Write a bench record: the end-to-end numbers of a change against a base commit.

    python3 tools/bench_record.py --base <git-rev> --out BENCH_<n>.json

The change is the working tree that holds this script; the base is
`git archive <rev>` of the same repository, unpacked into a temporary
directory.  The record holds:

- acceptance criteria 07 (the sqdist solve) and 08 (the ball-quad support)
  on the 8.1M-point grid, criterion 07's solve with no grid evaluator (f
  streamed through eval_dense), a constant objective solved on criterion
  07's grid, criterion 09's 1,000 containment checks, and the sqdist solve
  with a scalar-only objective on the 68,921-point grid:
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
  floats and the base's (0 where stdout is identical), whether every key,
  string, int, bool and exit code is identical, and whether every run that
  exits 0 leaves stderr empty;
- the edge set: the runs of EDGE_RUNS, which overflow M or the modular on
  purpose, compared the same way;
- the help texts: `orlicz --help` and `orlicz <command> --help` for each
  command at COLUMNS=80, once per side, and whether each is byte-identical
  to the base's;
- the wellposed determinism set: `orlicz wellposed` with each argument set
  of WELLPOSED_ARGS (the CLI's defaults on non-delta2 first), once per
  ORLICZ_SEED in WELLPOSED_SEEDS on each side, with the median wall time,
  the exit codes, whether every stdout is byte-identical to the base's for
  the same seed, and the same float, non-float and stderr checks as the
  README invocations;
- the CLI-default `orlicz wellposed --family non-delta2` (8 levels, 400
  samples) timed in process: `orlicz.cli.main` with stdout discarded, the
  median of WELLPOSED_RUNS calls after one warm-up call, in a fresh process
  per side, in PAIRS alternating base/change pairs, with the medians,
  quartiles and the pairs the change won;
- the work of one perfbench diagnose operation on each side, averaged over
  DIAGNOSE_OPS rounds of seed SEED0: calls and rows of the dense norm
  kernel `space._norms` per call site (the chain of `orlicz` frames below
  `wpmc_diagnose`, as `module.function:line`), Newton loops (calls of
  `space._norm_rows`), calls and pairs of the sigma entry `space._sigmas`,
  calls of the packing `space._pack`, the norm rows and sigma-test pairs
  the covering and the diameter tasks yield, and `M.eval` and `deriv1`
  calls and elements, counted by wrapping the functions in process;
- the grid points at which the rounds sum g_a + f, on each side: per
  perfbench grid operation (averaged over GRID_OPS operations of seed
  SEED0), per criterion 07 and 08 solve and per constant-objective solve,
  with the rounds they take, counted by wrapping `GridOracle.sum_at` in
  process;
- Tier-1 on each side, in TIER1_PAIRS alternating base/change pairs of
  `pytest --durations=0` runs: the median and quartiles of the wall time,
  the pass and fail counts of each run, the verdict of each of the 14
  acceptance criteria in each run (the PASS/FAIL lines of the terminal
  summary), and the median duration of every test;
- the norm kernel without M' on the sets of DERIVATIVE_FREE: 2,000 random
  rows of widths 8 and 40, about 30% zeros and row magnitudes 1e-4 to 1e2,
  on non-delta2, power:1.5 and power:3 with closed form and deriv1 removed:
  M.eval passes per 1,024-row block, the median ms of one solve, and the
  largest ulp distance and |sigma(x/rho) - 1| against the same family's
  Newton norm (deriv1 kept), on each side;
- the host: `nproc`, the Python and numpy versions.

Runs go one at a time, with BLAS and OpenMP capped at one thread and
ORLICZ_SEED unset outside the wellposed set, so two cores suffice.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import re
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
# Runs that overflow M or the modular on purpose; each exits 0 with +inf in
# its payload.
EDGE_RUNS = (
    ("norm", "--family", "power:110", "--sequence", "1:1e10"),
    ("norm", "--family", "power:2", "--sequence", "1:1e154,2:1e154"),
    ("norm", "--family", "power:1:1e300", "--sequence", "1:1e10"),
    ("wellposed", "--family", "power:110", "--samples", "20", "--radius", "1e10"),
    ("wellposed", "--family", "power:3", "--samples", "20", "--radius", "1e300"),
)
# Fresh-process runs per criterion and side, alternating base/change pairs
# per README invocation and per workload, and the perfbench seed of the
# first pair.  A process takes about 0.25 s and the host's load moves that
# by more than a few ms, so a per-process figure needs a dozen pairs.
REPEATS = 5
CLI_PAIRS = 12
PAIRS = 10
SEED0 = 200
# The wellposed determinism set: seeds, and the argument sets after `wellposed`.
WELLPOSED_SEEDS = range(10)
WELLPOSED_ARGS = (
    ("--family", "non-delta2"),
    ("--family", "non-delta2", "--samples", "100", "--levels", "0.25,0.0625,0.015625"),
    ("--family", "power:1.5", "--objective", "sqdist:1:0.3,2:-0.2"),
)
# Timed in-process calls per process of the CLI-default wellposed run, and
# perfbench diagnose and grid operations per side whose work is counted.
WELLPOSED_RUNS = 5
DIAGNOSE_OPS = 20
GRID_OPS = 20
# Alternating base/change pairs of Tier-1 runs, and the pytest arguments of
# one run.
TIER1_PAIRS = 5
TIER1_ARGS = ("--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=0", "--durations-min=0")
# Direction of each perfbench end-to-end metric, as BENCHMARK.json declares it.
LOWER_IS_BETTER = {"setup_s": True, "op_ms": True, "ops_per_s": False, "peak_rss_mb": True}
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# One criterion run in a fresh process; prints one JSON line.  "dense" is
# criterion 07's solve with eval_grid=None, so f goes through eval_dense in
# streamed chunks; "09" is criterion 09's loop of 1,000 containment checks
# with scalar-only objectives; "constant" solves f = 1, whose grid values
# are one broadcast float, on criterion 07's grid; "scalar" is criterion
# 07's solve with a scalar-only copy of the objective on the 41^3 =
# 68,921-point grid.
CRITERION = r"""
import dataclasses, json, resource, sys, time
import numpy as np
import orlicz
from orlicz import (GridOracle, Objective, SparseSequence, intersection_lemma_check,
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
elif case == "constant":
    f = Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=1.0,
                  eval_grid=lambda o: np.broadcast_to(1.0, (o.points,)))
    rep = perturb_minimize(M, f, eps=0.1, oracle=GridOracle((1, 2, 3), step=0.01))
    report = solve_report(rep, rep.min_value, rep)
elif case == "09":
    rng = np.random.default_rng(909)
    # The grid sampler is GridOracle where it has dense_points, else GridSampler.
    grid_sampler = GridOracle if hasattr(GridOracle, "dense_points") else orlicz.GridSampler
    sampler = grid_sampler((1, 2), step=0.1, radius=1.0)
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

# The CLI-default wellposed run in process: the median of argv[1] timed
# calls after a warm-up call, in ms.
WELLPOSED_TIMING = r"""
import contextlib, io, json, statistics, sys, time
from orlicz import cli


def run():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["wellposed", "--family", "non-delta2"])


run()
times = []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    run()
    times.append((time.perf_counter() - start) * 1e3)
print(json.dumps({"ms": statistics.median(times)}))
"""

# argv[1] perfbench diagnose operations (seed argv[2]) with the dense norm
# kernel space._norms, the Newton loop space._norm_rows, the sigma entry
# space._sigmas, the packing space._pack and the covering and diameter
# tasks wrapped in every orlicz namespace that holds them, and parse_family
# handing the operation an M whose eval and deriv1 count; prints the work
# per operation.
DIAGNOSE_COUNTS = r"""
import collections, dataclasses, json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import numpy as np
import orlicz.functions, orlicz.sampling, orlicz.space, orlicz.wellposed
import workloads

ops, seed = int(sys.argv[1]), int(sys.argv[2])
pkg = str(Path(orlicz.space.__file__).parent)
space, wellposed = orlicz.space, orlicz.wellposed
kernel = collections.defaultdict(collections.Counter)
sigma = collections.Counter()
work = collections.defaultdict(collections.Counter)


def site():
    frame, chain = sys._getframe(2), []
    while frame.f_code.co_filename.startswith(pkg) and frame.f_code.co_name != "wpmc_diagnose":
        chain.append(f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_name}:{frame.f_lineno}")
        frame = frame.f_back
    return " < ".join(chain)


def patch(name, wrapper):
    # Replace the space function in every orlicz module that holds it.
    raw = getattr(space, name)
    new = wrapper(raw)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("orlicz") and getattr(mod, name, None) is raw:
            setattr(mod, name, new)


def counted_kernel(raw):
    def call(M, blocks, *args, **kwargs):
        kernel[site()].update(calls=1, rows=sum(len(b) for b in blocks))
        return raw(M, blocks, *args, **kwargs)
    return call


def counted_loop(raw):
    def call(M, *args, **kwargs):
        if sys._getframe(1).f_code.co_name != "_norm_rows":  # not its own rescaled call
            work["newton_loops"].update(calls=1)
        return raw(M, *args, **kwargs)
    return call


def counted_pairs(raw):
    def call(M, tests):
        sigma.update(calls=1, pairs=sum(np.broadcast(*t[1:]).size for t in tests))
        return raw(M, tests)
    return call


def counted_packs(raw):
    def call(blocks):
        work["_pack"].update(calls=1)
        return raw(blocks)
    return call


def counted_task(kind, task):
    answer = None
    try:
        while True:
            request = task.send(answer)
            if isinstance(request, tuple):
                work[f"{kind} task"].update(sigma_pairs=np.broadcast(*request[1:]).size)
            else:
                work[f"{kind} task"].update(norm_rows=len(request))
            answer = yield request
    except StopIteration as stop:
        return stop.value


cover, diameter_tasks = wellposed._cover, wellposed._diameter_tasks
wellposed._cover = lambda *args: counted_task("_cover", cover(*args))
wellposed._diameter_tasks = lambda *args: [counted_task("diameter", t) for t in diameter_tasks(*args)]
patch("_norms", counted_kernel)
patch("_norm_rows", counted_loop)
patch("_sigmas", counted_pairs)
patch("_pack", counted_packs)


def counted(kind, fn):
    def call(t):
        work[kind].update(calls=1, elements=np.size(t))
        return fn(t)
    return call


parse_family = orlicz.functions.parse_family


def counted_family(spec):
    M = parse_family(spec)
    return dataclasses.replace(M, eval=counted("M.eval", M.eval), deriv1=counted("M.deriv1", M.deriv1))


orlicz.functions.parse_family = counted_family
workload = workloads.Diagnose(seed)
for r in range(ops):
    workload.ops(r)[0].run()
per_op = lambda c: {k: v / ops for k, v in sorted(c.items())}
print(json.dumps({
    "norm_kernel": {
        "function": "_norms",
        "calls": sum(c["calls"] for c in kernel.values()) / ops,
        "rows": sum(c["rows"] for c in kernel.values()) / ops,
        "sites": {s: per_op(c) for s, c in sorted(kernel.items())},
    },
    "sigma_entry": {"function": "_sigmas", **per_op(sigma)},
    **{kind: per_op(c) for kind, c in sorted(work.items())},
}))
"""


# The grid points the rounds sum g_a + f at: argv[1] perfbench grid
# operations (seed argv[2]), then criteria 07 and 08 and the constant
# objective on the 8.1M-point grid, with GridOracle.sum_at and
# engine._total_values wrapped; prints points and rounds per operation or
# solve.
ROUND_POINTS = r"""
import collections, json, sys
sys.path[:0] = ["src", "perfbench"]
import numpy as np
from orlicz import engine
from orlicz import GridOracle, Objective, SparseSequence, make_power, perturb_minimize, support_from_below
from orlicz.objectives import shifted_ball_objective, squared_distance_objective
import workloads

ops, seed = int(sys.argv[1]), int(sys.argv[2])
counts = collections.Counter()
rounds = engine._total_values


def counted_rounds(*args, **kwargs):
    counts["rounds"] += 1
    return rounds(*args, **kwargs)


engine._total_values = counted_rounds
sum_at = GridOracle.sum_at


def counted_sum_at(self, parts, flat):
    counts["points"] += len(flat)
    return sum_at(self, parts, flat)


GridOracle.sum_at = counted_sum_at


def taken(run, n=1):
    counts.clear()
    for r in range(n):
        run(r)
    return {k: counts[k] / n for k in ("points", "rounds")}


M = make_power(2.0)
z = SparseSequence.from_pairs([(1, 31 * 0.01), (2, 17 * 0.01), (3, 5 * 0.01)])
constant = Objective(eval=lambda x: 1.0, domain_radius=1.0, lower_bound=1.0,
                     eval_grid=lambda o: np.broadcast_to(1.0, (o.points,)))
grid = workloads.Grid(seed)
print(json.dumps({
    "grid_op": taken(lambda r: grid.ops(r)[0].run(), ops),
    "07": taken(lambda r: perturb_minimize(M, squared_distance_objective(M, z), 0.1, GridOracle((1, 2, 3), step=0.01))),
    "08": taken(lambda r: support_from_below(M, shifted_ball_objective(M, 1.0), 1.0, 2.0, GridOracle((1, 2, 3), step=0.01))),
    "constant": taken(lambda r: perturb_minimize(M, constant, 0.1, GridOracle((1, 2, 3), step=0.01))),
}))
"""


# The norm kernel without M' on random rows of widths 8 and 40; prints one
# JSON line.  A solve of 2,000 rows is two blocks, of 1,024 and 976 rows.
DERIVATIVE_FREE = r"""
import dataclasses, json, statistics, time
import numpy as np
from orlicz import luxemburg_norm_dense, parse_family

out = {}
for tag in ("non-delta2", "power:1.5", "power:3"):
    newton = dataclasses.replace(parse_family(tag), power=None)
    free = dataclasses.replace(newton, deriv1=None)
    for width in (8, 40):
        rng = np.random.default_rng(width)
        rows = rng.standard_normal((2000, width)) * 10 ** rng.uniform(-4, 2, (2000, 1))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        calls = []

        def counting(t):
            calls.append(1)
            return free.eval(t)

        got = luxemburg_norm_dense(dataclasses.replace(free, eval=counting), rows)
        ms = []
        for _ in range(7):
            start = time.perf_counter()
            luxemburg_norm_dense(free, rows)
            ms.append((time.perf_counter() - start) * 1e3)
        ref = luxemburg_norm_dense(newton, rows)
        nz = ref > 0.0
        residual = np.asarray(newton.eval(np.abs(rows[nz]) / got[nz, None]), dtype=float).sum(axis=1) - 1.0
        out[f"{tag} width {width}"] = {
            "sigma_passes_per_block": len(calls) / 2,
            "ms": statistics.median(ms),
            "max_ulps_from_newton": int(np.abs(got[nz].view(np.int64) - ref[nz].view(np.int64)).max()),
            "max_abs_residual": float(np.abs(residual).max()),
        }
print(json.dumps(out))
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
    for name in ("07", "dense", "08", "constant", "09", "scalar"):
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


def _run_cli(tree: Path, args: list[str], seed: int | None = None, **env_vars: str) -> tuple[float, int, bytes, bytes]:
    """Wall seconds, exit code, stdout and stderr of one `orlicz` run in a fresh process."""
    env = dict(_env(tree / "src"), **env_vars)
    if seed is not None:
        env["ORLICZ_SEED"] = str(seed)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "orlicz.cli", *args], cwd=tree, env=env, capture_output=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


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
    key, string, int, bool and exit code is identical; and whether each run
    that exits 0 leaves stderr empty."""
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
            "stderr_empty_on_exit_0": all(not r[3] for r in rs if r[1] == 0),
        }
    return entry


def _cli(sides: dict[str, Path], invocations: list[list[str]]) -> dict:
    out = {}
    for args in invocations:
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
        args = ["wellposed", *extra]
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


def _wellposed_timing(sides: dict[str, Path]) -> dict:
    runs = {side: [] for side in sides}
    for k in range(PAIRS):
        for side, tree in _in_turn(sides, k):
            cmd = [sys.executable, "-c", WELLPOSED_TIMING, str(WELLPOSED_RUNS)]
            runs[side].append(_last_json(cmd, tree, _env(tree / "src"))["ms"])
            print(f"wellposed in process pair {k} {side}: {runs[side][-1]:.1f} ms", file=sys.stderr)
    return {
        "args": ["wellposed", "--family", "non-delta2"],
        "runs_per_process": WELLPOSED_RUNS,
        **{side: {"ms": _summary(ms)} for side, ms in runs.items()},
        "pairs_won_by_change": sum(c < b for b, c in zip(runs["base"], runs["change"])),
    }


def _tier1_run(tree: Path) -> dict:
    """Wall seconds, outcome counts, criterion verdicts and per-test durations
    of one Tier-1 run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", *TIER1_ARGS], cwd=tree,
                          env=_env(tree / "src"), capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped)", lines[-1])}
    durations = collections.Counter()
    for m in re.finditer(r"^([\d.]+)s (?:setup|call|teardown) +(\S.*?) *$", proc.stdout, re.M):
        durations[m[2]] += float(m[1])
    criteria = dict(re.findall(r"^(criterion \d+ .*): (PASS|FAIL)$", proc.stdout, re.M))
    return {"seconds": seconds, "counts": counts, "criteria": criteria, "durations": durations}


def _tier1(sides: dict[str, Path]) -> dict:
    runs = {side: [] for side in sides}
    for k in range(TIER1_PAIRS):
        for side, tree in _in_turn(sides, k):
            runs[side].append(_tier1_run(tree))
            print(f"tier-1 pair {k} {side}: {runs[side][-1]['seconds']:.1f} s {runs[side][-1]['counts']}", file=sys.stderr)
    out = {"pytest_args": list(TIER1_ARGS)}
    for side, rs in runs.items():
        out[side] = {
            "seconds": _summary([r["seconds"] for r in rs]),
            "counts": [r["counts"] for r in rs],
            "criterion_verdicts": {c: [r["criteria"].get(c) for r in rs] for c in sorted(set().union(*(r["criteria"] for r in rs)))},
            "test_median_s": {i: statistics.median(r["durations"][i] for r in rs)
                              for i in sorted(set().union(*(r["durations"] for r in rs)))},
        }
    return out


def _derivative_free(sides: dict[str, Path]) -> dict:
    out = {}
    for side, tree in sides.items():
        out[side] = _last_json([sys.executable, "-c", DERIVATIVE_FREE], tree, _env(tree / "src"))
        print(f"derivative-free kernel {side}: " + ", ".join(
            f"{k} {v['sigma_passes_per_block']:g}" for k, v in out[side].items()), file=sys.stderr)
    return out


def _diagnose_counts(sides: dict[str, Path]) -> dict:
    out = {"ops": DIAGNOSE_OPS, "seed": SEED0}
    for side, tree in sides.items():
        out[side] = _last_json([sys.executable, "-c", DIAGNOSE_COUNTS, str(DIAGNOSE_OPS), str(SEED0)], tree, _env())
        print(f"diagnose counts {side}: {out[side]['norm_kernel']['calls']:.1f} norm kernel calls, "
              f"{out[side]['sigma_entry']['calls']:.1f} sigma entry calls, "
              f"{out[side]['_pack']['calls']:.1f} _pack calls per op", file=sys.stderr)
    return out


def _round_points(sides: dict[str, Path]) -> dict:
    out = {"grid_ops": GRID_OPS, "seed": SEED0}
    for side, tree in sides.items():
        out[side] = _last_json([sys.executable, "-c", ROUND_POINTS, str(GRID_OPS), str(SEED0)], tree, _env())
        print(f"round points {side}: {out[side]['grid_op']['points']:.0f} per grid op", file=sys.stderr)
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
            "cli": _cli(sides, _readme_invocations()),
            "edge": _cli(sides, [list(args) for args in EDGE_RUNS]),
            "help_identical_to_base": _help(sides),
            "wellposed": _wellposed(sides),
            "wellposed_in_process": _wellposed_timing(sides),
            "diagnose_counts": _diagnose_counts(sides),
            "round_points": _round_points(sides),
            "tier1": _tier1(sides),
            "derivative_free_kernel": _derivative_free(sides),
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
