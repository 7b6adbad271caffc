"""The three workloads: inputs from the seed, operations, and output checks.

A workload runs in rounds; a round is a fixed list of operations, each a
call into `orlicz` that returns an output the workload checks against
computations of its own (`checks.py`).  Round r draws its inputs from
numpy's generator seeded with (seed, r), so the same seed gives the same
inputs.  `corruptions` alters a valid output in the ways a broken program
might; every alteration must be rejected by `check`, or the check is
vacuous.

The program's modules are looked up at call time (`engine.perturb_minimize`,
not a name bound at import), so a tracer installed later sees every call.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

import checks
from orlicz import cli, engine, functions, objectives, sampling, wellposed

GRID_STEP = 0.05  # the CLI's default step; 68,921 points on [-1, 1]^3
GRID_INDICES = (1, 2, 3)

# `orlicz wellposed --family non-delta2 --samples 100 --levels 0.25,0.0625,0.015625`;
# radius, decades, support size, index range and centers are the CLI defaults.
# The levels are the first three of the CLI's eight.  At the deeper ones the
# verdict rests on a sampled diameter within a few percent of the 0.1
# threshold and flips with the sampler seed (README.md, "diagnose"); at these
# three it was looks-not-wpmc on every one of 40 sampler seeds tried.
DIAG_SAMPLES = 100
DIAG_LEVELS = (0.25, 0.0625, 0.015625)
DIAG_WITNESS_K = (5, 10, 20, 50)
VERDICT_NOT_WPMC = "looks-not-wpmc"


def _rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


@dataclasses.dataclass
class Op:
    name: str
    run: object  # () -> output
    inputs: dict


class Workload:
    name = ""
    calibration = "numpy"  # the kind of host-speed kernel its times are scaled by (worker.py)

    def __init__(self, seed: int):
        self.seed = seed
        # Counters the per-layer metrics divide by.
        self.counters = {"grid_points": 0, "engine_rounds": 0}

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def corruptions(self, op: Op, out) -> list[tuple[str, object]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- grid --------------------------------------------------------------------


def _grid_axis(step: float) -> np.ndarray:
    n = int(math.floor(1.0 / step + 1e-9))
    return np.arange(-n, n + 1, dtype=float) * step


def _grid_rows(step: float) -> np.ndarray:
    axis = _grid_axis(step)
    mesh = np.meshgrid(*([axis] * len(GRID_INDICES)), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(GRID_INDICES))


def _weights_on_grid(w) -> np.ndarray:
    head, tail = tuple(w.head), w.tail
    return np.array([head[i - 1] if i <= len(head) else tail for i in GRID_INDICES])


def _dense(seq, indices=GRID_INDICES) -> np.ndarray:
    d = dict(seq.entries)
    return np.array([d.get(i, 0.0) for i in indices])


class Grid(Workload):
    """perturb_minimize on sqdist, then support_from_below on ball-quad, both power:2."""

    name = "grid"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rows = _grid_rows(GRID_STEP)  # the checker's own copy of the grid

    def ops(self, r: int) -> list[Op]:
        rng = _rng(self.seed, r)
        z = np.round(rng.uniform(-0.6, 0.6, size=3), 3)
        z[0] = math.copysign(max(abs(z[0]), 0.05), z[0])  # sqdist needs z != 0
        eps = float(np.round(rng.uniform(0.05, 0.2), 4))
        delta_lo = float(np.round(rng.uniform(0.5, 1.0), 4))
        eps_hi = float(np.round(rng.uniform(1.5, 2.5), 4))
        radius = float(np.round(rng.uniform(0.7, 1.0), 4))
        target = ",".join(f"{i}:{v!r}" for i, v in zip(GRID_INDICES, z.tolist()))
        inputs = dict(z=z, eps=eps, delta_lo=delta_lo, eps_hi=eps_hi, radius=radius)
        n_points = len(self.rows)

        def run():
            # Built inside the operation, as one `orlicz solve` / `orlicz support` run does.
            M = functions.parse_family("power:2")
            f = objectives.parse_objective(M, f"sqdist:{target}")
            solve = engine.perturb_minimize(M, f, eps, engine.GridOracle(GRID_INDICES, GRID_STEP, 1.0))
            g = objectives.parse_objective(M, f"ball-quad:{radius!r}")
            support = engine.support_from_below(
                M, g, delta_lo, eps_hi, engine.GridOracle(GRID_INDICES, GRID_STEP, 1.0)
            )
            self.counters["grid_points"] += 2 * n_points
            self.counters["engine_rounds"] += solve.iterations + support.inner.iterations
            return {"solve": solve, "support": support}

        return [Op("grid", run, inputs)]

    def check(self, op: Op, out) -> list[str]:
        return self._check_solve(op.inputs, out["solve"]) + self._check_support(op.inputs, out["support"])

    def _check_solve(self, inp, rep) -> list[str]:
        bad = []
        a = _weights_on_grid(rep.weights)
        # f + g_a with the closed-form power:2 norm ||x - z||^2 = sum (x_n - z_n)^2.
        total = ((self.rows - inp["z"]) ** 2).sum(axis=1) + (self.rows ** 2) @ a
        if abs(total.min() - rep.min_value) > 1e-9:
            bad.append(f"solve: min_value {rep.min_value!r} != grid minimum {total.min()!r}")
        x = _dense(rep.minimizer)
        at_x = float(((x - inp["z"]) ** 2).sum() + (x ** 2) @ a)
        if abs(at_x - rep.min_value) > 1e-9:
            bad.append(f"solve: f + g_a at the minimizer is {at_x!r}, not min_value {rep.min_value!r}")
        sup = max((abs(v) for v in (*rep.weights.head, rep.weights.tail)), default=0.0)
        if not sup < inp["eps"]:
            bad.append(f"solve: sup_norm {sup!r} >= eps {inp['eps']!r}")
        if not rep.converged:
            bad.append("solve: not converged")
        return bad

    def _check_support(self, inp, rep) -> list[str]:
        bad = []
        ws = (*rep.weights.head, rep.weights.tail)
        if not all(inp["delta_lo"] <= w <= inp["eps_hi"] for w in ws):
            bad.append(f"support: weight outside [{inp['delta_lo']}, {inp['eps_hi']}]: {ws}")
        if not rep.inner.converged:
            bad.append("support: not converged")
        sq = (self.rows ** 2).sum(axis=1)
        inside = np.sqrt(sq) <= inp["radius"] * (1.0 + 1e-12)
        gap = 1.0 + sq[inside] - (self.rows[inside] ** 2) @ _weights_on_grid(rep.weights)
        if not gap.size or gap.min() < rep.supported_value - 1e-9:
            bad.append(f"support: f - g_a dips to {gap.min() if gap.size else None!r} "
                       f"below supported_value {rep.supported_value!r}")
        x = _dense(rep.minimizer)
        at_x = 1.0 + float((x ** 2).sum()) - float((x ** 2) @ _weights_on_grid(rep.weights))
        if abs(at_x - rep.supported_value) > 1e-9:
            bad.append(f"support: f - g_a at the contact point is {at_x!r}, not {rep.supported_value!r}")
        return bad

    def corruptions(self, op: Op, out) -> list[tuple[str, object]]:
        solve, support = out["solve"], out["support"]
        w = support.weights
        return [
            ("min_value + 1e-6", {**out, "solve": dataclasses.replace(solve, min_value=solve.min_value + 1e-6)}),
            ("not converged", {**out, "solve": dataclasses.replace(solve, converged=False)}),
            ("weight above eps_hi", {**out, "support": dataclasses.replace(
                support, weights=dataclasses.replace(w, tail=op.inputs["eps_hi"] + 1e-6))}),
            ("supported_value + 1e-6", {**out, "support": dataclasses.replace(
                support, supported_value=support.supported_value + 1e-6)}),
        ]


# -- diagnose ----------------------------------------------------------------


class Diagnose(Workload):
    """wpmc_diagnose on the non-delta2 modular with the plateau witnesses folded in."""

    name = "diagnose"

    def ops(self, r: int) -> list[Op]:
        sampler_seed = int(_rng(self.seed, r).integers(0, 2**31 - 1))

        def run():
            # The body of `orlicz wellposed --family non-delta2`.
            M = functions.parse_family("non-delta2")
            f = objectives.parse_objective(M, "modular")
            witnesses = [wellposed.non_delta2_witness(M, k) for k in DIAG_WITNESS_K]
            sampler = sampling.BallSampler(
                seed=sampler_seed, count=DIAG_SAMPLES, support_size=6, index_range=40,
                decades=4.0, extra=tuple(x for x, _ in witnesses),
            )
            report = wellposed.wpmc_diagnose(M, f, 1.0, DIAG_LEVELS, sampler, max_centers=8)
            return {"report": report, "witnesses": witnesses, "sampler": sampler, "M": M}

        return [Op("diagnose", run, {"sampler_seed": sampler_seed})]

    def _level_diameters(self, out) -> list[float]:
        """Full diameter of each sampled sublevel set, by the reference norm."""
        if "diameters" not in out:
            # The sample itself comes from the program's sampler; selection and
            # distances are recomputed here.
            pts = out["sampler"].points(out["M"], 1.0)
            width = max(max((p.max_index for p in pts), default=1), 1)
            rows = np.zeros((len(pts), width))
            for i, p in enumerate(pts):
                for idx, val in p.entries:
                    rows[i, idx - 1] = val
            values = checks.nd2_M(np.abs(rows)).sum(axis=1)
            ii, jj = np.triu_indices(len(rows), k=1)
            # Pairs ordered by support size, so that each chunk is narrow when it can be.
            nnz = (rows != 0.0).sum(axis=1)
            order = np.argsort(nnz[ii] + nnz[jj], kind="stable")
            ii, jj = ii[order], jj[order]
            # Chunked so that the checker's memory stays below the program's.
            dist = np.concatenate([
                checks.nd2_norm_rows(rows[ii[s:s + 2000]] - rows[jj[s:s + 2000]])
                for s in range(0, len(ii), 2000)
            ])
            diams = []
            for level in DIAG_LEVELS:
                chosen = values <= values.min() + level
                pair = chosen[ii] & chosen[jj]
                diams.append(float(dist[pair].max()) if pair.any() else 0.0)
            out["diameters"] = diams
        return out["diameters"]

    def check(self, op: Op, out) -> list[str]:
        bad = []
        rep = out["report"]
        if rep.verdict != VERDICT_NOT_WPMC:
            bad.append(f"diagnose: verdict {rep.verdict!r}")
        for x, st in out["witnesses"]:
            values = x.values()
            sigma = checks.nd2_modular(values)
            if not sigma < 1.0 / st.k + float(checks.nd2_M(st.t_k)):
                bad.append(f"diagnose: witness k={st.k} modular {sigma!r} >= 1/k + M(t_k)")
            if st.k >= 20:
                norm = checks.nd2_norm(values)
                if not 0.4 <= norm <= 0.55:
                    bad.append(f"diagnose: witness k={st.k} norm {norm!r} outside [0.4, 0.55]")
        diams = self._level_diameters(out)
        for level, alpha, diam, full in zip(rep.levels, rep.alpha_estimates, rep.diam_estimates, diams):
            if alpha > full * (1.0 + 1e-9) or diam > full * (1.0 + 1e-9):
                bad.append(f"diagnose: level {level:g}: alpha {alpha!r} or diam {diam!r} exceeds "
                           f"the sublevel diameter {full!r}")
        if any(b > a * (1.0 + 1e-12) for a, b in zip(diams, diams[1:])):
            bad.append(f"diagnose: sublevel diameters grow as levels shrink: {diams}")
        if len(rep.levels) != len(DIAG_LEVELS):
            bad.append(f"diagnose: {len(rep.levels)} levels reported, {len(DIAG_LEVELS)} asked")
        return bad

    def corruptions(self, op: Op, out) -> list[tuple[str, object]]:
        rep = out["report"]
        diams = self._level_diameters(out)
        alphas = list(rep.alpha_estimates)
        alphas[-1] = diams[-1] * 1.01
        x, st = out["witnesses"][-1]
        return [
            ("flipped verdict", {**out, "report": dataclasses.replace(rep, verdict="looks-wpmc")}),
            ("alpha above the sublevel diameter", {**out, "report": dataclasses.replace(
                rep, alpha_estimates=tuple(alphas))}),
            ("witness doubled", {**out, "witnesses": out["witnesses"][:-1] + [(x.scale(2.0), st)]}),
        ]


# -- cli-light ---------------------------------------------------------------


def _cli_sequence(rng: np.random.Generator, size: int, top: int) -> tuple[str, list[float]]:
    """A literal with `size` entries on indices up to `top`, always using `top`."""
    idx = np.sort(np.append(rng.choice(top - 1, size=size - 1, replace=False) + 1, top))
    vals = np.round(rng.uniform(0.05, 1.2, size=size) * rng.choice([-1.0, 1.0], size=size), 4)
    return ",".join(f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())), vals.tolist()


class CliLight(Workload):
    """In-process `orlicz` commands that answer in milliseconds."""

    name = "cli-light"
    calibration = "python"
    _FAMILIES = ("power:1", "power:1.5", "power:2", "non-delta2")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tmp = Path(__file__).resolve().parent.parent / ".bench_tmp"
        self.tmp.mkdir(exist_ok=True)
        self.paths: list[Path] = []

    def close(self) -> None:
        for path in self.paths:
            path.unlink(missing_ok=True)

    def ops(self, r: int) -> list[Op]:
        rng = _rng(self.seed, r)
        specs = []
        for fam in self._FAMILIES:
            lit, vals = _cli_sequence(rng, 8, 40)
            specs.append(("norm", ["norm", "--family", fam, "--sequence", lit], {"family": fam, "values": vals}))
        specs.append(("delta2", ["delta2", "--family", "power:2"], {"family": "power:2"}))
        specs.append(("delta2", ["delta2", "--family", "non-delta2"], {"family": "non-delta2"}))
        for k in (20, 50):
            specs.append(("witness", ["witness", "--family", "non-delta2", "--k", str(k)], {"k": k}))
        lit, _ = _cli_sequence(rng, 8, 20)
        specs.append(("probe-l1", ["probe", "--family", "power:1", "--probe", "l1", "--sequence", lit], {}))
        specs.append(("probe-growth", ["probe", "--family", "power:1.5", "--probe", "growth:2",
                                       "--k-max", "10"], {"k_max": 10}))
        # The verdict needs each quotient to double, so consecutive scales shrink at least 4-fold.
        exponents = rng.uniform(1.0, 2.0) + np.cumsum(np.r_[0.0, rng.uniform(0.7, 1.0, size=4)])
        scales = [float(f"{t:.6g}") for t in 10.0 ** -exponents]
        specs.append(("probe-curvature", ["probe", "--family", "power:1.5", "--probe", "curvature",
                                          "--scales", ",".join(repr(s) for s in scales)], {"scales": scales}))
        specs.append(("classify", ["classify", "--family", "power:1"], {"family": "power:1"}))
        specs.append(("classify", ["classify", "--family", "non-delta2"], {"family": "non-delta2"}))
        return [self._op(i, name, argv, inputs) for i, (name, argv, inputs) in enumerate(specs)]

    def _op(self, i: int, name: str, argv: list[str], inputs: dict) -> Op:
        # One file per slot: a round is checked after all its calls have run.
        out_path = self.tmp / f"cli-{os.getpid()}-{i}.json"
        if out_path not in self.paths:
            self.paths.append(out_path)

        def run():
            out_path.unlink(missing_ok=True)
            rc = cli.main(argv + ["--out", str(out_path)])
            return {"rc": rc, "path": out_path}

        return Op(name, run, dict(inputs, argv=argv))

    @staticmethod
    def read_back(out) -> None:
        if "payload" not in out:
            path = out.pop("path")
            out["payload"] = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None

    def check(self, op: Op, out) -> list[str]:
        self.read_back(out)
        inp, rc, data = op.inputs, out["rc"], out["payload"]
        label = " ".join(inp["argv"][:3])
        want_rc = 1 if op.name == "delta2" and inp["family"] == "non-delta2" else 0
        if rc != want_rc:
            return [f"{label}: exit code {rc}, expected {want_rc}"]
        if data is None:
            return [f"{label}: no payload in --out"]
        try:
            bad = getattr(self, "_check_" + op.name.replace("-", "_"))(inp, data)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            bad = [f"malformed payload: {exc!r}"]
        return [f"{label}: {b}" for b in bad]

    def _check_norm(self, inp, data) -> list[str]:
        vals, fam = inp["values"], inp["family"]
        if fam == "non-delta2":
            rho = data["norm"]
            resid = abs(checks.nd2_modular(np.asarray(vals) / rho) - 1.0)
            ref = checks.nd2_norm(vals)
            bad = [] if resid <= 1e-9 else [f"|sigma(x/rho) - 1| = {resid:.3e}"]
            if not checks.rel_close(rho, ref, 1e-10):
                bad.append(f"norm {rho!r} vs root {ref!r}")
            if not checks.rel_close(data["modular"], checks.nd2_modular(vals), 1e-12):
                bad.append(f"modular {data['modular']!r}")
            return bad
        p = float(fam.split(":")[1])
        ref = checks.power_norm(vals, p)
        bad = [] if checks.rel_close(data["norm"], ref, 1e-10) else [f"norm {data['norm']!r} vs {ref!r}"]
        if not checks.rel_close(data["modular"], checks.power_modular(vals, p), 1e-12):
            bad.append(f"modular {data['modular']!r}")
        return bad

    def _check_delta2(self, inp, data) -> list[str]:
        if inp["family"] == "non-delta2":
            ok = data["constant"] is None and data["source"] == "failed"
            return [] if ok else [f"constant {data['constant']!r} from {data['source']!r}"]
        p = float(inp["family"].split(":")[1])
        ok = data["constant"] == 2.0 ** -p and data["source"] == "exact"
        return [] if ok else [f"constant {data['constant']!r} from {data['source']!r}, expected exact {2.0 ** -p!r}"]

    def _check_witness(self, inp, data) -> list[str]:
        st, k = data["witness"], inp["k"]
        vals = [float(v.split(":")[1]) for v in data["sequence"].split(",")]
        bad = []
        sigma = checks.nd2_modular(vals)
        if st["k"] != k or not sigma < 1.0 / k + float(checks.nd2_M(st["t_k"])):
            bad.append(f"modular {sigma!r} not below 1/k + M(t_k)")
        norm = checks.nd2_norm(vals)
        if not 0.4 <= norm <= 0.55:
            bad.append(f"norm {norm!r} outside [0.4, 0.55]")
        if not checks.rel_close(st["norm_x"], norm, 1e-10):
            bad.append(f"reported norm {st['norm_x']!r} vs root {norm!r}")
        return bad

    def _check_probe_l1(self, inp, data) -> list[str]:
        p = data["probe"]
        if p["verdict"] != "obstruction-confirmed" or not p["quotients"]:
            return [f"verdict {p['verdict']!r}"]
        low = [q for q in p["quotients"] if not q >= 1.9]
        return [f"quotients below 1.9: {low}"] if low else []

    def _check_probe_growth(self, inp, data) -> list[str]:
        p = data["probe"]
        bad = [] if p["verdict"] == "obstruction-confirmed" else [f"verdict {p['verdict']!r}"]
        if len(p["scales"]) != inp["k_max"]:
            bad.append(f"{len(p['scales'])} scales, expected {inp['k_max']}")
        for k, (t, q) in enumerate(zip(p["scales"], p["quotients"]), start=1):
            if not (checks.rel_close(q, 2.0 * t ** -0.5, 1e-12) and q > 2.0 * k):
                bad.append(f"quotient {q!r} at t={t!r}, k={k}")
        return bad

    def _check_probe_curvature(self, inp, data) -> list[str]:
        p = data["probe"]
        bad = [] if p["verdict"] == "obstruction-confirmed" else [f"verdict {p['verdict']!r}"]
        if p["scales"] != inp["scales"]:
            bad.append(f"scales {p['scales']} differ from the request")
        for t, q in zip(p["scales"], p["quotients"]):
            if not checks.rel_close(q, 0.75 * t ** -0.5, 1e-12):
                bad.append(f"quotient {q!r} at t={t!r}, expected {0.75 * t ** -0.5!r}")
        return bad

    def _check_classify(self, inp, data) -> list[str]:
        c = data["classify"]
        if inp["family"] == "non-delta2":
            return [] if c["delta2_ok"] is False else ["delta2_ok is not false"]
        return [] if "frechet-bump" in c["excluded"] else [f"excluded {c['excluded']} lacks frechet-bump"]

    def corruptions(self, op: Op, out) -> list[tuple[str, object]]:
        self.read_back(out)
        data = out["payload"]

        def altered(edit):
            new = copy.deepcopy(out)
            edit(new["payload"])
            return new

        wrong_rc = [("exit code flipped", {**out, "rc": 1 - out["rc"]})]
        name = op.name
        if name == "norm":
            return wrong_rc + [("norm off by 1e-8 relative",
                                altered(lambda d: d.update(norm=d["norm"] * (1.0 + 1e-8))))]
        if name == "delta2":
            return wrong_rc + [("constant changed", altered(lambda d: d.update(constant=0.5 if d["constant"] is None
                                                                            else d["constant"] * 2.0)))]
        if name == "witness":
            return wrong_rc + [("norm_x off by 1e-8 relative", altered(
                lambda d: d["witness"].update(norm_x=d["witness"]["norm_x"] * (1.0 + 1e-8))))]
        if name.startswith("probe"):
            def last_quotient(d):
                q = d["probe"]["quotients"]
                q[-1] = min(q[-1] * (1.0 - 1e-9), 1.85)
            return wrong_rc + [("last quotient lowered", altered(last_quotient))]
        if name == "classify" and data["classify"]["delta2_ok"]:
            return wrong_rc + [("frechet-bump dropped", altered(lambda d: d["classify"].update(excluded=[])))]
        return wrong_rc + [("delta2_ok flipped", altered(lambda d: d["classify"].update(delta2_ok=True)))]


WORKLOADS = {w.name: w for w in (Grid, Diagnose, CliLight)}
