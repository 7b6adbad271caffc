"""Command-line experiment runner.

One config file per run (flat JSON) may set any field; command-line flags
override it, and ORLICZ_SEED overrides the seed last of all.  A subcommand
takes --config, --out and one flag per field it reads, and refuses others,
prefixes of its flags included.
Every command is deterministic given its effective config: reports are JSON
trees with sorted keys, CSV exports carry a schema header, and outputs
embed the effective config for provenance.  Exit codes: 0 success, 1 not
converged or inconclusive, 2 invalid input, exhausted memory or a
floating-point failure.
The parser is built once per process, and each command imports the modules
it runs when it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass

from .errors import DomainError, OrliczError

__all__ = ["ExperimentConfig", "main"]

CSV_SCHEMA = "#schema=1"
# What a config file may hold for a field, by the type of the field's default.
_JSON_KINDS = {float: "a number", int: "an integer", str: "a string"}


def _flag(default, help_text: str, commands: str = ""):
    """A config field whose default also fixes its flag's type; its flag goes
    on the subcommands named in commands, or on every one when it is empty."""
    return dataclasses.field(default=default, metadata={"help": help_text, "commands": commands.split()})


@dataclass
class ExperimentConfig:
    """Flat run configuration.  A config file may set every field; a field is a
    command-line flag only of the subcommands that read it."""

    family: str = _flag("power:2", "function family, e.g. power:1.5 or non-delta2")
    seed: int = _flag(12345, "sampler seed (ORLICZ_SEED overrides)", "wellposed")
    sequence: str = _flag("", "sparse sequence literal i1:v1,i2:v2", "norm probe")
    objective: str = _flag("modular", "objective literal, e.g. modular or sqdist:1:0.3", "solve support wellposed")
    radius: float = _flag(1.0, "working ball radius K", "wellposed")
    eps: float = _flag(0.1, "perturbation budget", "solve")
    delta_lo: float = _flag(1.0, "support floor", "support")
    eps_hi: float = _flag(2.0, "support ceiling", "support")
    budget: int = _flag(50, "iteration budget", "solve support")
    norm_tol: float = _flag(1e-12, "relative tolerance of the norm solver", "norm")
    grid_dims: int = _flag(3, "number of leading grid coordinates", "solve support")
    grid_step: float = _flag(0.05, "grid spacing", "solve support")
    grid_radius: float = _flag(1.0, "grid half-width", "solve support")
    levels: str = _flag("", "comma list of sublevel heights", "wellposed")
    scales: str = _flag("1e-2,1e-3,1e-4,1e-5,1e-6", "comma list of probe scales", "probe")
    probe: str = _flag("l1", "probe spec: l1, growth:p, curvature[:mode]", "probe")
    k: int = _flag(10, "witness index", "witness")
    k_max: int = _flag(5, "growth-probe bound count", "probe classify")
    samples: int = _flag(400, "sampler draw count", "wellposed")
    support_size: int = _flag(6, "sampler support size", "wellposed")
    index_range: int = _flag(40, "sampler index range", "wellposed")
    decades: float = _flag(4.0, "sampler radial decades", "wellposed")
    max_centers: int = _flag(8, "covering centers for the compactness proxy", "wellposed")
    out: str = _flag("", "JSON output path (default stdout)")
    csv_out: str = _flag("", "CSV export path", "delta2 wellposed witness probe")

    def validate(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # int and float compare exactly, so an integer too big for a float cannot overflow here
            if isinstance(field.default, float) and not 0.0 < value <= sys.float_info.max:
                raise DomainError(f"config field {field.name} must be positive and finite, got {value}")
            if isinstance(field.default, int) and field.name != "seed" and value < 1:
                raise DomainError(f"config field {field.name} must be >= 1, got {value}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DomainError("config file must hold a JSON object")
        kinds = {f.name: type(f.default) for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(kinds))
        if unknown:
            raise DomainError(f"unknown config fields: {', '.join(unknown)}")
        for name, value in data.items():
            # A float field also takes a JSON integer; bool is an int to Python.
            kind = kinds[name]
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise DomainError(f"config field {name} must be {_JSON_KINDS[kind]}, got {json.dumps(value)}")
        return cls(**data)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = ExperimentConfig.from_json(fh.read())
        except (OSError, json.JSONDecodeError) as exc:
            raise DomainError(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        cfg = ExperimentConfig()
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    env_seed = os.environ.get("ORLICZ_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise DomainError(f"ORLICZ_SEED must be an integer, got {env_seed!r}") from exc
    cfg.validate()
    return cfg


def _emit_json(cfg: ExperimentConfig, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = vars(cfg)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(cfg: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    if not cfg.csv_out:
        return
    lines = [CSV_SCHEMA, ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    with open(cfg.csv_out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_floats(text: str, what: str) -> list[float]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(float(chunk))
        except ValueError as exc:
            raise DomainError(f"bad {what} entry {chunk!r}") from exc
    if not out:
        raise DomainError(f"no usable {what} in {text!r}")
    return out


def _oracle(cfg: ExperimentConfig) -> GridOracle:
    from .engine import GridOracle

    return GridOracle(
        indices=tuple(range(1, cfg.grid_dims + 1)),
        step=cfg.grid_step,
        radius=cfg.grid_radius,
    )


def _sampler(cfg: ExperimentConfig, extra=()) -> BallSampler:
    from .sampling import BallSampler

    return BallSampler(
        seed=cfg.seed,
        count=cfg.samples,
        support_size=cfg.support_size,
        index_range=cfg.index_range,
        decades=cfg.decades,
        extra=tuple(extra),
    )


def cmd_norm(cfg: ExperimentConfig) -> int:
    from .functions import parse_family
    from .sequences import format_sequence, parse_sequence
    from .space import luxemburg_norm, modular

    M = parse_family(cfg.family)
    x = parse_sequence(cfg.sequence)
    _emit_json(cfg, {
        "family": M.family_tag,
        "sequence": format_sequence(x),
        "norm": luxemburg_norm(M, x, tol=cfg.norm_tol),
        "modular": modular(M, x),
    })
    return 0


def cmd_delta2(cfg: ExperimentConfig) -> int:
    from .functions import delta2_ratio_table, estimate_delta2_constant, parse_family

    M = parse_family(cfg.family)
    table = delta2_ratio_table(M)
    estimate = M.delta2_constant
    source = "exact"
    if estimate is None:
        estimate = estimate_delta2_constant(M)
        source = "grid-estimate"
    _emit_json(cfg, {
        "family": M.family_tag,
        "constant": estimate,
        "source": source if estimate is not None else "failed",
        "ratio_table": [[t, r] for t, r in table],
    })
    _emit_csv(cfg, ["t", "ratio"], [[t, r] for t, r in table])
    return 0 if estimate is not None else 1


def cmd_solve(cfg: ExperimentConfig) -> int:
    from .engine import perturb_minimize
    from .functions import parse_family
    from .objectives import parse_objective

    M = parse_family(cfg.family)
    f = parse_objective(M, cfg.objective)
    report = perturb_minimize(M, f, cfg.eps, _oracle(cfg), budget=cfg.budget)
    _emit_json(cfg, {"solve": report.to_dict()})
    return 0 if report.converged else 1


def cmd_support(cfg: ExperimentConfig) -> int:
    from .engine import support_from_below
    from .functions import parse_family
    from .objectives import parse_objective

    M = parse_family(cfg.family)
    f = parse_objective(M, cfg.objective)
    report = support_from_below(
        M, f, cfg.delta_lo, cfg.eps_hi, _oracle(cfg), budget=cfg.budget
    )
    _emit_json(cfg, {"support": report.to_dict()})
    return 0 if report.inner.converged else 1


def _default_levels(M) -> list[float]:
    base = M.delta2_constant if M.delta2_constant is not None else 0.25
    return [base ** m for m in range(1, 9)]


def cmd_wellposed(cfg: ExperimentConfig) -> int:
    from .functions import parse_family
    from .objectives import parse_objective
    from .wellposed import non_delta2_witness, wpmc_diagnose

    M = parse_family(cfg.family)
    f = parse_objective(M, cfg.objective)
    levels = (
        _parse_floats(cfg.levels, "level") if cfg.levels else _default_levels(M)
    )
    extra = []
    if M.delta2_constant is None:
        # Without the doubling condition the flat-plateau witnesses are the
        # interesting directions; fold them into the sample.
        for k in (5, 10, 20, 50):
            witness, _ = non_delta2_witness(M, k)
            extra.append(witness)
    report = wpmc_diagnose(
        M, f, cfg.radius, levels, _sampler(cfg, extra), max_centers=cfg.max_centers
    )
    _emit_json(cfg, {"wellposed": report.to_dict()})
    _emit_csv(
        cfg,
        ["level", "alpha_estimate", "diam_estimate"],
        [
            [lv, al, dm]
            for lv, al, dm in zip(
                report.levels, report.alpha_estimates, report.diam_estimates
            )
        ],
    )
    return 0 if report.verdict != "inconclusive" else 1


def cmd_witness(cfg: ExperimentConfig) -> int:
    from .functions import parse_family
    from .sequences import format_sequence
    from .wellposed import non_delta2_witness

    M = parse_family(cfg.family)
    x, stats = non_delta2_witness(M, cfg.k)
    _emit_json(cfg, {
        "witness": stats.to_dict(),
        "sequence": format_sequence(x),
    })
    _emit_csv(
        cfg,
        ["k", "t_k", "i_k", "sigma_x", "norm_x"],
        [[stats.k, stats.t_k, stats.i_k, stats.sigma_x, stats.norm_x]],
    )
    return 0


def cmd_probe(cfg: ExperimentConfig) -> int:
    from .functions import parse_family
    from .probes import VERDICT_INCONCLUSIVE, probe_l1, probe_p_growth, probe_second_derivative
    from .sequences import parse_sequence
    from .weights import PerturbationWeights

    M = parse_family(cfg.family)
    scales = _parse_floats(cfg.scales, "scale")
    name, _, arg = cfg.probe.partition(":")
    name = name.lower()
    if name == "l1":
        x_bar = parse_sequence(cfg.sequence)
        report = probe_l1(M, PerturbationWeights(tail=1.0), x_bar, scales)
    elif name == "growth":
        order = float(arg) if arg else 2.0
        report = probe_p_growth(M, order, cfg.k_max)
    elif name == "curvature":
        mode = arg if arg else "nonzero"
        report = probe_second_derivative(M, scales, mode)
    else:
        raise DomainError(f"unknown probe {cfg.probe!r}")
    _emit_json(cfg, {"probe": report.to_dict()})
    _emit_csv(
        cfg,
        ["scale", "quotient", "threshold"],
        [[s, q, report.threshold] for s, q in zip(report.scales, report.quotients)],
    )
    return 0 if report.verdict != VERDICT_INCONCLUSIVE else 1


def cmd_classify(cfg: ExperimentConfig) -> int:
    from .functions import parse_family
    from .probes import classify_space

    M = parse_family(cfg.family)
    report = classify_space(M, k_max=cfg.k_max)
    _emit_json(cfg, {"classify": report.to_dict()})
    return 0


_COMMANDS = {
    "norm": cmd_norm,
    "delta2": cmd_delta2,
    "solve": cmd_solve,
    "support": cmd_support,
    "wellposed": cmd_wellposed,
    "witness": cmd_witness,
    "probe": cmd_probe,
    "classify": cmd_classify,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: help widths are taken when
    help is printed, so nothing in it depends on the call that built it."""
    parser = argparse.ArgumentParser(
        prog="orlicz",
        description="Orlicz-space experiments: norms, perturbations, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, allow_abbrev=False)
        cmd.set_defaults(usage_error=cmd.error)  # reports extras with this command's usage
        cmd.add_argument("--config", default=None, help="JSON config file")
        for field in dataclasses.fields(ExperimentConfig):
            if field.metadata["commands"] and name not in field.metadata["commands"]:
                continue
            cmd.add_argument(
                f"--{field.name.replace('_', '-')}", dest=field.name,
                type=type(field.default), default=None, help=field.metadata["help"],
            )
    return parser


def _stray_flag(argv: list[str]) -> str | None:
    """argv's first token if it is a flag ahead of the command.  The top-level
    parser takes only -h and the prefixes of --help ("-" and "--" among them);
    it would skip any other flag and read the flag's value as the command."""
    head = argv[0] if argv else ""
    helps = head.startswith("-h") or "--help".startswith(head.partition("=")[0])
    return head if head.startswith("-") and not helps else None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--"]:  # the end-of-options marker, ahead of the command
        argv = argv[1:]
    flag = _stray_flag(argv)
    if flag is not None:
        parser.error(f"unrecognized arguments: {flag}")
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.usage_error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: floating-point failure: {exc}", file=sys.stderr)
        return 2
    except OrliczError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
