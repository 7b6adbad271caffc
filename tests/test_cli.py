import argparse
import dataclasses
import importlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from orlicz import DomainError
from orlicz import cli
from orlicz.cli import CSV_SCHEMA, ExperimentConfig, main


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def payload(out):
    return json.loads(out)


def _load(*modules):
    """Import the command's modules before a tracemalloc window: the CLI loads
    them on first use, and the bound is on what the call allocates."""
    for name in modules:
        importlib.import_module(f"orlicz.{name}")


def test_config_round_trip_and_validation():
    cfg = ExperimentConfig()
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(DomainError):
        ExperimentConfig.from_json('{"spin": 1}')
    with pytest.raises(DomainError):
        ExperimentConfig.from_json("[1, 2]")
    with pytest.raises(DomainError):
        ExperimentConfig(eps=-1.0).validate()
    with pytest.raises(DomainError):
        ExperimentConfig(budget=0).validate()


def test_norm_command(capsys):
    rc, out, _ = run(capsys, ["norm", "--family", "power:2", "--sequence", "1:3,2:-4"])
    assert rc == 0
    data = payload(out)
    assert data["norm"] == pytest.approx(5.0, rel=1e-9)
    assert data["modular"] == 25.0
    assert data["sequence"] == "1:3.0,2:-4.0"
    # effective config is echoed for provenance
    assert data["config"]["family"] == "power:2"


def test_output_is_deterministic(capsys):
    argv = ["norm", "--family", "power:1.5", "--sequence", "2:0.7"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, [
        "norm", "--family", "power:1", "--sequence", "1:1", "--out", str(target),
    ])
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["norm"] == pytest.approx(1.0, rel=1e-9)


def test_delta2_command_exact_and_failed(capsys, tmp_path):
    csv = tmp_path / "table.csv"
    rc, out, _ = run(capsys, ["delta2", "--family", "power:2", "--csv-out", str(csv)])
    assert rc == 0
    data = payload(out)
    assert data["constant"] == 0.25
    assert data["source"] == "exact"
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_SCHEMA
    assert lines[1] == "t,ratio"
    assert len(lines) > 10

    rc, out, _ = run(capsys, ["delta2", "--family", "non-delta2"])
    assert rc == 1
    data = payload(out)
    assert data["constant"] is None
    assert data["source"] == "failed"


def test_solve_command(capsys):
    rc, out, _ = run(capsys, [
        "solve", "--family", "power:2", "--grid-dims", "2", "--grid-step", "0.25",
    ])
    assert rc == 0
    report = payload(out)["solve"]
    assert report["converged"]
    assert report["minimizer"] == ""
    assert report["min_value"] == 0.0


def test_support_command(capsys):
    rc, out, _ = run(capsys, [
        "support", "--family", "power:2", "--grid-dims", "2", "--grid-step", "0.25",
        "--delta-lo", "0.2", "--eps-hi", "1.0",
    ])
    assert rc == 0
    report = payload(out)["support"]
    assert report["inner"]["converged"]
    weights = report["weights"]
    for v in (*weights["head"], weights["tail"]):
        assert 0.2 < v <= 1.0


def test_wellposed_command_verdicts(capsys, tmp_path):
    csv = tmp_path / "wp.csv"
    rc, out, _ = run(capsys, [
        "wellposed", "--family", "power:2", "--samples", "80",
        "--support-size", "4", "--index-range", "12", "--csv-out", str(csv),
    ])
    assert rc == 0
    assert payload(out)["wellposed"]["verdict"] == "looks-wpmc"
    lines = csv.read_text().splitlines()
    assert lines[0] == CSV_SCHEMA
    assert lines[1] == "level,alpha_estimate,diam_estimate"
    assert len(lines) == 10  # schema + header + 8 default levels

    rc, out, _ = run(capsys, [
        "wellposed", "--family", "non-delta2", "--samples", "150", "--decades", "3",
    ])
    assert rc == 0
    assert payload(out)["wellposed"]["verdict"] == "looks-not-wpmc"


def test_wellposed_custom_levels(capsys):
    rc, out, _ = run(capsys, [
        "wellposed", "--family", "power:2", "--samples", "60",
        "--support-size", "3", "--index-range", "9", "--levels", "0.5,0.1,0.02",
    ])
    data = payload(out)["wellposed"]
    assert data["levels"] == [0.5, 0.1, 0.02]
    assert rc in (0, 1)  # shallow levels may legitimately stay inconclusive


def test_witness_command(capsys, tmp_path):
    csv = tmp_path / "w.csv"
    rc, out, _ = run(capsys, [
        "witness", "--family", "non-delta2", "--k", "10", "--csv-out", str(csv),
    ])
    assert rc == 0
    data = payload(out)
    assert data["witness"]["i_k"] == 20
    assert data["sequence"].startswith("1:0.1767766952966369")
    lines = csv.read_text().splitlines()
    assert lines[1] == "k,t_k,i_k,sigma_x,norm_x"
    assert lines[2].startswith("10,")

    # doubling families never produce a witness
    rc, _, err = run(capsys, ["witness", "--family", "power:2", "--k", "5"])
    assert rc == 1
    assert "failed:" in err


def test_probe_command_paths(capsys, tmp_path):
    rc, out, _ = run(capsys, [
        "probe", "--family", "power:1", "--probe", "l1", "--sequence", "1:0.5",
    ])
    assert rc == 0
    assert payload(out)["probe"]["verdict"] == "obstruction-confirmed"

    csv = tmp_path / "p.csv"
    rc, out, _ = run(capsys, [
        "probe", "--family", "power:1.5", "--probe", "growth:2", "--csv-out", str(csv),
    ])
    assert rc == 0
    assert payload(out)["probe"]["probe_name"] == "growth-order-2"
    lines = csv.read_text().splitlines()
    assert lines[1] == "scale,quotient,threshold"

    # quadratic growth never clears the bar: inconclusive exit
    rc, out, _ = run(capsys, ["probe", "--family", "power:2", "--probe", "growth:2"])
    assert rc == 1
    assert payload(out)["probe"]["verdict"] == "inconclusive"

    rc, out, _ = run(capsys, [
        "probe", "--family", "power:1.2", "--probe", "curvature:zero",
    ])
    assert rc == 0

    rc, _, err = run(capsys, ["probe", "--family", "power:2", "--probe", "sonar"])
    assert rc == 2
    assert "error:" in err


def test_classify_command(capsys):
    rc, out, _ = run(capsys, ["classify", "--family", "power:1.5"])
    assert rc == 0
    data = payload(out)["classify"]
    assert data["excluded"] == [
        "order-1.75-estimate-bump",
        "order-2-estimate-bump",
        "twice-gateaux-bump",
    ]


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"family": "power:1", "sequence": "1:2"}')
    rc, out, _ = run(capsys, ["norm", "--config", str(cfg_path)])
    assert rc == 0
    assert payload(out)["norm"] == pytest.approx(2.0, rel=1e-9)

    # flags override the file
    rc, out, _ = run(capsys, [
        "norm", "--config", str(cfg_path), "--family", "power:2",
    ])
    assert payload(out)["family"] == "power:2"

    bad = tmp_path / "bad.json"
    bad.write_text('{"coil": 7}')
    rc, _, err = run(capsys, ["norm", "--config", str(bad)])
    assert rc == 2
    assert "unknown config fields: coil" in err

    rc, _, err = run(capsys, ["norm", "--config", str(tmp_path / "missing.json")])
    assert rc == 2


@pytest.mark.parametrize("text, field", [
    ('{"radius": "abc"}', "radius"),
    ('{"family": 5}', "family"),
    ('{"samples": 2.5}', "samples"),
    ('{"radius": true}', "radius"),
    ('{"radius": 1%s}' % ("0" * 400), "radius"),  # an integer no float can hold
])
def test_config_file_values_must_match_field_types(capsys, tmp_path, text, field):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    rc, out, err = run(capsys, ["norm", "--config", str(cfg_path), "--sequence", "1:1"])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: config field {field} must be") and err.count("\n") == 1


def test_config_file_float_field_takes_an_integer(capsys, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"radius": 2, "sequence": "1:1"}')
    rc, out, _ = run(capsys, ["norm", "--config", str(cfg_path)])
    assert rc == 0
    assert payload(out)["config"]["radius"] == 2
    assert '"radius": 2,' in out  # echoed unchanged, not as 2.0


def test_env_seed_overrides_everything(capsys, monkeypatch, tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"seed": 5}')
    monkeypatch.setenv("ORLICZ_SEED", "777")
    rc, out, _ = run(capsys, ["norm", "--config", str(cfg_path), "--sequence", "1:1"])
    assert rc == 0
    assert payload(out)["config"]["seed"] == 777

    rc, out, _ = run(capsys, [
        "wellposed", "--samples", "20", "--index-range", "6", "--support-size", "2",
        "--levels", "0.5", "--seed", "5",
    ])
    assert rc in (0, 1)
    data = payload(out)
    assert data["config"]["seed"] == 777
    assert data["wellposed"]["sampler_spec"].startswith("random-ball(seed=777,")

    monkeypatch.setenv("ORLICZ_SEED", "almond")
    rc, _, err = run(capsys, ["norm", "--sequence", "1:1"])
    assert rc == 2
    assert "ORLICZ_SEED" in err


def test_invalid_inputs_exit_2(capsys):
    rc, _, err = run(capsys, ["norm", "--family", "power:0.5"])
    assert rc == 2
    assert "error:" in err
    rc, _, _ = run(capsys, ["solve", "--eps", "-0.1"])
    assert rc == 2
    rc, _, _ = run(capsys, ["norm", "--sequence", "1:1,1:2"])
    assert rc == 2


def test_oversized_grid_exits_2_before_allocating(capsys):
    _load("engine", "objectives")
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, ["solve", "--grid-dims", "8", "--grid-step", "0.01"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err.startswith("error: grid of 201^8") and err.count("\n") == 1
    assert peak < 1 << 20  # 201^8 rows would be about 2e19 bytes


def test_oversized_sample_exits_2_before_allocating(capsys):
    _load("objectives", "wellposed")
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, ["wellposed", "--samples", "100000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err.startswith("error: sample block of 100,000,001 rows") and err.count("\n") == 1
    assert peak < 1 << 20  # 10^8 rows of 40 floats would be 32 GB


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 64 GiB"), FloatingPointError("overflow")])
def test_resource_and_float_errors_exit_2(capsys, monkeypatch, exc):
    def boom(cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "norm", boom)
    rc, out, err = run(capsys, ["norm", "--sequence", "1:1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and str(exc) in err and err.count("\n") == 1


# Runs that, per command, read every field the command reads at all; probe
# reads different fields in each mode.
READ_RUNS = [
    ["norm", "--sequence", "1:3,2:-4"],
    ["delta2", "--family", "power:1.5"],
    ["solve", "--grid-dims", "1", "--grid-step", "0.5"],
    ["support", "--grid-dims", "1", "--grid-step", "0.5", "--delta-lo", "0.2", "--eps-hi", "1.0"],
    ["wellposed", "--samples", "20", "--index-range", "6", "--support-size", "2", "--levels", "0.5"],
    ["witness", "--family", "non-delta2", "--k", "5"],
    ["probe", "--family", "power:1", "--probe", "l1", "--sequence", "1:0.5"],
    ["probe", "--family", "power:1.5", "--probe", "growth:2", "--k-max", "2"],
    ["probe", "--family", "power:1.2", "--probe", "curvature:zero"],
    ["classify", "--family", "power:1.5", "--k-max", "2"],
]


def test_each_subcommand_takes_the_flags_of_the_fields_it_reads(capsys, monkeypatch):
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {a.dest for a in p._actions} - {"help", "config"} for name, p in sub.choices.items()}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    reading = {"fields": None}
    read = {name: set() for name in cli._COMMANDS}

    def record(self, name):
        # dataclasses.asdict copies every field into the payload's config echo: not a read
        caller = sys._getframe(1).f_globals["__name__"]
        if reading["fields"] is not None and name in fields and caller != "dataclasses":
            reading["fields"].add(name)
        return object.__getattribute__(self, name)

    def recorded(name, command):
        def wrapper(cfg):
            reading["fields"] = read[name]
            try:
                return command(cfg)
            finally:
                reading["fields"] = None
        return wrapper

    monkeypatch.setattr(ExperimentConfig, "__getattribute__", record)
    for name, command in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, recorded(name, command))
    assert {argv[0] for argv in READ_RUNS} == set(cli._COMMANDS)
    for argv in READ_RUNS:
        rc, out, err = run(capsys, argv)
        assert rc in (0, 1), (argv, err)
        assert set(payload(out)["config"]) == fields  # the payload still echoes every field
    for name in cli._COMMANDS:
        assert read[name] == flags[name], name
    assert sum(len(f) + 1 for f in flags.values()) == 58  # with --config: 8 x 26 = 208 before


@pytest.mark.parametrize("argv, flag", [
    (["norm", "--eps", "5"], "--eps"),
    (["solve", "--radius", "2"], "--radius"),
    (["support", "--eps", "0.5"], "--eps"),  # no prefix match on --eps-hi
    (["classify", "--k", "3"], "--k"),  # nor on --k-max
])
def test_flags_the_command_does_not_read_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in err
    assert f"usage: orlicz {argv[0]}" in err


def test_non_finite_levels_exit_2(capsys):
    rc, out, err = run(capsys, ["wellposed", "--samples", "20", "--levels", "0.5,nan"])
    assert rc == 2
    assert out == ""
    assert err == "error: levels must be positive and finite\n"


@pytest.mark.parametrize("probe, scales", [("l1", "nan"), ("curvature", "nan"), ("l1", "1e-2,inf")])
def test_non_finite_scales_exit_2(capsys, probe, scales):
    rc, out, err = run(capsys, ["probe", "--family", "power:1.5", "--probe", probe, "--scales", scales])
    assert rc == 2
    assert out == ""
    assert err == "error: scales must be positive and finite\n"


def test_oversized_witness_exits_2_before_allocating(capsys):
    _load("wellposed")
    tracemalloc.start()
    try:
        rc, _, err = run(capsys, ["witness", "--family", "non-delta2", "--k", "100000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err.startswith("error: witness for k=100000000 needs 1.834e+08 coordinates") and err.count("\n") == 1
    assert peak < 1 << 20  # 1.8e8 coordinates would take tens of GB


@pytest.mark.parametrize("argv, flag", [
    (["--eps", "5", "norm"], "--eps"),
    (["--k=3", "witness"], "--k=3"),
    (["--family"], "--family"),
])
def test_a_flag_before_the_command_is_named(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert err.startswith("usage: orlicz [-h]")
    assert err.endswith(f"orlicz: error: unrecognized arguments: {flag}\n")


def test_end_of_options_marker_before_the_command_is_dropped(capsys):
    plain = run(capsys, ["norm", "--sequence", "1:1"])
    assert plain[0] == 0
    assert run(capsys, ["--", "norm", "--sequence", "1:1"]) == plain


def test_a_bare_end_of_options_marker_still_asks_for_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--"])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert err.startswith("usage: orlicz [-h]")
    assert err.endswith("orlicz: error: the following arguments are required: command\n")


def test_help_texts_do_not_depend_on_the_width_the_parser_was_built_at(capsys, monkeypatch):
    # The texts of the package as it was when the parser was built on every call.
    want = json.loads((Path(__file__).parent / "cli_help_80.json").read_text(encoding="utf-8"))
    assert set(want) == {""} | set(cli._COMMANDS)
    cli._build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    cli._build_parser()
    monkeypatch.setenv("COLUMNS", "80")
    for command, text in want.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == text, command
    assert cli._build_parser.cache_info().misses == 1


# Calls whose flags differ from one to the next, so that a flag left over from
# an earlier call would show in a later payload.
SUCCESSIVE_RUNS = [
    ["norm", "--family", "power:1.5", "--sequence", "1:0.5,3:-2", "--norm-tol", "1e-3"],
    ["norm", "--sequence", "1:0.5,3:-2"],
    ["delta2", "--family", "non-delta2"],
    ["witness", "--family", "non-delta2", "--k", "5"],
    ["probe", "--family", "power:1.5", "--probe", "growth:2", "--k-max", "2"],
    ["probe", "--family", "power:1", "--sequence", "1:0.5"],
    ["norm", "--sequence", "1:0"],
    ["classify", "--k-max", "2"],
]


def _fresh_env():
    """The environment of a fresh `python -m orlicz.cli` process on this package, without ORLICZ_SEED."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("ORLICZ_SEED", None)
    return env


def test_successive_calls_in_one_process_match_fresh_processes(capsys):
    env = _fresh_env()
    in_process = [run(capsys, argv) for argv in SUCCESSIVE_RUNS]
    for argv, (rc, out, err) in zip(SUCCESSIVE_RUNS, in_process):
        fresh = subprocess.run([sys.executable, "-m", "orlicz.cli", *argv], env=env, capture_output=True, text=True)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _readme_invocations():
    """The arguments of each `orlicz ...` line of the README, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text().replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("orlicz ")]


# Runs that overflow M, the modular or f on purpose: a norm payload carries
# +inf, and the run still succeeds.
OVERFLOWING_RUNS = [
    ["norm", "--family", "power:110", "--sequence", "1:1e10"],
    ["norm", "--family", "power:2", "--sequence", "1:1e154,2:1e154"],
    ["norm", "--family", "power:1:1e300", "--sequence", "1:1e10"],
    ["wellposed", "--family", "power:110", "--samples", "20", "--radius", "1e10"],
    ["wellposed", "--family", "power:3", "--samples", "20", "--radius", "1e300"],
    # f = ||x||^2 past the float range at the grid's ends, and x / r past it for a tiny r
    ["solve", "--family", "power:2", "--objective", "ball-quad", "--grid-dims", "1",
     "--grid-step", "1e200", "--grid-radius", "1e200"],
    ["solve", "--family", "power:2", "--objective", "sqdist:1:0.5", "--grid-dims", "1",
     "--grid-step", "1e200", "--grid-radius", "1e200"],
    ["support", "--family", "power:2", "--objective", "ball-quad:1e-5", "--grid-dims", "1",
     "--grid-step", "1e305", "--grid-radius", "1e305"],
    ["support", "--family", "power:2", "--objective", "ball-quad:1e-300", "--grid-dims", "1",
     "--grid-step", "1e10", "--grid-radius", "1e10"],
]
SILENT_RUNS = [
    *_readme_invocations(),
    ["wellposed", "--family", "non-delta2"],
    ["wellposed", "--family", "non-delta2", "--samples", "100", "--levels", "0.25,0.0625,0.015625"],
    ["wellposed", "--family", "power:1.5", "--objective", "sqdist:1:0.3,2:-0.2"],
    *OVERFLOWING_RUNS,
]


def test_the_readme_has_eight_invocations():
    assert [argv[0] for argv in _readme_invocations()] == [
        "norm", "delta2", "solve", "support", "wellposed", "witness", "probe", "classify",
    ]


@pytest.mark.parametrize("argv", SILENT_RUNS, ids=shlex.join)
def test_runs_that_exit_0_are_silent_under_warnings_as_errors(capsys, monkeypatch, argv):
    monkeypatch.setenv("ORLICZ_SEED", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    if argv[0] == "norm" and argv in OVERFLOWING_RUNS:
        assert payload(out)["modular"] == math.inf


# Runs whose nu_bound leaves the float range: C^-10 = 2^1100 on power:110.
UNAVAILABLE_BOUND_RUNS = [
    ["solve", "--family", "power:110", "--objective", "modular:1000",
     "--grid-dims", "1", "--grid-step", "500", "--grid-radius", "1000"],
    ["support", "--family", "power:110", "--objective", "ball-quad:1000",
     "--grid-dims", "1", "--grid-step", "500", "--grid-radius", "1000"],
]


@pytest.mark.parametrize("argv", UNAVAILABLE_BOUND_RUNS, ids=shlex.join)
def test_a_bound_that_overflows_fails_in_one_line(argv):
    proc = subprocess.run([sys.executable, "-m", "orlicz.cli", *argv], env=_fresh_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("failed: ") and proc.stderr.endswith("bound unavailable\n")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# Runs whose values pass the float range and then fail: the message is the
# only line, with no numpy warning ahead of it.
FAILING_OVERFLOW_RUNS = [
    (["probe", "--family", "power:110", "--probe", "l1", "--sequence", "1:1e3", "--scales", "1e3"],
     2, "error: probe left the effective domain of f\n"),
    (["probe", "--family", "power:2", "--probe", "l1", "--sequence", "1:1.3e154", "--scales", "1e-2"],
     2, "error: probe left the effective domain of f\n"),
    (["solve", "--family", "power:3", "--objective", "sqdist:1:1e200", "--grid-dims", "1", "--grid-step", "0.5"],
     1, "failed: objective is +inf on the whole grid\n"),
]


@pytest.mark.parametrize("argv, code, message", FAILING_OVERFLOW_RUNS,
                         ids=[shlex.join(argv) for argv, _, _ in FAILING_OVERFLOW_RUNS])
def test_a_value_past_the_float_range_fails_in_one_line(argv, code, message):
    proc = subprocess.run([sys.executable, "-m", "orlicz.cli", *argv], env=_fresh_env(), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message)
