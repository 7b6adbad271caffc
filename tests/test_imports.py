"""The package loads a module only when one of its names is asked for."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orlicz
from orlicz import cli

PUBLIC = """
OrliczError DomainError DegenerateFunctionError Delta2RequiredError NotProperError
OrliczFunction make_power make_non_delta2 parse_family find_t_bar delta2_ratio_table estimate_delta2_constant
SparseSequence parse_sequence format_sequence
modular modular_dense luxemburg_norm luxemburg_norm_dense project_head project_tail nu_bound phi_bound
scale_to_modular
PerturbationWeights g_eval g_eval_dense g_bounds
BallSampler dense_to_sequences
Objective GridOracle SolveReport SupportReport construct_local_perturbation perturb_minimize
support_from_below supporting_functional
modular_objective squared_distance_objective shifted_ball_objective inverse_bump_objective parse_objective
SublevelSample WellPosednessReport IntersectionCheck WitnessStats sublevel_sample kuratowski_estimate
intersection_lemma_check wpmc_diagnose non_delta2_witness
ProbeReport SpaceClassification second_difference probe_l1 probe_p_growth probe_second_derivative classify_space
""".split()
SOLVER_MODULES = {"engine", "sampling", "objectives", "weights", "wellposed", "probes"}


def _loaded_after(code: str) -> set[str]:
    """The orlicz modules a fresh interpreter holds after running code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    report = "import sys; print(' '.join(m for m in sys.modules if m.startswith('orlicz')), file=sys.stderr)"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_the_cli_imports_only_what_the_command_runs():
    assert _loaded_after("import orlicz.cli") == {"orlicz", "orlicz.cli", "orlicz.errors"}
    run_norm = "import orlicz.cli; orlicz.cli.main(['norm', '--family', 'non-delta2', '--sequence', '1:0.5'])"
    core = {"orlicz.functions", "orlicz.sequences", "orlicz.space"}
    assert _loaded_after(run_norm) == {"orlicz", "orlicz.cli", "orlicz.errors"} | core
    assert not {f"orlicz.{m}" for m in SOLVER_MODULES} & _loaded_after("import orlicz")
    assert "orlicz.probes" in _loaded_after("import orlicz; orlicz.probes.classify_space")
    assert "orlicz.engine" not in _loaded_after("import orlicz.sampling")


def test_public_names_are_their_home_modules_attributes():
    assert len(PUBLIC) == 59
    assert sorted(orlicz.__all__) == sorted(PUBLIC)
    listed = dir(orlicz)
    for name in PUBLIC:
        value = getattr(orlicz, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("orlicz.") and getattr(home, name) is value, name
        assert name in listed
    star = {}
    exec("from orlicz import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC)


def test_a_replaced_attribute_shows_through_the_package(monkeypatch):
    from orlicz import engine, space

    assert orlicz.engine is engine
    monkeypatch.setattr(space, "luxemburg_norm", lambda *a, **k: 42.0)
    assert orlicz.luxemburg_norm() == 42.0
    assert "luxemburg_norm" not in vars(orlicz)
    monkeypatch.undo()
    assert orlicz.luxemburg_norm is space.luxemburg_norm


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        orlicz.nonexistent
    assert not hasattr(orlicz, "cli_main")
