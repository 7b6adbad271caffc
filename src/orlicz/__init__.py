"""Perturbed minimization in Orlicz sequence spaces.

The package builds Orlicz functions and the sequence spaces they induce,
constructs small sup-norm perturbations that force well-posed minima, and
ships diagnostics for when that machinery must fail: doubling-condition
witnesses, compactness proxies, and smoothness obstruction probes.

Importing the package loads none of its modules: each public name below is
looked up in its home module when it is first asked for (PEP 562), and never
bound here, so `orlicz.X` is always the home module's current `X`.
"""

import importlib

__version__ = "0.1.0"

# Home module of each public name, in the order of __all__.
_HOMES = {
    "errors": "OrliczError DomainError DegenerateFunctionError Delta2RequiredError NotProperError",
    "functions": "OrliczFunction make_power make_non_delta2 parse_family find_t_bar "
                 "delta2_ratio_table estimate_delta2_constant",
    "sequences": "SparseSequence parse_sequence format_sequence",
    "space": "modular modular_dense luxemburg_norm luxemburg_norm_dense project_head project_tail "
             "nu_bound phi_bound scale_to_modular",
    "weights": "PerturbationWeights g_eval g_eval_dense g_bounds",
    "sampling": "BallSampler dense_to_sequences",
    "engine": "Objective GridOracle SolveReport SupportReport construct_local_perturbation "
              "perturb_minimize support_from_below supporting_functional",
    "objectives": "modular_objective squared_distance_objective shifted_ball_objective "
                  "inverse_bump_objective parse_objective",
    "wellposed": "SublevelSample WellPosednessReport IntersectionCheck WitnessStats sublevel_sample "
                 "kuratowski_estimate intersection_lemma_check wpmc_diagnose non_delta2_witness",
    "probes": "ProbeReport SpaceClassification second_difference probe_l1 probe_p_growth "
              "probe_second_derivative classify_space",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _HOMES:  # `orlicz.engine` without importing it first
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_HOMES))
