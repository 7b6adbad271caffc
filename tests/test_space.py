import math
import re
import warnings

import numpy as np
import pytest

from orlicz import (
    Delta2RequiredError,
    DomainError,
    OrliczError,
    SparseSequence,
    luxemburg_norm,
    luxemburg_norm_dense,
    make_non_delta2,
    make_power,
    modular,
    modular_dense,
    nu_bound,
    phi_bound,
    project_head,
    project_tail,
    scale_to_modular,
)
from orlicz.sequences import parse_sequence

M1 = make_power(1)
M2 = make_power(2)
MN = make_non_delta2()


def random_sequences(seed, count, span=30, scale=2.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(1, 7))
        idx = sorted(rng.choice(np.arange(1, span), size=k, replace=False).tolist())
        vals = scale * rng.standard_normal(k)
        pairs = [(int(i), float(v)) for i, v in zip(idx, vals) if v != 0.0]
        out.append(SparseSequence.from_pairs(pairs))
    return out


def test_modular_values():
    x = SparseSequence.from_pairs([(1, 0.5), (4, -0.25)])
    assert modular(M2, x) == 0.3125
    assert modular(M1, x) == 0.75
    assert modular(M2, SparseSequence()) == 0.0


def test_lp_norms_closed_form():
    # For M(t) = s t^p the gauge is the weighted lp norm s^(1/p) ||x||_p.
    x = SparseSequence.from_pairs([(1, 3.0), (2, -4.0)])
    assert luxemburg_norm(M2, x) == pytest.approx(5.0, rel=1e-11)
    assert luxemburg_norm(M1, x) == pytest.approx(7.0, rel=1e-11)
    Ms = make_power(1.5, scale=2.0)
    oracle = 2.0 ** (1 / 1.5) * (3.0 ** 1.5 + 4.0 ** 1.5) ** (1 / 1.5)
    assert luxemburg_norm(Ms, x) == pytest.approx(oracle, rel=1e-11)
    assert luxemburg_norm(M2, SparseSequence()) == 0.0


def test_non_delta2_spike_norm():
    # M(u) = 1 happens on the affine branch: e^-4 (16u - 3) = 1, so a single
    # spike of height v has norm 16 v / (e^4 + 3).
    u = (math.e ** 4 + 3.0) / 16.0
    for v in (0.2, 1.0, 3.0):
        x = SparseSequence.from_pairs([(1, v)])
        assert luxemburg_norm(MN, x) == pytest.approx(v / u, rel=1e-11)


def test_norm_rejects_bad_tol():
    with pytest.raises(DomainError):
        luxemburg_norm(M2, SparseSequence.from_pairs([(1, 1.0)]), tol=0.0)


def test_unit_sphere_modular_is_one():
    for M in (M1, M2, make_power(3), MN):
        for x in random_sequences(7, 8):
            n = luxemburg_norm(M, x)
            assert modular(M, x.scale(1.0 / n)) == pytest.approx(1.0, abs=1e-11)


def test_norm_axioms():
    xs = random_sequences(11, 10)
    ys = random_sequences(12, 10)
    for M in (M2, MN):
        for x, y in zip(xs, ys):
            nx = luxemburg_norm(M, x)
            assert nx > 0.0
            assert luxemburg_norm(M, x.scale(-2.5)) == pytest.approx(2.5 * nx, rel=1e-10)
            nsum = luxemburg_norm(M, x + y)
            assert nsum <= nx + luxemburg_norm(M, y) + 1e-10


def test_modular_norm_comparison_inside_ball():
    # sigma(x) <= ||x|| once ||x|| <= 1 (convexity through the gauge).
    for M in (M2, MN):
        for x in random_sequences(13, 8, scale=0.5):
            n = luxemburg_norm(M, x)
            y = x.scale(0.9 / n)
            assert modular(M, y) <= 0.9 + 1e-11


def test_doubling_chain():
    # C = inf M(t)/M(2t), so C sigma(2x) <= sigma(x); iterated m times.
    for M in (M1, M2, make_power(3)):
        C = M.delta2_constant
        for x in random_sequences(17, 6):
            for m in (1, 3):
                assert (C ** m) * modular(M, x.scale(2.0 ** m)) <= modular(M, x) + 1e-12


def test_dense_paths_match_sparse():
    xs = random_sequences(19, 6, span=12)
    rows = np.stack([x.to_dense(12) for x in xs])
    rows = np.vstack([rows, np.zeros(12)])
    for M in (M2, MN):
        sig = modular_dense(M, rows)
        nrm = luxemburg_norm_dense(M, rows)
        for i, x in enumerate(xs):
            assert sig[i] == pytest.approx(modular(M, x), rel=1e-12)
            assert nrm[i] == pytest.approx(luxemburg_norm(M, x), rel=1e-9)
        assert sig[-1] == 0.0
        assert nrm[-1] == 0.0
    one_row = luxemburg_norm_dense(M2, np.array([3.0, 4.0]))
    assert one_row.shape == (1,)
    assert one_row[0] == pytest.approx(5.0, rel=1e-9)


def test_projections_split_and_edge_cases():
    x = SparseSequence.from_pairs([(2, 1.0), (5, -2.0), (9, 0.5)])
    assert project_head(x, 5).indices() == (2, 5)
    assert project_tail(x, 5).indices() == (9,)
    assert project_head(x, 0) == SparseSequence()
    assert project_tail(x, 0) == x
    assert project_head(x, 9) == x
    assert project_tail(x, 100) == SparseSequence()
    assert project_head(x, 4) + project_tail(x, 4) == x
    with pytest.raises(DomainError):
        project_head(x, -1)


def test_tail_modular_vanishes_monotonically():
    x = SparseSequence.from_pairs([(1, 1.0), (3, 0.5), (8, 0.25), (20, 2.0)])
    vals = [modular(M2, project_tail(x, n)) for n in range(0, 21)]
    assert vals[0] == modular(M2, x)
    assert vals[-1] == 0.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_nu_bound_examples():
    assert nu_bound(M1, 1.0) == 2.0
    assert nu_bound(M2, 2.0) == 20.0
    with pytest.raises(DomainError):
        nu_bound(M2, 0.0)
    with pytest.raises(Delta2RequiredError):
        nu_bound(MN, 1.0)


@pytest.mark.parametrize("M, K", [(make_power(110), 1000.0), (M1, 1.7e308), (M2, 1.7e308)],
                         ids=["C^-m overflows", "M(2^m t_bar) overflows", "2^m overflows"])
def test_nu_bound_that_leaves_the_float_range_is_unavailable(M, K):
    # power:110 has C = 2^-110, so C^-10 is past the float range; at
    # K = 1.7e308, m = 1024 and 2^m itself is.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrliczError, match="bound unavailable$"):
            nu_bound(M, K)


def test_nu_bound_majorizes_modular():
    for M in (M1, M2, make_power(3)):
        for K in (0.5, 1.0, 3.7):
            nu = nu_bound(M, K)
            for x in random_sequences(23, 8):
                y = x.scale(K / luxemburg_norm(M, x))
                assert modular(M, y) <= nu * (1.0 + 1e-9)


def test_phi_bound_examples():
    assert phi_bound(M1, 0.1) == 0.25
    assert phi_bound(M1, 0.5) == 1.0
    assert phi_bound(M1, 4.0) == 2.0
    assert phi_bound(M2, 0.25) == 1.0
    with pytest.raises(DomainError):
        phi_bound(M1, 0.0)
    with pytest.raises(Delta2RequiredError):
        phi_bound(MN, 0.1)


def test_phi_bound_caps_sublevel_diameter():
    # For t <= 1, sigma(x) <= t forces ||x|| <= phi(t)/2 (iterate the
    # doubling inequality down to the unit ball), so the sublevel set has
    # diameter at most phi(t).  Above 1 the bound saturates at 2.
    for M in (M1, M2):
        for x in random_sequences(29, 8, scale=0.3):
            for target in (0.03, 0.2, 0.9):
                y = scale_to_modular(M, x, target)
                t = modular(M, y)
                assert 2.0 * luxemburg_norm(M, y) <= phi_bound(M, t) * (1.0 + 1e-9)


def test_phi_bound_monotone_in_level():
    ts = np.geomspace(1e-6, 8.0, 60)
    vals = [phi_bound(M2, float(t)) for t in ts]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_scale_to_modular_round_trip():
    x = SparseSequence.from_pairs([(1, 1.0), (2, 2.0), (3, 0.5)])
    for M in (M2, MN):
        for target in (0.1, 0.7, 5.0):
            y = scale_to_modular(M, x, target)
            assert modular(M, y) == pytest.approx(target, rel=1e-9)
    with pytest.raises(DomainError):
        scale_to_modular(M2, x, 0.0)
    with pytest.raises(DomainError):
        scale_to_modular(M2, SparseSequence(), 1.0)


def test_scale_to_modular_drops_an_entry_that_underflows():
    # rho = 1e150, so the first entry scales to 1e-350, which is 0 in floats.
    y = scale_to_modular(M2, SparseSequence.from_pairs([(1, 1e-200), (2, 1.0)]), target=1e-300)
    assert y.entries == ((2, 1e-150),)
    assert modular(M2, y) == pytest.approx(1e-300, rel=1e-12)


@pytest.mark.parametrize("p, x, target", [
    (1.0, "1:1e10", 1e-300),  # rho = 1e310 overflows, and 1/rho = 0 scales x to the zero sequence
    (2.0, "1:1e-300", 1e300),  # rho = 1e-450 underflows to 0
    (1.0, "1:1e-300", 1e300),  # rho = 1e-600
])
def test_scale_to_modular_refuses_a_scale_past_the_float_range(p, x, target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(repr(target))):
            scale_to_modular(make_power(p), parse_sequence(x), target)


def test_scale_to_modular_solves_just_inside_the_float_range():
    # rho = 1e300 and 1/rho = 1e-300 are floats: x/rho = 1e-290 hits the target.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = scale_to_modular(M1, parse_sequence("1:1e10"), 1e-290)
    assert modular(M1, y) == pytest.approx(1e-290, rel=1e-12)
