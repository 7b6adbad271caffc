import math

import pytest

from orlicz import (
    BallSampler,
    DomainError,
    NotProperError,
    Objective,
    OrliczError,
    SparseSequence,
    intersection_lemma_check,
    kuratowski_estimate,
    luxemburg_norm,
    make_non_delta2,
    make_power,
    modular,
    modular_objective,
    non_delta2_witness,
    sublevel_sample,
    wpmc_diagnose,
)
from orlicz.wellposed import _dense_block, _diam_estimate

M1 = make_power(1)
M2 = make_power(2)
MN = make_non_delta2()

SAMPLER = BallSampler(seed=12345, count=400, support_size=6, index_range=40)


def test_sublevel_sample_basics():
    f = modular_objective(M2, radius=1.0)
    s = sublevel_sample(M2, f, 1.0, 0.01, SAMPLER)
    assert s.inf_sample == 0.0
    assert SparseSequence() in s.points
    for p in s.points:
        assert modular(M2, p) <= 0.01
    assert "random-ball" in s.sampler_spec
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            sublevel_sample(M2, f, 1.0, eps, SAMPLER)
    improper = Objective(eval=lambda x: math.inf, domain_radius=1.0, lower_bound=0.0)
    with pytest.raises(NotProperError):
        sublevel_sample(M2, improper, 1.0, 0.1, SAMPLER)


def test_sublevel_samples_nest():
    f = modular_objective(M2, radius=1.0)
    inner = sublevel_sample(M2, f, 1.0, 0.01, SAMPLER)
    outer = sublevel_sample(M2, f, 1.0, 0.1, SAMPLER)
    assert set(inner.points) <= set(outer.points)
    assert len(inner.points) < len(outer.points)


def test_kuratowski_collapsed_samples():
    zero = SparseSequence()
    assert kuratowski_estimate([zero, zero, zero], M2, 3) == 0.0
    # two tight clusters are swallowed by two centers
    spike = SparseSequence.from_pairs([(1, 1.0)])
    assert kuratowski_estimate([zero, zero, spike], M2, 2) == 0.0


def test_kuratowski_basis_vectors_stay_spread():
    # 100 unit basis vectors in the l1-like space: distinct pairs sit at
    # distance 2, so any center list that misses one leaves radius 2.
    basis = [SparseSequence.from_pairs([(i, 1.0)]) for i in range(1, 101)]
    assert kuratowski_estimate(basis, M1, 10) == 2.0
    vals = [kuratowski_estimate(basis, M1, m) for m in (1, 5, 50, 100)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 0.0  # every point becomes a center


def test_kuratowski_validation():
    with pytest.raises(DomainError):
        kuratowski_estimate([], M2, 3)
    with pytest.raises(DomainError):
        kuratowski_estimate([SparseSequence()], M2, 0)


def test_intersection_check_on_shared_minimizer():
    f = modular_objective(M2, radius=1.0)
    g = modular_objective(M1, radius=1.0)
    chk = intersection_lemma_check(M2, f, g, 1.0, 0.05, SAMPLER)
    assert chk.holds
    assert chk.hypothesis_nonempty
    assert chk.checked > 0
    assert bool(chk)


def test_intersection_check_vacuous_when_minimizers_split():
    # f pulls toward 0, g toward the sphere; no sampled point is delta-near
    # both infima, so the containment holds vacuously.
    f = modular_objective(M2, radius=1.0)
    g = Objective(
        eval=lambda x: -luxemburg_norm(M2, x), domain_radius=1.0, lower_bound=-2.0
    )
    chk = intersection_lemma_check(M2, f, g, 1.0, 0.001, SAMPLER)
    assert chk.holds
    assert not chk.hypothesis_nonempty
    assert chk.checked == 0
    for delta in (0.0, math.nan):
        with pytest.raises(DomainError):
            intersection_lemma_check(M2, f, g, 1.0, delta, SAMPLER)


LEVELS = tuple(0.25 ** m for m in range(1, 9))


def test_wpmc_modular_objective_looks_wellposed():
    rep = wpmc_diagnose(M2, modular_objective(M2, radius=1.0), 1.0, LEVELS, SAMPLER)
    assert rep.verdict == "looks-wpmc"
    assert rep.levels == LEVELS
    assert rep.alpha_estimates[-1] < 1e-2
    assert rep.diam_estimates[-1] < 1e-2
    d = rep.to_dict()
    assert d["verdict"] == "looks-wpmc"
    assert len(d["alpha_estimates"]) == len(LEVELS)


def test_wpmc_constant_objective_never_localizes():
    const = Objective(eval=lambda x: 0.0, domain_radius=1.0, lower_bound=0.0)
    rep = wpmc_diagnose(M2, const, 1.0, (0.5, 0.25), SAMPLER)
    assert rep.verdict == "looks-not-wpmc"
    # every sampled point stays in every sublevel set
    assert rep.diam_estimates[0] == rep.diam_estimates[-1]
    assert rep.diam_estimates[-1] > 0.1


def test_wpmc_inconclusive_band():
    # retune tol so the final diameter lands between tol and 10*tol
    const = Objective(eval=lambda x: 0.0, domain_radius=1.0, lower_bound=0.0)
    rep = wpmc_diagnose(M2, const, 1.0, (0.5, 0.25), SAMPLER)
    tol = rep.diam_estimates[-1] / 5.0
    rep2 = wpmc_diagnose(M2, const, 1.0, (0.5, 0.25), SAMPLER, tol=tol)
    assert rep2.verdict == "inconclusive"


def test_wpmc_flat_plateaus_resist_localization():
    # modular objective without the doubling condition: feed the sampler the
    # plateau witnesses, whose small modulars put them deep in every sublevel
    # set while their norms stay near 1/2.
    witnesses = tuple(non_delta2_witness(MN, k)[0] for k in (5, 10, 20, 50))
    sampler = BallSampler(
        seed=12345, count=400, support_size=6, index_range=40, extra=witnesses
    )
    rep = wpmc_diagnose(MN, modular_objective(MN, radius=1.0), 1.0, LEVELS, sampler)
    assert rep.verdict == "looks-not-wpmc"


def test_diam_estimate_subsample_keeps_the_end_of_the_list():
    # Samplers append their special points last; with 300 points and a cap
    # of 200 the farthest pair is (first, last) and both must be compared.
    pts = [SparseSequence.from_pairs([(1, 0.001 * (i + 1))]) for i in range(299)]
    pts.append(SparseSequence.from_pairs([(1, 5.0)]))
    assert _diam_estimate(_dense_block(pts), M2) == pytest.approx(5.0 - 0.001, rel=1e-12)
    assert _diam_estimate(_dense_block(pts[:150]), M2) == pytest.approx(0.149, rel=1e-12)


def test_wpmc_level_validation():
    f = modular_objective(M2, radius=1.0)
    with pytest.raises(DomainError):
        wpmc_diagnose(M2, f, 1.0, (), SAMPLER)
    with pytest.raises(DomainError):
        wpmc_diagnose(M2, f, 1.0, (0.25, 0.5), SAMPLER)
    with pytest.raises(DomainError):
        wpmc_diagnose(M2, f, 1.0, (0.5, 0.0), SAMPLER)
    with pytest.raises(DomainError):
        wpmc_diagnose(M2, f, 1.0, (0.5, math.nan), SAMPLER)
    with pytest.raises(DomainError):
        wpmc_diagnose(M2, f, 1.0, (math.inf,), SAMPLER)


def test_witness_statistics_table():
    expected = {
        5: (14, 0.120299, 0.955717, 0.487486),
        10: (20, 0.069870, 0.973240, 0.493625),
        20: (31, 0.037135, 0.997501, 0.499538),
        50: (54, 0.018115, 0.989044, 0.498619),
    }
    prev_sigma = math.inf
    for k, (i_k, sig, sig2, nrm) in expected.items():
        x, stats = non_delta2_witness(MN, k)
        assert stats.k == k
        assert stats.i_k == i_k
        assert x.support_size == i_k
        assert stats.sigma_x == pytest.approx(sig, abs=1e-6)
        assert stats.sigma_2x == pytest.approx(sig2, abs=1e-6)
        assert stats.norm_x == pytest.approx(nrm, abs=1e-6)
        # defining premises
        assert stats.ratio < 1.0 / k
        assert 2.0 * stats.t_k < 1.0
        assert 0.0 < float(MN.eval(2.0 * stats.t_k)) < 1.0
        # plateau: all coordinates equal t_k
        assert set(x.values()) == {stats.t_k}
        # small modular, but the doubled point fills the unit ball
        assert stats.sigma_x < 1.0 / k + float(MN.eval(stats.t_k))
        assert stats.sigma_x < prev_sigma
        prev_sigma = stats.sigma_x
        assert stats.to_dict()["i_k"] == i_k


def test_witness_halved_quarter_octave_grid():
    _, s10 = non_delta2_witness(MN, 10)
    assert s10.t_k == pytest.approx(2.0 ** -2.5, rel=1e-12)
    _, s50 = non_delta2_witness(MN, 50)
    assert s50.t_k == 0.125


def test_witness_rejects_doubling_families():
    with pytest.raises(OrliczError):
        non_delta2_witness(M2, 5)
    with pytest.raises(DomainError):
        non_delta2_witness(MN, 0)
