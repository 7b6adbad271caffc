"""Differential tests of the Luxemburg-norm kernel.

The kernel answers power families in closed form and every other family by
Newton's method in u = 1/rho, with a forward difference of the modular in
place of M' when M has no derivative.  Each path is checked here against a
plain scalar bisection that runs the bracket down to adjacent floats, the
Newton step against the rho-form step it replaced, the forward-difference
step against Newton on the same rows, and the list kernel, which packs the
nonzero entries of several blocks into one loop, against the one-block loop
it replaced.  The list kernel packs a batch once, so a row that is done
keeps stepping by 0 until the last row is: each row is checked against its
own one-row solve.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orlicz.space as space
from orlicz import (
    OrliczError,
    OrliczFunction,
    SparseSequence,
    luxemburg_norm,
    luxemburg_norm_dense,
    make_non_delta2,
    modular_dense,
    non_delta2_witness,
    parse_family,
)

POWER_TAGS = ("power:1", "power:1.5", "power:2", "power:3", "power:2:0.25")
MN = make_non_delta2()


def reference_norm(M, values) -> float:
    """inf{rho : sigma(x/rho) <= 1} by scalar bisection to adjacent floats."""
    a = np.abs(np.asarray(values, dtype=float))
    a = a[a > 0.0]
    if a.size == 0:
        return 0.0

    def sigma(rho: float) -> float:
        return float(np.sum(np.asarray(M.eval(a / rho), dtype=float)))

    lo = hi = float(a.max()) / M.t_bar
    while sigma(hi) > 1.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if sigma(mid) > 1.0:
            lo = mid
        else:
            hi = mid


def newton_only(M):
    """The same function without its closed form: the kernel runs Newton."""
    return dataclasses.replace(M, power=None)


def bisection_only(M):
    """The same function without closed form or derivative: the kernel's
    u-step takes a forward difference of the modular for its slope."""
    return dataclasses.replace(M, power=None, deriv1=None)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b))


magnitudes = st.floats(min_value=1e-3, max_value=1e3)
signed = st.tuples(magnitudes, st.sampled_from((-1.0, 1.0))).map(lambda p: p[0] * p[1])
rows_1d = st.lists(st.one_of(signed, st.just(0.0)), min_size=1, max_size=12).filter(
    lambda v: any(x != 0.0 for x in v)
)


def test_power_families_carry_their_exponent():
    assert parse_family("power:1.5").power == (1.5, 1.0)
    assert parse_family("power:2:0.25").power == (2.0, 0.25)
    assert MN.power is None


@pytest.mark.parametrize("tag", POWER_TAGS)
@given(values=rows_1d)
@settings(max_examples=40, deadline=None)
def test_closed_form_newton_and_reference_agree(tag, values):
    M = parse_family(tag)
    row = np.array(values)
    ref = reference_norm(M, row)
    closed = luxemburg_norm_dense(M, row)[0]
    newton = luxemburg_norm_dense(newton_only(M), row)[0]
    bisect = luxemburg_norm_dense(bisection_only(M), row)[0]
    for got in (closed, newton, bisect):
        assert rel_err(got, ref) <= 1e-12


@pytest.mark.parametrize("tag", POWER_TAGS)
def test_closed_form_is_one_modular_pass(tag):
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return M.eval(t)

    M = parse_family(tag)
    Mc = dataclasses.replace(M, eval=counting, deriv1=None)
    rows = np.random.default_rng(3).standard_normal((50, 4))
    luxemburg_norm_dense(Mc, rows)
    assert calls == [rows.size]


near_underflow = st.lists(
    st.one_of(
        st.floats(min_value=5e-4, max_value=2e-3),
        st.floats(min_value=5e-301, max_value=2e-300),
    ),
    min_size=1,
    max_size=10,
)


@given(values=near_underflow)
@settings(max_examples=60, deadline=None)
def test_non_delta2_near_underflow(values):
    row = np.array(values)
    ref = reference_norm(MN, row)
    assert ref > 0.0
    newton = luxemburg_norm_dense(MN, row)[0]
    assert rel_err(newton, ref) <= 1e-12
    seq = SparseSequence.from_pairs(enumerate(values, start=1))
    assert rel_err(luxemburg_norm(MN, seq), ref) <= 1e-12


@pytest.mark.parametrize("tag", POWER_TAGS + ("non-delta2",))
@pytest.mark.parametrize("scale", (1e-200, 1e150))
def test_extreme_magnitudes_stay_finite_and_homogeneous(tag, scale):
    M = parse_family(tag)
    base = np.array([[1.0, -0.5, 0.25, 0.0, 2.0], [0.0, 0.0, 3.0, 0.0, 0.0]])
    unit = luxemburg_norm_dense(M, base)
    big = luxemburg_norm_dense(M, scale * base)
    assert np.isfinite(big).all() and (big > 0.0).all()
    np.testing.assert_allclose(big, scale * unit, rtol=1e-12)
    seq = SparseSequence.from_pairs([(1, scale), (2, -0.5 * scale)])
    n = luxemburg_norm(M, seq)
    assert np.isfinite(n) and n > 0.0
    assert rel_err(n, scale * luxemburg_norm(M, seq.scale(1.0 / scale))) <= 1e-12


def test_non_delta2_subnormal_rows_are_solved_scaled():
    rows = np.array([[5e-324, 0.0], [1e-310, -3e-311], [1.0, 0.5]])
    got = luxemburg_norm_dense(MN, rows)
    np.testing.assert_array_equal(got[:2], luxemburg_norm_dense(MN, rows[:2] * 2.0 ** 64) / 2.0 ** 64)
    assert got[1] > 0.0 and got[2] == luxemburg_norm_dense(MN, rows[2:])[0]
    assert luxemburg_norm(MN, SparseSequence.from_pairs([(1, 5e-324)])) == got[0]


@pytest.mark.parametrize("tag", POWER_TAGS + ("non-delta2",))
def test_zero_width_rows_have_norm_zero(tag):
    M = parse_family(tag)
    empty = np.zeros((3, 0))
    np.testing.assert_array_equal(luxemburg_norm_dense(M, empty), np.zeros(3))
    np.testing.assert_array_equal(modular_dense(M, empty), np.zeros(3))
    assert luxemburg_norm(M, SparseSequence()) == 0.0


@pytest.mark.parametrize("tag", ("power:1.5", "non-delta2"))
def test_one_row_matches_the_same_row_in_a_large_block(tag):
    M = parse_family(tag)
    rng = np.random.default_rng(5)
    block = rng.standard_normal((5000, 7)) * rng.uniform(0.01, 10.0, size=(5000, 1))
    block[rng.random(block.shape) < 0.3] = 0.0
    block[17] = 0.0
    norms = luxemburg_norm_dense(M, block)
    assert norms[17] == 0.0
    for i in (0, 1, 999, 1023, 1024, 2500, 4999):
        assert luxemburg_norm_dense(M, block[i])[0] == norms[i]
        seq = SparseSequence.from_pairs(enumerate(block[i].tolist(), start=1))
        assert rel_err(luxemburg_norm(M, seq), norms[i]) <= 1e-12


@pytest.mark.parametrize("tag", POWER_TAGS + ("non-delta2",))
def test_scalar_norm_honours_a_loose_tol(tag):
    M = parse_family(tag)
    x = SparseSequence.from_pairs([(1, 0.3), (4, -1.7), (9, 0.02), (12, 0.9)])
    ref = reference_norm(M, x.values())
    for variant in (M, newton_only(M), bisection_only(M)):
        assert rel_err(luxemburg_norm(variant, x, tol=1e-3), ref) <= 1e-3


@pytest.mark.parametrize("tag", ("power:2", "non-delta2"))
def test_missing_derivative_takes_the_forward_difference(tag, monkeypatch):
    M = bisection_only(parse_family(tag))
    newton = newton_only(parse_family(tag))
    rows = np.random.default_rng(9).standard_normal((30, 5))
    norms = luxemburg_norm_dense(M, rows)
    for row, n in zip(rows, norms):
        assert rel_err(n, reference_norm(M, row)) <= 1e-12
    # A forward difference that cannot be taken stops every solve without
    # M', and none with M' notices it.
    expected = luxemburg_norm_dense(newton, rows)
    monkeypatch.setattr(space, "_FD_STEP", math.nan)
    with pytest.raises(OrliczError):
        luxemburg_norm_dense(M, rows)
    np.testing.assert_array_equal(luxemburg_norm_dense(newton, rows), expected)
    luxemburg_norm(newton, SparseSequence.from_pairs([(1, 1.0)]))


@given(values=st.lists(st.one_of(signed, st.just(0.0)), min_size=1, max_size=7))
@example(values=[1.0625, 1.34375, 1.34375])
@settings(max_examples=200, deadline=None)
def test_scalar_norm_is_the_dense_row(values):
    # Both norms default to full precision, so on a Newton family the scalar
    # norm of a sequence is its dense row's norm bit for bit.  Up to 7
    # columns numpy sums a row left to right, so the row's zeros, which the
    # sequence drops, change no partial sum.
    seq = SparseSequence.from_values(values)
    assert luxemburg_norm(MN, seq) == luxemburg_norm_dense(MN, np.array(values))[0]


@pytest.mark.parametrize("tag", ("power:1.5", "non-delta2"))
def test_bisection_row_does_not_depend_on_its_block(tag):
    # Each row doubles its start and stops stepping on its own test, so a
    # row solved alone, or within any subset of its block, gives the same
    # float.  On a power family the row (2, 0, ...) has one term, where the
    # forward difference is exact up to rounding, and is done long before
    # the random rows.
    M = bisection_only(parse_family(tag))
    rng = np.random.default_rng(8)
    block = rng.standard_normal((300, 6)) * rng.uniform(0.01, 10.0, size=(300, 1))
    block[0] = 0.0
    block[0, 0] = 2.0
    norms = luxemburg_norm_dense(M, block)
    for i in (0, 7, 150, 299):
        assert luxemburg_norm_dense(M, block[i])[0] == norms[i]
    np.testing.assert_array_equal(luxemburg_norm_dense(M, block[::7]), norms[::7])


def rho_form_norm(M, rows, tol=2.0 ** -52):
    """Newton on sigma(x/rho) = 1 in rho, rho -> rho(1 + q): the step the kernel replaced."""
    a = np.abs(np.asarray(rows, dtype=float))
    rho = a.max(axis=1) / M.t_bar
    out = np.empty_like(rho)
    live = np.arange(len(rho))
    for _ in range(200):
        t = a / rho[:, None]
        phi = np.asarray(M.eval(t), dtype=float).sum(axis=1) - 1.0
        slope = (np.asarray(M.deriv1(t), dtype=float) * t).sum(axis=1)
        step = rho * np.maximum(phi, 0.0) / slope
        rho = rho + step
        done = (phi <= 0.0) | (step <= tol * rho)
        out[live[done]] = rho[done]
        if done.all():
            return out
        keep = ~done
        a, rho, live = a[keep], rho[keep], live[keep]
    raise AssertionError("the rho-form reference did not converge")


def ulps_apart(x, y):
    """Distance in units in the last place between positive float arrays."""
    return np.abs(np.asarray(x).view(np.int64) - np.asarray(y).view(np.int64))


wide_rows = st.integers(1, 60).flatmap(lambda width: st.lists(
    st.one_of(st.floats(min_value=1e-4, max_value=1e2), st.just(0.0)),
    min_size=width, max_size=width,
)).filter(lambda v: any(x != 0.0 for x in v))

NEWTON_FAMILIES = {tag: newton_only(parse_family(tag)) for tag in ("non-delta2", "power:1.5", "power:3")}


@pytest.mark.parametrize("tag", sorted(NEWTON_FAMILIES))
@given(rows=st.lists(wide_rows, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_u_step_stays_within_4_ulp_of_the_rho_form_step(tag, rows):
    M = NEWTON_FAMILIES[tag]
    width = max(len(r) for r in rows)
    block = np.array([r + [0.0] * (width - len(r)) for r in rows])
    got = luxemburg_norm_dense(M, block)
    assert ulps_apart(got, rho_form_norm(M, block)).max() <= 4
    residual = np.asarray(M.eval(block / got[:, None]), dtype=float).sum(axis=1) - 1.0
    assert np.abs(residual).max() <= 1e-13


def _passes(M, row):
    """(M.eval calls, sigma(x/rho) - 1 at the last of them) of one kernel solve."""
    sigmas = []

    def counting(t):
        out = M.eval(t)
        sigmas.append(float(np.sum(out)) - 1.0)
        return out

    luxemburg_norm_dense(dataclasses.replace(M, eval=counting), row)
    return len(sigmas), sigmas[-1]


def test_witness_rows_converge_in_at_most_4_passes():
    # The first step from vmax/t_bar lands where every term is affine, which
    # the u-step solves exactly; the rho-form step took 8 to 10 passes here.
    # Some rows then sit past the root by rounding: they step back and stop.
    passes = {k: _passes(MN, np.array(non_delta2_witness(MN, k)[0].values())) for k in (5, 10, 20, 50)}
    assert all(n <= 4 for n, _ in passes.values()), passes
    assert any(last < 0.0 for _, last in passes.values()), passes


@given(row=wide_rows, factor=st.floats(min_value=1e-3, max_value=0.9))
@settings(max_examples=80, deadline=None)
def test_an_understated_derivative_never_gives_a_negative_norm(row, factor):
    # With M' scaled down, q = phi / sum M'(t) t can reach 1 and beyond,
    # where the u-step would divide by 1 - q <= 0.
    M = dataclasses.replace(MN, deriv1=lambda t: factor * MN.deriv1(t))
    with np.errstate(all="ignore"):
        try:
            got = luxemburg_norm_dense(M, np.array(row))
        except OrliczError:
            return
    assert np.isfinite(got).all() and (got > 0.0).all()


@pytest.mark.parametrize("tag", sorted(NEWTON_FAMILIES))
@given(rows=st.lists(wide_rows, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_forward_difference_step_stays_within_4_ulp_of_newton(tag, rows):
    M = NEWTON_FAMILIES[tag]
    width = max(len(r) for r in rows)
    block = np.array([r + [0.0] * (width - len(r)) for r in rows])
    got = luxemburg_norm_dense(dataclasses.replace(M, deriv1=None), block)
    assert ulps_apart(got, luxemburg_norm_dense(M, block)).max() <= 4
    residual = np.asarray(M.eval(block / got[:, None]), dtype=float).sum(axis=1) - 1.0
    assert np.abs(residual).max() <= 1e-13


def item4_block(seed, rows, width):
    """Random rows with about 30% zeros and row magnitudes 1e-4 to 1e2."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, width)) * 10 ** rng.uniform(-4, 2, (rows, 1))
    block[rng.random(block.shape) < 0.3] = 0.0
    return block


@pytest.mark.parametrize("tag", sorted(NEWTON_FAMILIES))
def test_forward_difference_solves_a_block_in_at_most_24_sigma_passes(tag):
    # Bisection took 56 to 60 passes per block.
    M = dataclasses.replace(NEWTON_FAMILIES[tag], deriv1=None)
    block = item4_block(4, 1024, 8)
    counts = [_passes(M, block)[0] for _ in range(2)]
    assert counts[0] == counts[1] <= 24


def test_flat_function_without_derivative():
    flat = OrliczFunction(eval=lambda t: np.maximum(np.asarray(t, dtype=float) - 1.0, 0.0),
                          t_bar=4.0, family_tag="flat")
    got = luxemburg_norm_dense(flat, np.array([[1.0, 0.5, 0.0], [3.0, 0.0, 0.0]]))
    np.testing.assert_array_equal(got, [0.5, 1.5])


def steep(deriv1):
    """expm1(354 t): M(t_bar = 2) is finite, but M'(2) overflows; the norm of (1) is 354/ln 2."""
    return OrliczFunction(
        eval=lambda t: np.expm1(354.0 * np.asarray(t, dtype=float)),
        deriv1=(lambda t: 354.0 * np.exp(354.0 * np.asarray(t, dtype=float))) if deriv1 else None,
        t_bar=2.0,
        family_tag="steep",
    )


def test_steep_function_without_derivative_doubles_its_start():
    x = SparseSequence.from_pairs([(1, 1.0)])
    n = luxemburg_norm(steep(deriv1=False), x)
    assert rel_err(n, 354.0 / math.log(2.0)) <= 1e-15
    assert rel_err(n, reference_norm(steep(deriv1=False), [1.0])) <= 1e-12


def test_an_overflowing_slope_never_counts_as_converged():
    # Sum M'(t) t is inf at the start, so q = phi/inf = 0 once returned the start 0.5.
    with np.errstate(over="ignore"), pytest.raises(OrliczError):
        luxemburg_norm(steep(deriv1=True), SparseSequence.from_pairs([(1, 1.0)]))


@pytest.mark.parametrize("seed", (0, 7, 9))
def test_an_understated_derivative_raises_without_a_warning(seed):
    M = dataclasses.replace(MN, deriv1=lambda t: 0.5 * MN.deriv1(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrliczError):
            luxemburg_norm_dense(M, item4_block(seed, 2000, 8))


# -- the list kernel against the one-block loop it replaced -------------------


def reference_norm_block(M, a, vmax, tol, level=1.0):
    """The earlier Newton loop: one block a >= 0 with row maxima vmax > 0,
    every entry through M and M' (or the forward difference) on every pass."""
    if M.power is not None:
        p = M.power[0]
        if p == 1.0:
            return modular_dense(M, a) / level
        return vmax * (np.asarray(M.eval(a / vmax[:, None]), dtype=float).sum(axis=1) / level) ** (1.0 / p)
    small = vmax < np.finfo(float).tiny
    if small.any():
        scale = np.where(small, 2.0 ** 64, 1.0)
        return reference_norm_block(M, a * scale[:, None], vmax * scale, tol, level) / scale

    def sigma_of(t):
        return np.asarray(M.eval(t), dtype=float).sum(axis=1)

    rho = vmax / (M.t_bar * max(level, 1.0))
    if M.deriv1 is None:
        for _ in range(200):
            up = sigma_of(a / (2.0 * rho)[:, None]) > level
            if not up.any():
                break
            rho[up] *= 2.0
        else:
            raise OrliczError("bracketing failed: sigma(x/rho) stayed above the level")
    out = np.empty_like(rho)
    live = np.arange(len(rho))
    for _ in range(200):
        t = a / rho[:, None]
        sigma = sigma_of(t)
        if M.deriv1 is None:
            phi, slope = (sigma - level) * space._FD_STEP, sigma_of((1.0 + space._FD_STEP) * t) - sigma
        else:
            phi, slope = sigma - level, (np.asarray(M.deriv1(t), dtype=float) * t).sum(axis=1)
        if not 0.0 < slope.min() <= slope.max() < np.inf:
            raise OrliczError("the slope of sigma(x/rho) left (0, inf); check M")
        q = phi / slope
        rho = np.divide(rho, 1.0 - q, out=rho * (1.0 + q), where=(q > 0.0) & (q < 1.0))
        if not 0.0 < rho.min() <= rho.max() < np.inf:
            raise OrliczError("Newton step for the norm left (0, inf); check M")
        done = q <= tol
        if done.all():
            out[live] = rho
            return out
        if done.any():
            out[live[done]] = rho[done]
            keep = ~done
            a, rho, live = a[keep], rho[keep], live[keep]
    raise OrliczError("Newton iteration for the norm did not converge")


def reference_dense(M, rows, tol=2.0 ** -52, level=1.0):
    """The earlier luxemburg_norm_dense: reference_norm_block per 1024 rows."""
    out = np.zeros(len(rows))
    for s in range(0, len(rows), 1024):
        a = np.abs(rows[s : s + 1024])
        vmax = a.max(axis=1, initial=0.0)
        nz = vmax > 0.0
        if nz.any():
            out[s : s + len(a)][nz] = reference_norm_block(M, a[nz], vmax[nz], tol, level)
    return out


@st.composite
def block_lists(draw):
    """1 to 5 blocks of widths 1 to 60 with 0 to 95% zeros, all-zero rows,
    rows with a subnormal max and row magnitudes 1e-300 to 1e300."""
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        width, n = draw(st.integers(1, 60)), draw(st.integers(1, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        block = rng.standard_normal((n, width)) * 10.0 ** rng.uniform(-300, 300, (n, 1))
        block[rng.random(block.shape) < draw(st.sampled_from((0.0, 0.3, 0.7, 0.95)))] = 0.0
        kind = rng.integers(0, 4, n)
        block[kind == 0] = 0.0
        block[kind == 1] *= 1e-310 / np.maximum(np.abs(block[kind == 1]).max(axis=1, initial=0.0), 1e-300)[:, None]
        blocks.append(block)
    return blocks


def _outcome(solve):
    try:
        return solve()
    except OrliczError as exc:
        return type(exc)


KERNEL_PATHS = {
    "non-delta2": MN,
    "non-delta2/fd": dataclasses.replace(MN, deriv1=None),
    "power:1.5/newton": newton_only(parse_family("power:1.5")),
    "power:3/fd": bisection_only(parse_family("power:3")),
    "power:2": parse_family("power:2"),
    "power:1": parse_family("power:1"),
}


@pytest.mark.parametrize("path", KERNEL_PATHS)
@given(blocks=block_lists())
@settings(max_examples=60, deadline=None)
def test_list_kernel_equals_the_one_block_loop(path, blocks):
    M = KERNEL_PATHS[path]
    with np.errstate(all="ignore"):
        got = _outcome(lambda: space._norms(M, blocks, 2.0 ** -52))
        want = _outcome(lambda: [reference_dense(M, b) for b in blocks])
    if isinstance(want, type):
        assert got is want
    else:
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
        for b, w in zip(blocks, want):
            np.testing.assert_array_equal(luxemburg_norm_dense(M, b).view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("path", KERNEL_PATHS)
@given(
    values=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=60),
    level=st.sampled_from((1e-20, 1e-6, 0.3, 1.0, 5.0, 1e6, 1e20)),
    tol=st.sampled_from((1e-12, 2.0 ** -52)),
)
@settings(max_examples=40, deadline=None)
def test_scale_to_modular_levels_equal_the_one_block_loop(path, values, level, tol):
    M = KERNEL_PATHS[path]
    a = np.array([values])
    with np.errstate(all="ignore"):
        got = _outcome(lambda: space._norm_rows(M, [a], a.max(axis=1), tol, level))
        want = _outcome(lambda: reference_norm_block(M, a, a.max(axis=1), tol, level))
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("path", ("non-delta2", "non-delta2/fd", "power:1.5/newton"))
def test_list_kernel_batches_cut_across_blocks(path):
    # 3,101 rows in all: the 1,024-row batches cut the blocks mid-way and
    # hold rows of several widths.
    M = KERNEL_PATHS[path]
    blocks = [item4_block(seed, rows, width) for seed, (rows, width) in
              enumerate(((700, 8), (1, 40), (900, 3), (1500, 54)))]
    for got, block in zip(space._norms(M, blocks, 2.0 ** -52), blocks):
        np.testing.assert_array_equal(got.view(np.int64), reference_dense(M, block).view(np.int64))


# -- one packing per Newton loop -----------------------------------------------

STAGGERED_PATHS = {"non-delta2": MN, "non-delta2/fd": dataclasses.replace(MN, deriv1=None)}


def staggered_blocks():
    """Two blocks, of widths 8 and 40, of rows with magnitudes 1e-4 to 1e2."""
    blocks = [np.abs(item4_block(seed, 60, width)) for seed, width in ((11, 8), (12, 40))]
    return [b[b.max(axis=1) > 0.0] for b in blocks]


@pytest.mark.parametrize("level", (1.0, 0.3, 5.0))
@pytest.mark.parametrize("path", STAGGERED_PATHS)
def test_newton_loop_packs_once_and_each_row_is_its_own_solve(path, level, monkeypatch):
    M = STAGGERED_PATHS[path]
    blocks = staggered_blocks()
    packs = []
    pack = space._pack
    monkeypatch.setattr(space, "_pack", lambda bs: packs.append(len(bs)) or pack(bs))
    got = space._norm_rows(M, blocks, np.concatenate([b.max(axis=1) for b in blocks]), 2.0 ** -52, level)
    assert packs == [2]
    passes = []
    counting = dataclasses.replace(M, eval=lambda t: passes.append(1) or M.eval(t))
    alone, per_row = [], []
    for a in (row[None, :] for b in blocks for row in b):
        passes.clear()
        alone.append(space._norm_rows(counting, [a], a.max(axis=1), 2.0 ** -52, level))
        per_row.append(len(passes))
    # The rows converge on different passes, so some are done for several
    # passes before the loop ends.
    assert max(per_row) >= min(per_row) + 2
    np.testing.assert_array_equal(got.view(np.int64), np.concatenate(alone).view(np.int64))
