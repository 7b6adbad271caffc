import tracemalloc

import numpy as np
import pytest

from orlicz import (
    BallSampler,
    DomainError,
    GridOracle,
    SparseSequence,
    dense_to_sequences,
    luxemburg_norm,
    make_power,
)

M2 = make_power(2)


def test_dense_to_sequences_drops_zeros():
    rows = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    pts = dense_to_sequences(rows, (2, 5, 9))
    assert pts[0].entries == ((5, 1.0),)
    assert pts[1] == SparseSequence()


def test_ball_sampler_is_deterministic():
    a = BallSampler(seed=42, count=20, support_size=3, index_range=10)
    b = BallSampler(seed=42, count=20, support_size=3, index_range=10)
    assert a.points(M2, 1.0) == b.points(M2, 1.0)
    # repeated draws from the same instance match too
    assert a.points(M2, 1.0) == a.points(M2, 1.0)
    assert a.points(M2, 1.0) != BallSampler(seed=43, count=20, support_size=3, index_range=10).points(M2, 1.0)


def test_ball_sampler_respects_radius_and_support():
    s = BallSampler(seed=7, count=50, support_size=4, index_range=15, decades=2.0)
    pts = s.points(M2, 0.5)
    assert len(pts) == 51  # zero appended
    assert pts[-1] == SparseSequence()
    for x in pts:
        assert luxemburg_norm(M2, x) <= 0.5 * (1.0 + 1e-9)
        assert x.support_size <= 4
        assert x.max_index <= 15
    # log-uniform radii reach small scales
    norms = [luxemburg_norm(M2, x) for x in pts if x]
    assert min(norms) < 0.5 * 10.0 ** -1.5


def test_ball_sampler_extra_points_are_appended():
    z = SparseSequence.from_pairs([(1, 9.0)])
    s = BallSampler(seed=1, count=5, support_size=2, index_range=6, extra=(z,))
    pts = s.points(M2, 1.0)
    assert pts[-1] == z
    assert "extra=1" in s.describe()


def test_ball_sampler_validation():
    with pytest.raises(DomainError):
        BallSampler(seed=0, count=0)
    with pytest.raises(DomainError):
        BallSampler(seed=0, support_size=10, index_range=4)
    with pytest.raises(DomainError):
        BallSampler(seed=0).dense_points(M2, 0.0)


def test_grid_sampler_enumerates_box():
    g = GridOracle(indices=(1, 3), step=0.5, radius=1.0)
    pts = dense_to_sequences(*g.dense_points(M2))
    assert len(pts) == 25  # 5 x 5 axis values
    assert SparseSequence() in pts
    assert SparseSequence.from_pairs([(1, -1.0), (3, 0.5)]) in pts
    rows, indices = g.dense_points(M2)
    assert rows.shape == (25, 2)
    assert indices == (1, 3)
    assert "step=0.5" in g.describe()


def test_grid_sampler_validation():
    with pytest.raises(DomainError):
        GridOracle(step=0.0)
    with pytest.raises(DomainError):
        GridOracle(indices=())


def test_ball_sampler_refuses_oversized_blocks_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"100,000,001 rows x 40 columns.*count"):
            BallSampler(seed=0, count=10**8).dense_points(M2, 1.0)  # 32 GB of rows
        with pytest.raises(DomainError, match="index_range"):
            BallSampler(seed=0, count=1, index_range=10**9).dense_points(M2, 1.0)
        with pytest.raises(DomainError, match="exceeds the cap"):
            BallSampler(seed=0, count=1, extra=(SparseSequence.from_pairs([(10**9, 1.0)]),)).dense_points(M2, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # A block of exactly 2^22 cells is still drawn; one cell more is not.
    block, _ = BallSampler(seed=0, count=1, index_range=1 << 22, include_zero=False).dense_points(M2, 1.0)
    assert block.shape == (1, 1 << 22)
    with pytest.raises(DomainError, match="exceeds the cap"):
        BallSampler(seed=0, count=1, index_range=(1 << 22) + 1, include_zero=False).dense_points(M2, 1.0)


def test_grid_sampler_refuses_oversized_grids_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="exceeds the cap"):
            GridOracle(tuple(range(1, 9)), step=0.01)  # 201^8 points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(DomainError):
        GridOracle(step=2.0, radius=1.0)  # step above the radius


def test_grid_sampler_refuses_a_draw_past_the_cell_cap_before_allocating():
    # The oracles are within their own cap of 2^24 points; their draws are
    # past BallSampler's 2^22 cells: 201^3 x 3 and, just past it, 1,449^2 x 2.
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"8,120,601 points x 3 coordinates exceeds the cap of 4,194,304 cells"):
            GridOracle((1, 2, 3), step=0.01).dense_points(M2)
        with pytest.raises(DomainError, match=r"2,099,601 points x 2 coordinates exceeds the cap"):
            GridOracle((1, 2), step=1.0, radius=724.0).dense_points()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
