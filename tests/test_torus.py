import fractions

import numpy as np
import pytest

from eqdec.errors import ArgumentError, EstimateError
from eqdec.torus import (
    AxisSquare,
    BoxDimensionEstimate,
    Bitmap,
    Disk,
    Polygon,
    TorusPoint,
    boundary_dimension_estimate,
    coset_point,
    offsets_row_major,
    sample_free_system,
    shape_from_json,
)


def test_coset_point_zero_combination():
    sys = sample_free_system(7, 2, 2, 8)
    u = TorusPoint([0.5, 0.5])
    assert coset_point(u, [0, 0], sys).coords == (0.5, 0.5)


def test_coset_point_wraps():
    sys = sample_free_system(7, 2, 2, 8)
    vecs = np.array([[0.3, 0.0], [0.1, 0.1]])
    sys2 = type(sys)(k=2, d=2, vectors=vecs, m_cap=8, rng_seed=0)
    p = coset_point(TorusPoint([0.9, 0.0]), [1, 0], sys2)
    assert p.coords[0] == pytest.approx(0.2, abs=1e-12)
    assert p.coords[1] == 0.0


def test_coset_point_exact_rational_oracle():
    # same arithmetic re-done in exact rationals on the identical binary64 inputs
    vecs = np.array([[0.123, 0.456], [0.789, 0.012]])
    sys = sample_free_system(7, 2, 2, 8)
    sys = type(sys)(k=2, d=2, vectors=vecs, m_cap=8, rng_seed=0)
    p = coset_point(TorusPoint([0.0, 0.0]), [2, -1], sys)
    for j in range(2):
        exact = 2 * fractions.Fraction(float(vecs[0][j])) - fractions.Fraction(float(vecs[1][j]))
        exact -= exact.__floor__()
        assert p.coords[j] == pytest.approx(float(exact), abs=1e-12)
    assert p.coords[0] == pytest.approx(0.457, abs=1e-9)
    assert p.coords[1] == pytest.approx(0.900, abs=1e-9)


def test_coset_point_dimension_mismatch():
    sys = sample_free_system(7, 2, 2, 8)
    with pytest.raises(ArgumentError):
        coset_point(TorusPoint([0.1, 0.2]), [1, 2, 3], sys)


def test_sample_free_system_deterministic():
    s1 = sample_free_system(7, 2, 2, 8)
    s2 = sample_free_system(7, 2, 2, 8)
    assert np.array_equal(s1.vectors, s2.vectors)
    s3 = sample_free_system(8, 2, 2, 8)
    assert not np.array_equal(s1.vectors, s3.vectors)


def test_sample_stream_uniformity_chi2():
    # chi-square smoke test on 1e4 draws of the generator behind seed 7
    from scipy.stats import chisquare

    rng = np.random.default_rng(np.random.SeedSequence(7))
    draws = rng.random(10_000)
    counts, _ = np.histogram(draws, bins=20, range=(0, 1))
    _, p = chisquare(counts)
    assert p > 1e-4


def test_sample_free_system_validation():
    with pytest.raises(ArgumentError):
        sample_free_system(7, 2, 1, 8)
    with pytest.raises(ArgumentError):
        sample_free_system(7, 2, 2, 0)


def test_offsets_row_major_shared_and_read_only():
    offs = offsets_row_major(2, 2)
    assert offs is offsets_row_major(2, 2)
    assert offs.shape == (25, 2) and tuple(offs[0]) == (-2, -2) and tuple(offs[1]) == (-2, -1)
    with pytest.raises(ValueError):
        offs[0, 0] = 0


def test_coset_point_group_action():
    sys = sample_free_system(3, 2, 2, 8)
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = TorusPoint(rng.random(2))
        m = rng.integers(-5, 6, 2)
        n = rng.integers(-5, 6, 2)
        lhs = coset_point(u, m + n, sys)
        rhs = coset_point(coset_point(u, m, sys), n, sys)
        assert np.allclose(lhs.coords, rhs.coords, atol=1e-9)


def test_equal_area_membership_frequencies():
    # Disk and square of area 0.125: Monte-Carlo frequencies within 3 sigma
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(0.125 / np.pi)))
    square = AxisSquare(TorusPoint([0.2, 0.2]), float(np.sqrt(0.125)))
    rng = np.random.default_rng(42)
    pts = rng.random((1_000_000, 2))
    fa = disk.contains_batch(pts).mean()
    fb = square.contains_batch(pts).mean()
    sigma = np.sqrt(0.125 * 0.875 / 1e6)
    assert abs(fa - fb) < 3 * (sigma * np.sqrt(2))


def test_boundary_dimension_disk_and_square():
    ladder = [0.04, 0.02, 0.01, 0.005]
    disk = Disk(TorusPoint([0.5, 0.5]), 0.22)
    est = boundary_dimension_estimate(disk, ladder, 200_000, seed=5)
    assert est.fitted_dimension == pytest.approx(1.0, abs=0.1)
    square = AxisSquare(TorusPoint([0.2, 0.2]), 0.4)
    est2 = boundary_dimension_estimate(square, ladder, 200_000, seed=5)
    assert est2.fitted_dimension == pytest.approx(1.0, abs=0.1)
    assert isinstance(est, BoxDimensionEstimate)


def test_boundary_dimension_degenerate_bitmap():
    full = Bitmap(resolution=16, bits=np.ones((16, 16), dtype=bool))
    with pytest.raises(EstimateError):
        boundary_dimension_estimate(full, [0.04, 0.02], 10_000, seed=1)


def test_boundary_dimension_validation():
    disk = Disk(TorusPoint([0.5, 0.5]), 0.2)
    with pytest.raises(ArgumentError):
        boundary_dimension_estimate(disk, [0.01, 0.02], 10_000, seed=1)
    for short in ([], [0.1]):  # no line to fit through under two scales
        with pytest.raises(ArgumentError, match="at least two"):
            boundary_dimension_estimate(disk, short, 10_000, seed=1)
    with pytest.raises(ArgumentError):
        boundary_dimension_estimate(disk, [0.04, 0.02], 100, seed=1)


def test_bitmap_boundary_distance_wraps_the_torus():
    # edge cells differ from a periodic 4-neighbour; a cell's distance is its
    # periodic L-infinity distance to the nearest one, less half a cell
    res = 16
    centres = (np.argwhere(np.ones((res, res), dtype=bool)) + 0.5) / res

    def brute(bits):
        edge = np.zeros_like(bits)
        for ax in (0, 1):
            for step in (1, -1):
                edge |= bits != np.roll(bits, step, axis=ax)
        diff = np.abs(np.argwhere(np.ones_like(bits))[:, None] - np.argwhere(edge)[None])
        dist = np.minimum(diff, res - diff).max(axis=2).min(axis=1)
        return np.maximum(dist - 0.5, 0.0) / res

    stripe = np.zeros((res, res), dtype=bool)
    stripe[:, 2:6] = True
    got = Bitmap(res, stripe).boundary_distance(np.array([[0.5, 15.5 / res]]))
    assert got.tolist() == [1.5 / res]  # the nearest edge lies across the wrap
    rng = np.random.default_rng(9)
    for density in (0.02, 0.05, 0.2, 0.5):
        for _ in range(5):
            bits = rng.random((res, res)) < density
            assert np.array_equal(Bitmap(res, bits).boundary_distance(centres), brute(bits))


def test_shape_json_round_trip():
    disk = shape_from_json({"type": "disk", "center": [0.5, 0.5], "radius": 0.2})
    assert isinstance(disk, Disk)
    assert disk.contains_batch(np.array([[0.5, 0.6]])).tolist() == [True]
    sq = shape_from_json(disk.to_json()["type"] and {"type": "axis_square", "corner": [0.1, 0.1], "side": 0.3})
    assert isinstance(sq, AxisSquare)
    poly = shape_from_json(
        {"type": "polygon", "vertices": [[0.2, 0.2], [0.45, 0.2], [0.45, 0.45]]}
    )
    assert isinstance(poly, Polygon)
    assert poly.contains_batch(np.array([[0.4, 0.25], [0.25, 0.4]])).tolist() == [True, False]
    with pytest.raises(ArgumentError):
        shape_from_json({"type": "pentagon"})


def test_bitmap_pgm_round_trip(tmp_path):
    bits = np.zeros((8, 8), dtype=np.uint8)
    bits[2:5, 3:7] = 255
    pgm = tmp_path / "mask.pgm"
    pgm.write_bytes(b"P5\n8 8\n255\n" + bits.tobytes())
    shape = shape_from_json({"type": "bitmap", "pgm": str(pgm)})
    assert isinstance(shape, Bitmap)
    pts = np.array([[(2 + 0.5) / 8, (3 + 0.5) / 8], [0.01, 0.01]])
    assert shape.contains_batch(pts).tolist() == [True, False]
    back = shape_from_json(shape.to_json())
    assert np.array_equal(back.bits, shape.bits)
