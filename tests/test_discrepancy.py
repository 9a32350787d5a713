import numpy as np
import pytest

from eqdec.discrepancy import (
    block_sums,
    cube_discrepancy,
    profile,
    summability_report,
)
from eqdec.errors import ArgumentError
from eqdec.lattice import CellSet, Rect


def naive_cube_discrepancy(bits, delta, i):
    size = 1 << i
    n0, n1 = bits.shape
    worst = 0.0
    for x in range(n0 - size + 1):
        for y in range(n1 - size + 1):
            c = bits[x : x + size, y : y + size].sum()
            worst = max(worst, abs(c - delta * size * size))
    return worst


def test_cube_discrepancy_trivial_cases():
    R = Rect((0, 0), (8, 8))
    empty = CellSet.empty(R)
    assert cube_discrepancy(empty, 0.5, 2, R) == pytest.approx(8.0)
    full = CellSet(R, np.ones((8, 8), dtype=bool))
    assert cube_discrepancy(full, 0.5, 2, R) == pytest.approx(8.0)
    checker = CellSet(R, (np.indices((8, 8)).sum(axis=0) % 2) == 0)
    assert cube_discrepancy(checker, 0.5, 1, R) == pytest.approx(0.0)
    with pytest.raises(ArgumentError):
        cube_discrepancy(empty, 0.5, 4, R)


def test_cube_discrepancy_matches_naive():
    rng = np.random.default_rng(11)
    R = Rect((0, 0), (32, 32))
    for _ in range(100):
        bits = rng.random((32, 32)) < rng.uniform(0.1, 0.9)
        X = CellSet(R, bits)
        delta = rng.uniform(0.1, 0.9)
        for i in range(6):
            assert cube_discrepancy(X, delta, i, R) == pytest.approx(
                naive_cube_discrepancy(bits, delta, i)
            )


def test_cube_discrepancy_complement_symmetry():
    rng = np.random.default_rng(4)
    R = Rect((0, 0), (16, 16))
    bits = rng.random((16, 16)) < 0.3
    X = CellSet(R, bits)
    Xc = CellSet(R, ~bits)
    for i in range(4):
        assert cube_discrepancy(X, 0.3, i, R) == pytest.approx(
            cube_discrepancy(Xc, 0.7, i, R)
        )


def test_block_sums_d3():
    rng = np.random.default_rng(2)
    arr = rng.integers(0, 3, (5, 6, 4))
    out = block_sums(arr, 2)
    assert out.shape == (4, 5, 3)
    assert out[1, 2, 1] == arr[1:3, 2:4, 1:3].sum()


def test_profile_empty_set_exponent_is_d():
    R = Rect((0, 0), (64, 64))
    prof = profile(CellSet.empty(R), 0.5, R, 5)
    assert prof.fitted_exponent == pytest.approx(2.0, abs=1e-9)
    assert prof.max_dev[0] == pytest.approx(0.5)


def test_profile_bernoulli_exponent():
    R = Rect((0, 0), (128, 128))
    slopes = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = CellSet(R, rng.random((128, 128)) < 0.5)
        slopes.append(profile(X, 0.5, R, 6).fitted_exponent)
    assert np.mean(slopes) == pytest.approx(1.0, abs=0.2)


def test_profile_striped_bounded():
    R = Rect((0, 0), (64, 64))
    stripes = CellSet(R, (np.indices((64, 64))[1] % 2) == 0)
    prof = profile(stripes, 0.5, R, 5)
    for i, dev in enumerate(prof.max_dev):
        assert dev <= 2.0**i + 1e-9
    assert np.isnan(prof.fitted_exponent) or prof.fitted_exponent <= 1.0


def test_profile_csv():
    R = Rect((0, 0), (32, 32))
    rng = np.random.default_rng(0)
    prof = profile(CellSet(R, rng.random((32, 32)) < 0.4), 0.4, R, 4)
    csv = prof.to_csv()
    assert csv.splitlines()[0] == "scale,max_dev"
    assert len(csv.splitlines()) == 6


def test_summability_geometric_and_constant():
    # deviations 2^((d-2) i) at d=4: partial sums of 2^-i approach 2
    d = 4
    devs = [2.0 ** ((d - 2) * i) for i in range(11)]
    sums, tail = summability_report(devs, d, 10)
    assert sums[-1] == pytest.approx(2.0, abs=2e-3)
    assert tail
    const = [3.0 * 2**i for i in range(11)]
    sums, tail = summability_report(const, 2, 10)
    assert sums[-1] == pytest.approx(33.0)
    assert not tail
    with pytest.raises(ArgumentError):
        summability_report(const, 2, 11)


def test_slice_uniformity_lifts_dimension():
    # d-dimensional cubes split into 2^i slices, so a (d-1)-dimensional budget
    # lifts by the factor 2^i
    rng = np.random.default_rng(6)
    bits3 = rng.random((16, 16, 16)) < 0.5
    R3 = Rect((0, 0, 0), (16, 16, 16))
    X3 = CellSet(R3, bits3)
    R2 = Rect((0, 0), (16, 16))
    for i in range(1, 4):
        d3 = cube_discrepancy(X3, 0.5, i, R3)
        worst_slice = max(
            cube_discrepancy(CellSet(R2, bits3[j]), 0.5, i, R2) for j in range(16)
        )
        assert d3 <= (1 << i) * worst_slice + 1e-9

