"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The heavyweight runs are module-scoped fixtures shared between criteria.
"""

import hashlib
import time

import numpy as np
import pytest

from eqdec.cli import main as cli_main
from eqdec.lattice import Rect
from eqdec.lebesgue import build_schedule, run_pipeline
from eqdec.torus import AxisSquare, Disk, TorusPoint, sample_free_system
from eqdec.window import extract_window

AREA = 0.15
SEED = 7
BASE = (0.3, 0.7)


def shapes():
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(AREA / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(AREA)))
    return disk, square


def make_window(side, m_cap=8, seed=SEED, base=BASE):
    sys = sample_free_system(seed, 2, 2, m_cap)
    disk, square = shapes()
    return extract_window(
        disk, square, sys, TorusPoint(list(base)), Rect((-side // 2,) * 2, (side,) * 2)
    )


@pytest.fixture(scope="module")
def flagship():
    """Disk vs square, 1024^2 window, ladder (8, 32, 128), M = 8."""
    t0 = time.time()
    win = make_window(1024)
    schedule = build_schedule(win, (8, 32, 128), 2)
    res = run_pipeline(win, schedule, 2, check_invariants=True)
    return win, res, time.time() - t0


@pytest.fixture(scope="module")
def baire_run():
    """Same shapes, radii (32, 96, 288), horizon 2 r_i, window 1536^2."""
    from eqdec.baire import run_baire

    t0 = time.time()
    win = make_window(1536)
    res = run_baire(win, (32, 96, 288), seed=11, candidate_cap=256, net_cap=12)
    return win, res, time.time() - t0


def test_criterion_1_exact_invariants(flagship, baire_run):
    win, res, elapsed = flagship
    m = res.matching
    m.validate(win.a_bits.bits, win.b_bits.bits)  # injectivity + parts
    ks = m.a_match[m.a_match >= 0]
    assert np.abs(m.offsets[ks]).max() <= win.sys.m_cap  # offset bound
    # per-level containment, no short augmenting path, and one-sided unmatched
    # cells were all asserted inline by check_invariants=True; the reports
    # carry the per-cube structure
    for rep in res.reports:
        assert rep.two_sided_cubes == 0
    bwin, bres, _ = baire_run
    bres.matching.validate(bwin.a_bits.bits, bwin.b_bits.bits)
    assert elapsed < 120, f"flagship run took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 1 PASS: exact invariant suite (injectivity, offset bound, "
        f"piece identity, cube containment, no short augmenting path, one-sided "
        f"unmatched) on the 1024^2 run in {elapsed:.0f}s"
    )


def test_criterion_2_small_instance_oracles():
    from eqdec.suites import suite_hall, suite_isoperimetry, suite_short_augmenting

    t0 = time.time()
    ok1, d1 = suite_isoperimetry(SEED)
    ok2, d2 = suite_hall(SEED, trials=1000)
    ok3, d3 = suite_short_augmenting(SEED, trials=1000)
    elapsed = time.time() - t0
    assert ok1 and d1["violations"] == 0
    assert ok2 and d2["disagreements"] == 0
    assert ok3 and d3["disagreements"] == 0
    assert elapsed < 60, f"oracle suite took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 2 PASS: perimeter floor exhaustive+sampled, Hall vs "
        f"enumeration, bounded search vs BFS oracle, all exact in {elapsed:.0f}s"
    )


def test_criterion_3_internal_perimeter():
    from eqdec.suites import suite_internal_perimeter

    t0 = time.time()
    ok, details = suite_internal_perimeter(SEED, trials=10_000)
    elapsed = time.time() - t0
    assert ok and details["violations"] == 0
    assert elapsed < 30, f"internal perimeter suite took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 3 PASS: internal-boundary floor, 1e4 random balanced "
        f"rects (d=2,3), zero violations in {elapsed:.0f}s "
        f"(worst margin {details['worst_margin']:.3f})"
    )


def test_criterion_4_equivariance():
    from eqdec.suites import suite_equivariance

    t0 = time.time()
    ok, details = suite_equivariance(
        SEED, window_side=512, shifts=((3, -2), (-7, 5)), ladder=(2, 4, 8, 16), levels=1
    )
    elapsed = time.time() - t0
    assert details["shifts_ok"] == [True, True]
    assert details["mutant_detected"]
    assert ok
    assert elapsed < 120, f"equivariance suite took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 4 PASS: pipeline commutes with base shifts (3,-2) and "
        f"(-7,5) on the 512^2 core exactly; mutant detected, in {elapsed:.0f}s"
    )


def test_criterion_5_convergence_trend(flagship):
    win, res, elapsed = flagship
    fr = [r.unmatched_fraction for r in res.reports]
    assert fr[0] > fr[1] > fr[2], fr
    assert fr[2] < 0.01, fr
    assert res.reports[0].unmatched_exceeds_discrepancy == 0  # level-0 bound exact
    for rep in res.reports:
        assert rep.unmatched_exceeds_discrepancy == 0
    (p1, r1, f1), (p2, r2, f2) = (
        (r.changed_prune / r.window_volume, r.changed_rematch / r.window_volume,
         r.changed_refine / r.window_volume)
        for r in res.reports[1:3]
    )
    assert p2 < p1 and r2 < r1 and f2 < f1, (p1, r1, f1, p2, r2, f2)
    assert elapsed < 600
    print(
        f"\nACCEPTANCE 5 PASS: unmatched fractions {fr[0]:.4f} > {fr[1]:.4f} > "
        f"{fr[2]:.4f} < 0.01; per-phase change fractions decay "
        f"({p1:.4f},{r1:.4f},{f1:.4f}) -> ({p2:.4f},{r2:.4f},{f2:.4f}); "
        f"per-cube unmatched <= discrepancy at every level"
    )


def test_criterion_6_baire_run(baire_run):
    win, res, elapsed = baire_run
    low = np.array(win.window.low)
    for net, rep in zip(res.ladder.nets, res.reports):
        # every net cell matched: an earlier level may already have matched a
        # net cell as a partner, and greedy_step then adds no edge for it, so
        # added == net_size is not promised
        grid = res.matching.a_match if rep.side == "A" else res.matching.b_match
        rel = net.cells() - low
        assert (grid[tuple(rel.T)] >= 0).all(), rep
        assert rep.sparsity_ok
        assert rep.hall_ok
    sizes = [r.net_size for r in res.reports]
    assert sum(sizes) > 0
    assert elapsed < 600, f"baire run took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 6 PASS: greedy net run, radii (32,96,288), horizon 2r, "
        f"net sizes {sizes}, zero extendability failures, added-edge sparsity "
        f"exact, Hall feasibility on the core at every level, in {elapsed:.0f}s"
    )


def test_criterion_7_discrepancy_sanity():
    from eqdec.discrepancy import profile, summability_report
    from eqdec.lattice import CellSet

    R = Rect((0, 0), (128, 128))
    slopes = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = CellSet(R, rng.random((128, 128)) < 0.5)
        slopes.append(profile(X, 0.5, R, 6).fitted_exponent)
    mean_slope = float(np.mean(slopes))
    assert mean_slope == pytest.approx(1.0, abs=0.25)
    empty = profile(CellSet.empty(R), 0.5, R, 6)
    assert empty.fitted_exponent == pytest.approx(2.0, abs=1e-9)

    win = make_window(256)
    lines = []
    for name, cs in (("disk", win.a_bits), ("square", win.b_bits)):
        delta = float(cs.bits.mean())
        prof = profile(cs, delta, win.window, 6)
        assert prof.fitted_exponent < 2.0
        phi_sums, _ = summability_report(prof.max_dev, 2, 6)
        lines.append(f"{name}: alpha={prof.fitted_exponent:.2f} phi-partial-sums="
                     f"{[round(s, 2) for s in phi_sums]}")
    print(
        "\nACCEPTANCE 7 PASS: Bernoulli exponent "
        f"{mean_slope:.3f} in 1.0+-0.25; empty-set exponent exactly d; "
        + "; ".join(lines)
        + " (report-only)"
    )


def test_criterion_8_determinism_and_round_trip(tmp_path):
    t0 = time.time()
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = cli_main(
            [
                "square",
                "--window",
                "256",
                "--seed",
                str(SEED),
                "--ladder",
                "8,32",
                "--threads",
                str(threads),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out / "square.eqdc")
    blobs = [p.read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]

    ppm_hashes = []
    for p in outs:
        assert cli_main(["render", str(p), "--side", "a"]) == 0
        ppm_hashes.append(hashlib.sha256(p.with_suffix(".a.ppm").read_bytes()).hexdigest())
    assert len(set(ppm_hashes)) == 1

    from eqdec.io_render import load_run, save_run

    win, m, manifest = load_run(outs[0])
    resaved = tmp_path / "resaved.eqdc"
    save_run(
        resaved,
        win,
        m,
        reports=manifest["reports"],
        extra_config={k: v for k, v in manifest["config"].items() if k != "system"},
    )
    assert resaved.read_bytes() == blobs[0]

    # corrupted negatives: every section must be protected
    from eqdec.errors import LoadError

    detected = 0
    raw = blobs[0]
    for pos in (0, 9, 40, len(raw) // 2, len(raw) - 40):
        bad = bytearray(raw)
        bad[pos] ^= 0x55
        target = tmp_path / "bad.eqdc"
        target.write_bytes(bytes(bad))
        try:
            load_run(target)
        except LoadError:
            detected += 1
    assert detected == 5
    elapsed = time.time() - t0
    assert elapsed < 180
    print(
        f"\nACCEPTANCE 8 PASS: byte-identical EQDC and PPM across --threads "
        f"1/2/8, save-load round trip bit-exact, 5/5 corruptions detected, "
        f"in {elapsed:.0f}s"
    )
