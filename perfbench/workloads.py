"""The benchmark's workloads: inputs from a seed, one pipeline run, and the
checks every output must pass.

Every workload runs the disk against the axis-square (area 0.15 each, d=2,
M=8) on the free vector system and base point that ``eqdec --seed 7`` derives.
The benchmark seed varies one part of that input, chosen so that the load
stays close to the seed-7 load:

- square workloads: the window moves along the coset by a lattice shift of at
  most 1/16 of the window side;
- baire workloads: the window stays, and the nets are drawn from the seed's
  ``nets`` stream as ``eqdec baire --seed`` draws them. Moving the window
  instead changes the alignment of the warm cover's cube tilings, and that
  moves its BFS work by up to 1.6x between windows.

Drawing a fresh vector system per seed, as the CLI's ``--seed`` does, changes
the load twofold (1024^2 flagship: 11 s at seed 7, 22 s at seed 8), which
would drown any change worth measuring.

Pipeline entry points are called through their modules, so that the tracer's
patches in ``layertrace.py`` see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import zlib
from pathlib import Path

import numpy as np

from eqdec import baire, io_render, lebesgue, window
from eqdec.cli import sub_seed
from eqdec.errors import ArgumentError, ExtendabilityError, LoadError
from eqdec.lattice import Rect
from eqdec.torus import TorusPoint, coset_point, sample_free_system, shape_from_json

CLI_SEED = 7
AREA = 0.15
K, D, M_CAP = 2, 2, 8
HORIZON_FACTOR = 2
CANDIDATE_CAP = 256
NET_CAP = 12

# Errors by which the library reports a failed run or a bad output; any other
# exception is a defect of the benchmark or the library and ends the run.
RUN_FAILURES = (ArgumentError, AssertionError, ExtendabilityError, LoadError)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pipeline: str  # "square" or "baire"
    side: int
    ladder: tuple = ()
    levels: int = 0
    radii: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "square_flagship",
            "1024^2 ladder 8/32/128: the matching engine dominates (augment phases, greedy pass); grid domains are cheap",
            "square",
            1024,
            ladder=(8, 32, 128),
            levels=2,
        ),
        Workload(
            "square_fine",
            "512^2 ladder 2/4/8/16: grid_domain over thousands of seeds dominates and the engine is cheap, the converse of the flagship",
            "square",
            512,
            ladder=(2, 4, 8, 16),
            levels=1,
        ),
        Workload(
            "baire_shallow",
            "1024^2 radii 16/48: the window-wide warm cover dominates; horizon balls are small",
            "baire",
            1024,
            radii=(16, 48),
        ),
        Workload(
            "baire_deep",
            "1024^2 radii 16/48/144: a third level adds 593^2 horizon regions whose cold cover_side calls the warm start saves",
            "baire",
            1024,
            radii=(16, 48, 144),
        ),
    )
}


def shape_json():
    disk = {"type": "disk", "center": [0.5, 0.5], "radius": float(np.sqrt(AREA / np.pi))}
    square = {"type": "axis_square", "corner": [0.1, 0.55], "side": float(np.sqrt(AREA))}
    return disk, square


def window_shift(w: Workload, seed: int) -> np.ndarray:
    if w.pipeline == "baire":
        return np.zeros(D, dtype=np.int64)
    reach = w.side // 16
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), zlib.crc32(b"shift")]))
    return rng.integers(-reach, reach + 1, size=D)


def make_input(w: Workload, seed: int):
    """A fresh window for (workload, seed) plus the config echoed into its EQDC file.

    The pipelines set ``win.buffer`` on the window they are given, so every
    repetition needs its own.
    """
    system = sample_free_system(sub_seed(CLI_SEED, "vectors"), K, D, M_CAP)
    rng = np.random.default_rng(np.random.SeedSequence([CLI_SEED, zlib.crc32(b"base")]))
    shift = window_shift(w, seed)
    base = coset_point(TorusPoint(rng.random(K)), shift, system)
    disk, square = shape_json()
    rect = Rect((-w.side // 2,) * D, (w.side,) * D)
    win = window.extract_window(shape_from_json(disk), shape_from_json(square), system, base, rect)
    config = {
        "workload": w.name,
        "pipeline": w.pipeline,
        "seed": int(seed),
        "shift": [int(x) for x in shift],
        "shape_a": disk,
        "shape_b": square,
        "window": w.side,
    }
    if w.pipeline == "square":
        config.update(ladder=list(w.ladder), levels=w.levels)
    else:
        config.update(
            nets_seed=sub_seed(seed, "nets"),
            radii=list(w.radii),
            horizon_factor=HORIZON_FACTOR,
            candidate_cap=CANDIDATE_CAP,
            net_cap=NET_CAP,
        )
    return win, config


def solve(w: Workload, win, seed: int):
    """Window to final matching: build_schedule + run_pipeline, or run_baire."""
    if w.pipeline == "square":
        schedule = lebesgue.build_schedule(win, w.ladder, w.levels)
        return lebesgue.run_pipeline(win, schedule, w.levels)
    return baire.run_baire(
        win,
        w.radii,
        sub_seed(seed, "nets"),
        horizon_factor=HORIZON_FACTOR,
        candidate_cap=CANDIDATE_CAP,
        net_cap=NET_CAP,
    )


def report_problems(w: Workload, win, res) -> list:
    """Per-level properties that must hold on a correct run.

    Baire levels must leave every net cell matched. That is not the same as
    ``added == net_size``: a net cell may already be matched as the partner
    chosen for an earlier level's net cell, and ``greedy_step`` then skips it
    (seed 10 of ``baire_shallow``: 11 added and 1 already matched at level 2).
    """
    problems = []
    for i, r in enumerate(res.reports):
        if w.pipeline == "square":
            if r.two_sided_cubes:
                problems.append(f"level {r.level}: {r.two_sided_cubes} two-sided cubes")
            if r.unmatched_exceeds_discrepancy:
                problems.append(
                    f"level {r.level}: {r.unmatched_exceeds_discrepancy} cubes with "
                    "unmatched cells beyond their discrepancy"
                )
        else:
            grid = res.matching.a_match if r.side == "A" else res.matching.b_match
            cells = res.ladder.nets[i].cells() - np.array(win.window.low)
            unmatched = int((grid[tuple(cells.T)] < 0).sum())
            if unmatched:
                problems.append(f"level {r.level}: {unmatched} of {r.net_size} net cells unmatched")
            if not r.sparsity_ok:
                problems.append(f"level {r.level}: added edges not sparse")
            if r.hall_ok is not True:
                problems.append(f"level {r.level}: Hall audit failed")
    return problems


def load_counts(w: Workload, win, res) -> dict:
    """Input-dependent load that comes for free with the result."""
    counts = {"window_cells": win.window.volume()}
    if w.pipeline == "square":
        counts["seeds_per_level"] = [s.size() for s in res.schedule.seeds]
    else:
        counts["net_sizes"] = [n.size() for n in res.ladder.nets]
    return counts


@dataclasses.dataclass
class Repetition:
    solve_s: float
    matching_size: int
    unmatched_core_frac: float | None  # square pipeline only
    digest: str
    eqdc_bytes: int
    load: dict
    problems: list


def run_once(w: Workload, seed: int, out_path: Path) -> Repetition:
    """Fresh window, timed solve, EQDC save and load, and every output check."""
    win, config = make_input(w, seed)
    t0 = time.perf_counter()
    try:
        res = solve(w, win, seed)
    except RUN_FAILURES as e:
        return Repetition(time.perf_counter() - t0, 0, None, "", 0, {}, [f"solve: {e}"])
    solve_s = time.perf_counter() - t0
    m = res.matching
    problems = report_problems(w, win, res)
    try:
        m.validate(win.a_bits.bits, win.b_bits.bits)
    except ArgumentError as e:
        problems.append(f"validate: {e}")
    reports = [dataclasses.asdict(r) for r in res.reports]
    digest, size = "", 0
    try:
        io_render.save_run(out_path, win, m, reports=reports, extra_config=config)
        data = out_path.read_bytes()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
        win2, m2, _ = io_render.load_run(out_path)
        same = all(
            np.array_equal(x, y)
            for x, y in (
                (win.a_bits.bits, win2.a_bits.bits),
                (win.b_bits.bits, win2.b_bits.bits),
                (m.a_match, m2.a_match),
                (m.b_match, m2.b_match),
            )
        )
        if not same:
            problems.append("EQDC round trip returned different grids")
    except RUN_FAILURES as e:
        problems.append(f"EQDC round trip: {e}")
    return Repetition(
        solve_s=solve_s,
        matching_size=m.size(),
        unmatched_core_frac=(
            float(res.reports[-1].unmatched_fraction) if w.pipeline == "square" else None
        ),
        digest=digest,
        eqdc_bytes=size,
        load=load_counts(w, win, res),
        problems=problems,
    )
