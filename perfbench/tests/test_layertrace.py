"""Self-tests of the benchmark and its outside-in tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q -s
The workload tests run each workload once untraced and once traced (about
two minutes in all on two cores) and print the tracing overhead.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from eqdec import baire, lebesgue, matching  # noqa: E402

SEED = 7

COMMON = (
    "window.extract",
    "io_render.save",
    "io_render.load",
    "lattice.dilate",
    "torus.offsets",
    "matching.augment_phase",
    "matching.bfs",
    "matching.walk_back",
    "matching.greedy_pass",
)
SQUARE = tuple(
    f"lebesgue.{n}"
    for n in ("schedule", "voronoi", "grid_domain", "init", "prune", "rematch", "refine", "report")
)
BAIRE = (
    "baire.nets",
    "baire.warm_cover",
    "baire.context",
    "baire.check",
    "baire.hall",
    "matching.cover_side",
    "matching.ladder_max",
    "matching.hierarchy",
)
# Layers each workload must call, per the layer -> end-to-end map in README.md.
EXPECTED = {
    "square_flagship": COMMON + SQUARE,
    "square_fine": COMMON + SQUARE,
    "baire_shallow": COMMON + BAIRE,
    "baire_deep": COMMON + BAIRE,
}


def test_wrapping_patches_every_importing_namespace():
    orig = matching.augment_phase
    orig_check = baire._OracleContext.__dict__["check"]
    assert lebesgue.augment_phase is orig and baire.augment_phase is orig
    with layertrace.Tracer().installed():
        traced = matching.augment_phase
        assert traced is not orig and traced.__wrapped__ is orig
        assert lebesgue.augment_phase is traced and baire.augment_phase is traced
        assert baire._OracleContext.__dict__["check"].__wrapped__ is orig_check
    assert matching.augment_phase is orig and lebesgue.augment_phase is orig
    assert baire._OracleContext.__dict__["check"] is orig_check


def test_spans_split_total_into_self_and_children():
    rng = np.random.default_rng(0)
    a = rng.random((48, 48)) < 0.4
    b = rng.random((48, 48)) < 0.4
    am = np.full(a.shape, -1, dtype=np.int32)
    bm = np.full(a.shape, -1, dtype=np.int32)
    tracer = layertrace.Tracer()
    with tracer.installed():
        matching.augment_to_max(a, b, am, bm, 2)
    calls, total, self_s = tracer.spans["matching.augment_phase"]
    bfs_calls, bfs_total, _ = tracer.spans["matching.bfs"]
    assert calls >= 1 and bfs_calls == calls
    assert 0 < self_s < total and bfs_total <= total - self_s + 1e-9
    rep = workloads.Repetition(total, 0, None, "", 0, {}, [])
    out = tracer.metrics(rep)
    assert out["matching.phases"] == calls
    assert out["matching.flips"] == int((am >= 0).sum())
    assert 0 < out["matching.empty_phase_ratio"] <= 1


def test_benchmark_json_lists_what_the_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(x) for x in layertrace.per_layer_catalogue()
    ]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert set(EXPECTED) == set(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def traced_pairs(tmp_path_factory):
    """Per workload: (untraced repetition, traced repetition, its tracer)."""
    out = {}
    for name, w in workloads.WORKLOADS.items():
        path = tmp_path_factory.mktemp(name) / "run.eqdc"
        plain = workloads.run_once(w, SEED, path)
        tracer = layertrace.Tracer()
        with tracer.installed():
            traced = workloads.run_once(w, SEED, path)
        out[name] = (plain, traced, tracer)
    return out


@pytest.mark.parametrize("name", list(EXPECTED))
def test_traced_run_matches_untraced_and_calls_its_layers(traced_pairs, name):
    plain, traced, tracer = traced_pairs[name]
    assert not plain.problems and not traced.problems
    assert traced.digest == plain.digest
    idle = [span for span in EXPECTED[name] if tracer.spans[span][0] == 0]
    assert not idle, f"{name}: no calls recorded for {idle}"
    overhead = traced.solve_s - plain.solve_s
    print(
        f"\n{name}: solve_s untraced {plain.solve_s:.3f} s, traced {traced.solve_s:.3f} s, "
        f"tracing overhead {overhead:+.3f} s ({overhead / plain.solve_s:+.1%})"
    )


def test_layer_split_as_predicted(traced_pairs):
    def share(name, span):
        _plain, traced, tracer = traced_pairs[name]
        return tracer.spans[span][1] / traced.solve_s

    assert share("square_fine", "lebesgue.grid_domain") > 0.5
    assert share("square_flagship", "lebesgue.grid_domain") < 0.05
    assert share("baire_shallow", "baire.warm_cover") > 0.5
    assert share("baire_deep", "baire.warm_cover") > 0.5
    calls = {n: traced_pairs[n][2].spans["matching.cover_side"][0] for n in ("baire_shallow", "baire_deep")}
    assert calls["baire_deep"] > calls["baire_shallow"]
