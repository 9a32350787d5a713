"""Outside-in tracing: wrap the library's module-level callables, layer by layer.

Nothing under ``src/`` knows about this. ``Tracer.installed()`` replaces each
listed callable by a timing wrapper in every module namespace that holds it
(``lebesgue`` and ``baire`` import ``augment_phase`` from ``matching``, for
example) and restores the originals on exit. Each span keeps its call count,
total time and self time: the total minus the time of traced calls made inside
it. None of the wrapped callables calls itself, so no total counts a span
inside itself. Some spans also update work counters from their arguments or
results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np


def _grid_domain_counts(counts, args, kwargs, result):
    _seeds, _n_cube, voronoi, rect = args[:4]
    seeds = len(voronoi[1])
    counts["lebesgue.seeds"] += seeds
    counts["lebesgue.grid_domain_cells"] += seeds * rect.volume()


def _augment_counts(counts, args, kwargs, flips):
    counts["matching.flips"] += flips
    counts["matching.empty_phases"] += flips == 0


def _bfs_counts(counts, args, kwargs, result):
    layer_a, layer_b = result[0], result[1]
    counts["matching.bfs_cells"] += int(np.count_nonzero(layer_a >= 0)) + int(
        np.count_nonzero(layer_b >= 0)
    )


def _walk_back_counts(counts, args, kwargs, nodes):
    counts["matching.walk_backs_blocked"] += nodes is None


def _cover_counts(counts, args, kwargs, result):
    counts["matching.cover_cells"] += args[0].size


def _check_counts(counts, args, kwargs, ok):
    counts["baire.checks_accepted"] += ok is True


# (span name, module, attribute or Class.method, counter hook)
LAYERS = (
    ("window.extract", "eqdec.window", "extract_window", None),
    ("lebesgue.schedule", "eqdec.lebesgue", "build_schedule", None),
    ("lebesgue.voronoi", "eqdec.lebesgue", "integer_voronoi", None),
    ("lebesgue.grid_domain", "eqdec.lebesgue", "grid_domain", _grid_domain_counts),
    ("lebesgue.init", "eqdec.lebesgue", "init_m0", None),
    ("lebesgue.prune", "eqdec.lebesgue", "prune_cross_cube", None),
    ("lebesgue.rematch", "eqdec.lebesgue", "rematch_dirty_cubes", None),
    ("lebesgue.refine", "eqdec.lebesgue", "_refine_all", None),
    ("lebesgue.report", "eqdec.lebesgue", "_report", None),
    ("matching.augment_phase", "eqdec.matching", "augment_phase", _augment_counts),
    ("matching.bfs", "eqdec.matching", "_layered_bfs", _bfs_counts),
    ("matching.walk_back", "eqdec.matching", "_walk_back", _walk_back_counts),
    ("matching.greedy_pass", "eqdec.matching", "greedy_offset_pass", None),
    ("matching.cover_side", "eqdec.matching", "cover_side", _cover_counts),
    ("matching.ladder_max", "eqdec.matching", "ladder_max_matching", None),
    ("matching.hierarchy", "eqdec.matching", "hierarchy_augment", None),
    ("baire.nets", "eqdec.baire", "build_nets", None),
    ("baire.warm_cover", "eqdec.baire", "_GlobalCover.refresh", None),
    ("baire.context", "eqdec.baire", "_OracleContext.__init__", None),
    ("baire.check", "eqdec.baire", "_OracleContext.check", _check_counts),
    ("baire.hall", "eqdec.baire", "hall_deficiency", None),
    ("lattice.dilate", "eqdec.lattice", "dilate", None),
    ("torus.offsets", "eqdec.torus", "offsets_row_major", None),
    ("io_render.save", "eqdec.io_render", "save_run", None),
    ("io_render.load", "eqdec.io_render", "load_run", None),
)

# Counts read off span call counts: metric name -> span name.
CALL_COUNTS = {
    "matching.phases": "matching.augment_phase",
    "matching.walk_backs": "matching.walk_back",
    "matching.cover_side_calls": "matching.cover_side",
    "baire.contexts": "baire.context",
    "baire.checks": "baire.check",
    "lattice.dilate_calls": "lattice.dilate",
    "torus.offsets_calls": "torus.offsets",
}

# Ratios of outcomes to attempts: metric -> (numerator counter, base count, better).
RATIOS = {
    "matching.empty_phase_ratio": ("matching.empty_phases", "matching.phases", "lower"),
    "matching.walk_back_blocked_ratio": (
        "matching.walk_backs_blocked",
        "matching.walk_backs",
        "lower",
    ),
    "baire.check_accept_ratio": ("baire.checks_accepted", "baire.checks", "higher"),
}

COUNTERS = (
    "lebesgue.seeds",
    "lebesgue.grid_domain_cells",
    "matching.flips",
    "matching.empty_phases",
    "matching.bfs_cells",
    "matching.walk_backs_blocked",
    "matching.cover_cells",
    "baire.checks_accepted",
)


def per_layer_catalogue():
    """Every per-layer metric as (name, unit, better)."""
    out = [
        ("trace.solve_s", "s", "lower"),
        ("io_render.eqdc_bytes", "bytes", "lower"),
        ("lebesgue.unmatched_core_frac", "ratio", "lower"),
    ]
    for name, *_ in LAYERS:
        out += [(f"{name}_s", "s", "lower"), (f"{name}_self_s", "s", "lower")]
    out += [(n, "count", "lower") for n in CALL_COUNTS]
    out += [(n, "count", "lower") for n in COUNTERS]
    out += [(n, "ratio", better) for n, (_num, _base, better) in RATIOS.items()]
    return out


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}  # calls, total, self
        self.counts = Counter()
        self._stack = []  # child time accumulated by each open span

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._stack.pop()
                rec = tracer.spans[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if tracer._stack:
                    tracer._stack[-1] += dt
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every listed callable everywhere it is bound; undo on exit."""
        undo = []
        try:
            for name, modname, attr, hook in LAYERS:
                mod = importlib.import_module(modname)
                cls_name, _, leaf = attr.rpartition(".")
                if cls_name:
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[leaf]
                    undo.append((cls, leaf, orig))
                    setattr(cls, leaf, self._wrap(name, orig, hook))
                    continue
                orig = getattr(mod, leaf)
                traced = self._wrap(name, orig, hook)
                for holder in list(sys.modules.values()):
                    names = getattr(holder, "__dict__", {})
                    for key, value in list(names.items()):
                        if value is orig:
                            undo.append((holder, key, orig))
                            setattr(holder, key, traced)
            yield self
        finally:
            for holder, key, orig in reversed(undo):
                setattr(holder, key, orig)

    def metrics(self, rep) -> dict:
        """Per-layer values of one traced repetition: its spans and counts
        since the last reset, plus what the repetition itself measured."""
        out = {
            "trace.solve_s": rep.solve_s,
            "io_render.eqdc_bytes": rep.eqdc_bytes,
            "lebesgue.unmatched_core_frac": rep.unmatched_core_frac or 0.0,
        }
        for name, (_calls, total, self_s) in self.spans.items():
            out[f"{name}_s"] = total
            out[f"{name}_self_s"] = self_s
        for metric, span in CALL_COUNTS.items():
            out[metric] = self.spans[span][0]
        for metric in COUNTERS:
            out[metric] = int(self.counts[metric])
        for metric, (num, base, _better) in RATIOS.items():
            out[metric] = out[num] / out[base] if out[base] else 0.0
        return out
