"""Command-line front end: discrepancy audits, the two matching pipelines,
stored-run verification, rendering, and the property suites.

Exit codes: 0 success, 1 assertion/verification failure, 2 usage or config
error, 3 resource limit. All randomness flows from one seed through named
sub-streams, so identical configs give identical output bytes. --threads and
--out are execution-only: neither is written into any output, and computation
is sequential whatever --threads says.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
import zlib
from pathlib import Path

import numpy as np

from eqdec.errors import (
    ArgumentError,
    EstimateError,
    ExtendabilityError,
    LoadError,
    PrecisionError,
    ResourceError,
)
from eqdec.lattice import Rect
from eqdec.torus import (
    TorusPoint,
    boundary_dimension_estimate,
    sample_free_system,
    shape_from_json,
)
from eqdec.window import extract_window

__all__ = ["main", "sub_seed", "load_config"]


def sub_seed(seed: int, label: str) -> int:
    """Named deterministic sub-stream seed."""
    return int(
        np.random.SeedSequence([int(seed), zlib.crc32(label.encode())]).generate_state(1)[0]
    )


_INT_KEYS = (
    "seed", "window", "k", "d", "m_cap", "levels", "horizon_factor", "i_max",
    "candidate_cap", "net_cap", "samples", "threads",
)
# JSON type of every config key a command reads; (t,) is a list of t
_CONFIG_TYPES = {
    **dict.fromkeys(_INT_KEYS, int),
    **dict.fromkeys(("ladder", "radii"), (int,)),
    **dict.fromkeys(("eps_ladder", "base"), (float,)),
    **dict.fromkeys(("shape_a", "shape_b"), dict),
    **{"area": float, "check_invariants": bool, "out": str},
}
_TYPE_NAMES = {int: "integer", float: "number", dict: "object", bool: "boolean", str: "string"}


def _has_type(value, want) -> bool:
    """float admits ints; int and float refuse bools."""
    if isinstance(want, tuple):
        return isinstance(value, list) and all(_has_type(v, want[0]) for v in value)
    if isinstance(value, bool) and want is not bool:
        return False
    return isinstance(value, (int, float) if want is float else want)


def int_list(text: str) -> list:
    """argparse type of the comma-separated integer flags, e.g. --ladder 8,32,128."""
    return [int(x) for x in text.split(",")]


def load_config(args) -> dict:
    """The config file merged with the command-line flags, with every key a
    command reads checked for its JSON type (ArgumentError otherwise)."""
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ArgumentError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(cfg, dict):
            raise ArgumentError("config must be a JSON object")
    for key in (
        "seed", "window", "mcap", "levels", "horizon", "threads", "i_max", "ladder", "radii", "out"
    ):
        v = getattr(args, key, None)
        if v is not None:
            cfg[{"mcap": "m_cap", "horizon": "horizon_factor"}.get(key, key)] = v
    cfg.setdefault("seed", 7)
    cfg.setdefault("k", 2)
    cfg.setdefault("d", 2)
    cfg.setdefault("m_cap", 8)
    cfg.setdefault("out", "runs")
    for key, value in cfg.items():
        want = _CONFIG_TYPES.get(key)
        if want is None or _has_type(value, want):
            continue
        name = f"list of {_TYPE_NAMES[want[0]]}" if isinstance(want, tuple) else _TYPE_NAMES[want]
        raise ArgumentError(f"config key {key!r} must be a JSON {name}, got {value!r}")
    return cfg


def _default_shapes(cfg):
    area = float(cfg.get("area", 0.15))
    shape_a = cfg.get("shape_a") or {
        "type": "disk",
        "center": [0.5, 0.5],
        "radius": float(np.sqrt(area / np.pi)),
    }
    shape_b = cfg.get("shape_b") or {
        "type": "axis_square",
        "corner": [0.1, 0.55],
        "side": float(np.sqrt(area)),
    }
    return shape_from_json(shape_a), shape_from_json(shape_b), shape_a, shape_b


def _setup(cfg):
    seed = int(cfg["seed"])
    sys = sample_free_system(sub_seed(seed, "vectors"), cfg["k"], cfg["d"], cfg["m_cap"])
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"base")]))
    base = cfg.get("base")
    u = TorusPoint(base if base is not None else rng.random(cfg["k"]))
    L = int(cfg.get("window", 256))
    window = Rect((-L // 2,) * cfg["d"], (L,) * cfg["d"])
    shape_a, shape_b, ja, jb = _default_shapes(cfg)
    win = extract_window(shape_a, shape_b, sys, u, window)
    echo = dict(cfg)
    echo["shape_a"], echo["shape_b"] = ja, jb
    echo["base"] = list(u.coords)
    # execution-only knobs must not affect output bytes
    echo.pop("threads", None)
    echo.pop("out", None)
    return win, sys, u, echo


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_audit(args) -> int:
    from eqdec.discrepancy import UniformityBudget, profile, summability_report

    cfg = load_config(args)
    win, sys, u, echo = _setup(cfg)
    out = _outdir(cfg)
    i_max = int(cfg.get("i_max", 6))
    shape_a, shape_b, *_ = _default_shapes(cfg)
    result = {"config": echo}
    for name, cs, shape in (("a", win.a_bits, shape_a), ("b", win.b_bits, shape_b)):
        delta = float(cs.bits.mean())
        prof = profile(cs, delta, win.window, i_max)
        (out / f"audit_{name}.csv").write_text(prof.to_csv())
        budget = UniformityBudget(delta=max(delta, 1e-9), psi=[
            dev / (1 << i) for i, dev in enumerate(prof.max_dev)
        ])
        psi_sums, phi_sums, tail = summability_report(budget, cfg["d"], i_max)
        entry = {
            "delta": delta,
            "fitted_exponent": prof.fitted_exponent,
            "max_dev": list(prof.max_dev),
            "phi_partial_sums": list(phi_sums),
            "psi_partial_sums": list(psi_sums),
            "tail_decreasing": tail,
        }
        try:
            est = boundary_dimension_estimate(
                shape,
                cfg.get("eps_ladder", [0.04, 0.02, 0.01, 0.005, 0.0025]),
                int(cfg.get("samples", 200_000)),
                sub_seed(cfg["seed"], f"boxdim_{name}"),
            )
            entry["boundary_dimension"] = {
                "fitted": est.fitted_dimension,
                "std_error": est.std_error,
                "measures": list(est.neighborhood_measures),
            }
        except EstimateError as e:
            entry["boundary_dimension"] = {"error": str(e)}
        result[name] = entry
    (out / "audit.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    print(f"audit written to {out}/audit_[ab].csv and {out}/audit.json")
    return 0


def cmd_square(args) -> int:
    from eqdec.io_render import save_run
    from eqdec.lebesgue import build_schedule, run_pipeline

    cfg = load_config(args)
    cfg.setdefault("ladder", [8, 32, 128])
    win, sys, u, echo = _setup(cfg)
    out = _outdir(cfg)
    levels = int(cfg.get("levels", len(cfg["ladder"]) - 1))
    schedule = build_schedule(win, cfg["ladder"], levels)
    res = run_pipeline(
        win, schedule, levels, check_invariants=bool(cfg.get("check_invariants", False))
    )
    reports = [dataclasses.asdict(r) for r in res.reports]
    meta = {
        "margin_formula": res.margin_formula,
        "margin_core": res.margin_core,
        "seed_radii": list(schedule.seed_radii),
        "summability": schedule.summability,
    }
    save_run(
        out / "square.eqdc",
        win,
        res.matching,
        reports=reports,
        extra_config={**echo, "pipeline": "lebesgue", "meta": meta},
    )
    (out / "square_reports.json").write_text(
        json.dumps({"reports": reports, "meta": meta}, indent=2, sort_keys=True)
    )
    fracs = [r.unmatched_fraction for r in res.reports]
    print(f"square run done: unmatched fractions per level {fracs}")
    print(f"wrote {out}/square.eqdc and {out}/square_reports.json")
    return 0


def cmd_baire(args) -> int:
    from eqdec.baire import run_baire
    from eqdec.io_render import save_run

    cfg = load_config(args)
    cfg.setdefault("radii", [32, 96, 288])
    win, sys, u, echo = _setup(cfg)
    out = _outdir(cfg)
    ladder_seed = sub_seed(cfg["seed"], "nets")
    res = run_baire(
        win,
        cfg["radii"],
        ladder_seed,
        horizon_factor=int(cfg.get("horizon_factor", 2)),
        candidate_cap=int(cfg.get("candidate_cap", 64)),
        net_cap=int(cfg.get("net_cap", 16)),
    )
    for rep in res.reports:
        if not rep.condition_ok:
            print(
                f"warning: level {rep.level} radii violate the sparse-net growth "
                f"condition (partial sum {rep.condition_value:.3f} > {4.0**(1-win.d):.3f})"
            )
    reports = [dataclasses.asdict(r) for r in res.reports]
    save_run(
        out / "baire.eqdc",
        win,
        res.matching,
        reports=reports,
        extra_config={**echo, "pipeline": "baire", "margin": res.margin},
    )
    (out / "baire_reports.json").write_text(json.dumps(reports, indent=2, sort_keys=True))
    print(f"baire run done: {sum(r.added for r in res.reports)} net edges added")
    print(f"wrote {out}/baire.eqdc and {out}/baire_reports.json")
    # the files are written either way, so that a failed level can be inspected
    for rep in res.reports:
        checks = {"Hall audit": rep.hall_ok, "sparsity check": rep.sparsity_ok}
        failed = " and ".join(name for name, ok in checks.items() if not ok)
        if failed:
            print(f"assertion failure: level {rep.level}: {failed} failed", file=_sys.stderr)
            return 1
    return 0


def cmd_verify(args) -> int:
    from eqdec.io_render import load_run

    try:
        win, m, manifest = load_run(args.path)
        m.validate(win.a_bits.bits, win.b_bits.bits)
        sys_cfg = manifest["config"]
        if "shape_a" in sys_cfg:
            shape_a = shape_from_json(sys_cfg["shape_a"])
            shape_b = shape_from_json(sys_cfg.get("shape_b"))
            fresh = extract_window(shape_a, shape_b, win.sys, win.base, win.window)
            if not (
                np.array_equal(fresh.a_bits.bits, win.a_bits.bits)
                and np.array_equal(fresh.b_bits.bits, win.b_bits.bits)
            ):
                print("FAIL: stored bit grids do not match re-derived shape membership")
                return 1
    except (LoadError, ArgumentError) as e:
        print(f"FAIL: {e}")
        return 1
    print(f"PASS: {args.path} (size {m.size()} matching, all invariants hold)")
    return 0


def cmd_render(args) -> int:
    from eqdec.io_render import load_run, render_pieces

    win, m, _manifest = load_run(args.path)
    data = render_pieces(win, m, side=args.side, scale=args.scale)
    dest = Path(args.dest or (Path(args.path).with_suffix(f".{args.side}.ppm")))
    dest.write_bytes(data)
    print(f"wrote {dest}")
    return 0


def cmd_lemma_tests(args) -> int:
    from eqdec.suites import SUITES, run_suite

    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ArgumentError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    seed = args.seed if args.seed is not None else 7
    failures = 0
    for name in names:
        ok, details = run_suite(name, int(seed))
        print(f"{'PASS' if ok else 'FAIL'}: {name} {details}")
        failures += not ok
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eqdec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="master seed (default 7)")
        sp.add_argument(
            "--threads", type=int, help="execution-only; never written into any output"
        )
        sp.add_argument(
            "--out", help="output directory (default runs/); never written into any output"
        )
        sp.add_argument("--window", type=int, help="window side length")
        sp.add_argument("--mcap", type=int, help="translation radius M")

    sp = sub.add_parser("audit", help="discrepancy profiles + boundary dimension")
    common(sp)
    sp.add_argument("--i-max", dest="i_max", type=int, help="largest scale exponent")
    sp.set_defaults(func=cmd_audit)

    sp = sub.add_parser("square", help="multiscale matching pipeline")
    common(sp)
    sp.add_argument("--ladder", type=int_list, help="comma-separated cube sizes, e.g. 8,32,128")
    sp.add_argument("--levels", type=int, help="levels to execute")
    sp.set_defaults(func=cmd_square)

    sp = sub.add_parser("baire", help="greedy sparse-net pipeline")
    common(sp)
    sp.add_argument("--radii", type=int_list, help="comma-separated net radii, e.g. 32,96,288")
    sp.add_argument("--horizon", type=int, help="horizon = factor * radius (default 2)")
    sp.set_defaults(func=cmd_baire)

    sp = sub.add_parser("verify", help="re-check a stored run's invariants")
    sp.add_argument("path")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("render", help="render a stored run's piece map to PPM")
    sp.add_argument("path")
    sp.add_argument("--side", choices=["a", "b"], default="a")
    sp.add_argument("--scale", type=int, default=1)
    sp.add_argument("--dest")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("lemma-tests", help="run the property suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_lemma_tests)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except (ArgumentError, PrecisionError, LoadError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except ResourceError as e:
        print(f"resource error: {e}", file=_sys.stderr)
        return 3
    except (AssertionError, ExtendabilityError) as e:
        print(f"assertion failure: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
