"""eqdec benchmark: one workload, repeated for a fixed time, outputs checked.

Usage (from the repository root):
    python3 perfbench/run.py --workload square_flagship --seed 7 --seconds 18 --trace 0

Imports eqdec from ``src/`` next to this directory; no install is needed.
Set-up is timed in fresh interpreters (``setup_probe.py``), then the workload
runs single-threaded in this process, one repetition after another, until
``--seconds`` have passed (at least one repetition). Each repetition builds a
fresh window, solves it, writes and reads back the EQDC file and checks the
outputs. The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from the outside-in tracer with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("matching_size", "count"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(workload: str, seed: int) -> list:
    """Seconds to import eqdec and build the input, once per fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def describe(i: int, rep) -> str:
    load = ", ".join(f"{k} {v}" for k, v in rep.load.items())
    status = "ok" if not rep.problems else "FAILED: " + "; ".join(rep.problems)
    quality = (
        "" if rep.unmatched_core_frac is None else f"unmatched_core_frac {rep.unmatched_core_frac:.6g}, "
    )
    return (
        f"rep {i}: solve {rep.solve_s:.3f} s, matching {rep.matching_size}, {quality}"
        f"sha256 {rep.digest[:16]}, {load}: {status}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM too, so the temporary directory and any probe go away
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in THREAD_VARS:  # before numpy loads, here and in the set-up probes
        os.environ[var] = "1"
    if not (ROOT / "src" / "eqdec" / "__init__.py").is_file():
        print(f"perfbench: no eqdec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layertrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    setup = time_setup(w.name, args.seed)

    tracer = layertrace.Tracer()
    reps, layers = [], []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out_path = Path(tmp) / f"{w.name}.eqdc"
        with tracer.installed() if args.trace else contextlib.nullcontext():
            start = time.perf_counter()
            while not reps or time.perf_counter() - start < args.seconds:
                tracer.reset()
                rep = workloads.run_once(w, args.seed, out_path)
                if reps and rep.digest != reps[0].digest:
                    rep.problems.append("EQDC digest differs from the first repetition")
                reps.append(rep)
                line = describe(len(reps), rep)
                if args.trace:
                    layers.append(tracer.metrics(rep))
                    line += "".join(
                        f", {k} {layers[-1][k]}" for k in ("matching.phases", "matching.bfs_cells")
                    )
                print(line, flush=True)

    failed = sum(bool(r.problems) for r in reps)
    print(
        f"{w.name} seed {args.seed}: {len(reps)} repetitions, fail_frac {failed}/{len(reps)}, "
        f"setup probes {[round(t, 3) for t in setup]}"
    )
    if args.trace:
        metrics = {
            name: {"value": statistics.median(rec[name] for rec in layers), "unit": unit}
            for name, unit, _better in layertrace.per_layer_catalogue()
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(r.solve_s for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "matching_size": statistics.median(r.matching_size for r in reps),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
