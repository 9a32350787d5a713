import importlib
import json
import os
import pkgutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eqdec
from eqdec import baire
from eqdec.baire import build_nets
from eqdec.cli import main, sub_seed
from eqdec.io_render import DIGEST_BYTES, MAGIC, load_run
from eqdec.matching import HallCertificate
from test_io_render import LOW_AT, reseal


def run_cli(*args):
    return main([str(a) for a in args])


def test_audit_writes_csv_and_is_deterministic(tmp_path):
    out = tmp_path / "audit"
    code = run_cli("audit", "--window", 64, "--seed", 5, "--out", out, "--i-max", 4)
    assert code == 0
    csv_a = (out / "audit_a.csv").read_text()
    assert len(csv_a.splitlines()) == 1 + 5  # header plus i_max+1 rows
    out2 = tmp_path / "audit2"
    assert run_cli("audit", "--window", 64, "--seed", 5, "--out", out2, "--i-max", 4) == 0
    assert (out2 / "audit_a.csv").read_text() == csv_a
    # --out is execution-only: the JSON report must not depend on it
    assert (out2 / "audit.json").read_bytes() == (out / "audit.json").read_bytes()
    assert json.loads((out / "audit.json").read_text())["a"]["delta"] > 0


def test_unknown_suite_exits_2():
    assert run_cli("lemma-tests", "--suite", "nope") == 2


def test_square_and_verify_and_render(tmp_path):
    out = tmp_path / "sq"
    code = run_cli(
        "square", "--window", 128, "--seed", 5, "--out", out, "--ladder", "8,16",
        "--threads", 2,
    )
    assert code == 0
    eqdc = out / "square.eqdc"
    assert eqdc.exists()
    config = load_run(eqdc)[2]["config"]
    assert "out" not in config and "threads" not in config  # execution-only
    reports = json.loads((out / "square_reports.json").read_text())
    assert len(reports["reports"]) == 2
    assert run_cli("verify", eqdc) == 0
    assert run_cli("render", eqdc, "--side", "a", "--scale", 1) == 0
    assert eqdc.with_suffix(".a.ppm").exists()
    # corrupting the file makes verify fail with exit 1
    raw = bytearray(eqdc.read_bytes())
    raw[300] ^= 0x40
    bad = out / "bad.eqdc"
    bad.write_bytes(bytes(raw))
    assert run_cli("verify", bad) == 1


def _cli_process(*args):
    """Run the CLI in a fresh interpreter, so an uncaught error shows its traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(eqdec.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "eqdec.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


MALFORMED_CONFIGS = {
    "not-json": ("audit", "{not json"),
    "window": ("audit", '{"window": "abc"}'),
    "seed": ("audit", '{"seed": "x"}'),
    "k": ("audit", '{"k": "2"}'),
    "i_max": ("audit", '{"i_max": "z"}'),
    "shape-key": ("audit", '{"shape_a": {"type": "disk"}}'),
    "ladder-string": ("audit", '{"ladder": "8"}'),
    "radii-empty": ("baire", '{"radii": []}'),
    "radii-zero": ("baire", '{"window": 256, "radii": [0, 8]}'),
    "levels-negative": ("square", '{"window": 256, "ladder": [4, 8, 16], "levels": -1}'),
    # np.sqrt warned twice, with source lines, before the error line
    "area-negative": ("square", '{"window": 64, "area": -1}'),
    # a boundary dimension fitted through fewer than two scales
    "eps-ladder-empty": ("audit", '{"window": 64, "eps_ladder": []}'),
    "eps-ladder-one": ("audit", '{"window": 64, "eps_ladder": [0.1]}'),
}


@pytest.mark.parametrize(
    "command, text", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys()
)
def test_malformed_config_exits_2(tmp_path, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    proc = _cli_process(command, "--config", bad, "--out", tmp_path)
    assert proc.returncode == 2 and "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == "" and len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert not list(tmp_path.glob("audit*"))  # no partial output


def test_pipeline_runs_load_no_scipy(tmp_path):
    # a cold start pays for every import: the modules a pipeline run needs,
    # and both pipelines themselves, use numpy only
    script = f"""
import sys
import eqdec.baire, eqdec.cli, eqdec.io_render, eqdec.lebesgue, eqdec.suites
codes = [
    eqdec.cli.main(["square", "--window", "64", "--ladder", "8", "--out", {str(tmp_path)!r}]),
    eqdec.cli.main(["baire", "--window", "96", "--radii", "6", "--out", {str(tmp_path)!r}]),
]
print(codes, sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(eqdec.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


# negative integers that used to reach numpy or an index deep in a run
NEGATIVE_INTEGERS = {
    "square-seed": ("square", {"window": 64, "seed": -1}),
    "baire-seed": ("baire", {"window": 64, "seed": -1}),
    "audit-seed": ("audit", {"window": 64, "seed": -1}),
    "baire-horizon": ("baire", {"window": 128, "radii": [4], "horizon_factor": -1}),
    "audit-i_max": ("audit", {"window": 64, "i_max": -1}),
    "lemma-tests-seed": ("lemma-tests", None),
}


@pytest.mark.parametrize(
    "command, config", NEGATIVE_INTEGERS.values(), ids=NEGATIVE_INTEGERS.keys()
)
def test_negative_integer_exits_2_with_one_line(tmp_path, command, config):
    if config is None:
        proc = _cli_process(command, "--seed", -1)
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        proc = _cli_process(command, "--config", path, "--out", tmp_path)
    assert proc.returncode == 2 and "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert proc.stdout == "" and len(lines) == 1
    assert lines[0].startswith("error: ") and "must be at least 0" in lines[0]


# torus points whose length disagrees with k: numpy broadcast these into a
# traceback (exit 1) or a silently wrong run (exit 0)
LENGTH_MISMATCHES = {
    "k3-default-shapes": ("square", {"k": 3}),
    "base-short": ("square", {"base": [0.1]}),
    "base-long": ("square", {"base": [0.1, 0.2, 0.3]}),
    "disk-center": ("square", {"shape_a": {"type": "disk", "center": [0.5], "radius": 0.2}}),
    "k1-default-shapes": ("baire", {"k": 1, "window": 128, "radii": [4]}),
    "polygon-vertex": ("audit", {
        "shape_b": {"type": "polygon", "vertices": [[0.1, 0.1, 0.1], [0.3, 0.1, 0.1], [0.2, 0.3, 0.1]]},
    }),
}


@pytest.mark.parametrize(
    "command, config", LENGTH_MISMATCHES.values(), ids=LENGTH_MISMATCHES.keys()
)
def test_length_against_k_exits_2_with_one_line(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"window": 64, "m_cap": 2, "ladder": [2, 4], **config}))
    proc = _cli_process(command, "--config", path, "--out", tmp_path)
    assert proc.returncode == 2 and "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert proc.stdout == "" and len(lines) == 1 and lines[0].startswith("error: ")
    assert "coordinates" in lines[0]


@pytest.mark.parametrize("command, code, stream", [("verify", 1, "stdout"), ("render", 2, "stderr")])
def test_missing_run_file_is_one_line_error(tmp_path, command, code, stream):
    proc = _cli_process(command, tmp_path / "missing.eqdc")
    assert proc.returncode == code
    text = proc.stdout + proc.stderr
    assert "Traceback" not in text
    assert len(text.splitlines()) == 1
    line = getattr(proc, stream)
    assert line.startswith("FAIL: " if command == "verify" else "error: ")
    assert "missing.eqdc" in line


# each tamper and the start of the FAIL line it must give; the first three
# recompute the digest, so that the check behind it sees the edit
TAMPERS = {
    "no-system": "FAIL: manifest system config malformed",
    "header-m7": "FAIL: header (d, k, M)",
    "shape-key": "FAIL: disk shape lacks the key",
    "header-low": "FAIL: hash mismatch",
    "report": "FAIL: hash mismatch",
}


@pytest.mark.parametrize("tamper, expect", TAMPERS.items(), ids=TAMPERS.keys())
def test_verify_malformed_run_is_one_line_fail(tmp_path, tamper, expect):
    out = tmp_path / "sq"
    assert run_cli("square", "--window", 64, "--seed", 3, "--out", out, "--ladder", "8") == 0
    raw = (out / "square.eqdc").read_bytes()
    if tamper == "header-m7":
        raw = reseal(raw[:16] + struct.pack("<I", 7) + raw[20:])
    elif tamper == "header-low":
        raw = raw[:LOW_AT] + struct.pack("<q", 5) + raw[LOW_AT + 8 :]
    elif tamper == "report":
        old = b'"unmatched_fraction":'
        at = raw.index(old) + len(old)
        raw = raw[:at] + b"0.0" + raw[raw.index(b",", at) :]
    else:
        pos = raw.rindex(b'{"config":')
        manifest = json.loads(raw[pos:-DIGEST_BYTES])
        if tamper == "no-system":
            del manifest["config"]["system"]
        else:
            del manifest["config"]["shape_a"]["radius"]
        raw = reseal(raw[:pos] + json.dumps(manifest).encode() + raw[-DIGEST_BYTES:])
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(raw)
    proc = _cli_process("verify", bad)
    assert proc.returncode == 1
    text = proc.stdout + proc.stderr
    assert "Traceback" not in text
    assert len(text.splitlines()) == 1 and proc.stdout.startswith(expect)


def test_verify_catches_double_matched_cell(tmp_path, capsys):
    out = tmp_path / "sq"
    assert run_cli("square", "--window", 64, "--seed", 3, "--out", out, "--ladder", "8") == 0
    raw = (out / "square.eqdc").read_bytes()
    # the piece grid follows magic, d/k/M/flags, low and sides, and two bit grids
    d, _k, m_cap, _flags = struct.unpack_from("<IIII", raw, len(MAGIC))
    sides = struct.unpack_from(f"<{d}q", raw, len(MAGIC) + 16 + 8 * d)
    base = len(MAGIC) + 16 + 16 * d + 2 * sides[0] * ((sides[1] + 7) // 8)
    end = base + 2 * sides[0] * sides[1]
    pieces = np.frombuffer(raw[base:end], dtype="<u2").reshape(sides).copy()
    matched = np.argwhere(pieces != 0xFFFF)
    # send a second A-cell to the first one's target
    c1 = matched[0]
    target = c1 + _offset(int(pieces[tuple(c1)]), m_cap)
    near = [c for c in matched[1:] if np.abs(target - c).max() <= m_cap]
    assert near, "no second matched A-cell within M of the first one's target"
    delta = target - near[0]
    pieces[tuple(near[0])] = (delta[0] + m_cap) * (2 * m_cap + 1) + delta[1] + m_cap
    bad = out / "double.eqdc"
    bad.write_bytes(reseal(raw[:base] + pieces.astype("<u2").tobytes() + raw[end:]))
    capsys.readouterr()
    assert run_cli("verify", bad) == 1
    assert capsys.readouterr().out.startswith("FAIL: stored pieces map two cells to one target")


def test_bitmap_run_verifies_without_its_pgm(tmp_path, monkeypatch, capsys):
    # the file echoes the bitmap's bits, not the path it was read from
    run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    run_dir.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(run_dir)
    raster = np.where(np.random.default_rng(2).random((32, 32)) < 0.3, 255, 0).astype(np.uint8)
    Path("mask.pgm").write_bytes(b"P5\n32 32\n255\n" + raster.tobytes())
    config = {"window": 64, "ladder": [2, 4], "m_cap": 4}
    config["shape_a"] = {"type": "bitmap", "pgm": "mask.pgm"}
    Path("config.json").write_text(json.dumps(config))
    assert run_cli("square", "--config", "config.json", "--seed", 3, "--out", "out") == 0
    Path("mask.pgm").unlink()
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    assert run_cli("verify", run_dir / "out" / "square.eqdc") == 0
    assert capsys.readouterr().out.startswith("PASS: ")


def _offset(k, m_cap):
    box = 2 * m_cap + 1
    return np.array([k // box - m_cap, k % box - m_cap])


def test_window_too_small_for_ladder_exits_2(tmp_path, capsys):
    # and an empty ladder, with its own message
    cases = (
        ({"window": 32, "ladder": [8, 64]}, "error: top cube size exceeds the window"),
        ({"window": 64, "ladder": []}, "error: ladder is empty: give at least one cube size"),
    )
    for config, message in cases:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run_cli("square", "--config", path, "--seed", 5, "--out", tmp_path) == 2
        assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("command", ["square", "render"])
def test_unwritable_output_is_one_line_exit_2(tmp_path, command):
    # an --out that names a file, and a --dest in a missing directory
    if command == "square":
        taken = tmp_path / "taken"
        taken.write_text("")
        args = ("square", "--window", 64, "--ladder", "8", "--out", taken)
    else:
        assert run_cli("square", "--window", 64, "--seed", 3, "--out", tmp_path, "--ladder", "8") == 0
        args = ("render", tmp_path / "square.eqdc", "--dest", tmp_path / "missing" / "x.ppm")
    proc = _cli_process(*args)
    assert proc.returncode == 2 and "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert proc.stdout == "" and len(lines) == 1
    assert lines[0].startswith(f"error: cannot write {args[-1]}: ")


def test_baire_cli_small(tmp_path):
    out = tmp_path / "baire"
    code = run_cli(
        "baire", "--window", 384, "--seed", 5, "--out", out, "--radii", "8,24"
    )
    assert code == 0
    # every net cell is matched on its level's side; an earlier level may have
    # matched it as a partner already, so added == net_size is not promised
    win, m, _ = load_run(out / "baire.eqdc")
    radii, m_cap = (8, 24), win.sys.m_cap
    ladder = build_nets(win, radii, sub_seed(5, "nets"), [2 * r + m_cap + 1 for r in radii])
    assert sum(net.size() for net in ladder.nets) > 0
    low = np.array(win.window.low)
    for net, side in zip(ladder.nets, ladder.sides):
        grid = m.a_match if side == "A" else m.b_match
        assert (grid[tuple((net.cells() - low).T)] >= 0).all(), side
    assert run_cli("verify", out / "baire.eqdc") == 0
    # the same config into another --out directory gives the same bytes
    out2 = tmp_path / "baire2"
    assert run_cli(
        "baire", "--window", 384, "--seed", 5, "--out", out2, "--radii", "8,24"
    ) == 0
    assert (out2 / "baire.eqdc").read_bytes() == (out / "baire.eqdc").read_bytes()


def test_baire_failed_hall_audit_exits_1(tmp_path, monkeypatch, capsys):
    # the run completes and writes its files, but a level whose Hall audit
    # fails must not pass as a success
    cert = HallCertificate(side="A", cells=np.zeros((1, 2), dtype=np.int64), neighborhood_size=0)
    monkeypatch.setattr(baire, "hall_deficiency", lambda *args: cert)
    capsys.readouterr()
    code = run_cli("baire", "--window", 384, "--seed", 5, "--out", tmp_path, "--radii", "8,24")
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["assertion failure: level 1: Hall audit failed"]
    reports = json.loads((tmp_path / "baire_reports.json").read_text())
    assert [r["hall_ok"] for r in reports] == [False, False]
    assert (tmp_path / "baire.eqdc").exists()


@pytest.mark.parametrize("message", ["Unable to allocate 1.96 GiB for an array", ""])
def test_memory_error_is_one_line_exit_3(tmp_path, monkeypatch, capsys, message):
    from eqdec import lebesgue

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(lebesgue, "run_pipeline", exhausted)
    capsys.readouterr()
    code = run_cli("square", "--window", 64, "--ladder", "8,32", "--out", tmp_path)
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"resource error: {message or 'out of memory'}"]


def test_audit_parses_each_shape_once(tmp_path, monkeypatch):
    from eqdec import cli

    parsed = []
    parse = cli.shape_from_json

    def counting(spec):
        parsed.append(spec["type"])
        return parse(spec)

    monkeypatch.setattr(cli, "shape_from_json", counting)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"samples": 10_000}))
    code = run_cli(
        "audit", "--config", config, "--window", 64, "--out", tmp_path, "--i-max", 3
    )
    assert code == 0
    assert parsed == ["disk", "axis_square"]


def test_baire_extendability_failure_is_one_line(tmp_path):
    proc = _cli_process(
        "baire", "--window", 256, "--mcap", 2, "--radii", "8,24", "--seed", 7,
        "--out", tmp_path,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("assertion failure: level 1: net cell")
    assert "even before a partner is chosen" in lines[0]


def test_lemma_tests_single_suite():
    for name in ("isoperimetry", "extendable"):
        assert run_cli("lemma-tests", "--suite", name, "--seed", 3) == 0


def test_every_all_entry_resolves():
    names = [f"eqdec.{info.name}" for info in pkgutil.iter_modules(eqdec.__path__)]
    modules = [eqdec] + [importlib.import_module(n) for n in names]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert not missing


def test_layertrace_targets_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps these callables; a deletion that drops
    # one breaks the traced benchmark, which tier-1 does not run
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    layertrace = importlib.import_module("layertrace")
    missing = []
    for _name, modname, attr, _hook in layertrace.LAYERS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, "__dict__", {}).get(part)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert not missing
