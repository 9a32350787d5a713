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
from eqdec.io_render import load_run
from eqdec.matching import HallCertificate


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


@pytest.mark.parametrize("tamper", ["no-system", "header-m7", "shape-key"])
def test_verify_malformed_run_is_one_line_fail(tmp_path, tamper):
    out = tmp_path / "sq"
    assert run_cli("square", "--window", 64, "--seed", 3, "--out", out, "--ladder", "8") == 0
    raw = (out / "square.eqdc").read_bytes()
    if tamper == "header-m7":
        raw = raw[:16] + struct.pack("<I", 7) + raw[20:]
    else:
        pos = raw.rindex(b'{"config":')
        manifest = json.loads(raw[pos:])
        if tamper == "no-system":
            del manifest["config"]["system"]
        else:
            del manifest["config"]["shape_a"]["radius"]
        raw = raw[:pos] + json.dumps(manifest).encode()
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(raw)
    proc = _cli_process("verify", bad)
    assert proc.returncode == 1
    text = proc.stdout + proc.stderr
    assert "Traceback" not in text
    assert len(text.splitlines()) == 1 and proc.stdout.startswith("FAIL: ")


def test_verify_catches_double_matched_cell(tmp_path):
    out = tmp_path / "sq"
    assert run_cli("square", "--window", 64, "--seed", 3, "--out", out, "--ladder", "8") == 0
    eqdc = out / "square.eqdc"
    from eqdec.io_render import MAGIC

    raw = bytearray(eqdc.read_bytes())
    # piece grid starts after magic, header, and two packed bit grids
    grid_bytes = 64 * (64 // 8)
    base = len(MAGIC) + 16 + 16 + 2 * grid_bytes
    pieces = np.frombuffer(bytes(raw[base : base + 64 * 64 * 2]), dtype="<u2").reshape(64, 64).copy()
    matched = np.argwhere(pieces != 0xFFFF)
    # send two A-cells to one target: give cell2 the offset that lands on cell1's target
    c1, c2 = matched[0], matched[1]
    k1 = int(pieces[tuple(c1)])
    target = c1 + _offset(k1, 8)
    delta = target - c2
    if np.abs(delta).max() <= 8:
        k2 = int((delta[0] + 8) * 17 + delta[1] + 8)
        pieces[tuple(c2)] = k2
        # keep the grid-section hash honest so only injectivity trips
        import hashlib
        import json as js

        piece_bytes = pieces.astype("<u2").tobytes()
        manifest = js.loads(bytes(raw[base + len(piece_bytes) :]).decode())
        manifest["hashes"]["pieces"] = hashlib.sha256(piece_bytes).hexdigest()
        blob = bytes(raw[:base]) + piece_bytes + js.dumps(
            manifest, sort_keys=True, separators=(",", ":")
        ).encode()
        bad = out / "double.eqdc"
        bad.write_bytes(blob)
        assert run_cli("verify", bad) == 1


def _offset(k, m_cap):
    box = 2 * m_cap + 1
    return np.array([k // box - m_cap, k % box - m_cap])


def test_window_too_small_for_ladder_exits_2(tmp_path, capsys):
    code = run_cli("square", "--window", 32, "--seed", 5, "--out", tmp_path, "--ladder", "8,64")
    assert code == 2


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
