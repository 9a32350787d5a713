import hashlib
import json
import struct

import numpy as np
import pytest

from eqdec.errors import ArgumentError, LoadError
from eqdec.io_render import (
    DIGEST_BYTES,
    load_run,
    piece_palette,
    render_pieces,
    save_run,
)
from eqdec.lattice import CellSet, Rect
from eqdec.lebesgue import build_schedule, run_pipeline
from eqdec.matching import Matching
from eqdec.torus import AxisSquare, Disk, TorusPoint, sample_free_system
from eqdec.window import CosetWindow, extract_window


def small_run(side=64, seed=7):
    sys = sample_free_system(seed, 2, 2, 8)
    disk = Disk(TorusPoint([0.5, 0.5]), float(np.sqrt(0.15 / np.pi)))
    square = AxisSquare(TorusPoint([0.1, 0.55]), float(np.sqrt(0.15)))
    win = extract_window(
        disk, square, sys, TorusPoint([0.3, 0.7]), Rect((-side // 2,) * 2, (side,) * 2)
    )
    sched = build_schedule(win, (8,), levels=0)
    res = run_pipeline(win, sched, 0)
    return win, res.matching


def reseal(raw: bytes) -> bytes:
    """Replace a file's trailing digest with the SHA-256 of its edited body, so
    that a load check behind the digest sees the edit."""
    body = raw[:-DIGEST_BYTES]
    return body + hashlib.sha256(body).digest()


def test_save_load_round_trip(tmp_path):
    win, m = small_run()
    path = tmp_path / "run.eqdc"
    save_run(path, win, m, reports=[{"level": 0}], extra_config={"note": 1})
    win2, m2, manifest = load_run(path)
    assert np.array_equal(win2.a_bits.bits, win.a_bits.bits)
    assert np.array_equal(win2.b_bits.bits, win.b_bits.bits)
    assert np.array_equal(m2.a_match, m.a_match)
    assert np.array_equal(m2.b_match, m.b_match)
    assert np.array_equal(win2.sys.vectors, win.sys.vectors)
    assert win2.base.coords == win.base.coords
    assert manifest["config"]["note"] == 1
    assert manifest["reports"] == [{"level": 0}]
    # identical second save: identical bytes
    path2 = tmp_path / "run2.eqdc"
    save_run(path2, win, m, reports=[{"level": 0}], extra_config={"note": 1})
    assert path.read_bytes() == path2.read_bytes()


def test_corruption_detected(tmp_path):
    win, m = small_run()
    path = tmp_path / "run.eqdc"
    save_run(path, win, m)
    raw = bytearray(path.read_bytes())
    # flip one byte inside the piece grid (after magic+header+two bit grids)
    grid_bytes = 64 * (64 // 8)
    pos = 8 + 16 + 16 + 2 * grid_bytes + 100
    raw[pos] ^= 0xFF
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(bytes(raw))
    with pytest.raises(LoadError, match="hash mismatch"):
        load_run(bad)
    # magic
    raw2 = bytearray(path.read_bytes())
    raw2[0] = ord("X")
    bad2 = tmp_path / "bad2.eqdc"
    bad2.write_bytes(bytes(raw2))
    with pytest.raises(LoadError, match="magic"):
        load_run(bad2)
    # truncation
    bad3 = tmp_path / "bad3.eqdc"
    bad3.write_bytes(path.read_bytes()[:200])
    with pytest.raises(LoadError, match="truncated"):
        load_run(bad3)


def _manifest_m7(doc):
    doc["config"]["system"]["m_cap"] = 7
    return doc


# header fields: d, k, M, flags as uint32 after the 8-byte magic, then the
# window's low and sides as int64 per axis (d = 2 here)
M_AT, D_AT, SIDE0_AT = 16, 8, 24 + 2 * 8


@pytest.mark.parametrize(
    "header, edit, match",
    [
        (None, lambda doc: {**doc, "config": {}}, "system config malformed"),
        (None, lambda doc: [doc], "not an object"),
        ((M_AT, "<I", 7), None, "disagrees with the manifest"),
        # header and manifest agree on M=7; the pieces still use M=8's offsets
        ((M_AT, "<I", 7), _manifest_m7, "piece index outside"),
        ((D_AT, "<I", 0), None, "header window malformed"),
        ((D_AT, "<I", 1), None, "header window malformed"),
        ((SIDE0_AT, "<q", 0), None, "header window malformed"),
        ((SIDE0_AT, "<q", -64), None, "header window malformed"),
    ],
    ids=[
        "no-system",
        "manifest-not-object",
        "header-m7",
        "header-and-manifest-m7",
        "header-d0",
        "header-d1",
        "header-side0",
        "header-side-64",
    ],
)
def test_malformed_header_or_manifest_rejected(tmp_path, header, edit, match):
    win, m = small_run()
    assert (m.a_match >= 15**2).any()  # some piece index needs M=8
    path = tmp_path / "run.eqdc"
    save_run(path, win, m)
    raw = path.read_bytes()
    if header is not None:
        at, fmt, value = header
        raw = raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt) :]
    pos = raw.rindex(b'{"config":')  # the manifest runs up to the digest
    manifest = json.loads(raw[pos:-DIGEST_BYTES])
    if edit is not None:
        manifest = edit(manifest)
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(reseal(raw[:pos] + json.dumps(manifest).encode() + raw[-DIGEST_BYTES:]))
    with pytest.raises(LoadError, match=match):
        load_run(bad)


LOW_AT = 24  # the window's low corner follows magic, d, k, M and flags


@pytest.mark.parametrize("edit", ["header-low", "report"])
def test_edit_without_new_digest_rejected(tmp_path, edit):
    win, m = small_run()
    path = tmp_path / "run.eqdc"
    save_run(path, win, m, reports=[{"level": 0, "unmatched_fraction": 0.25}])
    raw = path.read_bytes()
    if edit == "header-low":
        raw = raw[:LOW_AT] + struct.pack("<q", 5) + raw[LOW_AT + 8 :]
    else:
        raw = raw.replace(b'"unmatched_fraction":0.25', b'"unmatched_fraction":0.0')
    assert raw != path.read_bytes()
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(raw)
    with pytest.raises(LoadError, match="hash mismatch"):
        load_run(bad)


def test_every_byte_flip_and_truncation_rejected(tmp_path):
    win, m = small_run(side=56)
    path = tmp_path / "run.eqdc"
    save_run(path, win, m, reports=[{"level": 0}])
    raw = path.read_bytes()
    bad = tmp_path / "bad.eqdc"
    cases = [raw[:n] for n in range(len(raw))]
    for pos in range(len(raw)):
        flipped = bytearray(raw)
        flipped[pos] ^= 0xFF
        cases.append(bytes(flipped))
    for case in cases:
        bad.write_bytes(case)
        with pytest.raises(LoadError):
            load_run(bad)


def test_piece_count_bound(tmp_path):
    # the sentinel 0xFFFF must stay outside the index range (2M+1)^d:
    # 255^2 = 65025 and 39^3 = 59319 fit, 257^2 and 41^3 do not
    for d, m_cap, fits in ((2, 127, True), (2, 128, False), (3, 19, True), (3, 20, False)):
        R = Rect((0,) * d, (2,) * d)
        bits = np.zeros(R.sides, dtype=bool)
        sys = sample_free_system(7, 2, d, m_cap)
        win = CosetWindow(TorusPoint([0, 0]), sys, R, CellSet(R, bits), CellSet(R, bits.copy()))
        path = tmp_path / f"d{d}_m{m_cap}.eqdc"
        if fits:
            save_run(path, win, Matching(R, m_cap))
            assert load_run(path)[1].size() == 0
        else:
            with pytest.raises(ArgumentError):
                save_run(path, win, Matching(R, m_cap))
            assert not path.exists()


def test_save_rejects_oversized_piece_range(tmp_path):
    sys = sample_free_system(7, 2, 2, 128)
    R = Rect((0, 0), (4, 4))
    bits = np.zeros((4, 4), dtype=bool)
    win = CosetWindow(TorusPoint([0, 0]), sys, R, CellSet(R, bits), CellSet(R, bits.copy()))
    m = Matching(R, 128)
    with pytest.raises(ArgumentError):
        save_run(tmp_path / "x.eqdc", win, m)


def test_render_identity_and_sides():
    win, m = small_run()
    img_a = render_pieces(win, m, side="a", scale=1)
    assert img_a.startswith(b"P6\n64 64\n255\n")
    img_a2 = render_pieces(win, m, side="a", scale=1)
    assert hashlib.sha256(img_a).hexdigest() == hashlib.sha256(img_a2).hexdigest()
    img_b = render_pieces(win, m, side="b", scale=2)
    assert img_b.startswith(b"P6\n128 128\n255\n")
    with pytest.raises(ArgumentError):
        render_pieces(win, m, side="c")
    with pytest.raises(ArgumentError):
        render_pieces(win, m, scale=0)


def test_render_empty_matching_gray_silhouette():
    win, m = small_run()
    empty = Matching(win.window, win.sys.m_cap)
    img = render_pieces(win, empty, side="a")
    pixels = np.frombuffer(img.split(b"\n", 3)[3], dtype=np.uint8).reshape(64, 64, 3)
    gray = (pixels == 64).all(axis=2)
    white = (pixels == 255).all(axis=2)
    assert np.array_equal(gray, win.a_bits.bits)
    assert np.array_equal(white, ~win.a_bits.bits)


def test_render_translation_identity_enforced():
    win, m = small_run()
    broken = m.copy()
    pairs = np.argwhere(broken.a_match >= 0)
    cell = tuple(pairs[0])
    k = broken.a_match[cell]
    partner = tuple(pairs[0] + broken.offsets[k])
    broken.b_match[partner] = -1  # sever the inverse link
    with pytest.raises(ArgumentError):
        render_pieces(win, broken, side="a")


def test_piece_colors_match_between_sides():
    win, m = small_run()
    img_a = render_pieces(win, m, side="a")
    img_b = render_pieces(win, m, side="b")
    pa = np.frombuffer(img_a.split(b"\n", 3)[3], dtype=np.uint8).reshape(64, 64, 3)
    pb = np.frombuffer(img_b.split(b"\n", 3)[3], dtype=np.uint8).reshape(64, 64, 3)
    a_idx, _, b_idx = m.edges()
    assert len(a_idx) and np.array_equal(pa[tuple(a_idx.T)], pb[tuple(b_idx.T)])


def test_palette_deterministic():
    idx = np.arange(100)
    c1 = piece_palette(idx)
    c2 = piece_palette(idx)
    assert np.array_equal(c1, c2)
    assert len(np.unique(c1.reshape(-1, 3), axis=0)) > 50
