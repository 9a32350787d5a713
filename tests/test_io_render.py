import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from eqdec import io_render
from eqdec.errors import ArgumentError, LoadError
from eqdec.io_render import (
    DIGEST_BYTES,
    MAGIC,
    load_run,
    piece_palette,
    render_pieces,
    save_run,
)
from eqdec.lattice import CellSet, Rect
from eqdec.lebesgue import build_schedule, run_pipeline
from eqdec.matching import Matching
from eqdec.torus import AxisSquare, Disk, TorusPoint, sample_free_system
from eqdec.window import SLAB_CELLS, CosetWindow, extract_window


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


def _offset(a, b, m_cap=8):
    """Row-major index of the d = 2 offset (a, b)."""
    return (a + m_cap) * (2 * m_cap + 1) + (b + m_cap)


@pytest.mark.parametrize(
    "side, edits, match",
    [
        (64, [((5, 63), _offset(0, 1))], "points outside the window"),
        (64, [((63, 5), _offset(1, 0))], "points outside the window"),
        (64, [((0, 0), _offset(0, -1))], "points outside the window"),
        # the last row of the first slab of pieces and the first row of the next
        (
            256,
            [((SLAB_CELLS // 256 - 1, 7), _offset(1, 0)), ((SLAB_CELLS // 256, 7), _offset(0, 0))],
            "two cells to one target",
        ),
    ],
    ids=["past-row-end", "past-last-row", "before-first-cell", "across-slabs"],
)
def test_stored_pieces_checked_against_the_window(tmp_path, side, edits, match):
    win, m = small_run(side=side)
    path = tmp_path / "run.eqdc"
    save_run(path, win, m)
    raw = bytearray(path.read_bytes())
    at = 8 + 16 + 2 * 16 + 2 * side * side // 8  # the piece grid
    for (i, j), k in edits:
        struct.pack_into("<H", raw, at + 2 * (i * side + j), k)
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(reseal(bytes(raw)))
    with pytest.raises(LoadError, match=match):
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


def _traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 1 << 20


def test_load_and_save_stream(tmp_path):
    win, m = small_run(side=512)
    cells = win.window.volume()
    path = tmp_path / "run.eqdc"
    save_run(path, win, m)
    # the two bool and the two int32 grids that load_run returns, plus a slab
    assert _traced_peak(load_run, path) < 10 * cells + MIB
    # the <u2 piece grid, plus a packed bit grid or a slab
    assert _traced_peak(save_run, path, win, m) < 2 * cells + MIB
    assert load_run(path)[1].size() == m.size()


@pytest.mark.parametrize(
    "d, sides", [(2, (1 << 40, 1 << 40)), (0xFFFFFFFF, (1, 1))], ids=["huge-sides", "huge-d"]
)
def test_oversize_header_rejected_without_allocating(tmp_path, d, sides):
    raw = MAGIC + struct.pack("<IIII", d, 2, 8, 0) + struct.pack("<4q", 0, 0, *sides)
    bad = tmp_path / "bad.eqdc"
    bad.write_bytes(raw.ljust(100, b"\0"))
    tracemalloc.start()
    try:
        with pytest.raises(LoadError, match="truncated"):
            load_run(bad)
        assert tracemalloc.get_traced_memory()[1] < MIB
    finally:
        tracemalloc.stop()


def test_failed_save_leaves_no_file(tmp_path, monkeypatch):
    win, m = small_run()
    calls = []
    pack = io_render._pack_bits

    def pack_once(bits):
        calls.append(1)
        if len(calls) == 2:
            raise MemoryError("second grid")
        return pack(bits)

    monkeypatch.setattr(io_render, "_pack_bits", pack_once)
    path = tmp_path / "run.eqdc"
    with pytest.raises(MemoryError):
        save_run(path, win, m)
    assert len(calls) == 2 and not path.exists()


def _render_per_cell(win, m, side):
    """The piece map with the palette hashed at every window cell."""
    part, match = (win.a_bits.bits, m.a_match) if side == "a" else (win.b_bits.bits, m.b_match)
    matched = match >= 0
    img = np.full(win.window.sides + (3,), 255, dtype=np.uint8)
    img[part & ~matched] = 64
    img[matched] = piece_palette(np.where(matched, match, 0))[matched]
    return b"P6\n%d %d\n255\n" % img.shape[1::-1] + img.tobytes()


@pytest.mark.parametrize("matched", [True, False], ids=["run", "nothing-matched"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_render_palette_table_equals_per_cell_palette(matched, side):
    win, m = small_run()
    if not matched:
        m = Matching(win.window, win.sys.m_cap)
    assert render_pieces(win, m, side=side) == _render_per_cell(win, m, side)
