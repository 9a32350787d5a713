"""Bit-exact run storage (EQDC container) and PPM piece-map rendering.

Container layout: 8-byte magic "EQDC0002"; little-endian header (d, k, M,
flags as uint32, then window low and sides as int64 per axis); the A and B
bit grids packed row by row; the piece grid as uint16 offset indices with
0xFFFF meaning unmatched; a canonical UTF-8 JSON manifest {"config",
"reports"} (vectors at full precision); and, as the last 32 bytes, the
SHA-256 of every byte before it.

Both ends stream: ``save_run`` writes and hashes one section at a time, and
``load_run`` reads the file section by section, each read bounded by the file
size, so beyond the grids it returns it holds one packed bit grid or one slab
of ``SLAB_CELLS`` cells (the piece grid and the inverse map go slab by slab).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from eqdec.errors import ArgumentError, LoadError
from eqdec.lattice import CellSet, Rect
from eqdec.matching import Matching
from eqdec.torus import FreeVectorSystem, TorusPoint
from eqdec.window import SLAB_CELLS, CosetWindow

__all__ = [
    "save_run",
    "load_run",
    "render_pieces",
    "piece_palette",
    "NONE_PIECE",
]

MAGIC = b"EQDC0002"
NONE_PIECE = 0xFFFF
DIGEST_BYTES = 32


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits.reshape(-1, bits.shape[-1]), axis=1)


def _unpack_bits(packed: np.ndarray, sides) -> np.ndarray:
    rows = packed.reshape(-1, (sides[-1] + 7) // 8)
    return np.unpackbits(rows, axis=1, count=sides[-1]).view(bool).reshape(sides)


def _sys_to_config(sys: FreeVectorSystem, base: TorusPoint) -> dict:
    return {
        "k": sys.k,
        "d": sys.d,
        "m_cap": sys.m_cap,
        "rng_seed": sys.rng_seed,
        "vectors_hex": [[v.hex() for v in row] for row in np.asarray(sys.vectors)],
        "base_hex": [float(c).hex() for c in base.coords],
    }


def save_run(path, win: CosetWindow, m: Matching, reports=None, extra_config=None) -> None:
    """Write the EQDC container for a window plus matching, one section at a
    time; a failure part way removes the partial file."""
    if m.rect != win.window:
        raise ArgumentError("matching must live on the window rect")
    count = (2 * m.m_cap + 1) ** m.d
    if count >= NONE_PIECE:
        raise ArgumentError(f"piece count {count} needs more than 16 bits (d={m.d}, M={m.m_cap})")
    d = win.d
    header = struct.pack("<IIII", d, win.sys.k, win.sys.m_cap, 0)
    header += struct.pack(f"<{d}q", *win.window.low)
    header += struct.pack(f"<{d}q", *win.window.sides)
    config = {"system": _sys_to_config(win.sys, win.base)}
    if extra_config:
        config.update(extra_config)
    manifest = json.dumps(
        {"config": config, "reports": reports or []}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    digest = hashlib.sha256()
    f = open(path, "wb")
    try:
        with f:
            for data in _sections(win, m, header, manifest):
                digest.update(data)
                f.write(data)
            f.write(digest.digest())
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _sections(win: CosetWindow, m: Matching, header: bytes, manifest: bytes):
    """The container's sections in file order, each built when it is reached."""
    yield MAGIC + header
    yield _pack_bits(win.a_bits.bits)
    yield _pack_bits(win.b_bits.bits)
    yield m.a_match.astype("<u2")  # -1 wraps to NONE_PIECE
    yield manifest


def load_run(path):
    """Read an EQDC container back; a bad digest, truncation or an
    inconsistent header or manifest raises LoadError."""
    try:
        with open(path, "rb") as f:
            return _read_run(f, os.fstat(f.fileno()).st_size)
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e.strerror or e}") from e


def _read_run(f, size: int):
    """``load_run`` on an open file of ``size`` bytes (see the module notes)."""
    digest = hashlib.sha256()

    def fill(buf, truncated="file truncated inside grids"):
        if f.readinto(buf) != memoryview(buf).nbytes:
            raise LoadError(truncated)
        digest.update(buf)
        return buf

    pos = len(MAGIC) + 16
    head = fill(bytearray(pos), "file truncated before header")
    if head[: len(MAGIC)] != MAGIC:
        raise LoadError(f"bad magic {bytes(head[: len(MAGIC)])!r}")
    d, k, m_cap, _flags = struct.unpack_from("<IIII", head, len(MAGIC))
    if size < pos + 16 * d:
        raise LoadError("file truncated inside header")
    axes = struct.unpack(f"<{2 * d}q", fill(bytearray(16 * d), "file truncated inside header"))
    pos += 16 * d
    try:
        window = Rect(axes[:d], axes[d:])
    except ArgumentError as e:
        raise LoadError(f"header window malformed: {e}") from e
    sides = window.sides
    grid_bytes = math.prod(sides[:-1]) * ((sides[-1] + 7) // 8)
    cells = window.volume()
    pos += 2 * grid_bytes + 2 * cells
    if size < pos + DIGEST_BYTES:
        raise LoadError("file truncated inside grids")
    a_bits = _unpack_bits(fill(np.empty(grid_bytes, np.uint8)), sides)
    b_bits = _unpack_bits(fill(np.empty(grid_bytes, np.uint8)), sides)
    a_flat = np.empty(cells, dtype=np.int32)
    slabs = range(0, cells, SLAB_CELLS)
    top = 0  # the largest stored piece index, checked once M is confirmed
    for lo in slabs:
        part = fill(np.empty(min(SLAB_CELLS, cells - lo), dtype="<u2"))
        live = part != NONE_PIECE
        top = max(top, int(part.max(initial=0, where=live)))
        a_flat[lo : lo + len(part)] = np.where(live, part, np.int32(-1))
    raw = fill(bytearray(size - pos - DIGEST_BYTES))
    if digest.digest() != f.read(DIGEST_BYTES):
        raise LoadError("hash mismatch: file digest differs from its contents")
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise LoadError("manifest unreadable") from e
    if not isinstance(manifest, dict):
        raise LoadError("manifest is not an object")
    try:
        sys_cfg = manifest["config"]["system"]
        vectors = np.array(
            [[float.fromhex(h) for h in row] for row in sys_cfg["vectors_hex"]]
        )
        sys = FreeVectorSystem(
            k=sys_cfg["k"],
            d=sys_cfg["d"],
            vectors=vectors,
            m_cap=sys_cfg["m_cap"],
            rng_seed=sys_cfg["rng_seed"],
        )
        base = TorusPoint([float.fromhex(h) for h in sys_cfg["base_hex"]])
    except (KeyError, TypeError, ValueError) as e:
        raise LoadError(f"manifest system config malformed: {e!r}") from e
    if (sys.d, sys.k, sys.m_cap) != (d, k, m_cap):
        raise LoadError(
            f"header (d, k, M) = {(d, k, m_cap)} disagrees with the manifest system "
            f"{(sys.d, sys.k, sys.m_cap)}"
        )
    win = CosetWindow(base, sys, window, CellSet(window, a_bits), CellSet(window, b_bits))
    count = (2 * m_cap + 1) ** d
    if top >= count:
        raise LoadError(f"stored piece index outside the (2M+1)^d = {count} offsets")
    m = Matching(window, m_cap, a_flat.reshape(sides), np.full(sides, -1, dtype=np.int32))
    # the inverse map from flat indices, one slab of A-cells and one axis at a time
    b_flat = m.b_match.reshape(-1)
    strides = [math.prod(sides[j + 1 :]) for j in range(d)]
    edges = 0
    for lo in slabs:
        a_idx = np.flatnonzero(a_flat[lo : lo + SLAB_CELLS] >= 0) + lo
        ks = a_flat[a_idx]
        b_idx = a_idx.copy()
        for j, (side, stride) in enumerate(zip(sides, strides)):
            step = m.offsets[ks, j]
            to = a_idx // stride % side + step
            if to.min(initial=0) < 0 or to.max(initial=0) >= side:
                raise LoadError("stored piece index points outside the window")
            b_idx += step * stride
        b_flat[b_idx] = ks
        edges += len(a_idx)
    if sum(np.count_nonzero(b_flat[lo : lo + SLAB_CELLS] >= 0) for lo in slabs) != edges:
        raise LoadError("stored pieces map two cells to one target")
    return win, m, manifest


# ---------------------------------------------------------------------------
# Rendering


def piece_palette(index: np.ndarray) -> np.ndarray:
    """Deterministic RGB per piece index (splitmix-style integer hash)."""
    x = index.astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x = (x * np.uint64(0xBF58476D1CE4E5B9)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(27)
    x = (x * np.uint64(0x94D049BB133111EB)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(31)
    r = 40 + (x & np.uint64(0xFF)).astype(np.uint8) % 200
    g = 40 + ((x >> np.uint64(8)) & np.uint64(0xFF)).astype(np.uint8) % 200
    b = 40 + ((x >> np.uint64(16)) & np.uint64(0xFF)).astype(np.uint8) % 200
    return np.stack([r, g, b], axis=-1)


GRAY = np.array([64, 64, 64], dtype=np.uint8)
WHITE = np.array([255, 255, 255], dtype=np.uint8)


def render_pieces(win: CosetWindow, m: Matching, side: str = "a", scale: int = 1) -> bytes:
    """PPM (P6) image of the piece map, d=2 windows only.

    A-side: matched A-cells take their piece color, unmatched A-cells dark
    gray, everything else white. B-side: each B-cell takes the piece color of
    its preimage, so the two images show the same pieces before and after
    translation.
    """
    if win.d != 2:
        raise ArgumentError("rendering requires a 2-d window")
    if scale < 1:
        raise ArgumentError("scale must be >= 1")
    if side not in ("a", "b"):
        raise ArgumentError("side must be 'a' or 'b'")
    m.validate(win.a_bits.bits, win.b_bits.bits)
    sides = win.window.sides
    img = np.broadcast_to(WHITE, sides + (3,)).copy()
    part, match = (
        (win.a_bits.bits, m.a_match) if side == "a" else (win.b_bits.bits, m.b_match)
    )
    matched = match >= 0
    img[part & ~matched] = GRAY
    img[matched] = piece_palette(np.arange(len(m.offsets)))[match[matched]]
    if scale > 1:
        img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes()
