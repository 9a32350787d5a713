"""Bit-exact run storage (EQDC container) and PPM piece-map rendering.

Container layout: 8-byte magic "EQDC0002"; little-endian header (d, k, M,
flags as uint32, then window low and sides as int64 per axis); the A and B
bit grids packed row by row; the piece grid as uint16 offset indices with
0xFFFF meaning unmatched; a canonical UTF-8 JSON manifest {"config",
"reports"} (vectors at full precision); and, as the last 32 bytes, the
SHA-256 of every byte before it.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from eqdec.errors import ArgumentError, LoadError
from eqdec.lattice import CellSet, Rect
from eqdec.matching import Matching
from eqdec.torus import FreeVectorSystem, TorusPoint
from eqdec.window import CosetWindow

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


def _pack_bits(bits: np.ndarray) -> bytes:
    flat_rows = bits.reshape(-1, bits.shape[-1])
    return np.packbits(flat_rows, axis=1).tobytes()


def _unpack_bits(data: bytes, sides) -> np.ndarray:
    rows = int(np.prod(sides[:-1]))
    row_bytes = (sides[-1] + 7) // 8
    arr = np.frombuffer(data, dtype=np.uint8).reshape(rows, row_bytes)
    bits = np.unpackbits(arr, axis=1)[:, : sides[-1]]
    return bits.reshape(sides).astype(bool)


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
    """Write the EQDC container for a window plus matching."""
    if m.rect != win.window:
        raise ArgumentError("matching must live on the window rect")
    count = (2 * m.m_cap + 1) ** m.d
    if count >= NONE_PIECE:
        raise ArgumentError(f"piece count {count} needs more than 16 bits (d={m.d}, M={m.m_cap})")
    d = win.d
    header = struct.pack("<IIII", d, win.sys.k, win.sys.m_cap, 0)
    header += struct.pack(f"<{d}q", *win.window.low)
    header += struct.pack(f"<{d}q", *win.window.sides)
    a_bytes = _pack_bits(win.a_bits.bits)
    b_bytes = _pack_bits(win.b_bits.bits)
    piece_bytes = np.where(m.a_match >= 0, m.a_match, NONE_PIECE).astype("<u2").tobytes()
    config = {"system": _sys_to_config(win.sys, win.base)}
    if extra_config:
        config.update(extra_config)
    manifest = json.dumps(
        {"config": config, "reports": reports or []}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payload = MAGIC + header + a_bytes + b_bytes + piece_bytes + manifest
    Path(path).write_bytes(payload + hashlib.sha256(payload).digest())


def load_run(path):
    """Read an EQDC container back; a bad digest, truncation or an
    inconsistent header or manifest raises LoadError."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise LoadError(f"cannot read {path}: {e.strerror or e}") from e
    if len(data) < len(MAGIC) + 16:
        raise LoadError("file truncated before header")
    if data[: len(MAGIC)] != MAGIC:
        raise LoadError(f"bad magic {data[:8]!r}")
    pos = len(MAGIC)
    d, k, m_cap, _flags = struct.unpack_from("<IIII", data, pos)
    pos += 16
    try:
        low = struct.unpack_from(f"<{d}q", data, pos)
        pos += 8 * d
        sides = struct.unpack_from(f"<{d}q", data, pos)
        pos += 8 * d
        window = Rect(low, sides)
    except struct.error as e:
        raise LoadError("file truncated inside header") from e
    except ArgumentError as e:
        raise LoadError(f"header window malformed: {e}") from e
    grid_bytes = math.prod(sides[:-1]) * ((sides[-1] + 7) // 8)
    piece_bytes = math.prod(sides) * 2
    if len(data) < pos + 2 * grid_bytes + piece_bytes + DIGEST_BYTES:
        raise LoadError("file truncated inside grids")
    body = data[:-DIGEST_BYTES]
    if hashlib.sha256(body).digest() != data[-DIGEST_BYTES:]:
        raise LoadError("hash mismatch: file digest differs from its contents")
    a_raw = body[pos : pos + grid_bytes]
    pos += grid_bytes
    b_raw = body[pos : pos + grid_bytes]
    pos += grid_bytes
    p_raw = body[pos : pos + piece_bytes]
    pos += piece_bytes
    try:
        manifest = json.loads(body[pos:].decode("utf-8"))
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
    a_bits = _unpack_bits(a_raw, sides)
    b_bits = _unpack_bits(b_raw, sides)
    win = CosetWindow(
        base=base,
        sys=sys,
        window=window,
        a_bits=CellSet(window, a_bits),
        b_bits=CellSet(window, b_bits),
    )
    pieces = np.frombuffer(p_raw, dtype="<u2").reshape(sides)
    count = (2 * m_cap + 1) ** d
    if np.any((pieces != NONE_PIECE) & (pieces >= count)):
        raise LoadError(f"stored piece index outside the (2M+1)^d = {count} offsets")
    m = Matching(window, m_cap)
    m.a_match = np.where(pieces == NONE_PIECE, -1, pieces.astype(np.int32))
    b_match = np.full(sides, -1, dtype=np.int32)
    a_idx, ks, b_idx = m.edges()
    if len(a_idx):
        if b_idx.min() < 0 or np.any(b_idx >= np.array(sides)):
            raise LoadError("stored piece index points outside the window")
        b_match[tuple(b_idx.T)] = ks
        if int((b_match >= 0).sum()) != len(a_idx):
            raise LoadError("stored pieces map two cells to one target")
    m.b_match = b_match
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
    if side == "a":
        part = win.a_bits.bits
        matched = m.a_match >= 0
        colors = piece_palette(np.where(matched, m.a_match, 0))
    else:
        part = win.b_bits.bits
        matched = m.b_match >= 0
        colors = piece_palette(np.where(matched, m.b_match, 0))
    img[part & ~matched] = GRAY
    img[matched] = colors[matched]
    if scale > 1:
        img = np.repeat(np.repeat(img, scale, axis=0), scale, axis=1)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes()
