"""Torus points, shapes with membership predicates, free vector systems,
and a Monte-Carlo boundary-dimension estimator.

All torus arithmetic is binary64; reduction modulo 1 is ``x - floor(x)``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from eqdec.errors import ArgumentError, EstimateError

__all__ = [
    "TorusPoint",
    "FreeVectorSystem",
    "Shape",
    "Disk",
    "AxisSquare",
    "Polygon",
    "Bitmap",
    "BoxDimensionEstimate",
    "coset_point",
    "sample_free_system",
    "boundary_dimension_estimate",
    "shape_from_json",
    "torus_delta",
]


def _mod1(x):
    r = x - np.floor(x)
    # x - floor(x) can round up to exactly 1.0 for tiny negative x
    return np.where(r >= 1.0, 0.0, r)


def torus_delta(a, b):
    """Per-coordinate torus distance |a-b| folded into [0, 1/2]."""
    d = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(d, 1.0 - d)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the k-torus, stored with every coordinate in [0, 1)."""

    coords: tuple

    def __init__(self, coords: Sequence[float]):
        c = tuple(float(_mod1(float(x))) for x in coords)
        object.__setattr__(self, "coords", c)

    @property
    def k(self) -> int:
        return len(self.coords)

    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.float64)


@dataclass(frozen=True)
class FreeVectorSystem:
    """d generating torus vectors plus the translation radius ``m_cap``.

    The generators are treated as free: no small integer combination is the
    zero element. Every net build checks this up to its radius
    (``window._min_translation_distance``) and raises ``PrecisionError`` when
    it fails.
    """

    k: int
    d: int
    vectors: np.ndarray  # shape (d, k), each row in [0,1)^k
    m_cap: int
    rng_seed: int

    def __post_init__(self):
        if self.d < 2:
            raise ArgumentError("need d >= 2 generators")
        if self.m_cap < 1:
            raise ArgumentError("m_cap must be >= 1")
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.shape != (self.d, self.k):
            raise ArgumentError("vectors must have shape (d, k)")
        object.__setattr__(self, "vectors", v)
        self.vectors.setflags(write=False)


def sample_free_system(seed: int, k: int, d: int, m_cap: int) -> FreeVectorSystem:
    """Draw d uniform torus vectors from a seeded generator.

    Identical (seed, k, d, m_cap) gives bit-identical vectors.
    """
    if k < 1 or d < 2 or m_cap < 1:
        raise ArgumentError("need k >= 1, d >= 2, m_cap >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vectors = rng.random((d, k))
    return FreeVectorSystem(k=k, d=d, vectors=vectors, m_cap=m_cap, rng_seed=int(seed))


def coset_point(u: TorusPoint, n: Sequence[int], sys: FreeVectorSystem) -> TorusPoint:
    """u + n_1 x_1 + ... + n_d x_d, reduced modulo 1."""
    n = np.asarray(n, dtype=np.int64)
    if n.shape != (sys.d,):
        raise ArgumentError(f"offset length {n.shape} does not match d={sys.d}")
    return TorusPoint(_mod1(u.array() + n @ sys.vectors))


@functools.lru_cache(maxsize=64)
def offsets_row_major(m_cap: int, d: int) -> np.ndarray:
    """All integer offsets with sup-norm <= m_cap, in row-major order.

    Cached per (m_cap, d): every caller shares one read-only array.
    """
    ax = [np.arange(-m_cap, m_cap + 1)] * d
    grid = np.meshgrid(*ax, indexing="ij")
    offs = np.stack(grid, axis=-1).reshape(-1, d)
    offs.flags.writeable = False
    return offs


# ---------------------------------------------------------------------------
# Shapes


class Shape:
    """A subset of the torus with decidable membership.

    Shapes are confined to diameter < 1/2 so wrap-around is unambiguous.
    Boundary ties follow half-open conventions; which boundary is included is
    documented per shape.
    """

    @property
    def dim(self) -> int:
        return 2

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance from each point to the shape boundary (shape-natural metric).

        Box dimension is invariant under metric equivalence, so each shape may
        use whichever metric is exact for its geometry.
        """
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Shape):
    """Euclidean disk; membership is dist <= radius (closed)."""

    center: TorusPoint
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < 0.25:
            raise ArgumentError("disk radius must be in (0, 0.25) to keep diameter < 1/2")

    @property
    def dim(self):
        return self.center.k

    def contains_batch(self, pts):
        d = torus_delta(pts, self.center.array())
        return (d * d).sum(axis=1) <= self.radius * self.radius

    def boundary_distance(self, pts):
        d = np.sqrt((torus_delta(pts, self.center.array()) ** 2).sum(axis=1))
        return np.abs(d - self.radius)

    def to_json(self):
        return {"type": "disk", "center": list(self.center.coords), "radius": self.radius}


@dataclass(frozen=True)
class AxisSquare(Shape):
    """Axis-aligned cube [corner, corner + side) per axis, half-open."""

    corner: TorusPoint
    side: float

    def __post_init__(self):
        if not 0 < self.side < 0.5:
            raise ArgumentError("square side must be in (0, 0.5)")

    @property
    def dim(self):
        return self.corner.k

    def contains_batch(self, pts):
        rel = _mod1(np.asarray(pts) - self.corner.array())
        return np.all(rel < self.side, axis=1)

    def boundary_distance(self, pts):
        # sup-norm distance to the box surface, via coordinates centred on the box
        rel = _mod1(np.asarray(pts) - self.corner.array()) - self.side / 2
        rel -= np.round(rel)
        gap = np.abs(rel) - self.side / 2  # negative inside, positive outside
        inside = np.all(gap < 0, axis=1)
        d_in = -np.max(gap, axis=1)
        d_out = np.max(np.maximum(gap, 0.0), axis=1)
        return np.where(inside, d_in, d_out)

    def to_json(self):
        return {"type": "axis_square", "corner": list(self.corner.coords), "side": self.side}


@dataclass(frozen=True)
class Polygon(Shape):
    """Simple polygon in T^2, vertices unwrapped around the first vertex.

    Membership uses even-odd ray casting with the half-open crossing rule
    (lower endpoint included), so membership is total and deterministic.
    """

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ArgumentError("polygon needs at least 3 vertices")
        if any(v.k != 2 for v in self.vertices):
            raise ArgumentError("polygon vertices need 2 coordinates")
        v0 = self.vertices[0].array()
        rel = []
        for v in self.vertices:
            d = v.array() - v0
            d -= np.round(d)  # unwrap: diameter < 1/2 keeps this unambiguous
            rel.append(d)
        object.__setattr__(self, "_rel", np.array(rel))
        object.__setattr__(self, "_v0", v0)

    def contains_batch(self, pts):
        q = np.asarray(pts) - self._v0
        q -= np.round(q)
        vx, vy = self._rel[:, 0], self._rel[:, 1]
        wx, wy = np.roll(vx, -1), np.roll(vy, -1)
        inside = np.zeros(len(q), dtype=bool)
        x, y = q[:, 0], q[:, 1]
        for ax, ay, bx, by in zip(vx, vy, wx, wy):
            crosses = (ay <= y[:]) != (by <= y[:])
            with np.errstate(divide="ignore", invalid="ignore"):
                xi = ax + (y - ay) * (bx - ax) / np.where(by == ay, 1.0, by - ay)
            inside ^= crosses & (x < xi)
        return inside

    def boundary_distance(self, pts):
        q = np.asarray(pts) - self._v0
        q -= np.round(q)
        best = np.full(len(q), np.inf)
        a = self._rel
        b = np.roll(self._rel, -1, axis=0)
        for pa, pb in zip(a, b):
            seg = pb - pa
            L2 = float(seg @ seg)
            t = np.clip(((q - pa) @ seg) / (L2 if L2 > 0 else 1.0), 0.0, 1.0)
            proj = pa + t[:, None] * seg
            best = np.minimum(best, np.sqrt(((q - proj) ** 2).sum(axis=1)))
        return best

    def to_json(self):
        return {"type": "polygon", "vertices": [list(v.coords) for v in self.vertices]}


@dataclass(frozen=True)
class Bitmap(Shape):
    """Membership given by a dense bit grid over the regular (1/res)-grid of T^2.

    ``bits[i, j]`` covers the half-open box [i/res,(i+1)/res) x [j/res,(j+1)/res).
    """

    resolution: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool)
        if b.shape != (self.resolution, self.resolution):
            raise ArgumentError("bitmap bits must be (resolution, resolution)")
        object.__setattr__(self, "bits", b)
        self.bits.setflags(write=False)

    def contains_batch(self, pts):
        idx = np.floor(np.asarray(pts) * self.resolution).astype(np.int64) % self.resolution
        return self.bits[idx[:, 0], idx[:, 1]]

    def boundary_distance(self, pts):
        from scipy.ndimage import distance_transform_cdt

        edge = np.zeros_like(self.bits)
        for ax in (0, 1):
            edge |= self.bits != np.roll(self.bits, 1, axis=ax)
            edge |= self.bits != np.roll(self.bits, -1, axis=ax)
        if not edge.any():
            return np.full(len(pts), np.inf)
        p = self.resolution // 2 + 1  # torus distances are at most res // 2
        wrapped = ~np.pad(edge, p, mode="wrap")
        dist = distance_transform_cdt(wrapped, metric="chessboard")[p:-p, p:-p]
        idx = np.floor(np.asarray(pts) * self.resolution).astype(np.int64) % self.resolution
        return np.maximum(dist[idx[:, 0], idx[:, 1]] - 0.5, 0.0) / self.resolution

    @staticmethod
    def from_pgm(path) -> "Bitmap":
        """Load a binary (P5) PGM; pixels >= half maxval are inside."""
        data = Path(path).read_bytes()
        if not data.startswith(b"P5"):
            raise ArgumentError(f"{path}: not a binary PGM (P5) file")
        fields, pos = [], 2
        while len(fields) < 3:
            while pos < len(data) and data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] == b"#":
                pos = data.index(b"\n", pos) + 1
                continue
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            fields.append(int(data[start:pos]))
        pos += 1  # single whitespace after maxval
        w, h, maxval = fields
        if w != h:
            raise ArgumentError("bitmap shapes require square PGM")
        raster = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
        bits = (raster.reshape(h, w) >= (maxval + 1) // 2)
        return Bitmap(resolution=w, bits=bits)

    def to_json(self):
        return {
            "type": "bitmap",
            "resolution": self.resolution,
            "bits": np.packbits(self.bits).tobytes().hex(),
        }


def shape_from_json(obj) -> Shape:
    """Build a shape from its JSON description (dict or JSON string); a
    malformed description raises ArgumentError."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ArgumentError(f"shape must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    try:
        if kind == "disk":
            return Disk(TorusPoint(obj["center"]), float(obj["radius"]))
        if kind == "axis_square":
            return AxisSquare(TorusPoint(obj["corner"]), float(obj["side"]))
        if kind == "polygon":
            return Polygon(tuple(TorusPoint(v) for v in obj["vertices"]))
        if kind == "bitmap":
            if "pgm" in obj:
                return Bitmap.from_pgm(obj["pgm"])
            res = int(obj["resolution"])
            raw = np.frombuffer(bytes.fromhex(obj["bits"]), dtype=np.uint8)
            bits = np.unpackbits(raw)[: res * res].reshape(res, res).astype(bool)
            return Bitmap(resolution=res, bits=bits)
    except KeyError as e:
        raise ArgumentError(f"{kind} shape lacks the key {e}") from e
    except (OSError, TypeError, ValueError) as e:
        raise ArgumentError(f"bad {kind} shape: {e}") from e
    raise ArgumentError(f"unknown shape type {kind!r}")


# ---------------------------------------------------------------------------
# Boundary dimension


@dataclass(frozen=True)
class BoxDimensionEstimate:
    eps_ladder: tuple
    neighborhood_measures: tuple
    fitted_dimension: float
    std_error: float


def boundary_dimension_estimate(
    shape: Shape, eps_ladder: Sequence[float], samples: int, seed: int
) -> BoxDimensionEstimate:
    """Estimate the box dimension of the shape boundary by Monte Carlo.

    The measure of each eps-neighborhood of the boundary is estimated from
    uniform samples; the dimension is k minus the least-squares slope of
    log measure against log eps.
    """
    eps = [float(e) for e in eps_ladder]
    if len(eps) < 2:
        raise ArgumentError("eps_ladder needs at least two entries to fit a dimension")
    if any(not 0 < e < 0.25 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
        raise ArgumentError("eps_ladder must be strictly decreasing within (0, 0.25)")
    if samples < 10_000:
        raise ArgumentError("need at least 1e4 samples")
    k = shape.dim
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.random((samples, k))
    dist = shape.boundary_distance(pts)
    inside = shape.contains_batch(pts)
    if np.all(inside) or not np.any(inside):
        if not np.any(dist <= eps[0]):
            raise EstimateError("degenerate shape: boundary not visible to sampler")
    measures = np.array([(dist <= e).mean() for e in eps])
    if np.any(measures == 0):
        raise EstimateError("eps ladder too fine for the sample budget")
    logs, loge = np.log(measures), np.log(eps)
    A = np.stack([loge, np.ones_like(loge)], axis=1)
    coef, residuals, *_ = np.linalg.lstsq(A, logs, rcond=None)
    slope = float(coef[0])
    n = len(eps)
    if n > 2:
        resid = logs - A @ coef
        s2 = float(resid @ resid) / (n - 2)
        sxx = float(((loge - loge.mean()) ** 2).sum())
        stderr = float(np.sqrt(s2 / sxx)) if sxx > 0 else float("nan")
    else:
        stderr = float("nan")
    return BoxDimensionEstimate(
        eps_ladder=tuple(eps),
        neighborhood_measures=tuple(float(m) for m in measures),
        fitted_dimension=k - slope,
        std_error=stderr,
    )
