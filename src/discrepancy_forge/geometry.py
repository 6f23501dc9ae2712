"""Measurable set models on the torus: box, ball, convex polygon.

Each set is the periodization Omega* + Z^d of a base body whose translates
are disjoint. All models provide exact measure, exact periodic boundary
distance, exact membership (with a recorded boundary convention), Fourier
coefficients (closed forms for boxes and balls, the disc's J1 from `bessel`
with numpy alone; divergence-theorem recursion for polygons), and a JSON
descriptor.
Each model writes its distance and membership formulas once, on per-axis
coordinate arrays that broadcast: `boundary_distances` and `contains` pass
the columns of a point array, `distance_grid` and `indicator_grid` pass the
grid axes as a column and a row, so an n x n grid needs no n^2 point array.

A polygon's distance is the least over its edges and their integer
translates (images). Let h be an edge's half-vector and y = wrap(x - mid) its
offset from the edge's midpoint, in [-1/2, 1/2]^2; the diameter bound gives
|h_x|, |h_y| < 1/2. A nearest point q on image -sign(y_x) moves to
q + sign(y_x) e_x on image 0, nearer by at least 1 - 2|h_x| >= epsilon in
squared distance. So per axis only images 0 and sign(y) can be nearest: 4 of
the 9 images of shifts -1, 0, 1. Image (0, 0) of every edge is evaluated at
every point, and the least of them bounds the distance from above. The
segment lies in the box |z| <= |h| per axis, so max(|z_x| - |h_x|,
|z_y| - |h_y|) bounds an image's distance from below. Each of the 3 other
images is evaluated only at the points where that bound is below the upper
bound plus a margin of 1e-9, which covers rounding in both bounds; there it
is gathered, and its distance is scattered back as a minimum. On the
benchmark quadrilateral's 1024 x 1024 grid that is about 5% of the points,
and 8 of the 12 secondary images are never evaluated.

Boundary conventions: boxes are half-open [a, b) per axis; balls and
polygons are closed. Desk-scale discrepancy is sensitive to points landing
exactly on boundaries, so the convention is part of each report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bessel import j1
from .frequencies import TWO_PI
from .quadrature import gauss_nodes

# a polygon edge's secondary image is evaluated where its box bound is below
# the upper bound plus this margin: it covers the rounding of both bounds
# (about 1e-16 on distances below 1) with room to spare
_IMAGE_MARGIN = 1e-9


class TorusSet:
    """Common surface of the set models; see module docstring."""

    dimension: int

    def measure(self) -> float:
        raise NotImplementedError

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self._contains(tuple(np.asarray(points, dtype=float).T))

    def _contains(self, coords) -> np.ndarray:
        """Membership of the points with coordinates `coords`, per axis as for
        `_distance`."""
        raise NotImplementedError

    def _distance(self, coords) -> np.ndarray:
        """Boundary distance at the points with coordinates `coords`, as a new
        array of their broadcast shape, which callers may overwrite.

        `coords` holds one array per axis; the arrays broadcast against each
        other, so columns of a point array and grid axes share one formula.
        """
        raise NotImplementedError

    def boundary_distances(self, points: np.ndarray) -> np.ndarray:
        return self._distance(tuple(np.asarray(points, dtype=float).T))

    def boundary_distance(self, x) -> float:
        return float(self.boundary_distances(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fourier_coefficient(self, k) -> complex:
        return complex(self.fourier_coefficients(np.atleast_2d(np.asarray(k)))[0])

    def to_json(self) -> dict:
        raise NotImplementedError

    def distance_grid(self, n: int, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Boundary distance on the rows `rows` and columns `cols` (slices or
        index arrays) of the n x n grid (i/n, j/n), d = 2 only."""
        return self._distance_grid(n, rows, cols)

    def _distance_grid(self, n: int, rows, cols) -> np.ndarray:
        """distance_grid's body, which calls no public method: H-table strip
        workers evaluate distances through it."""
        if self.dimension != 2:
            raise ValueError("distance_grid is 2-d only")
        axis = np.arange(n) / n
        return self._distance((axis[rows, None], axis[None, cols]))

    def grid_classes(self, n: int) -> tuple:
        """Per axis of the n x n grid, (reps, inverse): index i lies in class
        inverse[i], and the distance at (i, j) is bitwise the distance at
        (reps[inverse[i]], reps[inverse[j]]). Here each index is its own class."""
        identity = np.arange(n)
        return (identity, identity), (identity, identity)

    def indicator_grid(self, n: int) -> np.ndarray:
        if self.dimension != 2:
            raise ValueError("indicator_grid is 2-d only")
        axis = np.arange(n) / n
        return self._contains((axis[:, None], axis[None, :])).astype(float)


# ---------------------------------------------------------------------------
# box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box(TorusSet):
    """Axis box  prod [a_j, b_j)  with 0 <= a_j < b_j <= 1 and width < 1."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("a and b must be equal-length vectors")
        if not (np.all(0 <= a) and np.all(a < b) and np.all(b <= 1)):   # NaN fails it too
            raise ValueError("need 0 <= a_j < b_j <= 1 per axis")
        if np.any(b - a >= 1.0):
            raise ValueError("box must not wrap: width < 1 per axis")
        object.__setattr__(self, "a", tuple(float(x) for x in a))
        object.__setattr__(self, "b", tuple(float(x) for x in b))

    @property
    def dimension(self) -> int:
        return len(self.a)

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.b) - np.asarray(self.a)

    def measure(self) -> float:
        return float(np.prod(self.widths))

    def _contains(self, coords) -> np.ndarray:
        inside = True
        for x, a, b in zip(coords, self.a, self.b):
            x = np.mod(x, 1.0)
            inside = inside & (x >= a) & (x < b)
        return inside

    def _distance(self, coords) -> np.ndarray:
        # per axis and shift s in {-1, 0, 1}: squared outside gap, inside flag, margin
        per_axis = []
        for x, a, b in zip(coords, self.a, self.b):
            x = np.mod(x, 1.0)
            terms = []
            for s in (-1.0, 0.0, 1.0):
                lo = (a + s) - x
                hi = x - (b + s)
                terms.append((np.maximum(np.maximum(lo, hi), 0.0) ** 2,
                              (lo < 0) & (hi < 0), np.minimum(-lo, -hi)))
            per_axis.append(terms)
        # each of the 3^d shifts is combined in the same three full-size buffers
        shape = np.broadcast_shapes(*(np.shape(x) for x in coords))
        out2, inside, margin = np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)
        best = np.full(shape, np.inf)
        for (o2, ins, mar), *rest in itertools.product(*per_axis):
            out2[...], inside[...], margin[...] = o2, ins, mar
            for o2, ins, mar in rest:
                np.add(out2, o2, out=out2)
                np.logical_and(inside, ins, out=inside)
                np.minimum(margin, mar, out=margin)
            np.sqrt(out2, out=out2)
            np.copyto(out2, margin, where=inside)
            np.minimum(best, out2, out=best)
        return best

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        a = np.asarray(self.a)
        b = np.asarray(self.b)
        out = np.ones(len(freqs), dtype=complex)
        for j in range(self.dimension):
            k = freqs[:, j]
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = (np.exp(-TWO_PI * 1j * k * a[j]) - np.exp(-TWO_PI * 1j * k * b[j])) \
                    / (TWO_PI * 1j * k)
            out *= np.where(k == 0, b[j] - a[j], factor)
        return out

    def to_json(self) -> dict:
        return {"variant": "box", "a": list(self.a), "b": list(self.b)}


# ---------------------------------------------------------------------------
# ball
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball(TorusSet):
    """Closed ball of radius r < 1/2; d = 2 or 3."""

    center: tuple
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or len(c) not in (2, 3):
            raise ValueError("ball center must be a 2- or 3-vector")
        if not np.all(np.isfinite(c)):
            raise ValueError(f"ball center must be finite, got {c.tolist()}")
        if not (0 < self.radius < 0.5):
            raise ValueError("ball radius must satisfy 0 < r < 1/2")
        object.__setattr__(self, "center", tuple(float(x) for x in c))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dimension(self) -> int:
        return len(self.center)

    def measure(self) -> float:
        r = self.radius
        return float(np.pi * r * r if self.dimension == 2 else 4.0 / 3.0 * np.pi * r ** 3)

    def _center_distance(self, coords) -> np.ndarray:
        sq = 0.0
        for x, c in zip(coords, self.center):
            sq = sq + _offset2(x, c)
        return np.sqrt(sq, out=sq)   # the sum is the first full-size array

    def grid_classes(self, n: int) -> tuple:
        # the distance adds one double per axis, so the indices whose doubles
        # are equal form a class: n/2 + 1 classes when n is a power of two and
        # c n an integer, more where i/n - c rounds (n = 768: about 3n/4)
        axis = np.arange(n) / n
        return tuple(np.unique(_offset2(axis, c), return_index=True, return_inverse=True)[1:]
                     for c in self.center)

    def _contains(self, coords) -> np.ndarray:
        return self._center_distance(coords) <= self.radius

    def _distance(self, coords) -> np.ndarray:
        dist = self._center_distance(coords)
        dist -= self.radius
        return np.abs(dist, out=dist)

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        norm = np.sqrt(np.sum(freqs ** 2, axis=1))
        phase = np.exp(-TWO_PI * 1j * (freqs @ np.asarray(self.center)))
        r = self.radius
        safe = np.where(norm == 0, 1.0, norm)
        if self.dimension == 2:
            radial = r * j1(TWO_PI * r * safe) / safe
        else:
            u = TWO_PI * r * safe
            radial = (np.sin(u) - u * np.cos(u)) / (2 * np.pi ** 2 * safe ** 3)
        return np.where(norm == 0, self.measure(), phase * radial)

    def to_json(self) -> dict:
        return {"variant": "ball", "center": list(self.center), "radius": self.radius}


# ---------------------------------------------------------------------------
# convex polygon (d = 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexPolytope(TorusSet):
    """Closed convex polygon with recorded translate-separation epsilon.

    Vertices are normalized to counter-clockwise order; diameter must be at
    most 1 - epsilon so that Z^2 translates stay disjoint.
    """

    vertices: tuple
    epsilon: float

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("need at least 3 planar vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError(f"polygon vertices must be finite, got {verts.tolist()}")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must be in (0, 1); it is required, not defaulted")
        area2 = _signed_area2(verts)
        if area2 < 0:
            verts = verts[::-1]
            area2 = -area2
        if area2 <= 0:
            raise ValueError("degenerate polygon")
        e = np.roll(verts, -1, axis=0) - verts
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        if np.any(cross <= 1e-14):
            raise ValueError("vertices must describe a strictly convex polygon")
        diam = np.max(np.sqrt(((verts[:, None, :] - verts[None, :, :]) ** 2).sum(-1)))
        if diam > 1.0 - self.epsilon:
            raise ValueError(f"diameter {diam:.4f} exceeds 1 - epsilon = {1 - self.epsilon:.4f}")
        object.__setattr__(self, "vertices", tuple(map(tuple, verts.tolist())))
        object.__setattr__(self, "epsilon", float(self.epsilon))

    dimension = 2

    @property
    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    @property
    def diameter(self) -> float:
        v = self.vertex_array
        return float(np.max(np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(-1))))

    @property
    def centroid(self) -> np.ndarray:
        return self.vertex_array.mean(axis=0)

    def edges(self):
        return self._edges()

    def _edges(self):
        """Each edge's start and end vertex; private, so distance workers call it."""
        v = self.vertex_array
        return v, np.roll(v, -1, axis=0)

    def measure(self) -> float:
        return 0.5 * _signed_area2(self.vertex_array)

    def _contains(self, coords) -> np.ndarray:
        """Closed membership with a tolerance of 1e-12 on every edge's cross
        product, of the offsets y from the centroid and their images y - s.

        Per axis only the images 0 and sign(y) can hold the point: the polygon
        lies within its diameter, below 1 - epsilon, of the centroid, and the
        image -sign(y) is at least 1 away on that axis. So 4 of the 9 images
        are tested, each with the same arithmetic as over all 9.
        """
        c = self.centroid
        p, q = self._edges()
        rel_p = p - c
        e = q - p
        offsets = []
        for x, ci in zip(coords, c):
            y = _offset(x, ci)
            offsets.append((y, y - np.sign(y)))
        (x0, x1), (y0, y1) = offsets
        hit = False
        for zx, zy in ((x0, y0), (x1, y0), (x0, y1), (x1, y1)):
            inside = True
            for (px, py), (ex, ey) in zip(rel_p, e):
                inside = inside & (ex * (zy - py) - ey * (zx - px) >= -1e-12)
                if not inside.any():
                    break
            hit = hit | inside
        return hit

    def _distance(self, coords) -> np.ndarray:
        """Distance to the nearest of each edge's images, as the module
        docstring derives: image 0 of every edge first, then the images
        sign(y) per axis only at the points where a box bound lets them win.

        Each kept image's squared distance is the same arithmetic on the same
        operands as over all 3 x 3 images. Every image left out is farther
        than one kept: by at least epsilon in squared distance (the lemma), or
        by at least _IMAGE_MARGIN (the box bound). Both exceed the rounding of
        a squared distance, about 1e-15, for any epsilon above it. So the
        distances are bitwise those of the 3 x 3 minimum, and sqrt, being
        monotone, may be taken before the secondary images' minima.
        """
        x, y = coords
        p, q = self._edges()
        edges = list(zip(0.5 * (p + q), 0.5 * (q - p)))
        best2 = None
        for mid, half in edges:
            d2 = _segment2(_offset(x, mid[0]), _offset(y, mid[1]), half)
            best2 = d2 if best2 is None else np.minimum(best2, d2, out=best2)
        dist = np.sqrt(best2, out=best2)
        # an image whose bound exceeds the largest distance is nowhere evaluated
        upper = dist.max(initial=-np.inf)
        for mid, half in edges:
            # per axis, the offsets to the images 0 and sign(y), each with its
            # box bound on the distance less the margin
            images = []
            for c, m, h in zip(coords, mid, half):
                z = _offset(c, m)
                z = (z, z - np.where(z >= 0, 1.0, -1.0))
                images.append([(zi, np.abs(zi) - abs(h) - _IMAGE_MARGIN) for zi in z])
            (x0, x1), (y0, y1) = images
            for (zx, lx), (zy, ly) in ((x1, y0), (x0, y1), (x1, y1)):
                if not (np.any(lx < upper) and np.any(ly < upper)):
                    continue
                at = np.nonzero(np.less(lx, dist) & np.less(ly, dist))
                zx, zy = (np.broadcast_to(a, dist.shape)[at] for a in (zx, zy))
                dist[at] = np.minimum(dist[at], np.sqrt(_segment2(zx, zy, half)))
        return dist

    def fourier_coefficients(self, freqs: np.ndarray) -> np.ndarray:
        """Exact Fourier transform of the polygon via the divergence identity.

        The area integral reduces to edge integrals weighted by
        i (n . xi) / (2 pi |xi|^2); edge integrals are exact sinc forms.
        Below the frequency threshold 2 pi |xi| < 1/diameter the reduction is
        ill-conditioned and a direct quadrature over a fan triangulation is
        used instead.
        """
        freqs = np.atleast_2d(np.asarray(freqs, dtype=float))
        p, q = self.edges()
        e = q - p
        L = np.sqrt((e ** 2).sum(1))
        n_out = np.stack([e[:, 1], -e[:, 0]], axis=1) / L[:, None]
        mid = 0.5 * (p + q)

        norm2 = (freqs ** 2).sum(1)
        out = np.empty(len(freqs), dtype=complex)
        lam = self.diameter
        low = TWO_PI * np.sqrt(norm2) < 1.0 / lam

        hi = ~low
        if np.any(hi):
            F = freqs[hi]
            u = F @ e.T
            phase = np.exp(-TWO_PI * 1j * (F @ mid.T))
            edge_int = L[None, :] * phase * np.sinc(u)
            coef = 1j * (F @ n_out.T) / (TWO_PI * norm2[hi][:, None])
            out[hi] = (coef * edge_int).sum(axis=1)
        if np.any(low):
            out[low] = self._fourier_by_quadrature(freqs[low])
        return out

    def _fourier_by_quadrature(self, freqs: np.ndarray) -> np.ndarray:
        verts = self.vertex_array
        x, w = gauss_nodes(24)
        s = 0.5 * (x + 1.0)
        ws = 0.5 * w
        S, T = np.meshgrid(s, s, indexing="ij")
        WW = np.outer(ws, ws)
        out = np.zeros(len(freqs), dtype=complex)
        for i in range(1, len(verts) - 1):
            v0, v1, v2 = verts[0], verts[i], verts[i + 1]
            det = abs(_cross(v1 - v0, v2 - v1))
            P = v0[None, None, :] + S[..., None] * ((v1 - v0)[None, None, :]
                                                    + T[..., None] * (v2 - v1)[None, None, :])
            jac = S * det
            phases = np.exp(-TWO_PI * 1j * np.tensordot(freqs, P, axes=([1], [2])))
            out += np.sum(phases * (WW * jac)[None, :, :], axis=(1, 2))
        return out

    def to_json(self) -> dict:
        return {"variant": "polytope", "vertices": [list(v) for v in self.vertices],
                "epsilon": self.epsilon}


def _offset(x, c):
    """Periodic offset of the coordinates x from c, in [-1/2, 1/2]."""
    return np.mod(x - c + 0.5, 1.0) - 0.5


def _offset2(x, c):
    """Squared periodic offset of the coordinates x from c, as the ball's distance adds it."""
    return _offset(x, c) ** 2


def _segment2(zx, zy, half) -> np.ndarray:
    """Squared distance from the points z to the segment [-half, half], in
    place in the arrays the projection makes."""
    t = zx * half[0] + zy * half[1]
    t /= np.dot(half, half)
    np.clip(t, -1.0, 1.0, out=t)
    dx = t * half[0]
    np.subtract(zx, dx, out=dx)
    dx *= dx
    t *= half[1]
    np.subtract(zy, t, out=t)
    t *= t
    dx += t
    return dx


def _signed_area2(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _cross(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def set_from_json(data) -> TorusSet:
    if isinstance(data, (str, Path)):
        data = json.loads(Path(data).read_text())
    variant = data.get("variant")
    if variant == "box":
        return Box(tuple(data["a"]), tuple(data["b"]))
    if variant == "ball":
        return Ball(tuple(data["center"]), float(data["radius"]))
    if variant == "polytope":
        return ConvexPolytope(tuple(map(tuple, data["vertices"])), float(data["epsilon"]))
    raise ValueError(f"unknown set variant {variant!r}")
