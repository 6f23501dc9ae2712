"""Radial majorant kernel: bump profile, kernel table, tail integral, decay profile psi.

Construction chain, all radial and dimension d in {1, 2, 3}:

    m(xi)   = c_d * exp(-1 / (1/4 - |xi|^2))  for |xi| < 1/2, 0 outside,
              normalized so that the d-dimensional integral of m^2 is 1;
    khat    = (1 + |xi|^2)^(-(d+1)/2) * (m * m)(xi),  supported in |xi| <= 1;
    K       = inverse radial Fourier transform of khat (positive, mean 1);
    I(t)    = integral of K over {|x| >= t}, satisfying I(t+1) >= exp(-2*pi) I(t);
    gamma   = (exp(-2*pi) * integral of K over the unit ball)^(-1);
    psi(t)  = 4 * gamma * I(t/2).

One radial Fourier transform F (cos, J0 or sinc sums over Gauss-Legendre
nodes) serves both transforms in the chain. By the convolution theorem
m * m = F^-1[(F m)^2], and F is its own inverse on radial functions, so the
autocorrelation is two applications of F: once for F m on frequency nodes,
once to map (F m)^2 back to radii. A build maps it back to the master nodes
and the khat knots in one pass, so F m is computed once per resolution; the
error estimate is each radius's change from the coarser resolution. K is F
applied to khat on a fixed node set, so K, I(t) and radial masses are
closed-form sums with no nested quadrature. Both node sums run in fixed
blocks of radii, dealt by `parallel` to one worker thread per CPU the
process may use; each worker fills its blocks' columns in its own reused
buffers by the operations of the plain numpy expressions. No
node-by-all-radii matrix is held, and a table's bytes depend neither on the
BLAS thread count nor on the worker count.

Downstream modules consume the tables through one numpy piecewise-cubic
Hermite evaluator: monotone (PCHIP) slopes for I, computed when a table is
loaded, and the clamped cubic spline's knot slopes for khat, computed by one
tridiagonal sweep when the table is built and stored in it. Both repeat
scipy's arithmetic, so the values are bitwise those of scipy's interpolants.
Only the d = 2 build imports scipy, for the Bessel functions j0 and j1;
d = 1 and d = 3 builds and loading any table import none of it. The tail
beyond the table is replaced by a fitted power envelope that can only
over-estimate I, which is the safe direction for every majorization it feeds.
A build varies only in the dimension d, as the construction does; its table
extents, grid steps, panel counts, tail safety factor and positivity
tolerance are the constants BUILD_PARAMETERS and QUADRATURE_TOLERANCE, which
every table's provenance records.
The cache file's `version` is bumped whenever a change moves table numbers,
adds a field or fixes a value that older files may hold otherwise (version 4:
the extents x_max and t_max), so tables written by older code are rebuilt,
not reused. Blocked radial masses, the worker threads and the one
autocorrelation pass kept version 4: their tables are bitwise what the
earlier code wrote on one BLAS thread, and its files from more are as valid.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# scipy.special is imported inside the d = 2 branches that call j0 and j1: it
# is most of the package's import time, and no other path needs it
from . import parallel
from .errors import QuadratureError
from .frequencies import TWO_PI
from .quadrature import PANEL_ORDER, panel_nodes

SUPPORT_RADIUS = 0.5
SUPPORTED_DIMENSIONS = (1, 2, 3)

# surface measure of the unit sphere S^{d-1}
SPHERE_SURFACE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}

EXP_MINUS_2PI = float(np.exp(-TWO_PI))


def bump_raw(r):
    """Unnormalized profile exp(-1/(1/4 - r^2)) on r < 1/2, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < SUPPORT_RADIUS
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (0.25 - ri * ri))
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Normalized smooth radial profile with compact support in |xi| < 1/2."""

    dimension: int
    normalization: float      # c_d with m = c_d * bump_raw

    def __call__(self, r):
        return self.normalization * bump_raw(r)


def build_bump(d: int) -> BumpProfile:
    """Build the normalized bump profile for dimension d.

    The constant c_d is fixed by the d-dimensional radial quadrature of the
    squared profile on 8 Gauss-Legendre panels; QuadratureError is raised when
    the 4-panel value differs from it by more than 1e-12 relatively.
    """
    if d not in SUPPORTED_DIMENSIONS:
        raise ValueError(f"unsupported dimension {d}; supported: {SUPPORTED_DIMENSIONS}")

    coarse, square_mass = (float(np.dot(w, bump_raw(r) ** 2 * r ** (d - 1)))
                           for r, w in (panel_nodes(0.0, SUPPORT_RADIUS, p) for p in (4, 8)))
    err = abs(square_mass - coarse)
    if err > 1e-12 * square_mass:
        raise QuadratureError(f"bump normalization quadrature unstable: change {err:.3e}")
    square_mass *= SPHERE_SURFACE[d]
    return BumpProfile(dimension=d, normalization=float(1.0 / np.sqrt(square_mass)))


# ---------------------------------------------------------------------------
# radial Fourier transform; autocorrelation (m * m) on [0, 1]
# ---------------------------------------------------------------------------

# radii per block of both node sums, the transform's and the radial masses':
# it bounds each worker's node-by-radius buffers to a few MB and fixes the BLAS
# products, so the sums' bytes depend on neither the BLAS thread count nor the
# worker count. A multiple of 4: BLAS gemv sums a block's last len % 4 radii in
# another order, so other sizes would move the tables' last bits.
_TRANSFORM_CHUNK = 128

def _node_sum(weights: np.ndarray, s: np.ndarray, fill, buffers: int) -> np.ndarray:
    """weights @ fill(block, *bufs) for each block of _TRANSFORM_CHUNK radii of s.

    `fill` writes a block's node-by-radius columns into its `buffers` arrays of
    shape (len(weights), len(block)) and returns the one that holds them. The
    blocks are dealt to `parallel`'s workers, each of which owns its buffers.
    A short block takes the front of each buffer, so its columns are
    C-contiguous, as a fresh array's are: numpy may run a ufunc through
    another inner loop on strided input.
    """
    n = len(weights)
    out = np.empty_like(s)

    def work(starts):
        flat = [np.empty(n * min(_TRANSFORM_CHUNK, len(s))) for _ in range(buffers)]
        for i0 in starts:
            sb = s[i0:i0 + _TRANSFORM_CHUNK]
            out[i0:i0 + len(sb)] = weights @ fill(sb, *(f[:n * len(sb)].reshape(n, len(sb))
                                                         for f in flat))
    parallel.deal(range(0, len(s), _TRANSFORM_CHUNK), work)
    return out


def _radial_transform(d: int, r: np.ndarray, wf: np.ndarray, s: np.ndarray) -> np.ndarray:
    """omega_d * sum_i wf_i r_i^(d-1) j_d(2 pi r_i s) for each s.

    With wf_i = w_i f(r_i) on quadrature nodes r_i this is the Fourier
    transform of the radial function f in dimension d, which is its own
    inverse. The columns are cos, J0 or sinc of 2 pi r s, by the operations
    of np.cos(TWO_PI * np.outer(r, s)), j0(TWO_PI * np.outer(r, s)) and
    np.sinc(2.0 * np.outer(r, s)) in their order, so the values are theirs.
    """
    if d == 2:
        from scipy.special import j0
    eps = np.finfo(float).eps            # np.sinc's stand-in for 0, so sinc(0) = 1

    def columns(sb, x, y=None):
        np.multiply(r[:, None], sb, out=x)
        if d == 1:
            x *= TWO_PI
            return np.cos(x, out=x)
        if d == 2:
            x *= TWO_PI
            return j0(x, out=x)
        x *= 2.0
        x *= np.pi
        np.copyto(x, eps, where=x == 0)
        np.sin(x, out=y)
        y /= x
        return y
    return _node_sum(SPHERE_SURFACE[d] * wf * r ** (d - 1), s, columns, 2 if d == 3 else 1)


def _squared_transform(bump: BumpProfile, cutoff: float, xi_panels: int,
                       r_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes xi over [0, cutoff] and their weights times (F m)(xi)^2."""
    r, w_r = panel_nodes(0.0, SUPPORT_RADIUS, r_panels)
    xi, w_xi = panel_nodes(0.0, cutoff, xi_panels)
    mhat = _radial_transform(bump.dimension, r, w_r * bump(r), xi)
    return xi, w_xi * mhat ** 2


def autocorrelation_values(bump: BumpProfile, s) -> tuple[np.ndarray, np.ndarray]:
    """(m * m)(s) = F[(F m)^2](s) for radii s in [0, 1], and each radius's
    change under refinement, an error estimate.

    The refinement doubles the frequency cutoff and both sets of panels, so
    the estimate also covers the truncated transform tail. Raises
    QuadratureError when it moves any value by more than 1e-8.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    coarse, fine = (_radial_transform(bump.dimension, *_squared_transform(bump, *resolution), s)
                    for resolution in ((50.0, 50, 8), (100.0, 100, 16)))
    change = np.abs(fine - coarse)
    err = float(np.max(change))
    if err > 1e-8:
        raise QuadratureError(f"autocorrelation quadrature unstable: change {err:.3e}")
    return fine, change


# ---------------------------------------------------------------------------
# kernel table
# ---------------------------------------------------------------------------

# points per evaluation block: the dozen passes over a block stay in cache
_HERMITE_BLOCK = 1 << 14


class _CubicHermite:
    """Piecewise cubic on uniformly spaced knots from knot values and slopes.

    Without `slopes` the knot slopes are those of scipy's PchipInterpolator
    (monotone); the clamped cubic spline of khat passes its stored slopes.
    The coefficients, the interval rule (the last knot <= v, clipped to the
    end intervals, which extrapolate) and the order of every addition and
    multiplication are those of scipy's CubicHermiteSpline and PPoly, so the
    values are bitwise those of scipy's interpolant on the same knots and
    slopes. Raises ValueError unless there are at least 3 knots, uniformly
    spaced (within a quarter step, which the one-step interval correction
    needs), with one value and one slope per knot.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, slopes: np.ndarray | None = None):
        n = len(x)
        step = (x[-1] - x[0]) / (n - 1) if n > 2 else 0.0
        if not (step > 0 and y.shape == (n,)
                and np.all(np.abs(x - (x[0] + step * np.arange(n))) <= 0.25 * step)):
            raise ValueError("a cubic table needs >= 3 uniform knots and one value per knot")
        if slopes is None:
            slopes = _pchip_slopes(x, y)
        elif slopes.shape != (n,):
            raise ValueError(f"a cubic table needs one slope per knot: {slopes.shape} for {n}")
        dx = np.diff(x)
        secant = np.diff(y) / dx
        t = (slopes[:-1] + slopes[1:] - 2 * secant) / dx
        self.x, self.step = x, step
        self.c0 = t / dx
        self.c1 = (secant - slopes[:-1]) / dx - t
        self.c2 = slopes[:-1]
        self.c3 = y[:-1]

    def __call__(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Values at the points of the 1-d array v, into `out` if given (it may
        be v itself)."""
        out = np.empty_like(v) if out is None else out
        scratch = _hermite_scratch(min(len(v), _HERMITE_BLOCK))
        for a in range(0, len(v), _HERMITE_BLOCK):
            self._block(v[a:a + _HERMITE_BLOCK], out[a:a + _HERMITE_BLOCK], scratch)
        return out

    def _block(self, vb: np.ndarray, ob: np.ndarray, scratch: tuple) -> None:
        """Values at the at most _HERMITE_BLOCK points vb, into ob, which may be
        vb: vb is last read before ob is first written. The guessed interval
        is clipped to the knots and moves by at most one before the last clip,
        so every index gathered with is in range (a NaN point's is not, and
        its value is NaN either way). So the gathers take mode='clip', which
        writes into `out` without the default mode's buffered copy."""
        x, last, n = self.x, len(self.x) - 2, len(vb)
        sb, s2b, tb, _, i, f, _ = (a[:n] for a in scratch)
        # interval: guess from the uniform step, then at most one step either way
        np.subtract(vb, x[0], out=sb)
        sb /= self.step
        np.clip(sb, 0, last, out=sb)
        i[...] = sb
        np.take(x, i, out=sb, mode="clip")
        i -= np.greater(sb, vb, out=f)
        i += 1
        np.take(x, i, out=sb, mode="clip")
        i -= np.greater(sb, vb, out=f)
        np.clip(i, 0, last, out=i)
        np.subtract(vb, np.take(x, i, out=sb, mode="clip"), out=sb)
        # c3 + c2 s + c1 (s s) + c0 ((s s) s), summed left to right as scipy does
        np.take(self.c2, i, out=ob, mode="clip")
        ob *= sb
        ob += np.take(self.c3, i, out=tb, mode="clip")
        np.multiply(sb, sb, out=s2b)
        np.take(self.c1, i, out=tb, mode="clip")
        tb *= s2b
        ob += tb
        s2b *= sb
        np.take(self.c0, i, out=tb, mode="clip")
        tb *= s2b
        ob += tb


def _hermite_scratch(size: int) -> tuple:
    """Buffers for blocks of at most `size` points of `_CubicHermite._block` and
    `KernelTable._tail`: four float arrays, an index array and two masks."""
    return (*(np.empty(size) for _ in range(4)), np.empty(size, dtype=np.intp),
            np.empty(size, dtype=bool), np.empty(size, dtype=bool))


# bytes of one `_hermite_scratch(_HERMITE_BLOCK)`
_HERMITE_SCRATCH_BYTES = (4 * 8 + 8 + 2) * _HERMITE_BLOCK


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of scipy's PchipInterpolator (Fritsch-Carlson, Moler's ends)."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    slopes = np.zeros_like(y)
    slopes[1:-1][~flat] = 1.0 / whmean[~flat]
    slopes[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    slopes[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return slopes


def _clamped_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of scipy's CubicSpline(x, y, bc_type="clamped"): 0 at both ends.

    The inner rows are the spline's continuity conditions,
    dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
        = 3 (dx[i] m[i-1] + dx[i-1] m[i]),
    with secants m; the end rows are s = 0. The tridiagonal system is solved
    by LAPACK dgtsv's elimination in the same order. With uniform knots at
    most 1 apart (the end rows' diagonal), every pivot is at least its
    subdiagonal, so dgtsv swaps no rows and the slopes are bitwise scipy's.
    """
    dx = np.diff(x)
    m = np.diff(y) / dx
    diag = [1.0, *(2 * (dx[:-1] + dx[1:])).tolist(), 1.0]
    upper = [0.0, *dx[:-1].tolist()]             # row i's coefficient of s[i+1]
    lower = [*dx[1:].tolist(), 0.0]              # row i+1's coefficient of s[i]
    b = [0.0, *(3 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])).tolist(), 0.0]
    for i in range(len(x) - 1):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        b[i + 1] -= fact * b[i]
    b[-1] /= diag[-1]
    for i in range(len(x) - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / diag[i]
    return np.array(b)


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, limited to keep the end monotone."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


# the cache document's format and version; see the module docstring for the version
_DOCUMENT = {"format": "discrepancy-forge-kernel", "version": 4}


def _field_value(name: str, kind: str, value):
    """A cache document's value as a field of the declared type `kind`: a list
    of numbers for an array, a number for a float, an integer for an int, an
    object for a dict. ValueError otherwise, as for a missing field's None."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "np.ndarray" and isinstance(value, list):
        with contextlib.suppress(ValueError):  # numpy's error for a ragged list
            arr = np.array(value)
            if arr.ndim == 1 and arr.dtype.kind in "if":
                return arr.astype(float, copy=False)
    elif kind == "dict" and isinstance(value, dict):
        return dict(value)
    elif kind == "float" and number:
        return float(value)
    elif kind == "int" and number and isinstance(value, int):
        return value
    raise ValueError(f"kernel table field {name!r} is missing or not {kind}: {value!r:.40}")


@dataclass
class KernelTable:
    """Tabulated radial kernel K, transform khat, tail integral I, constants.

    All arrays are immutable by convention; instances are safe to share
    read-only across workers.
    """

    dimension: int
    khat_grid: np.ndarray
    khat: np.ndarray
    khat_slopes: np.ndarray       # knot slopes of the clamped cubic spline of khat
    kvals_grid: np.ndarray
    kvals: np.ndarray
    tail_grid: np.ndarray
    tail: np.ndarray
    gamma: float
    x_max: float
    t_max: float
    quadrature_tolerance: float
    ball_mass: float              # integral of K over the unit ball
    tail_envelope_coeff: float    # C with |K(s)| <= C s^-(d+2) for s >= x_max
    khat_accuracy: float
    provenance: dict
    _khat_spline: _CubicHermite = field(init=False, repr=False)
    _tail_interp: _CubicHermite = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < len(self.kvals) == len(self.kvals_grid):
            raise ValueError(f"kernel table fields 'kvals' and 'kvals_grid' need equal, nonzero "
                             f"lengths: {len(self.kvals)} and {len(self.kvals_grid)}")
        self._khat_spline = _CubicHermite(self.khat_grid, self.khat, self.khat_slopes)
        self._tail_interp = _CubicHermite(self.tail_grid, self.tail)

    # -- evaluators ---------------------------------------------------------

    def khat_value(self, r):
        """khat(r) by cubic interpolation; exactly 0 for r >= 1."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < 1.0
        out[inside] = self._khat_spline(r[inside])
        return out if out.ndim else float(out)

    def _envelope(self, t: np.ndarray, out=None, where=True) -> np.ndarray:
        """One-sided bound for I(t), valid for t >= x_max."""
        omega = SPHERE_SURFACE[self.dimension]
        out = np.power(t, -2.0, out=out, where=where)
        return np.multiply(0.5 * omega * self.tail_envelope_coeff, out, out=out, where=where)

    def tail_integral(self, t):
        """I(t), monotone interpolation of the table; envelope beyond t_max.

        Never under-estimates the true tail (table values carry the integrated
        envelope remainder), so psi built on it stays a majorant.
        """
        out = self._tail(np.asarray(t, dtype=float))
        return out if out.ndim else float(out)

    def _tail(self, t: np.ndarray, out: np.ndarray | None = None,
              scratch: tuple | None = None) -> np.ndarray:
        """tail_integral's body on an array, which calls no public method:
        H-table strip workers evaluate I through it, into a C-contiguous `out`
        of t's shape (t itself may be `out`) and with their own
        `_hermite_scratch` buffers.

        Each block of _HERMITE_BLOCK points goes to the interpolant where it
        lies at or below t_max, and to the envelope elsewhere (NaN included);
        a block that holds both compresses its interpolated points. Each value
        is elementwise arithmetic on its own point, so it does not depend on
        the blocks.
        """
        out = np.empty(t.shape) if out is None else out
        if scratch is None:
            scratch = _hermite_scratch(min(t.size, _HERMITE_BLOCK))
        inner, beyond, inside = scratch[3], scratch[5], scratch[6]
        flat_t, flat_out = t.reshape(-1), out.reshape(-1)
        for a in range(0, len(flat_t), _HERMITE_BLOCK):
            tb, ob = flat_t[a:a + _HERMITE_BLOCK], flat_out[a:a + _HERMITE_BLOCK]
            m = np.less_equal(tb, self.t_max, out=inside[:len(tb)])
            k = np.count_nonzero(m)
            if k == len(tb):
                self._tail_interp._block(tb, ob, scratch)
            else:
                vin = np.compress(m, tb, out=inner[:k])   # before ob, which may be tb, is written
                self._envelope(tb, out=ob, where=np.logical_not(m, out=beyond[:len(tb)]))
                if k:
                    self._tail_interp._block(vin, vin, scratch)
                    ob[m] = vin
            np.maximum(ob, 0.0, out=ob)
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """The cache document: its format and version, and every field by name."""
        doc = dict(_DOCUMENT)
        for f in fields(self):
            if f.init:
                value = getattr(self, f.name)
                doc[f.name] = value.tolist() if f.type == "np.ndarray" else value
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "KernelTable":
        """The table a cache document holds; ValueError for another format or
        version, a missing or mistyped field, or knots the evaluators reject."""
        if not isinstance(data, dict) or data.get("format") != _DOCUMENT["format"]:
            raise ValueError("not a kernel table document")
        if data.get("version") != _DOCUMENT["version"]:
            raise ValueError(f"unsupported kernel table version {data.get('version')}")
        return cls(**{f.name: _field_value(f.name, f.type, data.get(f.name))
                      for f in fields(cls) if f.init})


def save_kernel(table: KernelTable, path) -> None:
    """Write the table as JSON; readers see the old file or the whole new one.

    The text goes to a unique temporary file in the target directory, which
    then replaces `path` atomically, so concurrent writers cannot tear it.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(table.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_kernel(path) -> KernelTable:
    return KernelTable.from_dict(json.loads(Path(path).read_text()))


def _radial_masses(d: int, nodes: np.ndarray, coeff: np.ndarray, t: np.ndarray,
                   hi: float) -> np.ndarray:
    """Integral of K = F khat over {t <= |x| <= hi} for each lower bound t,
    where coeff = w_i khat(r_i) on the transform's nodes r_i."""
    if d == 2:
        from scipy.special import j1
    a = (TWO_PI * nodes)[:, None]        # angular frequencies, one node a row
    a2 = a * a

    def prim(v, x, y=None):              # each node's term of the mass, integrated up to v
        np.multiply(a, v, out=x)
        if d == 1:                       # sin(a v) / a
            np.sin(x, out=x)
        elif d == 2:                     # J1(a v) v / a
            j1(x, out=x)
            x *= v
        else:                            # (sin(a v) - a v cos(a v)) / a^2
            np.cos(x, out=y)
            y *= x
            np.sin(x, out=x)
            x -= y
        x /= a2 if d == 3 else a
        return x
    buffers = 2 if d == 3 else 1
    prim_hi = prim(np.array([hi]), *(np.empty((len(a), 1)) for _ in range(buffers)))
    inner = 2.0 * coeff if d == 1 else (TWO_PI if d == 2 else 2.0) * coeff * nodes
    return SPHERE_SURFACE[d] * _node_sum(
        inner, t, lambda v, *bufs: np.subtract(prim_hi, prim(v, *bufs), out=bufs[0]), buffers)


# fixed build parameters, recorded in every table's provenance
BUILD_PARAMETERS = {
    "x_max": 25.0,                 # K is tabulated on [0, x_max], a power envelope beyond
    "t_max": 30.0,                 # I is tabulated on [0, t_max], the envelope beyond
    "kvals_step": 0.005,           # K grid step on [0, x_max]
    "tail_step": 0.01,             # I grid step on [0, t_max]
    "khat_grid_n": 1025,           # khat knots on [0, 1]
    "master_panels": 64,           # Gauss-Legendre panels of K = F khat over [0, 1]
    "master_order": PANEL_ORDER,
    "tail_safety": 2.0,            # factor on the K envelope fitted beyond 0.9 x_max
}
# K is provably positive; a tabulated value below -QUADRATURE_TOLERANCE fails the build
QUADRATURE_TOLERANCE = 1e-6


def build_kernel_table(bump: BumpProfile) -> KernelTable:
    """Build the kernel table for the bump's dimension.

    Raises QuadratureError if the tabulated K dips below
    -QUADRATURE_TOLERANCE (K is provably positive) or if the tail ratio
    I(t+1) >= exp(-2 pi) I(t) fails beyond 1e-9 slack anywhere on the table.
    """
    d = bump.dimension
    p = BUILD_PARAMETERS
    x_max, t_max = p["x_max"], p["t_max"]
    kvals_step, tail_step, tail_safety = p["kvals_step"], p["tail_step"], p["tail_safety"]

    decay = (d + 1) / 2.0
    nodes, weights = panel_nodes(0.0, 1.0, p["master_panels"])
    khat_grid = np.linspace(0.0, 1.0, p["khat_grid_n"])
    # khat on the master nodes, then on the knots: one pass over both
    s = np.concatenate([nodes, khat_grid])
    conv, change = autocorrelation_values(bump, s)
    khat_nodes, khat_tab = np.split((1.0 + s ** 2) ** (-decay) * conv, [len(nodes)])
    coeff = weights * khat_nodes        # K = F khat as a finite sum over the nodes

    khat_tab[-1] = 0.0  # support constraint is exact
    khat_slopes = _clamped_slopes(khat_grid, khat_tab)
    spline = _CubicHermite(khat_grid, khat_tab, khat_slopes)
    khat_accuracy = (float(np.max(np.abs(spline(nodes) - khat_nodes)))
                     + float(np.max(change[:len(nodes)])))

    kvals_grid = np.arange(0.0, x_max + 0.5 * kvals_step, kvals_step)
    kvals = _radial_transform(d, nodes, coeff, kvals_grid)
    kmin = float(kvals.min())
    if kmin < -QUADRATURE_TOLERANCE:
        raise QuadratureError(
            f"tabulated K reaches {kmin:.3e} < -{QUADRATURE_TOLERANCE:.1e}; "
            "K is provably positive, so the transform quadrature failed")

    omega = SPHERE_SURFACE[d]
    sel = kvals_grid >= 0.9 * x_max
    envelope_c = tail_safety * float(np.max(np.abs(kvals[sel]) * kvals_grid[sel] ** (d + 2)))
    remainder = 0.5 * omega * envelope_c * x_max ** (-2.0)

    tail_grid = np.arange(0.0, t_max + 0.5 * tail_step, tail_step)
    inside = tail_grid <= x_max
    tail = np.empty_like(tail_grid)
    tail[inside] = _radial_masses(d, nodes, coeff, tail_grid[inside], x_max) + remainder
    tail[~inside] = 0.5 * omega * envelope_c * tail_grid[~inside] ** (-2.0)
    tail = np.maximum(tail, 0.0)

    # tail ratio claim, slack 1e-9
    n_shift = int(round(1.0 / tail_step))
    ratio_ok = tail[n_shift:] >= EXP_MINUS_2PI * tail[:-n_shift] - 1e-9
    if not np.all(ratio_ok):
        worst = int(np.argmin(tail[n_shift:] - EXP_MINUS_2PI * tail[:-n_shift]))
        raise QuadratureError(
            f"tail ratio I(t+1) >= exp(-2 pi) I(t) violated near t = {tail_grid[worst]:.2f}")

    ball_mass = _radial_masses(d, nodes, coeff, np.zeros(1), 1.0)[0]
    gamma = float(np.exp(TWO_PI) / ball_mass)

    provenance = {
        "builder": "discrepancy-forge",
        "dimension": d,
        "bump": {"profile": "exp(-1/(1/4-r^2))", "normalization": bump.normalization},
        **BUILD_PARAMETERS,
    }

    return KernelTable(
        dimension=d,
        khat_grid=khat_grid, khat=khat_tab, khat_slopes=khat_slopes,
        kvals_grid=kvals_grid, kvals=kvals,
        tail_grid=tail_grid, tail=tail,
        gamma=gamma, x_max=x_max, t_max=t_max,
        quadrature_tolerance=QUADRATURE_TOLERANCE,
        ball_mass=float(ball_mass),
        tail_envelope_coeff=envelope_c,
        khat_accuracy=khat_accuracy,
        provenance=provenance,
    )


def psi(kernel: KernelTable, t):
    """Universal decay profile psi(t) = 4 * gamma * I(t/2).

    Monotone nonincreasing; beyond the table it returns the analytic envelope,
    which can only over-estimate, preserving majorization downstream.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("psi requires t >= 0")
    return 4.0 * kernel.gamma * kernel.tail_integral(t / 2.0)   # a float for a scalar t
