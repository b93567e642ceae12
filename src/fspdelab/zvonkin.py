"""Drift regularization by the resolvent fixed point.

The reference dynamics is the linear equation dZ = AZ dt + Q0 dW with a
constant diagonal Q0, whose transition kernel is an explicit Gaussian.
Its semigroup P0 is evaluated by tensor Gauss-Hermite quadrature, and
spatial derivatives come from differentiating that Gaussian kernel
(Stein factors), never from differencing the integrand.

The regularizer u solves

    u(s, x) = int_s^T exp(-lam (t-s)) P0_{s,t} (grad_b u(t,.) + b(t,.))(x) dt

by Picard iteration of the right-hand side, contractive for lam large
with factor O(1/sqrt(lam)).  theta(t, x) = x + u(t, x) is then a
diffeomorphism once |grad u| <= 1/8, and conjugating the original system
through theta yields Lipschitz coefficients whose constants K1..K4 are
measured on seeded state batteries.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .analysis import Spectrum, WeightFunction, sqrt_weight
from .errors import CertificationError, InputError
from .quadrature import gl_rule, hermite_tensor, panel_integral
from .segment import sine_segment_values
from .simulator import CoefficientSet, SegmentView, _row_norms, _sorted_unique, _times_modes

if TYPE_CHECKING:
    from scipy.interpolate import NdBSpline

GH_DIM_CAP = 3
# the grid axis's nodes nearest 0, at +-INNERMOST_NODE (see ZvonkinGrid)
INNERMOST_NODE = 0.02
# solve_u's sweep reads a time slice's quadrature points in chunks of whole
# slots holding at most this many points (one slot if it alone holds more)
CHUNK_POINTS = 1 << 15
# solve_u keeps the drift samples of its leading chunks across its sweeps
# while their floats, one per query point and held mode, total at most this
# many (8 MiB)
KEPT_DRIFT_FLOATS = 1 << 20


@dataclass(frozen=True)
class ReferenceSemigroup:
    """Gaussian transition data for the drift-free linear reference equation."""

    spec: Spectrum
    q_diag: np.ndarray
    quad_order: int = 7

    def __post_init__(self):
        q = np.asarray(self.q_diag, dtype=float)
        object.__setattr__(self, "q_diag", q)
        if q.shape != (self.spec.n_modes,) or np.any(q <= 0.0):
            raise InputError("reference noise amplitudes must be positive, one per mode")

    def transition(self, s: float, t: float):
        """Mean decay and standard deviation of Z_t given Z_s, per mode."""
        if t <= s:
            raise InputError("transition requires t > s")
        lam = self.spec.eigenvalues
        gap = t - s
        decay = np.exp(-lam * gap)
        var = self.q_diag**2 * (1.0 - decay**2) / (2.0 * lam)
        return decay, np.sqrt(var)


@dataclass(frozen=True)
class ZvonkinGrid:
    """Space-time resolution for the fixed-point solve.

    The spatial axis refines geometrically toward the origin, from a
    spacing of 0.02 up to the halfwidth: the built-in drifts put their
    non-differentiable point there, and derivative tables develop
    structure at scale 1/sqrt(lam), which a uniform grid of affordable
    size cannot resolve.  The node count is odd, so the axis is symmetric
    about its node at 0.
    """

    time_steps: int = 16
    nodes_per_dim: int = 11
    halfwidth: float = 3.0
    quad_panels: int = 8
    quad_order: int = 6

    def __post_init__(self):
        if self.nodes_per_dim % 2 == 0:
            raise InputError("nodes_per_dim must be odd: the axis is symmetric about 0")
        # fewer nodes, or a halfwidth at or inside the innermost node, give an
        # axis that misses +-halfwidth, repeats a node or is not monotone
        if self.nodes_per_dim < 5:
            raise InputError("nodes_per_dim must be at least 5: the axis needs nodes at 0, "
                             f"+-{INNERMOST_NODE} and +-halfwidth")
        if not self.halfwidth > INNERMOST_NODE:
            raise InputError(f"halfwidth must exceed {INNERMOST_NODE}, the innermost node of the axis")

    def axis(self) -> np.ndarray:
        levels = np.geomspace(INNERMOST_NODE, self.halfwidth, (self.nodes_per_dim - 1) // 2)
        return np.concatenate([-levels[::-1], [0.0], levels])

    def axes(self, n_dims: int):
        ax = self.axis()
        return tuple(ax for _ in range(n_dims))


def _warped_time_rule(lam: float, gap: float, grid: ZvonkinGrid):
    """Nodes/weights for int_s^T exp(-lam (t-s)) F(t) dt, clustered at t = s.

    Substituting tau = exp(-lam (t-s)) flattens the exponential; panels
    refine geometrically, by a ratio of 6, toward tau = 1 where the
    derivative kernels of P0 have their boundary layer.
    """
    tau_min = math.exp(-lam * gap)
    depth = 1.0 - tau_min
    edges = [tau_min]
    for k in range(1, grid.quad_panels):
        edges.append(1.0 - depth * 6.0 ** (-k))
    edges.append(1.0)
    nodes, weights = gl_rule(grid.quad_order)
    taus, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        taus.append(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
        wts.append(0.5 * (hi - lo) * weights / lam)
    tau = np.concatenate(taus)
    wt = np.concatenate(wts)
    offsets = -np.log(tau) / lam
    return offsets, wt


def _axis_stencil(axis: np.ndarray, coords: np.ndarray):
    """Cell index and offset of coords on a sorted axis, as linear interpolation reads them.

    Points beyond the axis fall in the first or last cell with an offset
    outside [0, 1], i.e. they are extrapolated linearly.  Searching only the
    interior breakpoints yields that cell index without a clip, which is
    cheap enough for the time lookups of every field evaluation.
    """
    lo = np.searchsorted(axis[1:-1], coords, side="right")
    return lo, (coords - axis[lo]) / (axis[lo + 1] - axis[lo])


def _work(work: dict, name, shape, dtype=float) -> np.ndarray:
    """A C-ordered view of `shape` on the leading entries of the buffer work[name].

    The buffer is allocated at its first request and again only when a later
    request needs more entries; a smaller request reads a leading view, which
    holds whatever an earlier request left there.
    """
    size = math.prod(shape)
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _multilinear(table: np.ndarray, lo, frac, work: dict) -> np.ndarray:
    """Multilinear interpolation of B component-major (C, B, *grid) tables.

    lo[d] and frac[d] are the cell index and offset along grid dimension d
    (from _axis_stencil), with a leading axis of length B; they broadcast
    against each other to (B, *layout), and table b is read only at the
    points of row b.  The result is (C, B, *layout).  Corners are visited
    and their weights multiplied in the order of scipy's
    interpn(method="linear"), so the values agree with it bit for bit, up to
    the sign of a zero.

    The value, the gathered corner term, the flat index and the corner
    weights live in `work` (see _work), and the result is a view into it,
    valid until the next call on the same `work`.

    Stencils laid out axis by axis, lo[d] and frac[d] of shape (B, 1, ...,
    L_d, ..., 1) as solve_u gives them, are read as they are: only the
    last axis's index term and the weight products span the full layout.
    The index is that of the first corner; every corner gathers from the
    view of the table shifted by its offset.
    """
    grid_shape = table.shape[2:]
    flat = table.reshape(table.shape[0], -1)
    strides = [math.prod(grid_shape[d + 1:]) for d in range(len(lo))]
    rows = np.arange(table.shape[1]).reshape((-1,) + (1,) * (lo[0].ndim - 1))
    shape = np.broadcast_shapes(rows.shape, *(l.shape for l in lo), *(y.shape for y in frac))
    # the last axis's stride is 1: only its term is added over the full layout
    lead = rows * math.prod(grid_shape)
    for l, st in zip(lo[:-1], strides):
        lead = lead + l * st
    index = np.add(lead, lo[-1], out=_work(work, "index", shape, np.intp))
    sides = [(1.0 - y, y) for y in frac]
    value = _work(work, "value", (flat.shape[0],) + shape)
    term = _work(work, "term", value.shape)
    for corner in itertools.product((0, 1), repeat=len(lo)):
        weight = sides[0][corner[0]]
        for d in range(1, len(lo)):
            side = sides[d][corner[d]]
            weight = np.multiply(weight, side, out=_work(
                work, ("weight", d % 2), np.broadcast_shapes(weight.shape, side.shape)))
        offset = sum(c * st for c, st in zip(corner, strides))
        part = term if any(corner) else value
        # every index is inside the table, so "clip" only skips the bounds check
        np.take(flat[:, offset:], index, axis=1, out=part, mode="clip")
        part *= weight
        if part is term:
            value += term
    return value


def _cubic_knots(axis: np.ndarray) -> np.ndarray:
    """Not-a-knot knots of a cubic spline interpolating at the nodes of axis."""
    return np.concatenate([np.full(4, axis[0]), axis[2:-2], np.full(4, axis[-1])])


def _sphere_directions(n: int) -> np.ndarray:
    """Unit directions sampling the half circle (n = 2) or the sphere (n = 3)."""
    if n == 2:
        ang = np.linspace(0.0, math.pi, 181)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    k = np.arange(400)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * k
    zc = 1.0 - 2.0 * (k + 0.5) / 400
    rc = np.sqrt(1.0 - zc**2)
    return np.stack([rc * np.cos(phi), rc * np.sin(phi), zc], axis=-1)


def _max_spectral_norm(mats: np.ndarray) -> float:
    """Largest spectral norm in a (..., n, n) stack, by SVD of only the matrices that can hold it.

    A matrix's spectral norm is at most its Frobenius norm.  The floor, the
    spectral norm of the Frobenius-largest matrix, is a value the max
    reaches, so a matrix whose Frobenius norm is below it cannot hold the
    max; the relative slack of 1e-9 covers the rounding of the norms.
    Squares of entries below ~1e-154 underflow, so the bound is trusted only
    for a floor >= 1e-150 and every matrix is kept below it.  A NaN norm is
    never below the cut, so a matrix with a NaN or inf entry stays in.  The
    SVD treats each matrix of a batch on its own, so the max over the kept
    ones is the full-stack max bit for bit.
    """
    mats = mats.reshape(-1, *mats.shape[-2:])
    frob = np.sqrt(np.einsum("pij,pij->p", mats, mats))
    floor = np.linalg.svd(mats[np.argmax(frob)], compute_uv=False)[0]
    cut = floor * (1.0 - 1e-9) if floor >= 1e-150 else 0.0
    return float(np.max(np.linalg.svd(mats[~(frob < cut)], compute_uv=False)[..., 0]))


def _bilinear_norm(tensors: np.ndarray) -> float:
    """Largest operator norm among bilinear maps given as (..., n, n, n) tensors.

    Estimated as max over unit directions eta' of the spectral norm of
    T[:, :, :] @ eta'; the direction sphere is sampled densely, which is
    exact up to the sampling resolution in dimension <= 3.

    Only points that can hold the max are sliced, by the argument of
    _max_spectral_norm taken over points: a slice's Frobenius norm is at
    most the whole-tensor Frobenius norm of its point, and the floor is the
    largest slice spectral norm of the Frobenius-largest point.
    """
    n = tensors.shape[-1]
    if n == 1:
        return float(np.max(np.abs(tensors[..., 0, 0, 0])))
    points = tensors.reshape(-1, n, n, n)
    dirs = _sphere_directions(n)
    frob = np.sqrt(np.einsum("pkij,pkij->p", points, points))
    floor = _max_spectral_norm(np.einsum("...kij,dj->...dki", points[[np.argmax(frob)]], dirs))
    cut = floor * (1.0 - 1e-9) if floor >= 1e-150 else 0.0
    return _max_spectral_norm(np.einsum("...kij,dj->...dki", points[~(frob < cut)], dirs))


@dataclass
class RegularizingField:
    """Tabulated solution of the resolvent equation with certified bounds.

    The tables are read-only once the field is built, so the splines cached
    from them cannot go stale; a field with other tables is a new field.
    """

    lam: float
    horizon: float
    spec: Spectrum
    q_diag: np.ndarray
    times: np.ndarray
    axes: tuple
    u: np.ndarray          # (n_t+1, *spatial, n)
    grad: np.ndarray       # (n_t+1, *spatial, n, n)
    hess: np.ndarray       # (n_t+1, *spatial, n, n, n)
    contraction_factor: float
    iterations: int
    converged: bool
    weight_name: str
    norms: dict
    # (kind, j) -> spline coefficients of slice j; (kinds, j) -> the spline of j and j+1;
    # the bytes of the last distinct read times -> their time plan (one entry)
    _coefs: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _splines: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _plan: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for table in (self.u, self.grad, self.hess, self.times, *self.axes):
            table.flags.writeable = False

    @property
    def n_modes(self) -> int:
        return self.spec.n_modes

    @property
    def halfwidth(self) -> float:
        return float(self.axes[0][-1])

    def cap_checks(self) -> dict:
        """The derivative caps that make theta = id + u a diffeomorphism, by name."""
        lam1 = float(self.spec.eigenvalues[0])
        return {"hess<=1/8": self.norms["hess"] <= 1.0 / 8.0,
                "sqrtA_grad<=sqrt(lam1)/8": self.norms["sqrtA_grad"] <= math.sqrt(lam1) / 8.0}

    @property
    def certified(self) -> bool:
        return all(self.cap_checks().values())

    @cached_property
    def _design(self):
        """The collocation matrix of the not-a-knot cubic B-splines at the grid nodes, every fit's."""
        # scipy loads at a field's first fit, so a run that reads no field never pays for it
        from scipy.interpolate import NdBSpline

        nodes = np.stack(np.meshgrid(*self.axes, indexing="ij"), axis=-1)
        matrix = NdBSpline.design_matrix(nodes.reshape(-1, len(self.axes)),
                                         tuple(map(_cubic_knots, self.axes)), 3)
        matrix.eliminate_zeros()
        return matrix

    def _coefficients(self, kind: str, j: int) -> np.ndarray:
        """Cubic B-spline coefficients interpolating slice j of a table, (*grid, components).

        The knots are not-a-knot on every axis.  The collocation system at
        the grid nodes is solved by gcrotmk to atol 1e-6, one component at a
        time, which is the fit scipy's cubic grid interpolation makes, so the
        values match it bit for bit.
        """
        key = (kind, j)
        if key not in self._coefs:
            from scipy.sparse.linalg import gcrotmk

            table = getattr(self, kind)[j]
            shape = table.shape[: len(self.axes)]
            vals = table.reshape(math.prod(shape), -1)
            coef = np.empty_like(vals)
            for c in range(vals.shape[1]):
                coef[:, c], info = gcrotmk(self._design, vals[:, c], atol=1e-6)
                if info != 0:
                    raise CertificationError(
                        f"cubic fit of the {kind} table at slice {j} did not converge")
            self._coefs[key] = coef.reshape(shape + (-1,))
        return self._coefs[key]

    def _spline(self, kinds: tuple, j: int) -> NdBSpline:
        """The spline of slices j and j+1 of the tables in kinds, their components stacked
        in that order, each component of slice j followed by that of slice j+1."""
        key = (kinds, j)
        if key not in self._splines:
            from scipy.interpolate import NdBSpline

            coef = np.stack([np.concatenate([self._coefficients(kind, i) for kind in kinds], axis=-1)
                             for i in (j, j + 1)], axis=-1)
            self._splines[key] = NdBSpline(tuple(map(_cubic_knots, self.axes)),
                                           coef.reshape(coef.shape[:-2] + (-1,)), 3)
        return self._splines[key]

    def _blend(self, kinds: tuple, lo: int, keep, frac, xb: np.ndarray) -> np.ndarray:
        """keep * A_lo(xb) + frac * A_{lo+1}(xb), keep = 1 - frac.

        One spline call reads both slices: a B-spline sums each component on
        its own, so the interleaved components are bitwise those of one
        slice.  A component's two slices sit side by side, so each product
        runs over one evenly strided view of the spline's values.  At
        frac = 0 the read is A_lo(xb) + 0.0 * A_{lo+1}(xb), which is A_lo(xb)
        but for the sign of a zero.
        """
        vals = self._spline(kinds, lo)(xb)
        pairs = vals.reshape(vals.shape[:-1] + (vals.shape[-1] // 2, 2))
        out = keep * pairs[..., 0]
        out += frac * pairs[..., 1]
        return out

    def _time_plan(self, t) -> list:
        """The time blend of a read at t, as row groups (rows, lo, 1 - frac, frac).

        Each time is clamped to [0, T] and read at slice lo and offset frac
        in [0, 1].  The rows that share lo form one group, so the groups
        partition the rows, and no row means no group.  The weights are
        (rows, 1, 1) and read-only.  A NaN time raises InputError.

        The plan of the last distinct t is kept, keyed by the bytes of t as
        a float array, so a read at the times of the read before it, such as
        every step of invert_theta, derives none of it again, and times
        changed in place are a new key.
        """
        times = np.asarray(t, dtype=float).reshape(-1)
        key = times.tobytes()
        plan = self._plan.get(key)
        if plan is None:
            if np.isnan(times).any():
                raise InputError("a field read's time is NaN")
            lo, frac = _axis_stencil(self.times, times.clip(0.0, self.horizon))
            weights = frac.reshape(-1, 1, 1)
            plan = []
            for j in _sorted_unique(lo).tolist():
                sel = np.flatnonzero(lo == j)
                w = weights[sel]
                keep = 1.0 - w
                keep.flags.writeable = w.flags.writeable = False
                plan.append((sel, j, keep, w))
            self._plan.clear()
            self._plan[key] = plan
        return plan

    @staticmethod
    def _row_shape(t, shape: tuple) -> tuple:
        """(rows, points per row, n) of states of this shape read at times t.

        A scalar t makes all the states one row; an array t holds one time
        per entry of their leading axis, and InputError is raised unless it
        has that many (which needs states of at least two axes).
        """
        if np.ndim(t) == 0:
            return 1, math.prod(shape[:-1]), shape[-1]
        if len(shape) < 2 or np.size(t) != shape[0]:
            raise InputError(f"{np.size(t)} per-row times for states of shape {shape}: an "
                             "array of times holds one per entry of the states' leading axis")
        return shape[0], math.prod(shape[1:-1]), shape[-1]

    def _eval(self, kinds: tuple, t, x: np.ndarray) -> tuple:
        """The tables named in kinds at states x, time-interpolated linearly between slices.

        t is an array of per-row times, one for each entry along the leading
        axis of x, or a scalar, which is read as one row holding all of x;
        an array of another length, or a NaN time, raises InputError.  Each
        time is clamped to [0, T] (so +-inf reads T or 0); a row at slice lo
        and offset frac reads (1 - frac) * A_lo(x) + frac * A_{lo+1}(x).  The
        rows that share the slice are blended as one batch wherever they sit
        in x (a plan of one group reads every row without a selection), and
        the cubic spatial interpolation treats every point on its own, so a
        row's values are bitwise those of a one-row call at its time.

        The slices, weights and row groups are the time plan of t (see
        _time_plan), derived once per distinct value of t and reused by the
        reads at it that follow.

        Every table of kinds is read by the same spline call, on their
        components stacked, and each component is bitwise that of a read of
        its table alone.  One array per kind is returned, of shape
        x.shape[:-1] plus the table's trailing shape.
        """
        x = np.asarray(x, dtype=float)
        shape = self._row_shape(t, x.shape)
        plan = self._time_plan(t)
        n = self.n_modes
        trailing = [(n,) * {"u": 1, "grad": 2, "hess": 3}[kind] for kind in kinds]
        ends = list(itertools.accumulate(map(math.prod, trailing), initial=0))
        rows = np.clip(x, -self.halfwidth, self.halfwidth).reshape(shape)
        if len(plan) == 1:  # one group holds every row
            out = self._blend(kinds, *plan[0][1:], rows)
        else:
            out = np.empty(shape[:2] + (ends[-1],))
            for sel, *blend in plan:
                out[sel] = self._blend(kinds, *blend, rows[sel])
        out = out.reshape(x.shape[:-1] + (ends[-1],))
        return tuple(out[..., a:b].reshape(x.shape[:-1] + tail)
                     for a, b, tail in zip(ends, ends[1:], trailing))

    def u_at(self, t, x: np.ndarray) -> np.ndarray:
        """u(t, x); t is clamped to [0, T] (frozen extension on [-r, 0]).

        t is a scalar or an array of per-row times, one per entry of the
        leading axis of x (see _eval).  The time plan of t is kept, so reads
        repeated at one t, as invert_theta makes them, derive it once."""
        return self._eval(("u",), t, x)[0]

    def grad_at(self, t, x: np.ndarray) -> np.ndarray:
        return self._eval(("grad",), t, x)[0]

    def hess_at(self, t, x: np.ndarray) -> np.ndarray:
        return self._eval(("hess",), t, x)[0]

    def u_grad_at(self, t, x: np.ndarray):
        """(u(t, x), grad u(t, x)) from the spline calls of one read, bitwise u_at and grad_at.

        t is read as in u_at.  u and grad u are views into one array.
        """
        return self._eval(("u", "grad"), t, x)

    def theta(self, t, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) + self.u_at(t, x)

    def grad_theta(self, t, x: np.ndarray) -> np.ndarray:
        g = self.grad_at(t, x)
        return g + np.eye(self.n_modes)

    def invert_theta(self, t, y: np.ndarray) -> np.ndarray:
        """Solve x + u(t, x) = y by the contraction x <- y - u(t, x), to 1e-10 in max norm.

        t is a scalar, which makes all of y one row, or an array of per-row
        times, one per entry of the leading axis of y (as in u_at; another
        length raises InputError, as does a non-finite y).  Each row stops on
        its own once the max-norm gap of its last step is <= 1e-10, and a row
        that has stopped is not iterated again, so a row's result is bitwise
        that of a scalar call on that row alone.  Every step reads u_at at
        the times of the rows still going, so the steps between two stops
        share one time plan (see _eval).  An empty y, of no row or of rows
        without a point, is returned as an empty array of its shape.
        """
        y = np.asarray(y, dtype=float)
        shape = self._row_shape(t, y.shape)
        if not np.isfinite(y).all():
            raise InputError("theta inversion target y holds a non-finite entry")
        if y.size == 0:
            return np.empty_like(y)
        rows_y = y.reshape(shape)
        x = np.empty_like(rows_y)
        # the rows still iterating: their indices, times, targets and iterates
        # (a scalar t has one row, which stops all at once)
        live, live_t, live_y, live_x = np.arange(len(rows_y)), t, rows_y, rows_y
        for _ in range(200):
            nxt = live_y - self.u_at(live_t, live_x)
            step = nxt - live_x
            gap = np.abs(step, out=step).reshape(len(live), -1).max(axis=1)
            going = ~(gap <= 1e-10)
            if going.all():
                live_x = nxt
                continue
            x[live[~going]] = nxt[~going]
            if not going.any():
                return x.reshape(y.shape)
            live, live_y, live_x = live[going], live_y[going], nxt[going]
            live_t = np.asarray(live_t, dtype=float)[going]
        raise CertificationError(
            f"theta inversion did not converge in 200 iterations: {len(live)} of "
            f"{len(rows_y)} rows still moving, largest last step {np.max(gap[going]):.3g}; "
            "field not certified")

    def spectrum_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.spec.eigenvalues.tobytes())
        h.update(self.q_diag.tobytes())
        return h.hexdigest()

    def content_hash(self) -> str:
        """SHA-256 of the tables, the grid and lam: what a saved field must reproduce."""
        h = hashlib.sha256()
        for table in (self.u, self.grad, self.hess, self.times, *self.axes):
            h.update(repr(table.shape).encode())
            h.update(table.tobytes())
        h.update(np.float64(self.lam).tobytes())
        return h.hexdigest()

    def save(self, path_base: str) -> None:
        """Persist the grid tables (.npz) with a JSON sidecar of the metadata.

        The sidecar carries hashes of the spectrum and of the tables, grid
        and lam, so that load rejects a field file swapped under it.
        """
        np.savez(
            f"{path_base}.npz",
            u=self.u, grad=self.grad, hess=self.hess, times=self.times,
            axes=np.stack(self.axes), eigenvalues=self.spec.eigenvalues,
            q_diag=self.q_diag)
        sidecar = {
            "lam": self.lam,
            "horizon": self.horizon,
            "trace_exponent": self.spec.trace_exponent,
            "growth_coeff": self.spec.growth_coeff,
            "growth_power": self.spec.growth_power,
            "contraction_factor": self.contraction_factor,
            "iterations": self.iterations,
            "converged": self.converged,
            "weight_name": self.weight_name,
            "norms": self.norms,
            "certified": self.certified,
            "spectrum_hash": self.spectrum_hash(),
            "content_hash": self.content_hash(),
            "grid": {"time_steps": int(self.times.size - 1),
                     "nodes_per_dim": int(self.axes[0].size),
                     "halfwidth": self.halfwidth},
        }
        with open(f"{path_base}.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path_base: str) -> "RegularizingField":
        data = np.load(f"{path_base}.npz")
        with open(f"{path_base}.json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        spec = Spectrum(data["eigenvalues"].size, meta["growth_coeff"], meta["growth_power"],
                        meta["trace_exponent"])
        field = cls(
            lam=meta["lam"], horizon=meta["horizon"], spec=spec, q_diag=data["q_diag"],
            times=data["times"], axes=tuple(data["axes"]), u=data["u"],
            grad=data["grad"], hess=data["hess"],
            contraction_factor=meta["contraction_factor"],
            iterations=meta["iterations"], converged=meta["converged"],
            weight_name=meta["weight_name"], norms=meta["norms"])
        if field.spectrum_hash() != meta["spectrum_hash"]:
            raise InputError("field file is inconsistent with its sidecar spectrum hash")
        if field.content_hash() != meta.get("content_hash"):
            raise InputError("field tables, grid or lam are inconsistent with the sidecar "
                             "content hash")
        return field


def _weighted_norms(u, grad, aw: np.ndarray) -> tuple:
    """(|u|_a, |grad u|_a): the exact largest norm of a(-A) u and of a(-A) grad u over the points.

    Only the a(-A) grad u matrices whose Frobenius norm can reach the max go
    through the SVD (see _max_spectral_norm).
    """
    u_a = float(np.max(np.linalg.norm(u * aw, axis=-1))) if u.size else 0.0
    return u_a, _max_spectral_norm(grad * aw[:, None])


def _field_norms(spec: Spectrum, weight: WeightFunction, u, grad, hess) -> dict:
    aw = np.asarray(weight(spec.eigenvalues), dtype=float)
    u_a, grad_a = _weighted_norms(u, grad, aw)
    return {
        "u_a": u_a,
        "grad_a": grad_a,
        "grad": _max_spectral_norm(grad),
        "sqrtA_grad": _max_spectral_norm(grad * np.sqrt(spec.eigenvalues)[:, None]),
        "hess": _bilinear_norm(hess),
    }


def dissipation_kernel_integral(spec: Spectrum, weight: WeightFunction, horizon: float) -> float:
    """int_0^T max_i (lambda_i / a(lambda_i)) exp(-lambda_i s) ds over the stored modes."""
    lam = spec.eigenvalues
    ratio = lam / np.asarray(weight(lam), dtype=float)

    def integrand(v):
        s = v**2
        return 2.0 * v * np.max(ratio[:, None] * np.exp(-np.outer(lam, s)), axis=0)

    return panel_integral(integrand, 0.0, math.sqrt(horizon), order=96)


def composite_smallness(field: RegularizingField, weight: WeightFunction) -> float:
    """The smallness functional whose value must stay below 1/5.

    5^(4p-1)/2^(2p+1) (|a(-A) grad u| * J)^(2p) + |grad u| with the moment
    p = 2, where J is the dissipation kernel integral of the spectrum.
    """
    p = 2.0
    j_int = dissipation_kernel_integral(field.spec, weight, field.horizon)
    lead = 5.0 ** (4.0 * p - 1.0) / 2.0 ** (2.0 * p + 1.0)
    return lead * (field.norms["grad_a"] * j_int) ** (2.0 * p) + field.norms["grad"]


def _live_rows(g_tab: np.ndarray) -> tuple:
    """Rows i of a (..., n, n) grad u table holding a nonzero entry."""
    return tuple(i for i in range(g_tab.shape[-1]) if g_tab[..., i, :].any())


def _reached_modes(b_y: np.ndarray) -> tuple:
    """Modes j whose component-major drift samples b_y[j] hold a nonzero entry."""
    return tuple(j for j in range(len(b_y)) if b_y[j].any())


def _drift_terms(live: tuple, reached: tuple, n: int) -> list:
    """The rows of grad u . b + b a sweep builds, each as (i, modes j it keeps in adding order).

    A row is built when it is live or reached, and it keeps the reached
    modes, in mode order, when it is live and none otherwise.
    """
    return [(i, reached if i in live else ()) for i in range(n) if i in live or i in reached]


def _combine(terms: list, g, b, out: np.ndarray, term: np.ndarray) -> None:
    """out[a] = sum of g_ij * b[j] over the modes j that row a = (i, modes) keeps, then + b[i].

    g holds the kept g_ij component-major, row by row and mode by mode in
    the order of terms.  b[j] is mode j's drift samples, or the float +0.0
    for a mode whose samples are all zero.  A row that keeps no mode is
    b[i] itself, and g is not read when no row keeps a mode.
    """
    c = 0
    for a, (i, modes) in enumerate(terms):
        if not modes:
            np.copyto(out[a], b[i])
            continue
        for k, j in enumerate(modes):
            if k == 0:
                np.multiply(g[c + k], b[j], out=out[a])
            else:
                out[a] += np.multiply(g[c + k], b[j], out=term)
        c += len(modes)
        out[a] += b[i]


def solve_u(ref: ReferenceSemigroup, drift: Callable, lam: float, horizon: float,
            grid: ZvonkinGrid = ZvonkinGrid()) -> RegularizingField:
    """Picard-iterate the resolvent map until the tabulated fix point settles.

    P0 is applied with the tensor Gauss-Hermite rule, so the query point
    of a grid node in dimension d depends only on that node's coordinate
    and one 1-D Hermite node.  The linear-interpolation stencils of these
    points, the time-interpolation weights of the quadrature times and the
    Stein factors are built once per call and reused by every sweep.

    A slot's query points are laid out axis by axis: grid axis d and the
    Hermite nodes in d share one axis of length nodes * quad_order,
    node-major, so the point of grid node (i_0, ...) and Hermite node
    (h_0, ...) sits at (i_0 * quad_order + h_0, ...).  Each stencil is then
    (slot, 1, ..., nodes * quad_order, ..., 1) and broadcasts in
    _multilinear as it is.  The drift samples, the interpolated grad u and
    grad u . b + b follow this layout; the Hermite reductions read
    grad u . b + b once copied, transposed, to (Hermite, row, slot * node).

    A sweep integrates grad u . b + b, so it interpolates only the grad u
    table.  It works one time slice at a time: the quadrature slots of a
    slice are interpolated, drift-sampled and reduced together on
    component-major arrays, in chunks of whole slots holding at most
    CHUNK_POINTS query points (one slot when it alone holds more), which
    caps its memory.  Its chunk-sized work arrays (interpolation value,
    term, index and weights, drift samples, grad u . b + b and its copy by
    Hermite node) are allocated once per call, bounded by CHUNK_POINTS,
    and a shorter chunk writes leading views of them.

    The first sweep samples the drift once per slot; a sample that is not
    finite raises InputError.  Of the leading chunks, as far as they total
    at most KEPT_DRIFT_FLOATS floats, the samples of the reached modes (see
    below) are kept, and every later sweep, the final one too, reads them;
    a mode not kept is zero throughout and is read as the float +0.0.  A
    chunk beyond that budget is sampled again in every sweep into the work
    array.  The drift must therefore be a deterministic function of (t, x).
    It is called as drift(t, x, norms) with norms = `_row_norms(x)`, the
    protocol of `CoefficientSet`; its result is copied, so it may return a
    view of its argument or reuse its output array.

    A sweep computes only the terms that can be nonzero.  A chunk's reached
    modes are those with a nonzero drift sample (kept with the samples); a
    sweep's live rows are those of the grad u table with a nonzero entry.
    Only g_ij of a live row i and a reached mode j is interpolated; a live
    row adds its kept terms in mode order, then b_i, and any other row is
    b_i.  The Hermite reductions run over the live or reached rows alone,
    since any other row of grad u . b + b is zero.  The first sweep reads
    the all-zero seed table like any other: it has no live row, so it
    interpolates nothing.

    The iteration stops once a difference in the norm |u|_a + |grad u|_a
    falls below 1e-8, or after 100 sweeps.  The contraction factor is
    measured as the ratio of successive differences in that norm; a ratio
    at or above one means lam sits below the contraction threshold.
    """
    # a NaN or inf lam or horizon would return a "certified" field of NaN times or no sweep
    if not 0.0 < lam < math.inf:
        raise InputError("resolvent parameter lam must be positive and finite")
    if not 0.0 < horizon < math.inf:
        raise InputError("horizon must be positive and finite")
    weight = sqrt_weight()
    spec = ref.spec
    n = spec.n_modes
    if n > GH_DIM_CAP:
        raise InputError(
            f"tabulated fields resolve at most {GH_DIM_CAP} active modes; project the "
            "system first")
    lamvec = spec.eigenvalues
    aw = np.asarray(weight(lamvec), dtype=float)

    axes = grid.axes(n)
    axis = axes[0]
    shape = tuple(a.size for a in axes)
    m_nodes = math.prod(shape)

    z, w = hermite_tensor(ref.quad_order, n)
    z1 = z[: ref.quad_order, -1]  # 1-D Hermite nodes; the last coordinate varies fastest
    pair = z[:, :, None] * z[:, None, :] - np.eye(n)[None]

    # uniform slices plus a geometric refinement into the terminal layer,
    # where u rises from u(T) = 0 on the 1/lam time scale
    uniform = np.linspace(0.0, horizon, grid.time_steps + 1)
    gap = horizon / grid.time_steps
    layer_lo = min(0.1 / lam, 0.25 * gap)
    layer = horizon - np.geomspace(layer_lo, gap, 6)
    times = _sorted_unique(np.concatenate([uniform, layer[layer > 0.0]]))
    n_t = times.size - 1
    u_tab = np.zeros((n_t + 1, m_nodes, n))
    g_tab = np.zeros((n_t + 1, m_nodes, n, n))

    # one entry per (slice j, quadrature time t_q), in sweep order
    slot, wq, t_q = [], [], []
    for j in range(n_t):
        offsets, wts = _warped_time_rule(lam, horizon - times[j], grid)
        slot += [j] * offsets.size
        wq += list(wts)
        t_q += [times[j] + off for off in offsets]
    wq, t_q = np.array(wq), np.array(t_q)
    t_lo, t_frac = _axis_stencil(times, t_q)
    decay, sigma = map(np.array, zip(*(ref.transition(times[j], t) for j, t in zip(slot, t_q))))
    stein = decay / sigma
    scale = stein[:, :, None] * stein[:, None, :]
    # coordinate d of a query point depends on i_d and h_d only, so it is laid
    # out on merged axis d alone (see above), clipped to the box, and the
    # sweep samples the drift there
    coords, stencils = [], []
    for d in range(n):
        layout = tuple(axis.size * ref.quad_order if a == d else 1 for a in range(n))
        coord = np.clip(decay[:, d, None, None] * axis[None, :, None]
                        + sigma[:, d, None, None] * z1[None, None, :],
                        -grid.halfwidth, grid.halfwidth).reshape((-1,) + layout)
        coords.append(coord)
        stencils.append(_axis_stencil(axis, coord))
    # the slots of slice j are contiguous; each chunk is a run of them
    per_chunk = max(1, CHUNK_POINTS // (m_nodes * w.size))
    bounds = np.searchsorted(slot, np.arange(n_t + 1))
    chunks = [(j, slice(e, min(e + per_chunk, bounds[j + 1])))
              for j in range(n_t) for e in range(bounds[j], bounds[j + 1], per_chunk)]
    # the sweep's work arrays: the first chunk sizes them, slice 0 spans the
    # longest time and so holds the most slots, and every later chunk and
    # sweep reuses them; the drift reads one slot's query points from pts
    work = {}
    per_slot = m_nodes * w.size
    pts = _work(work, "pts", (axis.size * ref.quad_order,) * n + (n,))
    # a point's merged axes split into (node, Hermite) pairs; this order puts
    # the Hermite indices first, then (row, slot), then the node indices
    hermite_first = (*range(3, 2 * n + 2, 2), 0, 1, *range(2, 2 * n + 2, 2))
    # the drift samples of each chunk that fits the budget, once sampled,
    # by chunk index, with the chunk's reached modes; the reached modes' floats
    # count against the budget, which keeps a prefix of the chunks: room is
    # what is left of it, or None once a chunk has not fit
    kept = {}
    room = KEPT_DRIFT_FLOATS

    def sweep(g_in, with_hess=False):
        nonlocal room
        # the map integrates grad u . b + b, so only grad u is interpolated,
        # component-major: (n*n, slice, node)
        tab = g_in.reshape(n_t + 1, m_nodes, n * n).transpose(2, 0, 1)
        live = _live_rows(g_in)
        u_out = np.zeros((n_t + 1, m_nodes, n))
        g_out = np.zeros((n_t + 1, m_nodes, n, n))
        h_out = np.zeros((n_t + 1, m_nodes, n, n, n)) if with_hess else None
        for chunk, (j, sl) in enumerate(chunks):
            k_slots = sl.stop - sl.start
            # drift samples, component-major (n, slot * point), one slot at a
            # time, and of a chunk that fits the budget its reached modes'
            # rows are copied out and kept
            n_y = k_slots * per_slot
            b_y, reached = kept.get(chunk, (None, None))
            if b_y is None:
                b_all = _work(work, "b_y", (n, n_y))
                for s, t in enumerate(t_q[sl]):
                    for d, coord in enumerate(coords):
                        np.copyto(pts[..., d], coord[sl.start + s])
                    x = pts.reshape(-1, n)
                    np.copyto(b_all[:, s * per_slot:(s + 1) * per_slot],
                              np.asarray(drift(t, x, _row_norms(x)),
                                         dtype=float).reshape(-1, n).T)
                finite = np.isfinite(b_all).all(axis=0)
                if not finite.all():
                    t = float(t_q[sl.start + np.argmin(finite) // per_slot])
                    raise InputError(f"the drift is not finite at t = {t!r}")
                reached = _reached_modes(b_all)
                # a mode not reached is zero throughout, read as the float +0.0
                b_y = [b_all[j] if j in reached else 0.0 for j in range(n)]
                if room is not None and len(reached) * n_y <= room:
                    room -= len(reached) * n_y
                    b_y = [np.copy(b) if j in reached else b for j, b in enumerate(b_y)]
                    kept[chunk] = b_y, reached
                else:
                    room = None
            terms = _drift_terms(live, reached, n)
            if not terms:
                continue
            comps = [i * n + jj for i, modes in terms for jj in modes]
            if not comps:
                g_y = None
            else:
                lo, frac = t_lo[sl], t_frac[sl, None]
                sub = tab[comps]
                table = (1.0 - frac) * sub[:, lo] + frac * sub[:, lo + 1]
                # linear between nodes: grad u is already differentiated
                # through the kernel, and nonnegative weights add no ringing
                # between the coarse outer nodes
                g_y = _multilinear(table.reshape(len(comps), -1, *shape),
                                   [c[sl] for c, _ in stencils],
                                   [y[sl] for _, y in stencils], work).reshape(len(comps), -1)
            # grad u . b + b on the rows built
            rows = [i for i, _ in terms]
            r = len(rows)
            gvec = _work(work, "gvec", (r, n_y))
            _combine(terms, g_y, b_y, gvec, _work(work, "gvec_term", (n_y,)))
            # the Hermite reductions run over (Hermite, i, slot * node) rows
            by_g = _work(work, "by_g", (w.size, r, k_slots * m_nodes))
            np.copyto(by_g.reshape((ref.quad_order,) * n + (r, k_slots) + shape),
                      gvec.reshape((r, k_slots) + (axis.size, ref.quad_order) * n)
                      .transpose(hermite_first))
            u_part = wq[sl, None] * np.einsum("g,gis->is", w, by_g).reshape(r, k_slots, m_nodes)
            g_part = wq[sl, None] * np.einsum("g,gis,gj->ijs", w, by_g, z).reshape(
                r, n, k_slots, m_nodes) * stein[sl].T[:, :, None]
            # each slot's part is added in slot order to the rows built here
            u_acc, g_acc = u_out[j][:, rows], g_out[j][:, rows]
            for k in range(k_slots):
                u_acc += u_part[:, k].T
                g_acc += g_part[:, :, k].transpose(2, 0, 1)
            u_out[j][:, rows], g_out[j][:, rows] = u_acc, g_acc
            if with_hess:
                h_part = wq[sl, None] * np.einsum("g,gis,gjk->ijks", w, by_g, pair).reshape(
                    r, n, n, k_slots, m_nodes) * scale[sl].transpose(1, 2, 0)[..., None]
                h_acc = h_out[j][:, rows]
                for k in range(k_slots):
                    h_acc += h_part[:, :, :, k].transpose(3, 0, 1, 2)
                h_out[j][:, rows] = h_acc
        return u_out, g_out, h_out

    diffs = []
    converged = False
    iterations = 0
    for it in range(100):
        u_new, g_new, _ = sweep(g_tab)
        du_a, dg_a = _weighted_norms(u_new - u_tab, g_new - g_tab, aw)
        delta = du_a + dg_a
        u_tab, g_tab = u_new, g_new
        iterations = it + 1
        diffs.append(delta)
        if len(diffs) >= 2 and diffs[-2] > 0.0 and diffs[-1] / diffs[-2] >= 1.0:
            raise CertificationError(
                f"fixed-point map is not contracting at lam={lam} "
                f"(ratio {diffs[-1] / diffs[-2]:.3f}); increase lam")
        if delta < 1e-8:
            converged = True
            break

    # first successive-difference ratio: the one-step contraction observed on
    # the rough seed u0 = 0, whose lam-scaling reproduces the proof rate;
    # later ratios mix in re-smoothed components and are only guarded < 1
    if len(diffs) >= 2 and diffs[0] > 0.0:
        contraction = diffs[1] / diffs[0]
    else:
        contraction = 0.0

    u_fin, g_fin, h_fin = sweep(g_tab, with_hess=True)
    del stencils, coords, work, pts, kept
    u_grid = u_fin.reshape((n_t + 1,) + shape + (n,))
    g_grid = g_fin.reshape((n_t + 1,) + shape + (n, n))
    h_grid = h_fin.reshape((n_t + 1,) + shape + (n, n, n))
    norms = _field_norms(spec, weight, u_grid, g_grid, h_grid)

    return RegularizingField(
        lam=lam, horizon=horizon, spec=spec, q_diag=ref.q_diag, times=times,
        axes=axes, u=u_grid, grad=g_grid, hess=h_grid,
        contraction_factor=contraction, iterations=iterations, converged=converged,
        weight_name=weight.name, norms=norms)


def lambda_threshold(fields, horizon: float) -> RegularizingField:
    """Smallest-lam field meeting the derivative caps and the sqrt-weight smallness functional.

    `fields` is any iterable in ascending lam, read in its order up to the
    first field that passes, so a lazy solve stops there.  A field whose lam
    lies below one already read raises InputError.
    """
    weight = sqrt_weight()
    failures = {}
    for field in fields:
        # every field read before this one failed, so failures holds each lam
        if failures and field.lam < max(failures):
            raise InputError(f"lam {field.lam} follows {max(failures)}; lams must ascend")
        checks = {**field.cap_checks(),
                  "smallness<=0.2": composite_smallness(field, weight) <= 0.2}
        if all(checks.values()):
            return field
        failures[field.lam] = [name for name, ok in checks.items() if not ok]
    raise CertificationError(f"no lam on the grid certifies the field; failures: {failures}")


@dataclass
class TransformedSystem:
    """Conjugated coefficients with their measured Lipschitz budget.

    The methods are the one definition of the conjugated coefficients.  Each
    reads them at theta(t, z) from the preimage z = theta^{-1}(t, y), and
    jac = grad theta(t, z) comes with the drift, from the same field read,
    for the two that need it.
    """

    field: RegularizingField
    base: CoefficientSet
    bounds: dict

    def drift_jac_at(self, t, z):
        """The conjugated drift (lam + lam_i) u(t, z) and jac = I + grad u(t, z).

        Both come from one field read, u_grad_at, and are bitwise the drift
        from u_at and grad_theta(t, z).
        """
        u, grad = self.field.u_grad_at(t, z)
        return (_times_modes(u, self.field.lam + self.field.spec.eigenvalues),
                grad + np.eye(self.field.n_modes))

    def delay_drift_at(self, t, jac, zview):
        """The conjugated delay drift jac B(t, zview), zview a window of preimages."""
        inner = np.asarray(self.base.delay_drift(t, zview), dtype=float)
        return np.einsum("...ij,...j->...i", jac, inner)

    def diffusion_at(self, t, z, jac, z_norms):
        """The conjugated diffusion jac Q(t, z), z_norms = |z| per preimage."""
        return np.einsum("...ij,...jm->...im", jac,
                         self.base.diffusion_matrix(t, z, z_norms))


def _control_gain(sys_q: np.ndarray) -> np.ndarray:
    """Q*(QQ*)^{-1} for a batch of (n, m) matrices."""
    qq = np.einsum("...nm,...km->...nk", sys_q, sys_q)
    sol = np.linalg.solve(qq, sys_q)
    return np.swapaxes(sol, -1, -2)


def _unit_rows(rng, count, n):
    rows = rng.normal(size=(count, n))
    rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
    return rows


def _log_spaced_pairs(rng, n, halfwidth, count, separations):
    """2*count point pairs (xs, ys) inside 80 % of the box at log-spaced distances.

    Half the xs are uniform and half sit at log-spaced radii around the
    origin, where the drift is roughest; each ys is a step of a length drawn
    from `separations` in a random direction, clipped to the same box.
    """
    inner = 0.8 * halfwidth
    uniform = rng.uniform(-inner, inner, size=(count, n))
    radii = rng.choice(np.geomspace(1e-3, inner, 24), size=(count, 1))
    xs = np.concatenate([uniform, radii * _unit_rows(rng, count, n)])
    eps = rng.choice(separations, size=(2 * count, 1))
    ys = np.clip(xs + eps * _unit_rows(rng, 2 * count, n), -inner, inner)
    return xs, ys


def _require_reference_noise(field: RegularizingField, coeffs: CoefficientSet) -> None:
    """Raise InputError unless coeffs' noise is the constant diag(q_diag) the field was solved for.

    theta conjugates that noise alone: for any other, Ito's formula leaves a
    remainder in the drift of theta(X) that the conjugated drift omits.
    """
    if coeffs.diag_noise is None or not np.array_equal(coeffs.diag_noise, field.q_diag):
        raise InputError("the transform needs the field's reference noise: constant diagonal "
                         f"diffusion diag({field.q_diag.tolist()})")


def transform_coeffs(field: RegularizingField, coeffs: CoefficientSet, *,
                     delay: float = 0.25, grid_step: float = 1.0 / 32.0,
                     seed: int = 2024) -> TransformedSystem:
    """Conjugate (b, B, Q) through theta and measure the constants K1..K4.

    K1 bounds the controlled delay-drift increments, K2 the operator-norm
    modulus of the new diffusion, K3 the control gain, K4 the one-sided
    dissipativity of the new drift; each is the max ratio over a seeded
    battery of states, times and segment pairs (2 * 256 point pairs per
    time, 32 segment pairs).  The noise of coeffs must be the field's
    constant reference noise (see _require_reference_noise).
    """
    if not field.certified:
        raise CertificationError("coefficient transform requires a certified field")
    _require_reference_noise(field, coeffs)
    sys = TransformedSystem(field, coeffs, bounds={})
    rng = np.random.default_rng(seed)
    n = field.n_modes
    hw = field.halfwidth
    battery = 256

    k2 = 0.0
    k3 = 0.0
    k4 = -math.inf
    lamvec = field.spec.eigenvalues
    # pairs at log-spaced separations so the fitted maxima sit near the sup,
    # with extra mass near the origin where the drift is roughest
    for t in np.linspace(0.0, field.horizon, 9):
        xs, ys = _log_spaced_pairs(rng, n, hw, battery, np.geomspace(1e-3, 2.0, 24))
        # both batteries inverted once, as two rows that stop on their own,
        # and read once for the drift and jac
        zs = field.invert_theta(np.full(2, t), np.stack([xs, ys]))
        (bx, by), (jx, jy) = sys.drift_jac_at(t, zs)
        zx, zy = zs
        qx = sys.diffusion_at(t, zx, jx, _row_norms(zx))
        qy = sys.diffusion_at(t, zy, jy, _row_norms(zy))
        gaps = xs - ys
        dists = np.linalg.norm(gaps, axis=-1)
        keep = dists > 1e-12
        dq_op = np.linalg.svd(qx - qy, compute_uv=False)[..., 0]
        k2 = max(k2, float(np.max(dq_op[keep] / np.minimum(1.0, dists[keep]))))
        k3 = max(k3, _max_spectral_norm(_control_gain(qx)))
        quad = 2.0 * np.einsum("pi,pi->p", gaps, -lamvec * gaps + (bx - by)) \
            + np.sum((qx - qy) ** 2, axis=(-2, -1))
        k4 = max(k4, float(np.max(quad[keep] / dists[keep] ** 2)))

    seg_count = max(battery // 8, 8)
    # (pair, side a/b, lag, mode)
    segs = np.stack([sine_segment_values(rng, delay, grid_step, 0.4 * hw, 0.2 * hw,
                                         (seg_count, 1, n)) for _ in range(2)], axis=1)
    seg_ts = rng.uniform(0.0, field.horizon, size=seg_count)
    # one per-row inversion: every window row at its own time, every head at t
    row_ts = seg_ts[:, None, None] + (-delay + np.arange(segs.shape[2]) * grid_step)
    n_rows = segs[..., 0].size
    pre = field.invert_theta(
        np.concatenate([np.broadcast_to(row_ts, segs.shape[:-1]).ravel(), np.repeat(seg_ts, 2)]),
        np.concatenate([segs.reshape(-1, n), segs[:, :, -1].reshape(-1, n)]))
    z_rows, z_heads = pre[:n_rows].reshape(segs.shape), pre[n_rows:].reshape(-1, 2, n)
    jacs = field.grad_theta(np.repeat(seg_ts, 2), z_heads.reshape(-1, n)).reshape(-1, 2, n, n)
    k1 = 0.0
    for t, (sa, sb), z_side, z_head, jac in zip(seg_ts, segs, z_rows, z_heads, jacs):
        ba, bb = sys.delay_drift_at(t, jac, SegmentView(z_side.swapaxes(0, 1), grid_step, delay))
        gain = _control_gain(sys.diffusion_at(t, z_head[1:], jac[1:],
                                              _row_norms(z_head[1:])))[0]
        num = float(np.linalg.norm(gain @ (ba - bb)))
        den = float(np.max(np.linalg.norm(sa - sb, axis=-1)))
        k1 = max(k1, num / max(den, 1e-12))

    sys.bounds = {"K1": k1, "K2": k2, "K3": k3, "K4": k4,
                  "battery": battery, "seed": seed}
    return sys
