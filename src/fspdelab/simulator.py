"""Mild-solution integrator on the truncated eigenbasis.

The scheme is exponential Euler: per step the linear part is applied
exactly, the frozen drift is integrated exactly against the semigroup
(factor (1 - exp(-lambda dt)) / lambda), and the stochastic convolution
increment uses the exact per-mode variance when the noise operator is a
constant diagonal, falling back to exp(A dt) Q dW otherwise.  The same
module houses the smooth truncation of coefficients, the nonlinear
comparison bound used for the non-explosion check, and the moment
inequality for stochastic convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analysis import ModulusFunction, Spectrum, ClassReport, PASS, hs_kernel_integral
from .errors import InputError
from .quadrature import DIVERGENT, halfline_windowed
from .segment import SegmentPath, _lag_row, _steps, segment_norm

EXPLOSION_THRESHOLD = 1e12


# Below this many modes a per-mode product or norm is written one mode column
# at a time: numpy's inner loop then runs over the paths, not over a mode
# axis of a few entries.  From here on the broadcast form is as fast or faster.
_SHORT_MODES = 8


class SegmentView:
    """Grid-aligned window [t-r, t] over a batched state history.

    `sup`, when given, is the window's sup norm per path, max over k of
    |window[k]|; the view makes it read-only, so a delay drift cannot
    change what the next reader of the same view sees.  Without it
    sup_norm recomputes the norms from the window.
    """

    def __init__(self, window: np.ndarray, grid_step: float, delay: float,
                 sup: np.ndarray | None = None):
        self.window = window  # (lags+1, n_paths, n_modes)
        self.grid_step = grid_step
        self.delay = delay
        if sup is not None:
            sup.flags.writeable = False
        self.sup = sup

    def value_at(self, s: float) -> np.ndarray:
        return self.window[_lag_row(s, self.delay, self.grid_step, self.window.shape[0])]

    def sup_norm(self) -> np.ndarray:
        if self.sup is not None:
            return self.sup
        return _row_norms(self.window).max(axis=0)


@dataclass
class CoefficientSet:
    """The triple (b, B, Q) with the sup of |b|.

    All evaluators are batch aware: states carry a leading path axis.
    drift(t, x, norms) and diffusion(t, x, norms) take norms = |x| per
    path, bit for bit `_row_norms(x)`, from their caller: the row
    `simulate_ensemble` stored when it wrote x, or the norms `solve_u` and
    `transform_coeffs` take of their query points.  A coefficient that
    needs |x|, such as `dini_drift` or a truncation cut-off, reads it there
    instead of computing it again.  delay_drift(t, view) reads its norm from
    view.sup_norm().
    Both x and norms may be read-only views of the engine's history, so a
    coefficient must not write into them.
    diag_noise, when set, declares Q(t, x) = diag(diag_noise) so the
    integrator can draw the stochastic convolution with exact variance.
    """

    drift: Callable
    delay_drift: Callable
    diffusion: Callable
    noise_dim: int
    diag_noise: np.ndarray | None = None
    drift_sup: float = 0.0

    def diffusion_matrix(self, t: float, x: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """Q(t, x); a constant (n, m) Q is broadcast over the batch axes of x."""
        q = np.asarray(self.diffusion(t, x, norms), dtype=float)
        if q.ndim == 2 and np.ndim(x) > 1:
            q = np.broadcast_to(q, np.shape(x)[:-1] + q.shape)
        return q


@dataclass
class NoisePath:
    """Gaussian increments with per-step covariance dt * I under the seed law."""

    increments: np.ndarray  # (steps, n_paths, noise_dim)
    grid_step: float

    @property
    def n_steps(self) -> int:
        return self.increments.shape[0]

    @property
    def n_paths(self) -> int:
        return self.increments.shape[1]

    @classmethod
    def generate(cls, seed: int, n_steps: int, noise_dim: int, grid_step: float,
                 n_paths: int = 1) -> "NoisePath":
        rng = np.random.default_rng(seed)
        incr = rng.normal(scale=math.sqrt(grid_step), size=(n_steps, n_paths, noise_dim))
        return cls(incr, grid_step)

    def coarsen(self, factor: int) -> "NoisePath":
        """Sum consecutive increments to move to a grid coarser by `factor`."""
        if factor <= 0 or self.n_steps % factor:
            raise InputError(f"cannot coarsen {self.n_steps} steps by {factor}")
        shape = (self.n_steps // factor, factor) + self.increments.shape[1:]
        incr = self.increments.reshape(shape).sum(axis=1)
        return NoisePath(incr, self.grid_step * factor)


@dataclass
class EnsembleResult:
    """Batched trajectories sharing one grid; dead paths are frozen in place."""

    delay: float
    grid_step: float
    horizon: float
    states: np.ndarray          # (lags + steps + 1, n_paths, n_modes)
    life_times: np.ndarray      # (n_paths,), inf where non-explosive
    norms: np.ndarray           # (lags + steps + 1, n_paths), |states| per row
    convolution: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.states.shape[1]

    @property
    def exploded(self) -> np.ndarray:
        return np.isfinite(self.life_times)

    def terminal_view(self) -> SegmentView:
        lags = _steps(self.delay, self.grid_step)
        return SegmentView(self.states[-lags - 1:], self.grid_step, self.delay,
                           self.norms[-lags - 1:].max(axis=0))


def _running_max(rows: np.ndarray, out: np.ndarray) -> None:
    """out[j] = max(rows[0..j]) along axis 0, by one row-wise np.maximum per row.

    np.maximum.accumulate along axis 0 gives the same values, but runs its
    inner loop down the short axis: 465 us on a 33 x 2000 block, against
    96 us for this loop (2-core VM, numpy 2.4).
    """
    np.copyto(out[0], rows[0])
    for j in range(1, len(rows)):
        np.maximum(out[j - 1], rows[j], out=out[j])


def _window_maxima(rows: np.ndarray, width: int):
    """Yield max(rows[k : k + width]) along axis 0 for k = 0, 1, ..., O(1) amortised per k.

    The van Herk / Gil-Werman scheme: the rows are cut into blocks of
    `width`, so the window starting at row i of block b is the tail of b
    from row i and the head of block b + 1 up to row i - 1, and its max is
    max(suffix_b[i], prefix_(b+1)[i - 1]).  The suffix maxima of block b
    come from one backward pass at its first window, i = 0, where the
    prefix is still empty (-inf).  The prefix max of block b + 1 then grows
    by one np.maximum per window.  Max is exact and np.maximum propagates
    NaN as ndarray.max does, so every value equals the plain max.

    Window k reads rows k .. k + width - 1 only, when it is asked for, and
    each row is read at most twice: those rows must hold their final values
    by then, and later rows may still be written.
    """
    suffix = np.empty((width,) + rows.shape[1:])
    prefix = np.empty(rows.shape[1:])
    for k in range(len(rows) - width + 1):
        i = k % width
        if i == 0:
            # suffix maxima are the running maxima of the block read backwards
            _running_max(rows[k: k + width][::-1], suffix[::-1])
            prefix.fill(-np.inf)
        else:
            np.maximum(prefix, rows[k + width - 1], out=prefix)
        yield np.maximum(suffix[i], prefix)


def _history_windows(states: np.ndarray, norms: np.ndarray, delay: float,
                     grid_step: float, steps: int):
    """Walk a history buffer: (t_k, X(t_k), |X(t_k)|, window [t_k - r, t_k]) for k < steps.

    Row lags + k of `states` holds X(t_k), t_k = k * grid_step, and row k
    of `norms` is the norm of row k of `states`.  The state, its norm and
    the window are read-only views into the buffers: a write through them
    raises ValueError, and a row written to a buffer after a yield is seen
    by the next window.

    Rows k .. k + lags of both buffers must be final when window k is
    yielded: its sup norm is taken then, by one `_window_maxima` pass over
    `norms`, and stored in the view.
    """
    lags = _steps(delay, grid_step)
    states, norms = states.view(), norms.view()
    states.flags.writeable = norms.flags.writeable = False
    for k, sup in zip(range(steps), _window_maxima(norms, lags + 1)):
        yield (k * grid_step, states[lags + k], norms[lags + k],
               SegmentView(states[k: k + lags + 1], grid_step, delay, sup))


def _sorted_unique(values) -> np.ndarray:
    """np.unique(values) of a real or integer array, by the sort path of numpy's _unique1d.

    The sorted distinct entries, all NaNs as one last NaN.  np.unique
    itself imports numpy.ma on its first call in a process (~10 ms), to
    rule out a masked array.
    """
    aux = np.sort(values, axis=None)
    keep = np.empty(aux.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = aux[1:] != aux[:-1]
    if aux.size and np.isnan(aux[-1]):  # NaNs sort last
        keep[np.searchsorted(aux, aux[-1], side="left") + 1:] = False
    return aux[keep]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x| over the last axis, bit for bit `np.linalg.norm(x, axis=-1)` on real x.

    That is the square root of np.add.reduce over the squares, which adds
    fewer than eight terms left to right and sums pairwise from eight on.
    Below `_SHORT_MODES` the squares are added a mode column at a time in
    that order, which is faster than the reduction over a short mode axis.
    """
    if not 0 < x.shape[-1] < _SHORT_MODES:
        return np.sqrt(np.add.reduce(x * x, axis=-1))
    sq = x * x
    total = sq[..., 0] if x.shape[-1] == 1 else np.add(sq[..., 0], sq[..., 1])
    for i in range(2, x.shape[-1]):
        total += sq[..., i]
    return np.sqrt(total)


def _times_modes(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a * v for a per-mode vector v, a of shape (..., 1) or (..., len(v)), bit for bit.

    Below `_SHORT_MODES` modes the product is written one mode column at a time.
    """
    if v.size >= _SHORT_MODES:
        return a * v
    out = np.empty(a.shape[:-1] + v.shape)
    per_mode = a.shape[-1] > 1
    for j, vj in enumerate(v):
        np.multiply(a[..., j if per_mode else 0], vj, out=out[..., j])
    return out


def _full_width(a: np.ndarray, paths: int) -> np.ndarray:
    """A per-mode (n,) array repeated over `paths` rows, as one C-ordered (paths, n) array."""
    return np.ascontiguousarray(np.broadcast_to(a, (paths,) + a.shape))


def _step_factors(lam: np.ndarray, grid_step: float, paths: int):
    """The exponential-Euler factors exp(-lam dt) and (1 - exp(-lam dt)) / lam at full width."""
    decay = np.exp(-lam * grid_step)
    return _full_width(decay, paths), _full_width((1.0 - decay) / lam, paths)


def _full_drift(coeffs: CoefficientSet, t: float, x: np.ndarray, norms: np.ndarray,
                view: SegmentView) -> np.ndarray:
    """b(t, x) + B(t, X_t), the drift the mild equation integrates; norms = |x|."""
    return np.asarray(coeffs.drift(t, x, norms), dtype=float) \
        + np.asarray(coeffs.delay_drift(t, view), dtype=float)


def simulate_ensemble(coeffs: CoefficientSet, xi: SegmentPath, horizon: float,
                      grid_step: float, spec: Spectrum, noise: NoisePath,
                      *, record_convolution: bool = False) -> EnsembleResult:
    """Integrate the mild equation for the paths of `noise`, one per noise row.

    The per-step norms come from `_row_norms`, which gives the bits of
    `np.linalg.norm(x, axis=-1)` for real input, so `norms` holds them for
    every mode count.  The row stored with x is the `norms` the drift and
    the diffusion are called with.  They, and the delay drift's window,
    read the history through read-only views, so a coefficient that writes
    into them raises ValueError instead of changing the history.  Dead
    paths are frozen only once one has exploded.

    Every array op of a step runs on full-width operands: the per-mode
    factors (decay, drift factor, noise scale) are broadcast once per
    ensemble to (paths, n) arrays, and the new row is built in place in
    `states`.  Multiplying by an (n,) factor would make numpy's inner loop
    run over the few modes of each path instead of over the whole row.
    The elementwise values, and so every bit, are those of the broadcast.
    """
    if xi.grid_step != grid_step and abs(xi.grid_step - grid_step) > 1e-12:
        raise InputError("initial segment grid step must match the simulation grid")
    steps = _steps(horizon, grid_step)
    lags = _steps(xi.delay, grid_step)
    n = xi.n_modes
    if n > spec.n_modes:
        raise InputError("initial segment has more modes than the spectrum")
    lam = spec.eigenvalues[:n]

    if noise.n_steps < steps:
        raise InputError("noise path shorter than the simulation horizon")
    if abs(noise.grid_step - grid_step) > 1e-12:
        raise InputError("noise grid step must match the simulation grid")
    paths = noise.n_paths

    decay, drift_fac = _step_factors(lam, grid_step, paths)
    use_diag = coeffs.diag_noise is not None
    if use_diag:
        q = np.asarray(coeffs.diag_noise, dtype=float)[:n]
        conv_scale = q * np.sqrt((1.0 - decay**2) / (2.0 * lam)) / math.sqrt(grid_step)

    states = np.empty((lags + steps + 1, paths, n))
    states[: lags + 1] = xi.values[:, None, :]
    norms = np.empty(states.shape[:2])
    norms[: lags + 1] = _row_norms(xi.values)[:, None]
    conv = np.zeros_like(states) if record_convolution else None
    alive = np.ones(paths, dtype=bool)
    dead = None  # ~alive, once some path has exploded
    life = np.full(paths, math.inf)

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for k, (t, x, x_norms, view) in enumerate(_history_windows(states, norms, xi.delay,
                                                                   grid_step, steps)):
            base = lags + k
            drift = _full_drift(coeffs, t, x, x_norms, view)
            dw = noise.increments[k][:, : coeffs.noise_dim]
            if use_diag:
                gain = conv_scale * dw[:, :n]
            else:
                qm = coeffs.diffusion_matrix(t, x, x_norms)
                gain = decay * np.einsum("...nm,...m->...n", qm, dw)
            # decay * x + drift_fac * drift + gain, added left to right
            nxt = np.multiply(decay, x, out=states[base + 1])
            nxt += drift_fac * drift
            nxt += gain
            if conv is not None:
                np.multiply(decay, conv[base], out=conv[base + 1])
                conv[base + 1] += gain
            if dead is not None:
                nxt[dead] = x[dead]
                if conv is not None:
                    conv[base + 1][dead] = conv[base][dead]
            mags = _row_norms(nxt)
            # every row finite and at most the threshold: no path explodes here
            if not (mags <= EXPLOSION_THRESHOLD).all():
                bad = alive & (~np.isfinite(mags) | (mags > EXPLOSION_THRESHOLD))
                if np.any(bad):
                    life[bad] = (k + 1) * grid_step
                    alive &= ~bad
                    dead = ~alive
            norms[base + 1] = mags

    return EnsembleResult(xi.delay, grid_step, horizon, states, life, norms, conv)


# ---------------------------------------------------------------------------
# Smooth truncation of coefficients.

def smooth_cutoff(u):
    """C-infinity cutoff: 1 on [0, 1], 0 on [2, inf), monotone between.

    The formula is evaluated on every argument and the outer `np.where`
    picks exactly 1.0 at u <= 1.  A batch whose every row is within its
    level never gets here: `truncate_coeffs` returns its values first.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        lo = np.exp(np.where(u < 2.0, -1.0 / np.maximum(2.0 - u, 1e-300), -np.inf))
        hi = np.exp(np.where(u > 1.0, -1.0 / np.maximum(u - 1.0, 1e-300), -np.inf))
    out = lo / np.maximum(lo + hi, 1e-300)
    return np.where(u <= 1.0, 1.0, np.where(u >= 2.0, 0.0, out))


def truncate_coeffs(coeffs: CoefficientSet, m) -> CoefficientSet:
    """Coefficients that agree with the originals for |z| <= m, t <= m and vanish for |z| >= 2m.

    `m` is one level, or a 1-D array of per-path levels: row i of the batch
    is then cut off at |z| / m_i and reads the original coefficients at time
    min(t, m_i), so one ensemble runs several levels on shared noise and each
    row gets the bits of a run at its own scalar level.  While t <= min(m)
    one call on the whole batch serves every row; past it there is one
    whole-batch call per distinct truncated time, with rows picked by
    `np.where`.

    Every level must be positive and finite: at 0 every ratio |z| / m is
    inf or NaN and every coefficient would vanish, at a negative level
    nothing would be cut off.  When every row has |z| <= its level, the
    original value is returned as it is: division rounds monotonically, so
    |z| / m <= m / m = 1 there, the cutoff is exactly 1.0, and val * 1.0 is
    val bit for bit.  A batch with a row beyond its level or a NaN norm
    multiplies by the cutoff.
    """
    levels = np.asarray(m, dtype=float)
    if not np.all((levels > 0.0) & (levels < math.inf)):
        raise InputError("truncation levels must be positive and finite")
    earliest = float(levels.min())

    def at_truncated_time(fn, t, *args):
        if t <= earliest:
            return np.asarray(fn(t, *args), dtype=float)
        times = np.minimum(t, levels)
        out = None
        for s in _sorted_unique(times):
            val = np.asarray(fn(float(s), *args), dtype=float)
            rows = (times == s).reshape(times.shape + (1,) * (val.ndim - times.ndim))
            out = val if out is None else np.where(rows, val, out)
        return out

    def cut_off(val, norms, trailing):
        if (norms <= levels).all():
            return val
        return val * smooth_cutoff(norms / levels)[(...,) + (None,) * trailing]

    def b_m(t, x, norms):
        return cut_off(at_truncated_time(coeffs.drift, t, x, norms), norms, 1)

    def delay_m(t, view):
        return cut_off(at_truncated_time(coeffs.delay_drift, t, view), view.sup_norm(), 1)

    def q_m(t, x, norms):
        return cut_off(at_truncated_time(coeffs.diffusion_matrix, t, x, norms), norms, 2)

    return replace(coeffs, drift=b_m, delay_drift=delay_m, diffusion=q_m,
                   diag_noise=None)


# ---------------------------------------------------------------------------
# Nonlinear comparison bound for the non-explosion check.

@dataclass
class LyapunovSpec:
    """Pair (Phi, h) of positive increasing comparison functions.

    comparison(t, s) = Phi_t(s) controls the drift pairing against the
    squared window norm; forcing(t, s) = h_t(s) absorbs the stochastic
    convolution.  The reciprocal integral of Phi over [1, inf) must be
    divergent for the comparison argument to run.
    """

    comparison: Callable
    forcing: Callable

    def divergence_status(self, t: float = 1.0) -> str:
        def integrand(u):
            s = np.exp(np.asarray(u, dtype=float))
            return s / np.asarray(self.comparison(t, s), dtype=float)

        _, status, _ = halfline_windowed(integrand, max_windows=40)
        return status


class PsiTransform:
    """Cumulative transform Psi(s) = int_1^s dr / (2 Phi(r)), tabulated on a geometric grid."""

    def __init__(self, phi_fn: Callable, s_lo: float, s_hi: float):
        s_lo = max(min(s_lo, 1.0) * 0.5, 1e-12)
        s_hi = max(s_hi, 2.0) * 2.0
        grid = np.geomspace(s_lo, s_hi, 8192)
        grid = _sorted_unique(np.concatenate([grid, [1.0]]))
        vals = 1.0 / (2.0 * np.asarray(phi_fn(grid), dtype=float))
        cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(grid))])
        anchor = float(np.interp(1.0, grid, cumulative))
        self.grid = grid
        self.cumulative = cumulative - anchor

    def value(self, s) -> np.ndarray:
        # below the tabulated floor the transform is only smaller, so
        # clipping is conservative for every dominance check built on it
        s = np.asarray(s, dtype=float)
        if np.any(s > self.grid[-1]):
            raise InputError("argument above the tabulated comparison range")
        return np.interp(np.maximum(s, self.grid[0]), self.grid, self.cumulative)


def _window_sup_norms(states: np.ndarray, lags: int) -> np.ndarray:
    """Segment sup norms |M_s|_inf for every grid time s >= 0."""
    return np.stack(list(_window_maxima(_row_norms(states), lags + 1)))


def bihari_alpha(lyap: LyapunovSpec, xi: SegmentPath, conv_states: np.ndarray,
                 horizon: float, grid_step: float) -> np.ndarray:
    """alpha_T = 2 |X_0|_inf^2 + 2 int_0^T h(|M_s|_inf) ds by grid quadrature."""
    lags = _steps(xi.delay, grid_step)
    sup_m = _window_sup_norms(conv_states, lags)
    h_vals = np.asarray(lyap.forcing(horizon, sup_m), dtype=float)
    integral = np.trapezoid(h_vals, dx=grid_step, axis=0)
    return 2.0 * segment_norm(xi) ** 2 + 2.0 * integral


def bihari_margin(lyap: LyapunovSpec, xi: SegmentPath, result: EnsembleResult) -> np.ndarray:
    """Per-path min over t of Psi(alpha) + t - Psi(sup_(-r,t) |Y|^2), Y = X - M.

    Non-negative margins certify that the comparison curve dominates the
    realised squared window norms; Psi is increasing so the check avoids
    inverting it.
    """
    if result.convolution is None:
        raise InputError("ensemble was simulated without the convolution record")
    if lyap.divergence_status(result.horizon) != DIVERGENT:
        raise InputError("comparison function fails the divergent-reciprocal requirement")
    y = result.states - result.convolution
    lags = _steps(result.delay, result.grid_step)
    sq = _row_norms(y) ** 2
    running = np.empty_like(sq)
    _running_max(sq, running)
    running = running[lags:]
    alpha = bihari_alpha(lyap, xi, result.convolution, result.horizon, result.grid_step)
    phi_T = lambda s: lyap.comparison(result.horizon, s)
    s_hi = max(float(running.max()), float(alpha.max()))
    transform = PsiTransform(phi_T, min(float(alpha.min()), float(running.min()) + 1e-12), s_hi)
    times = result.grid_step * np.arange(running.shape[0])
    margins = transform.value(alpha)[None, :] + times[:, None] - transform.value(running)
    return margins.min(axis=0)


# ---------------------------------------------------------------------------
# Moment inequality for stochastic convolutions.

def maximal_inequality_check(spec: Spectrum, phi_proc: Callable, q: float,
                             horizon: float, samples: int, *, grid_step: float = 1.0 / 64.0,
                             seed: int = 0) -> ClassReport:
    """Fit the constant in the 2q-th moment bound for sup_t |int S(t-s) Phi dW|.

    phi_proc maps a grid time to the (n, m) integrand matrix.  The fitted
    constant is LHS / (bracket^q * int |Phi|^{2q} dt) where the bracket is
    the singular Hilbert-Schmidt kernel integral of the semigroup.
    """
    alpha = 0.5 * spec.trace_exponent
    if not 1.0 < q < 1.0 / (2.0 * alpha):
        raise InputError(f"moment order q={q} outside (1, {1.0 / (2.0 * alpha):.4g})")
    steps = _steps(horizon, grid_step)
    n = spec.n_modes
    lam = spec.eigenvalues
    decay = np.exp(-lam * grid_step)

    mats = [np.asarray(phi_proc(k * grid_step), dtype=float) for k in range(steps + 1)]
    m_dim = mats[0].shape[1]
    rng = np.random.default_rng(seed)
    state = np.zeros((samples, n))
    running = np.zeros(samples)
    for k in range(steps):
        dw = rng.normal(scale=math.sqrt(grid_step), size=(samples, m_dim))
        state = decay * state + decay * (dw @ mats[k].T)
        running = np.maximum(running, np.linalg.norm(state, axis=-1))
    lhs = float(np.mean(running ** (2.0 * q)))

    op_norms = np.array([np.linalg.norm(m, ord=2) for m in mats])
    phi_integral = float(np.trapezoid(op_norms ** (2.0 * q), dx=grid_step))
    bracket = hs_kernel_integral(spec, horizon, alpha)
    rhs = bracket**q * phi_integral
    fitted = lhs / rhs if rhs > 0.0 else 0.0
    return ClassReport(verdict=PASS, integral_value=fitted,
                       diagnostics={"lhs": lhs, "bracket": bracket,
                                    "phi_integral": phi_integral, "q": q,
                                    "samples": samples, "seed": seed})


# ---------------------------------------------------------------------------
# Built-in coefficients.

def zero_drift():
    return lambda t, x, norms: np.zeros_like(np.asarray(x, dtype=float))


def zero_delay_drift():
    def fn(t, view):
        ref = view.value_at(0.0)
        return np.zeros_like(np.asarray(ref, dtype=float))
    return fn


def dini_drift(phi: ModulusFunction, direction: np.ndarray):
    """b(t, x) = v * phi(min(|x|, 1)) for a unit vector v, |x| the passed norms.

    Concavity and monotonicity of phi make phi itself the modulus of
    this drift, and the min(. , 1) clamp keeps it bounded by phi(1).
    """
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)

    def fn(t, x, norms):
        return _times_modes(phi(np.minimum(norms, 1.0))[..., None], v)

    return fn


def linear_drift(rate: float):
    """Dissipative drift b(t, x) = -rate * x."""
    return lambda t, x, norms: -rate * np.asarray(x, dtype=float)


def cubic_drift(coeff: float = 1.0):
    """Superlinear outward drift b(t, x) = coeff * x^3 (explosion control)."""
    return lambda t, x, norms: coeff * np.asarray(x, dtype=float) ** 3


def delay_shift_drift(beta: float, delay: float):
    """B(t, xi) = beta * xi(-r)."""
    return lambda t, view: beta * np.asarray(view.value_at(-delay), dtype=float)


def delay_tanh_drift(beta: float, direction: np.ndarray):
    """Bounded delay drift B(t, xi) = beta * tanh(|xi|_inf) * v."""
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)

    def fn(t, view):
        mag = np.tanh(np.asarray(view.sup_norm(), dtype=float))
        return _times_modes(beta * mag[..., None], v)

    return fn


def constant_diagonal_diffusion(q: np.ndarray):
    """Q(t, x) = diag(q), one (n, n) matrix that diffusion_matrix broadcasts over x."""
    q = np.asarray(q, dtype=float)

    def fn(t, x, norms):
        return np.diag(q)

    return fn


def state_diagonal_diffusion(q: np.ndarray, amplitude: float = 0.5, frequency: float = 1.0):
    """Q(t, x) = diag(q_i (1 + amplitude sin(frequency x_i))); invertible for |amplitude| < 1."""
    q = np.asarray(q, dtype=float)
    if abs(amplitude) >= 1.0:
        raise InputError("amplitude must stay below 1 to keep QQ* invertible")

    def fn(t, x, norms):
        x = np.asarray(x, dtype=float)
        diag = q * (1.0 + amplitude * np.sin(frequency * x))
        out = np.zeros(x.shape + (q.size,))
        # the diagonal of each (n, n) block is every (n + 1)-th entry of its row
        out.reshape(x.shape[:-1] + (-1,))[..., :: q.size + 1] = diag
        return out

    return fn


def make_coefficients(n_modes: int, *, drift=None, delay_drift=None, diffusion=None,
                      diag_noise=None, noise_dim: int | None = None,
                      drift_sup: float = 0.0) -> CoefficientSet:
    """Assemble a coefficient set, defaulting absent parts to zero."""
    if diag_noise is not None:
        diag_noise = np.asarray(diag_noise, dtype=float)
        if diffusion is None:
            diffusion = constant_diagonal_diffusion(diag_noise)
        if noise_dim is None:
            noise_dim = diag_noise.size
    if diffusion is None:
        raise InputError("a diffusion operator (or diagonal amplitudes) is required")
    if noise_dim is None:
        noise_dim = n_modes
    return CoefficientSet(
        drift=drift or zero_drift(),
        delay_drift=delay_drift or zero_delay_drift(),
        diffusion=diffusion,
        noise_dim=noise_dim,
        diag_noise=diag_noise,
        drift_sup=drift_sup,
    )
