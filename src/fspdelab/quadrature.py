"""Deterministic quadrature helpers shared across the package.

Improper integrals over a half line are evaluated on doubling windows
[0,1], [1,2], [2,4], ... with a fixed Gauss-Legendre rule per window.
Divergence is declared when the window contributions stop decaying: a
convergent integrand must eventually shed mass, so five consecutive
windows whose contribution is >= 0.9 of the previous one are read as
divergence.  This makes the convergent / divergent verdict a
bit-reproducible function of the integrand.
"""

from __future__ import annotations

from functools import lru_cache

import math

import numpy as np

CONVERGED = "converged"
DIVERGENT = "divergent"
INDETERMINATE = "indeterminate"

# halfline_windowed: a window below _REL_TOL of the running total ends the sum
# as converged; the divergence rule above is _DECAY_WINDOWS windows >= _DECAY_FACTOR.
_REL_TOL = 1e-10
_DECAY_FACTOR = 0.9
_DECAY_WINDOWS = 5


def _frozen(*arrays):
    """Mark cached arrays read-only: every caller shares the same objects."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def gl_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    return _frozen(*np.polynomial.legendre.leggauss(order))


def panel_integral(f, a: float, b: float, order: int = 32) -> float:
    """Gauss-Legendre integral of f over [a, b]."""
    nodes, weights = gl_rule(order)
    x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.dot(weights, np.asarray(f(x), dtype=float)))


def halfline_windowed(f, max_windows: int = 64, domain_limit: float = math.inf):
    """Integrate f over [0, inf) on doubling windows.

    Returns (value, status, window_contributions).  value is the partial
    sum accumulated until truncation; for a divergent verdict it is the
    partial sum at the moment divergence was declared.

    domain_limit bounds the region where f is representable (e.g. 700
    for integrands of exp(-u)).  If the limit is reached while the last
    windows were still decaying below _DECAY_FACTOR, the series is
    classified convergent and a geometric tail estimate is added.
    """
    total = 0.0
    windows = []
    ratios = []
    bad_streak = 0
    oscillations = 0
    prev = None
    a, b = 0.0, 1.0
    status = INDETERMINATE
    for _ in range(max_windows):
        if b > domain_limit:
            recent = ratios[-3:]
            if len(recent) >= 3 and max(recent) <= _DECAY_FACTOR:
                r = max(recent)
                total += windows[-1] * r / (1.0 - r)
                status = CONVERGED
            break
        w = panel_integral(f, a, b)
        if not np.isfinite(w):
            status = DIVERGENT
            break
        windows.append(w)
        total += w
        if w < -_REL_TOL * max(abs(total), 1e-300):
            # sign-changing contributions: the partial sums oscillate, which
            # is neither convergence nor the monotone divergence pattern
            oscillations += 1
            if oscillations >= 3:
                break
        if prev is not None and prev > 0.0 and w > 0.0:
            ratios.append(w / prev)
            if w >= _DECAY_FACTOR * prev:
                bad_streak += 1
                if bad_streak >= _DECAY_WINDOWS:
                    status = DIVERGENT
                    break
            else:
                bad_streak = 0
        if abs(w) <= _REL_TOL * max(abs(total), 1e-300):
            status = CONVERGED
            break
        prev = w
        a, b = b, 2.0 * b
    return total, status, windows


@lru_cache(maxsize=32)
def hermite_tensor(order: int, dim: int):
    """Tensor Gauss-Hermite rule rewritten for standard normal moments.

    Returns (z, w) with z of shape (order**dim, dim) and weights summing
    to one, so that E g(Z) for Z ~ N(0, I_dim) is approximated by
    sum_k w_k g(z_k), exactly when g is polynomial of degree < 2*order
    per coordinate.  Both arrays are cached and read-only.
    """
    t, w = np.polynomial.hermite.hermgauss(order)
    z1 = np.sqrt(2.0) * t
    w1 = w / np.sqrt(np.pi)
    grids = np.meshgrid(*([z1] * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    wt = np.ones(order**dim)
    for g in wgrids:
        wt = wt * g.ravel()
    return _frozen(z, wt)
