"""Delay segments on a uniform time grid.

A segment is the sliding window X_t(s) = X(t+s), s in [-r, 0], stored at
grid resolution; interpolation is deliberately unsupported so that delay
reads are always grid-aligned (`_lag_row`).  `stopping_time` reads the
per-step norms the path engine stores with each ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError


def _steps(span: float, dt: float) -> int:
    """The steps dt in span; InputError unless dt > 0 and span / dt is a finite k >= 0
    within 1e-9 * max(1, k) of a whole number."""
    k = float(span) / float(dt) if dt > 0 else math.nan
    if not 0.0 <= k < math.inf or abs(k - round(k)) > 1e-9 * max(1.0, k):
        raise InputError(f"grid step {dt} does not divide span {span}")
    return round(k)


def _lag_row(s: float, delay: float, grid_step: float, rows: int) -> int:
    """Row of lag s in `rows` grid values stored from -delay on.

    s must lie within 1e-6 grid units of a grid point, and that point
    within the stored rows; either failure raises InputError.
    """
    k = (s + delay) / grid_step
    rounded = round(k)
    if abs(k - rounded) > 1e-6:
        raise InputError(f"lag {s} is not grid aligned (step {grid_step})")
    if rounded < 0 or rounded >= rows:
        raise InputError(f"lag {s} outside the stored window")
    return int(rounded)


@dataclass
class SegmentPath:
    """History over [-r, 0] of one path: values[k] is the state at -r + k*dt."""

    delay: float
    grid_step: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InputError("segment values must be a (lags+1, n_modes) array")
        expected = _steps(self.delay, self.grid_step) + 1
        if self.values.shape[0] != expected:
            raise InputError(
                f"segment stores {self.values.shape[0]} values, grid requires {expected}")

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def value_at(self, s: float) -> np.ndarray:
        return self.values[_lag_row(s, self.delay, self.grid_step, self.values.shape[0])]

    @classmethod
    def constant(cls, value, delay: float, grid_step: float) -> "SegmentPath":
        value = np.asarray(value, dtype=float)
        k = _steps(delay, grid_step)
        return cls(delay, grid_step, np.tile(value, (k + 1, 1)))

    @classmethod
    def from_function(cls, fn: Callable[[float], np.ndarray], delay: float,
                      grid_step: float) -> "SegmentPath":
        k = _steps(delay, grid_step)
        times = -delay + grid_step * np.arange(k + 1)
        return cls(delay, grid_step, np.array([np.asarray(fn(t), dtype=float) for t in times]))


def segment_norm(xi: SegmentPath) -> float:
    """Sup norm over the window."""
    if xi.values.size == 0:
        raise InputError("empty segment")
    return float(np.max(np.linalg.norm(xi.values, axis=1)))


def sine_segment_values(rng: np.random.Generator, delay: float, grid_step: float,
                        base_bound: float, amp_bound: float, size: tuple) -> np.ndarray:
    """Random histories base + amp * sin(freq * s + phase) on the grid of [-delay, 0].

    base, amp, freq and phase are drawn in that order, uniform on
    [-base_bound, base_bound], [-amp_bound, amp_bound], [0.5, 3) and
    [0, 2 pi), each of shape `size`, which ends in (1, n_modes).  The
    result puts the grid times on the axis of that 1.
    """
    s = -delay + grid_step * np.arange(_steps(delay, grid_step) + 1)
    base = rng.uniform(-base_bound, base_bound, size=size)
    amp = rng.uniform(-amp_bound, amp_bound, size=size)
    freq = rng.uniform(0.5, 3.0, size=size)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=size)
    return base + amp * np.sin(freq * s[:, None] + phase)


def stopping_time(norms: np.ndarray, grid_step: float, n: float) -> float:
    """First grid time with |X(t)| >= n, capped at n; the cap when never exceeded.

    norms[k] is |X(k * grid_step)| from t = 0 on; a non-finite norm counts
    as crossed.
    """
    mags = np.where(np.isfinite(norms), norms, np.inf)
    hits = np.nonzero(mags >= n)[0]
    return float(n) if hits.size == 0 else min(float(n), float(hits[0] * grid_step))
