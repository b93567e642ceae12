"""Monte Carlo semigroup estimation and Harnack-inequality residuals.

P_T f(xi) = E f(X_T^xi) is estimated over seeded path ensembles; the
log-form and power-form dimension-free inequalities are then checked as
residuals with the smallest constants that close them on training pairs,
validated on held-out pairs.  Common random numbers are used across the
(xi, eta) pair of every estimate so that residuals, not absolute values,
carry the Monte Carlo noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .analysis import Spectrum
from .errors import ExplosionError, InputError
from .segment import SegmentPath, _steps
from .simulator import (CoefficientSet, EnsembleResult, NoisePath, SegmentView,
                        _history_windows, _read_only, _row_norms, _step_factors,
                        simulate_ensemble)
from .zvonkin import RegularizingField, TransformedSystem, _require_reference_noise


# A test function maps a segment view to one strictly positive, bounded
# float per path; the built-ins below return such plain functions.

def exp_head_function(direction: np.ndarray) -> Callable:
    """f(xi) = exp(min(<v, xi(0)>, 2)); the capped exponent bounds f by e^2."""
    v = np.asarray(direction, dtype=float)

    def fn(view):
        head = np.asarray(view.value_at(0.0), dtype=float)
        return np.exp(np.minimum(head @ v, 2.0))

    return fn


def tanh_norm_function() -> Callable:
    """f(xi) = 1 + tanh(|xi|_inf), bounded by 2."""

    def fn(view):
        return 1.0 + np.tanh(np.asarray(view.sup_norm(), dtype=float))

    return fn


def bump_function(center: np.ndarray) -> Callable:
    """Smoothed indicator of the unit ball around `center` plus a floor of 0.05; at most 1.05."""
    c = np.asarray(center, dtype=float)

    def fn(view):
        head = np.asarray(view.value_at(0.0), dtype=float)
        d2 = np.sum((head - c) ** 2, axis=-1)
        return 0.05 + np.exp(-0.5 * d2)

    return fn


def _require_alive(result: EnsembleResult) -> None:
    if np.any(result.exploded):
        bad = int(np.count_nonzero(result.exploded))
        raise ExplosionError(
            f"{bad} of {result.n_paths} paths exploded; semigroup estimation requires a "
            "non-explosive configuration")


def _require_samples(samples: int) -> None:
    if samples < 2:
        raise InputError(f"a standard error needs at least 2 samples, got {samples}")


def _terminal_view(coeffs, xi, horizon, grid_step, spec, noise: NoisePath):
    if horizon <= xi.delay:
        raise InputError("semigroup estimates and the Harnack inequalities require T > r")
    result = simulate_ensemble(coeffs, xi, horizon, grid_step, spec, noise)
    _require_alive(result)
    return result.terminal_view()


def _mean_stderr(vals) -> tuple[float, float]:
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def pair_distance(xi: SegmentPath, eta: SegmentPath) -> tuple[float, float]:
    """(|xi(0) - eta(0)|, |xi - eta|_inf) for the inequality right-hand sides."""
    head = float(np.linalg.norm(xi.value_at(0.0) - eta.value_at(0.0)))
    sup = float(np.max(np.linalg.norm(xi.values - eta.values, axis=-1)))
    return head, sup


def harnack_distance(xi: SegmentPath, eta: SegmentPath, horizon: float,
                     lead: float = 0.0) -> float:
    """lead + |xi(0) - eta(0)|^2 / (T - r) + |xi - eta|_inf^2, summed left to right.

    lead is 0 for the log form and 1 for the power form; 0.0 + x == x
    for x >= 0, so the log form gets the bits of the two-term sum.
    """
    head, sup = pair_distance(xi, eta)
    return lead + head**2 / (horizon - xi.delay) + sup**2


def log_harnack_rhs(xi: SegmentPath, eta: SegmentPath, horizon: float, constant: float) -> float:
    return constant * harnack_distance(xi, eta, horizon)


@dataclass
class PairEstimates:
    """Shared-noise estimates for one (xi, eta) pair and one test function."""

    xi: SegmentPath
    eta: SegmentPath
    mean_f_xi: float
    se_f_xi: float
    mean_logf_eta: float
    se_logf_eta: float
    mean_f_eta: float
    se_f_eta: float
    power_means: dict
    power_ses: dict
    seed: int


def _pair_estimates(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                    f: Callable, horizon: float, powers, *, grid_step: float,
                    spec: Spectrum, samples: int, seed: int) -> PairEstimates:
    """One simulation per endpoint, both driven by one noise array drawn from `seed`.

    Every derived mean reuses the same paths.
    """
    steps = _steps(horizon, grid_step)
    noise = NoisePath.generate(seed, steps, coeffs.noise_dim, grid_step, samples)
    f_xi, f_eta = (f(_terminal_view(coeffs, start, horizon, grid_step, spec, noise))
                   for start in (xi, eta))
    pm, ps = {}, {}
    for p in powers:
        pm[p], ps[p] = _mean_stderr(f_xi**p)
    mean_f_xi, se_f_xi = _mean_stderr(f_xi)
    mean_logf_eta, se_logf_eta = _mean_stderr(np.log(f_eta))
    mean_f_eta, se_f_eta = _mean_stderr(f_eta)
    return PairEstimates(
        xi=xi, eta=eta, mean_f_xi=mean_f_xi, se_f_xi=se_f_xi,
        mean_logf_eta=mean_logf_eta, se_logf_eta=se_logf_eta,
        mean_f_eta=mean_f_eta, se_f_eta=se_f_eta,
        power_means=pm, power_ses=ps, seed=seed)


# ---------------------------------------------------------------------------
# Constant fitting on training pairs.

def collect_pair_estimates(coeffs: CoefficientSet, pairs, f: Callable,
                           horizon: float, powers, *, grid_step: float,
                           spec: Spectrum, samples: int, seed: int) -> list[PairEstimates]:
    """Shared-noise estimates for every pair, each pair on its own seed drawn from `seed`."""
    _require_samples(samples)
    seeds = np.random.SeedSequence(seed).generate_state(2 * len(pairs))
    return [_pair_estimates(coeffs, xi, eta, f, horizon, powers, grid_step=grid_step,
                            spec=spec, samples=samples, seed=int(seeds[2 * k]))
            for k, (xi, eta) in enumerate(pairs)]


def fit_log_constant(estimates: list[PairEstimates], horizon: float) -> float:
    """Smallest C >= 0 with P log f(eta) <= log P f(xi) + C H on every training pair."""
    best = 0.0
    for est in estimates:
        denom = harnack_distance(est.xi, est.eta, horizon)
        gap = est.mean_logf_eta - math.log(est.mean_f_xi)
        if denom > 0.0:
            best = max(best, gap / denom)
    return max(best, 0.0)


def fit_power_constant(estimates: list[PairEstimates], horizon: float, power: float) -> float:
    """Smallest C(p) >= 0 closing the power inequality on every training pair."""
    best = 0.0
    for est in estimates:
        denom = harnack_distance(est.xi, est.eta, horizon, 1.0)
        gap = math.log(est.mean_f_eta) - math.log(est.power_means[power]) / power
        best = max(best, gap / denom)
    return max(best, 0.0)


def log_residual_from_estimates(est: PairEstimates, horizon: float,
                                constant: float) -> tuple[float, float]:
    bound = log_harnack_rhs(est.xi, est.eta, horizon, constant)
    residual = math.log(est.mean_f_xi) + bound - est.mean_logf_eta
    stderr = math.hypot(est.se_f_xi / est.mean_f_xi, est.se_logf_eta)
    return residual, stderr


def power_residual_from_estimates(est: PairEstimates, horizon: float, power: float,
                                  constant: float) -> tuple[float, float]:
    # (P_T f^p(xi))^{1/p} exp(Psi_p) with Psi_p = C(p) * distance
    psi = constant * harnack_distance(est.xi, est.eta, horizon, 1.0)
    lhs_val = est.power_means[power] ** (1.0 / power) * math.exp(psi)
    residual = lhs_val - est.mean_f_eta
    # delta method for the p-th root factor
    se_root = lhs_val * est.power_ses[power] / (power * est.power_means[power])
    return residual, math.hypot(se_root, est.se_f_eta)


# ---------------------------------------------------------------------------
# Conjugation identity between the plain and transformed semigroups.

@dataclass
class ConjugationResult:
    direct_mean: float
    transformed_mean: float
    residual: float
    stderr: float
    rms_gap: float
    samples: int
    seed: int


def conjugation_check(coeffs: CoefficientSet, field: RegularizingField, xi: SegmentPath,
                      f: Callable, horizon: float, samples: int, *,
                      grid_step: float, spec: Spectrum, seed: int) -> ConjugationResult:
    """Estimate P_T f(xi) directly and through the conjugated system, same noise.

    The direct side is simulate_ensemble on one Brownian array, reduced to
    its values of f before the transformed side starts.  The loop here
    advances the transformed path Y, kept as its current row alone, and,
    next to it, the history of the inverse image Z = theta^{-1}(Y): each
    Z row is inverted as soon as its Y row is written, so every row of a
    Z window is final when the window is walked.  The pullback of f needs
    no extra inversions.  The TransformedSystem coefficients are read on
    Z, the drift and jac by one field read per step.  Both sides apply
    the noise by one rule, decay * Qbar dW with Qbar read at the step's
    start: Q(t, X) on the direct side, which is run without its diagonal
    shortcut, and grad theta(t, Z) Q(t, Z) for Y.  A zero field is then
    an exact identity, and any other field leaves only the
    transform-consistency gap.  The field must reach the horizon: beyond
    its own it reads u = 0, which would drop the drift from Y alone.  The
    noise of coeffs must be the field's constant reference noise (see
    zvonkin._require_reference_noise).
    """
    _require_reference_noise(field, coeffs)
    if horizon <= xi.delay:
        raise InputError("the conjugation identity is checked for T > r")
    if horizon > field.horizon:
        raise InputError(f"horizon {horizon} lies beyond the field's horizon {field.horizon}")
    _require_samples(samples)
    steps = _steps(horizon, grid_step)
    lags = _steps(xi.delay, grid_step)
    n = xi.n_modes
    # full-width factors, as simulate_ensemble steps with them
    decay, drift_fac = _step_factors(spec.eigenvalues[:n], grid_step, samples)
    noise = NoisePath.generate(seed, steps, coeffs.noise_dim, grid_step, samples)

    direct = simulate_ensemble(replace(coeffs, diag_noise=None), xi, horizon, grid_step,
                               spec, noise)
    _require_alive(direct)
    direct_vals = f(direct.terminal_view())
    # rows before t = 0 hold |xi|; later rows are written from z
    z_norms = direct.norms
    del direct

    # transformed start: theta with the frozen extension at xi(0), the one
    # point every path starts from, broadcast over the paths
    y = np.full((samples, n), field.theta(-xi.delay + lags * grid_step, xi.values[lags]))
    z_states = np.empty((lags + steps + 1, samples, n))
    z_states[:lags] = xi.values[:lags, None, :]
    z_states[lags] = field.invert_theta(0.0, y[0])
    z_norms[lags] = _row_norms(z_states[lags])

    sys = TransformedSystem(field, coeffs, {})
    # the coefficients read the history through read-only views, as in
    # simulate_ensemble; rows are written through the buffers themselves
    z_norms_ro = _read_only(z_norms)
    for k, (t, z, zview) in enumerate(_history_windows(_read_only(z_states), z_norms_ro,
                                                       xi.delay, grid_step, steps)):
        drift, jac = sys.drift_jac_at(t, z)
        drift_bar = drift + sys.delay_drift_at(t, jac, zview)
        gain_bar = decay * np.einsum("pnm,pm->pn",
                                     sys.diffusion_at(t, z, jac, z_norms_ro[lags + k]),
                                     noise.increments[k])
        # decay * y + drift_fac * drift_bar + gain_bar, added left to right
        np.multiply(decay, y, out=y)
        y += drift_fac * drift_bar
        y += gain_bar
        # steps * grid_step need not be the float horizon (1/196 on [0, 0.5])
        t_next = horizon if k + 1 == steps else (k + 1) * grid_step
        z_states[lags + k + 1] = field.invert_theta(t_next, y)
        z_norms[lags + k + 1] = _row_norms(z_states[lags + k + 1])

    pulled_vals = f(SegmentView(z_states[-lags - 1:], grid_step, xi.delay,
                                z_norms[-lags - 1:].max(axis=0)))
    gaps = direct_vals - pulled_vals
    return ConjugationResult(
        direct_mean=float(np.mean(direct_vals)),
        transformed_mean=float(np.mean(pulled_vals)),
        residual=float(np.mean(gaps)),
        stderr=float(np.std(gaps, ddof=1) / math.sqrt(samples)),
        rms_gap=float(np.sqrt(np.mean(gaps**2))),
        samples=samples, seed=seed)
