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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import Spectrum
from .errors import ExplosionError, InputError
from .segment import SegmentPath, _steps
from .simulator import CoefficientSet, NoisePath, simulate_ensemble
from .zvonkin import RegularizingField


@dataclass(frozen=True)
class TestFunction:
    """Strictly positive bounded functional on segments."""

    fn: Callable
    name: str
    cap: float

    def __call__(self, view):
        return np.asarray(self.fn(view), dtype=float)


def exp_head_function(direction: np.ndarray, cap: float = 2.0) -> TestFunction:
    """f(xi) = exp(min(<v, xi(0)>, cap)); the capped exponent keeps f bounded."""
    v = np.asarray(direction, dtype=float)

    def fn(view):
        head = np.asarray(view.value_at(0.0), dtype=float)
        return np.exp(np.minimum(head @ v, cap))

    return TestFunction(fn, f"exp_head(cap={cap})", math.exp(cap))


def tanh_norm_function() -> TestFunction:
    """f(xi) = 1 + tanh(|xi|_inf)."""

    def fn(view):
        return 1.0 + np.tanh(np.asarray(view.sup_norm(), dtype=float))

    return TestFunction(fn, "one_plus_tanh_norm", 2.0)


def bump_function(center: np.ndarray, width: float = 1.0, floor: float = 0.05) -> TestFunction:
    """Smoothed indicator of a ball around `center`, lifted by a positive floor."""
    c = np.asarray(center, dtype=float)

    def fn(view):
        head = np.asarray(view.value_at(0.0), dtype=float)
        d2 = np.sum((head - c) ** 2, axis=-1)
        return floor + np.exp(-0.5 * d2 / width**2)

    return TestFunction(fn, f"bump(width={width})", floor + 1.0)


def builtin_test_functions(n_modes: int) -> list[TestFunction]:
    v = np.zeros(n_modes)
    v[0] = 1.0
    return [exp_head_function(v), tanh_norm_function(), bump_function(np.zeros(n_modes))]


@dataclass
class SemigroupEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def _terminal_view(coeffs, xi, horizon, grid_step, spec, samples, seed,
                   noise: NoisePath | None = None):
    steps = _steps(horizon, grid_step)
    if noise is None:
        noise = NoisePath.generate(seed, steps, coeffs.noise_dim, grid_step, samples)
    result = simulate_ensemble(coeffs, xi, horizon, grid_step, spec, noise)
    if np.any(result.exploded):
        bad = int(np.count_nonzero(result.exploded))
        raise ExplosionError(
            f"{bad} of {result.n_paths} paths exploded; semigroup estimation requires a "
            "non-explosive configuration")
    return result.terminal_view()


def _shared_noise_values(coeffs, xi, eta, f, horizon, *, grid_step, spec, samples, seed):
    """f(X_T^xi) and f(X_T^eta), both endpoints driven by one noise array drawn from `seed`."""
    steps = _steps(horizon, grid_step)
    noise = NoisePath.generate(seed, steps, coeffs.noise_dim, grid_step, samples)
    return tuple(f(_terminal_view(coeffs, start, horizon, grid_step, spec, samples, seed, noise))
                 for start in (xi, eta))


def _mean_stderr(vals) -> tuple[float, float]:
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


def estimate_semigroup(coeffs: CoefficientSet, xi: SegmentPath, f: TestFunction,
                       horizon: float, samples: int, seed: int, *,
                       grid_step: float, spec: Spectrum,
                       transform=None) -> SemigroupEstimate:
    """Monte Carlo mean of f(X_T^xi) with its standard error."""
    if horizon <= xi.delay:
        raise InputError("semigroup estimates require T > r")
    view = _terminal_view(coeffs, xi, horizon, grid_step, spec, samples, seed)
    vals = f(view) if transform is None else transform(f(view))
    return SemigroupEstimate(*_mean_stderr(vals), samples, seed)


def pair_distance(xi: SegmentPath, eta: SegmentPath) -> tuple[float, float]:
    """(|xi(0) - eta(0)|, |xi - eta|_inf) for the inequality right-hand sides."""
    head = float(np.linalg.norm(xi.value_at(0.0) - eta.value_at(0.0)))
    sup = float(np.max(np.linalg.norm(xi.values - eta.values, axis=-1)))
    return head, sup


def log_harnack_rhs(xi: SegmentPath, eta: SegmentPath, horizon: float, constant: float) -> float:
    head, sup = pair_distance(xi, eta)
    return constant * (head**2 / (horizon - xi.delay) + sup**2)


@dataclass
class HarnackResidual:
    residual: float
    stderr: float
    lhs: float
    rhs: float
    detail: dict


def log_harnack_residual(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                         f: TestFunction, horizon: float, constant: float, *,
                         grid_step: float, spec: Spectrum, samples: int,
                         seed: int) -> HarnackResidual:
    """log P_T f(xi) + C * H(xi, eta) - P_T log f(eta); >= -3 stderr closes the bound."""
    if horizon <= xi.delay:
        raise InputError("the log-form inequality requires T > r")
    f_xi, f_eta = _shared_noise_values(coeffs, xi, eta, f, horizon, grid_step=grid_step,
                                       spec=spec, samples=samples, seed=seed)
    mean_f, se_f = _mean_stderr(f_xi)
    mean_log, se_log = _mean_stderr(np.log(f_eta))
    bound = log_harnack_rhs(xi, eta, horizon, constant)
    residual = math.log(mean_f) + bound - mean_log
    stderr = math.hypot(se_f / mean_f, se_log)
    return HarnackResidual(residual, stderr, lhs=mean_log, rhs=math.log(mean_f) + bound,
                           detail={"P_f_xi": mean_f, "P_logf_eta": mean_log,
                                   "bound": bound, "seed": seed})


def power_harnack_residual(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                           f: TestFunction, horizon: float, power: float,
                           constant: float, gain: float, *, grid_step: float,
                           spec: Spectrum, samples: int, seed: int) -> HarnackResidual:
    """(P_T f^p(xi))^{1/p} exp(Psi_p) - P_T f(eta) for p above the admissible floor."""
    if horizon <= xi.delay:
        raise InputError("the power-form inequality requires T > r")
    floor = (1.0 + gain) ** 2
    if power <= floor:
        raise InputError(
            f"power {power} is not admissible: the inequality needs p > (1+K)^2 = {floor:.6g}")
    f_xi, f_eta = _shared_noise_values(coeffs, xi, eta, f, horizon, grid_step=grid_step,
                                       spec=spec, samples=samples, seed=seed)
    mean_pow, se_pow = _mean_stderr(f_xi ** power)
    mean_eta, se_eta = _mean_stderr(f_eta)
    head, sup = pair_distance(xi, eta)
    psi = constant * (1.0 + head**2 / (horizon - xi.delay) + sup**2)
    lhs_val = mean_pow ** (1.0 / power) * math.exp(psi)
    residual = lhs_val - mean_eta
    # delta method for the p-th root factor
    se_root = lhs_val * se_pow / (power * mean_pow)
    stderr = math.hypot(se_root, se_eta)
    return HarnackResidual(residual, stderr, lhs=mean_eta, rhs=lhs_val,
                           detail={"P_fp_xi": mean_pow, "P_f_eta": mean_eta,
                                   "psi": psi, "power": power, "seed": seed})


# ---------------------------------------------------------------------------
# Constant fitting on training pairs.

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


def collect_pair_estimates(coeffs: CoefficientSet, pairs, f: TestFunction,
                           horizon: float, powers, *, grid_step: float,
                           spec: Spectrum, samples: int, seed: int) -> list[PairEstimates]:
    """One simulation per endpoint per pair; every derived mean reuses the same paths."""
    out = []
    seeds = np.random.SeedSequence(seed).generate_state(2 * len(pairs))
    for k, (xi, eta) in enumerate(pairs):
        pair_seed = int(seeds[2 * k])
        f_xi, f_eta = _shared_noise_values(coeffs, xi, eta, f, horizon, grid_step=grid_step,
                                           spec=spec, samples=samples, seed=pair_seed)
        pm, ps = {}, {}
        for p in powers:
            pm[p], ps[p] = _mean_stderr(f_xi**p)
        mean_f_xi, se_f_xi = _mean_stderr(f_xi)
        mean_logf_eta, se_logf_eta = _mean_stderr(np.log(f_eta))
        mean_f_eta, se_f_eta = _mean_stderr(f_eta)
        out.append(PairEstimates(
            xi=xi, eta=eta, mean_f_xi=mean_f_xi, se_f_xi=se_f_xi,
            mean_logf_eta=mean_logf_eta, se_logf_eta=se_logf_eta,
            mean_f_eta=mean_f_eta, se_f_eta=se_f_eta,
            power_means=pm, power_ses=ps, seed=pair_seed))
    return out


def fit_log_constant(estimates: list[PairEstimates], horizon: float) -> float:
    """Smallest C >= 0 with P log f(eta) <= log P f(xi) + C H on every training pair."""
    best = 0.0
    for est in estimates:
        head, sup = pair_distance(est.xi, est.eta)
        denom = head**2 / (horizon - est.xi.delay) + sup**2
        gap = est.mean_logf_eta - math.log(est.mean_f_xi)
        if denom > 0.0:
            best = max(best, gap / denom)
    return max(best, 0.0)


def fit_power_constant(estimates: list[PairEstimates], horizon: float, power: float) -> float:
    """Smallest C(p) >= 0 closing the power inequality on every training pair."""
    best = 0.0
    for est in estimates:
        head, sup = pair_distance(est.xi, est.eta)
        denom = 1.0 + head**2 / (horizon - est.xi.delay) + sup**2
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
    head, sup = pair_distance(est.xi, est.eta)
    psi = constant * (1.0 + head**2 / (horizon - est.xi.delay) + sup**2)
    lhs_val = est.power_means[power] ** (1.0 / power) * math.exp(psi)
    residual = lhs_val - est.mean_f_eta
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
                      f: TestFunction, horizon: float, samples: int, *,
                      grid_step: float, spec: Spectrum, seed: int) -> ConjugationResult:
    """Estimate P_T f(xi) directly and through the conjugated system, same noise.

    Both recursions run in one loop on a shared Brownian array; the
    transformed path keeps the inverse image of its state alongside it,
    so the pullback of f needs no extra inversions.  Both sides apply
    the noise with the same rule, which makes the trivial field an exact
    identity and leaves only the transform-consistency gap otherwise.
    """
    if horizon <= xi.delay:
        raise InputError("the conjugation identity is checked for T > r")
    if abs(xi.grid_step - grid_step) > 1e-12:
        raise InputError("initial segment grid step must match the simulation grid")
    steps = _steps(horizon, grid_step)
    lags = _steps(xi.delay, grid_step)
    n = xi.n_modes
    lam = spec.eigenvalues[:n]
    decay = np.exp(-lam * grid_step)
    drift_fac = (1.0 - decay) / lam
    noise = NoisePath.generate(seed, steps, coeffs.noise_dim, grid_step, samples)

    use_exact = field.trivial and coeffs.diag_noise is not None
    if use_exact:
        conv_scale = coeffs.diag_noise[:n] * np.sqrt(
            (1.0 - decay**2) / (2.0 * lam)) / math.sqrt(grid_step)

    from .simulator import SegmentView

    x_states = np.empty((lags + steps + 1, samples, n))
    x_states[: lags + 1] = xi.values[:, None, :]
    # norm histories of x and z, written with each row, for the window sups
    x_norms = np.empty(x_states.shape[:2])
    x_norms[: lags + 1] = np.linalg.norm(xi.values, axis=-1)[:, None]
    z_norms = x_norms.copy()
    # transformed start: theta applied slice by slice with the frozen extension
    y_states = np.empty_like(x_states)
    z_states = np.empty_like(x_states)
    z_states[: lags + 1] = xi.values[:, None, :]
    for k in range(lags + 1):
        s = -xi.delay + k * grid_step
        y_states[k] = field.theta(s, z_states[k])

    resolvent = field.lam + lam
    for k in range(steps):
        t = k * grid_step
        base = lags + k
        dw = noise.increments[k]

        x = x_states[base]
        view = SegmentView(x_states[base - lags: base + 1], grid_step, xi.delay,
                           x_norms[base - lags: base + 1])
        drift = np.asarray(coeffs.drift(t, x), dtype=float) \
            + np.asarray(coeffs.delay_drift(t, view), dtype=float)
        if use_exact:
            gain = conv_scale * dw
        else:
            qm = coeffs.diffusion_matrix(t, x)
            if qm.ndim == 2:
                qm = np.broadcast_to(qm, x.shape[:-1] + qm.shape)
            gain = decay * np.einsum("pnm,pm->pn", qm, dw)
        x_states[base + 1] = decay * x + drift_fac * drift + gain
        x_norms[base + 1] = np.linalg.norm(x_states[base + 1], axis=-1)

        y = y_states[base]
        z = field.invert_theta(t, y)
        z_states[base] = z
        z_norms[base] = np.linalg.norm(z, axis=-1)
        zview = SegmentView(z_states[base - lags: base + 1], grid_step, xi.delay,
                            z_norms[base - lags: base + 1])
        jac = field.grad_theta(t, z)
        b_bar = resolvent * field.u_at(t, z)
        inner = np.asarray(coeffs.delay_drift(t, zview), dtype=float)
        drift_bar = b_bar + np.einsum("pij,pj->pi", jac, inner)
        if use_exact:
            gain_bar = conv_scale * dw
        else:
            qz = coeffs.diffusion_matrix(t, z)
            if qz.ndim == 2:
                qz = np.broadcast_to(qz, z.shape[:-1] + qz.shape)
            q_bar = np.einsum("pij,pjm->pim", jac, qz)
            gain_bar = decay * np.einsum("pnm,pm->pn", q_bar, dw)
        y_states[base + 1] = decay * y + drift_fac * drift_bar + gain_bar

    z_states[lags + steps] = field.invert_theta(horizon, y_states[lags + steps])
    z_norms[lags + steps] = np.linalg.norm(z_states[lags + steps], axis=-1)

    direct_vals = f(SegmentView(x_states[-lags - 1:], grid_step, xi.delay, x_norms[-lags - 1:]))
    pulled_vals = f(SegmentView(z_states[-lags - 1:], grid_step, xi.delay, z_norms[-lags - 1:]))
    gaps = direct_vals - pulled_vals
    return ConjugationResult(
        direct_mean=float(np.mean(direct_vals)),
        transformed_mean=float(np.mean(pulled_vals)),
        residual=float(np.mean(gaps)),
        stderr=float(np.std(gaps, ddof=1) / math.sqrt(samples)),
        rms_gap=float(np.sqrt(np.mean(gaps**2))),
        samples=samples, seed=seed)
