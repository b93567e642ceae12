"""Spectral data and function-class certification.

The linear part of every system here is A = -diag(lambda_i) on a
truncated eigenbasis, with eigenvalues 0 < lambda_1 <= lambda_2 <= ...
given by a closed-form power law so that trace and tail criteria have
analytic form.  Drift moduli phi (increasing, phi^2 concave, integral
of phi(s)/s over (0,1] finite) and smoothing weights a (either the
integral-envelope class or the easier monotone subclass) are certified
on sampled grids plus the tail law; the verdict is an honest surrogate
for the analytic property, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError
from .quadrature import CONVERGED, DIVERGENT, halfline_windowed, panel_integral

CLASS_A = "A"
CLASS_A_PRIME = "Aprime"
CLASS_DOMINATED = "dominated"

PASS = "pass"
FAIL = "fail"
INDETERMINATE = "indeterminate"

# Concavity / monotonicity are probed on this geometric grid.
_SAMPLE_GRID = np.geomspace(1e-8, 1.0, 200)
_CONCAVITY_TOL = 1e-10
# log(_LOG_SHIFT + .) in the built-in moduli and weights; around e^2 it keeps phi^2 concave.
_LOG_SHIFT = math.e**2


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues lambda_i = growth_coeff * i**growth_power of -A, i = 1..n_modes.

    The stored eigenvalues are the simulated modes; the growth law holds
    for every i, which lets the class checks reason about the unstored
    tail.  The defaults coeff=1, power=2 give the 1-d Dirichlet Laplacian.
    """

    n_modes: int
    growth_coeff: float = 1.0
    growth_power: float = 2.0
    trace_exponent: float = 0.4
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_modes < 1:
            raise InputError("spectrum requires at least one mode")
        if not self.growth_coeff > 0.0:
            raise InputError("growth_coeff must be strictly positive")
        if not self.growth_power >= 0.0:
            raise InputError("growth_power must be non-negative")
        if not 0.0 < self.trace_exponent < 1.0:
            raise InputError("trace_exponent must lie in (0, 1)")
        eigenvalues = self.growth_coeff * np.arange(1.0, self.n_modes + 1.0) ** self.growth_power
        # the modes follow the law; a caller must not rewrite them in place
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eigenvalues)


@dataclass(frozen=True)
class ModulusFunction:
    """Continuity modulus phi."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = "phi"

    def __call__(self, s):
        return self.evaluator(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class WeightFunction:
    """Smoothing weight a on (0, inf) with its declared class.

    declared_class "dominated" means membership is claimed through
    a >= dominating on a tail, with dominating in the monotone subclass.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    declared_class: str = CLASS_A_PRIME
    name: str = "a"
    dominating: "WeightFunction | None" = None

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


@dataclass
class ClassReport:
    """Outcome of a membership or inequality check."""

    verdict: str
    integral_value: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict == PASS and not np.isfinite(self.integral_value):
            raise InputError("a passing report must carry a finite integral value")

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


def _safe_eval(fn, x, what: str) -> np.ndarray:
    try:
        out = np.asarray(fn(np.asarray(x, dtype=float)), dtype=float)
    except Exception as exc:  # noqa: BLE001 - reported as an input error
        raise InputError(f"{what} not evaluable: {exc}") from exc
    if np.any(np.isnan(out)):
        raise InputError(f"{what} returned NaN on the sample grid")
    return out


def _windowed_verdict(status: str, value: float, ok: bool) -> tuple[str, float]:
    """(verdict, integral) of a class check whose integral was summed on windows.

    A divergent integral fails with an infinite value; a convergent one
    passes when the shape checks `ok` hold as well.
    """
    if status == DIVERGENT:
        return FAIL, float("inf")
    if status == CONVERGED:
        return (PASS if ok else FAIL), value
    return INDETERMINATE, value


def dini_check(phi: ModulusFunction) -> ClassReport:
    """Certify membership of phi in the Dini modulus class.

    The integral of phi(s)/s over (0, 1] is computed after the
    substitution s = exp(-u), which turns it into the half-line integral
    of phi(exp(-u)); windowed quadrature then decides convergence.
    Monotonicity and concavity of phi^2 are checked on a geometric grid
    with midpoint tests.
    """
    vals = _safe_eval(phi.evaluator, _SAMPLE_GRID, f"modulus {phi.name}")
    monotone = bool(np.all(vals >= -1e-15) and np.all(np.diff(vals) >= -1e-12))

    mid = 0.5 * (_SAMPLE_GRID[:-1] + _SAMPLE_GRID[1:])
    sq_mid = _safe_eval(phi.evaluator, mid, f"modulus {phi.name}") ** 2
    concave = bool(np.all(sq_mid >= 0.5 * (vals[:-1] ** 2 + vals[1:] ** 2) - _CONCAVITY_TOL))

    def integrand(u):
        with np.errstate(over="ignore", under="ignore"):
            return _safe_eval(phi.evaluator, np.exp(-u), f"modulus {phi.name}")

    value, status, windows = halfline_windowed(integrand)
    verdict, integral = _windowed_verdict(status, value, monotone and concave)
    return ClassReport(
        verdict=verdict,
        integral_value=integral,
        diagnostics={
            "monotone": monotone,
            "square_concave": concave,
            "windows": len(windows),
            "status": status,
            "grid": (float(_SAMPLE_GRID[0]), float(_SAMPLE_GRID[-1]), int(_SAMPLE_GRID.size)),
        },
    )


def _candidate_eigenvalues(spec: Spectrum, lam_max: float):
    """Eigenvalue candidates up to lam_max plus one beyond.

    Stored modes are used as far as they reach; a rising growth law
    supplies 256 log-spaced virtual modes for the tail, a flat one none.
    """
    stored = spec.eigenvalues[spec.eigenvalues <= lam_max]
    beyond = spec.eigenvalues[spec.eigenvalues > lam_max]
    if beyond.size or spec.growth_power == 0.0:
        return np.concatenate([stored, beyond[:1]])
    # virtual indices are log-spaced floats: only the eigenvalue scale matters
    with np.errstate(over="ignore"):
        i_max = (lam_max / spec.growth_coeff) ** (1.0 / spec.growth_power)
    i_hi = float(np.clip(i_max, spec.n_modes + 1, 1e120)) * 2.0
    idx = np.geomspace(spec.n_modes + 1, i_hi, 256)
    return np.concatenate([stored, spec.growth_coeff * idx ** spec.growth_power])


def spectral_envelope(spec: Spectrum, numerator, s: float):
    """sup over modes of numerator(lambda_i) * exp(-lambda_i * s).

    The envelope peaks near lambda ~ 1/s, so the scan covers modes up to
    lambda_i > 10 / s plus one beyond.
    """
    lam = _candidate_eigenvalues(spec, 10.0 / s)
    with np.errstate(over="ignore", under="ignore"):
        vals = numerator(lam) * np.exp(-lam * s)
    return float(np.max(vals))


def weight_class_check(a: WeightFunction, spec: Spectrum,
                       as_class: str | None = None) -> ClassReport:
    """Certify a smoothing weight against its declared class.

    The monotone subclass is checked through its defining monotonicity
    plus convergence of the integral of 1/(s*a(s)) over [1, inf); full
    membership is checked through the integral over (0, 1] of the
    spectral envelope sup_i lambda_i exp(-lambda_i s) / a(lambda_i).
    """
    declared = as_class or a.declared_class
    if declared == CLASS_DOMINATED:
        return _dominated_check(a, spec)
    if declared == CLASS_A_PRIME:
        return _a_prime_check(a)
    if declared == CLASS_A:
        return _a_check(a, spec)
    raise InputError(f"unknown weight class {declared!r}")


def _a_prime_check(a: WeightFunction) -> ClassReport:
    grid = np.geomspace(1.0, 1e8, 200)
    av = _safe_eval(a.evaluator, grid, f"weight {a.name}")
    if np.any(av <= 0.0):
        raise InputError(f"weight {a.name} must be strictly positive")
    a_monotone = bool(np.all(np.diff(av) >= -1e-12 * np.abs(av[:-1])))
    ratio = grid / av
    ratio_monotone = bool(np.all(np.diff(ratio) >= -1e-12 * np.abs(ratio[:-1])))

    def integrand(u):
        # substitution s = exp(u) in the integral of 1/(s a(s)) over [1, inf)
        with np.errstate(over="ignore"):
            return 1.0 / _safe_eval(a.evaluator, np.exp(u), f"weight {a.name}")

    value, status, windows = halfline_windowed(integrand)
    verdict, integral = _windowed_verdict(status, value, a_monotone and ratio_monotone)
    return ClassReport(
        verdict=verdict,
        integral_value=integral,
        diagnostics={
            "a_monotone": a_monotone,
            "x_over_a_monotone": ratio_monotone,
            "status": status,
            "windows": len(windows),
        },
    )


def _a_check(a: WeightFunction, spec: Spectrum) -> ClassReport:
    def numerator(lam):
        return lam / _safe_eval(a.evaluator, lam, f"weight {a.name}")

    def integrand(u):
        # substitution s = exp(-u) in the integral over (0, 1]
        u = np.atleast_1d(u)
        out = np.empty_like(u)
        for k, uk in enumerate(u):
            s = math.exp(-uk)
            out[k] = spectral_envelope(spec, numerator, s) * s
        return out

    value, status, windows = halfline_windowed(integrand, domain_limit=700.0)
    verdict, integral = _windowed_verdict(status, value, True)
    return ClassReport(
        verdict=verdict,
        integral_value=integral,
        diagnostics={"status": status, "windows": len(windows)},
    )


def _dominated_check(a: WeightFunction, spec: Spectrum) -> ClassReport:
    if a.dominating is None:
        raise InputError(f"weight {a.name} declared dominated but names no dominating weight")
    grid = np.geomspace(1.0, 1e8, 200)
    av = _safe_eval(a.evaluator, grid, f"weight {a.name}")
    dv = _safe_eval(a.dominating.evaluator, grid, f"weight {a.dominating.name}")
    ok = av >= dv * (1.0 - 1e-12)
    if np.all(ok):
        threshold = float(grid[0])
        dominated = True
    else:
        last_bad = int(np.max(np.nonzero(~ok)))
        # domination must hold on a genuine tail, not just the last grid points
        dominated = last_bad < grid.size - 50
        threshold = float(grid[last_bad + 1]) if last_bad + 1 < grid.size else float("inf")
    base = weight_class_check(a.dominating, spec)
    verdict = PASS if (dominated and base.passed) else FAIL
    if verdict == FAIL and base.verdict == INDETERMINATE:
        verdict = INDETERMINATE
    return ClassReport(
        verdict=verdict,
        integral_value=base.integral_value,
        diagnostics={
            "dominated_from": threshold,
            "dominating": a.dominating.name,
            "dominating_verdict": base.verdict,
        },
    )


def hs_kernel_integral(spec: Spectrum, horizon: float, alpha: float) -> float:
    """int_0^T t^(-2 alpha) sum_i exp(-2 lambda_i t) dt, substituting t = v^(1/(1-2 alpha))."""
    p = 1.0 / (1.0 - 2.0 * alpha)
    lam = spec.eigenvalues

    def integrand(v):
        t = v**p
        return p * np.sum(np.exp(-2.0 * np.outer(lam, t)), axis=0)

    return panel_integral(integrand, 0.0, horizon ** (1.0 / p), order=128)


def trace_class_check(spec: Spectrum) -> ClassReport:
    """Check summability of lambda_i**(eps-1) and the singular HS integral.

    With a power law lambda_i = c i^gamma the analytic criterion is
    gamma * (1 - eps) > 1.  The report also carries the partial sum over
    stored modes, the integral over (0, 1] of
    t^(-2 alpha) * sum_i exp(-2 lambda_i t) for alpha = eps/2, and its
    closed-form bound sum_i lambda_i^(2 alpha - 1) * Gamma(1-2 alpha) * 2^(2 alpha - 1).
    """
    eps = spec.trace_exponent
    alpha = 0.5 * eps
    lam = spec.eigenvalues
    partial = float(np.sum(lam ** (eps - 1.0)))
    hs_integral = hs_kernel_integral(spec, 1.0, alpha)
    hs_bound = float(np.sum(lam ** (2.0 * alpha - 1.0)) * math.gamma(1.0 - 2.0 * alpha)
                     * 2.0 ** (2.0 * alpha - 1.0))

    exponent = spec.growth_power * (1.0 - eps)
    summable = exponent > 1.0
    if summable:
        n = spec.n_modes
        tail = (spec.growth_coeff ** (eps - 1.0)) * n ** (1.0 - exponent) / (exponent - 1.0)
    else:
        tail = float("inf")
    return ClassReport(
        verdict=PASS if summable else FAIL,
        integral_value=partial + tail if summable else float("inf"),
        diagnostics={
            "partial_sum": partial,
            "hs_integral": hs_integral,
            "hs_integral_bound": hs_bound,
            "criterion_exponent": exponent,
        },
    )


def semigroup_apply(spec: Spectrum, t: float, x: np.ndarray) -> np.ndarray:
    """Apply exp(At) = diag(exp(-lambda_i t)) to a mode vector."""
    if t < 0.0:
        raise InputError("semigroup time must be non-negative")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] > spec.n_modes:
        raise InputError("mode vector longer than the stored spectrum")
    return np.exp(-spec.eigenvalues[: x.shape[-1]] * t) * x


# ---------------------------------------------------------------------------
# Built-in library of moduli and weights used throughout the experiments.

def sqrt_modulus() -> ModulusFunction:
    return ModulusFunction(lambda s: np.sqrt(np.maximum(s, 0.0)), "sqrt")


def log_dini_modulus(scale: float = 1.0, delta: float = 1.0) -> ModulusFunction:
    """phi(s) = scale / log(e^2 + 1/s)**(1+delta)."""

    def phi(s):
        s = np.asarray(s, dtype=float)
        positive = s > 0.0
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            if positive.all():
                # both np.where below would pick their first branch everywhere
                return np.asarray(scale / np.log(_LOG_SHIFT + 1.0 / np.maximum(s, 1e-300))
                                  ** (1.0 + delta))
            inv = np.where(positive, 1.0 / np.maximum(s, 1e-300), np.inf)
            out = scale / np.log(_LOG_SHIFT + inv) ** (1.0 + delta)
        return np.where(positive, out, 0.0)

    return ModulusFunction(phi, f"log_dini(K={scale},delta={delta})")


def divergent_log_modulus() -> ModulusFunction:
    """phi(s) = 1/log(e + 1/s); increasing but not a Dini modulus."""

    def phi(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            inv = np.where(s > 0.0, 1.0 / np.maximum(s, 1e-300), np.inf)
            out = 1.0 / np.log(math.e + inv)
        return np.where(s > 0.0, out, 0.0)

    return ModulusFunction(phi, "inv_log")


def power_weight(delta: float = 1.0) -> WeightFunction:
    return WeightFunction(lambda x: x**delta, CLASS_A_PRIME, f"x^{delta}")


def log_weight(delta: float = 1.0) -> WeightFunction:
    return WeightFunction(lambda x: np.log(_LOG_SHIFT + x) ** (1.0 + delta),
                          CLASS_A_PRIME, f"log^{1 + delta}({_LOG_SHIFT:.3g}+x)")


def x_over_log_weight() -> WeightFunction:
    return WeightFunction(lambda x: x / np.log(_LOG_SHIFT + x), CLASS_A_PRIME,
                          f"x/log({_LOG_SHIFT:.3g}+x)")


def oscillating_power_weight(delta: float = 0.5) -> WeightFunction:
    """a(x) = x^delta (sin x + 2); in the envelope class by domination."""
    return WeightFunction(lambda x: x**delta * (np.sin(x) + 2.0), CLASS_DOMINATED,
                          f"x^{delta}(sinx+2)", dominating=power_weight(delta))


def sqrt_weight() -> WeightFunction:
    return power_weight(0.5)


def builtin_weight_library() -> list[WeightFunction]:
    return [
        power_weight(0.5),
        power_weight(1.0),
        log_weight(1.0),
        log_weight(0.5),
        x_over_log_weight(),
    ]
