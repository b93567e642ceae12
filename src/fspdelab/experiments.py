"""Experiment orchestration: uniqueness, Galerkin, non-explosion, Harnack.

Every experiment is a pure function of (config, seed): path ensembles are
driven by generators spawned deterministically from the config seed, and
the written report excludes anything volatile, so a rerun with the same
config reproduces byte-identical output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable

import numpy as np

from . import analysis, harnack, simulator, zvonkin
from .analysis import Spectrum
from .config import ExperimentConfig, canonical_json, to_jsonable
from .errors import CertificationError, ConfigError, InputError
from .segment import SegmentPath, _steps, sine_segment_values, stopping_time
from .simulator import (CoefficientSet, LyapunovSpec, NoisePath, simulate_ensemble,
                        truncate_coeffs)


@dataclass
class ExperimentResult:
    experiment: str
    config_hash: str
    seed: int
    metrics: dict
    verdicts: dict
    tables: dict = dc_field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def canonical_report(self) -> str:
        return canonical_json({
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "metrics": self.metrics,
            "verdicts": self.verdicts,
            "tables": sorted(self.tables),
        })

    def report_hash(self) -> str:
        import hashlib

        return hashlib.sha256(self.canonical_report().encode("utf-8")).hexdigest()

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report = out / f"{self.experiment}_result.json"
        report.write_text(self.canonical_report() + "\n", encoding="utf-8")
        for name, (header, rows) in self.tables.items():
            path = out / f"{self.experiment}_{name}.csv"
            with path.open("w", encoding="utf-8") as fh:
                fh.write(f"# experiment={self.experiment}\n")
                fh.write(f"# config_hash={self.config_hash}\n")
                fh.write(f"# seed={self.seed}\n")
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_cell(v) for v in row) + "\n")
        return report

    def log_line(self) -> str:
        fields = {
            "experiment": self.experiment,
            "config_hash": self.config_hash[:12],
            "seed": self.seed,
            "verdict": "pass" if self.passed else "fail",
            "wall_clock": f"{self.wall_clock:.3f}",
        }
        return " ".join(f"{k}={v}" for k, v in fields.items())


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def fit_order(dts, errors) -> float:
    """Slope of log error against log dt."""
    x = np.log(np.asarray(dts, dtype=float))
    y = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


# ---------------------------------------------------------------------------
# Builders from config sections.

def build_spectrum(cfg: ExperimentConfig) -> Spectrum:
    s = cfg.section("spectrum")
    try:
        return Spectrum(int(s["n_modes"]), float(s["coeff"]), float(s["power"]),
                        float(s["trace_exponent"]))
    except InputError as exc:
        raise ConfigError(f"spectrum: {exc}") from exc


def build_coefficients(cfg: ExperimentConfig, spec: Spectrum, delay: float) -> CoefficientSet:
    c = cfg.section("coefficients")
    n = spec.n_modes
    e1 = np.zeros(n)
    e1[0] = 1.0

    drift_cfg = c["drift"]
    kind = drift_cfg["kind"]
    drift_sup = 0.0
    if kind == "dini":
        modulus = analysis.log_dini_modulus(float(drift_cfg["scale"]), float(drift_cfg["delta"]))
        drift = simulator.dini_drift(modulus, e1)
        drift_sup = float(modulus(np.array([1.0]))[0])
    elif kind == "linear":
        drift = simulator.linear_drift(float(drift_cfg["rate"]))
    elif kind == "cubic":
        drift = simulator.cubic_drift(float(drift_cfg.get("coeff", 1.0)))
    elif kind == "zero":
        drift = simulator.zero_drift()
    else:
        raise ConfigError(f"coefficients.drift.kind {kind!r} is not a built-in")

    dkind = c["delay_drift"]["kind"]
    beta = float(c["delay_drift"]["beta"])
    if dkind == "shift":
        delay_drift = simulator.delay_shift_drift(beta, delay)
    elif dkind == "tanh":
        delay_drift = simulator.delay_tanh_drift(beta, e1)
    elif dkind == "zero":
        delay_drift = simulator.zero_delay_drift()
    else:
        raise ConfigError(f"coefficients.delay_drift.kind {dkind!r} is not a built-in")

    diff_cfg = c["diffusion"]
    qkind = diff_cfg["kind"]
    q = float(diff_cfg["q"]) * np.ones(n)
    if qkind == "diag":
        return simulator.make_coefficients(n, drift=drift, delay_drift=delay_drift,
                                           diag_noise=q, drift_sup=drift_sup)
    if qkind == "state_diag":
        try:
            diffusion = simulator.state_diagonal_diffusion(
                q, float(diff_cfg.get("amplitude", 0.5)), float(diff_cfg.get("frequency", 1.0)))
        except InputError as exc:
            raise ConfigError(f"coefficients.diffusion: {exc}") from exc
        return simulator.make_coefficients(n, drift=drift, delay_drift=delay_drift,
                                           diffusion=diffusion, noise_dim=n,
                                           drift_sup=drift_sup)
    raise ConfigError(f"coefficients.diffusion.kind {qkind!r} is not a built-in")


def _inputs(cfg: ExperimentConfig):
    """(spec, delay, horizon, grid_step, seed, coeffs): the set-up every model runner reads."""
    spec = build_spectrum(cfg)
    t = cfg.section("time")
    delay, horizon, dt = float(t["delay"]), float(t["horizon"]), float(t["grid_step"])
    seed = int(cfg.section("montecarlo")["seed"])
    return spec, delay, horizon, dt, seed, build_coefficients(cfg, spec, delay)


def default_initial_segment(spec: Spectrum, delay: float, grid_step: float) -> SegmentPath:
    """Smooth seeded history with energy spread over every mode, amplitude 0.8 / i."""
    n = spec.n_modes
    amps = 0.8 / np.arange(1.0, n + 1.0)

    def fn(s):
        return amps * np.cos(2.0 * s + np.arange(n))

    return SegmentPath.from_function(fn, delay, grid_step)


def build_test_function(cfg: ExperimentConfig, n_modes: int) -> Callable:
    name = cfg.section("harnack")["test_function"]
    v = np.zeros(n_modes)
    v[0] = 1.0
    if name == "exp_head":
        return harnack.exp_head_function(v)
    if name == "tanh_norm":
        return harnack.tanh_norm_function()
    if name == "bump":
        return harnack.bump_function(np.zeros(n_modes))
    raise ConfigError(f"harnack.test_function {name!r} is not a built-in")


def random_segment_pairs(spec: Spectrum, delay: float, grid_step: float, count: int,
                         scale: float, seed: int) -> list:
    """Pairs (xi, xi + scale * v_k) with low-discrepancy directions v_k.

    The separation is held fixed and the directions follow the golden-angle
    sequence, so any train/holdout split of the list sees the same pair
    geometry; the fitted inequality constants then transfer between splits
    instead of chasing the max of a heavy-tailed ratio.
    """
    rng = np.random.default_rng(seed)
    n = spec.n_modes
    golden = math.pi * (3.0 - math.sqrt(5.0))
    pairs = []
    for k in range(count):
        xi_vals = sine_segment_values(rng, delay, grid_step, 0.5 * scale, 0.25 * scale, (1, n))
        angle = (k * golden) % (2.0 * math.pi)
        direction = np.zeros(n)
        direction[0] = math.cos(angle)
        if n > 1:
            direction[1] = math.sin(angle)
        else:
            direction[0] = math.copysign(1.0, direction[0])
        eta_vals = xi_vals + scale * direction
        pairs.append((SegmentPath(delay, grid_step, xi_vals),
                      SegmentPath(delay, grid_step, eta_vals)))
    return pairs


# ---------------------------------------------------------------------------
# classcheck

def run_classcheck(cfg: ExperimentConfig) -> ExperimentResult:
    spec = build_spectrum(cfg)
    seed = int(cfg.section("montecarlo")["seed"])
    metrics, verdicts = {}, {}
    rows = []

    moduli = [
        ("sqrt", analysis.sqrt_modulus(), True),
        ("log_dini", analysis.log_dini_modulus(), True),
        ("inv_log", analysis.divergent_log_modulus(), False),
    ]
    for name, phi, expect in moduli:
        report = analysis.dini_check(phi)
        rows.append(("dini", name, report.verdict, report.integral_value))
        verdicts[f"dini_{name}"] = report.passed == expect
        metrics[f"dini_{name}_integral"] = report.integral_value

    weights = [
        ("power_1", analysis.power_weight(1.0)),
        ("log_2", analysis.log_weight(1.0)),
        ("oscillating", analysis.oscillating_power_weight(0.5)),
    ]
    for name, w in weights:
        report = analysis.weight_class_check(w, spec)
        rows.append(("weight", name, report.verdict, report.integral_value))
        verdicts[f"weight_{name}"] = report.passed

    subset_ok = True
    for w in analysis.builtin_weight_library():
        prime = analysis.weight_class_check(w, spec, as_class=analysis.CLASS_A_PRIME)
        full = analysis.weight_class_check(w, spec, as_class=analysis.CLASS_A)
        rows.append(("subset", w.name, prime.verdict, full.integral_value))
        subset_ok &= prime.passed and full.passed
    verdicts["prime_subset_of_full"] = subset_ok

    trace = analysis.trace_class_check(spec)
    verdicts["trace_class"] = trace.passed
    metrics["trace_partial_sum"] = trace.diagnostics["partial_sum"]
    metrics["hs_integral"] = trace.diagnostics["hs_integral"]
    metrics["hs_integral_bound"] = trace.diagnostics["hs_integral_bound"]

    return ExperimentResult(
        "classcheck", cfg.hash(), seed, to_jsonable(metrics), verdicts,
        tables={"reports": (("family", "name", "verdict", "value"), rows)})


# ---------------------------------------------------------------------------
# simulate

def run_simulate(cfg: ExperimentConfig) -> ExperimentResult:
    spec, delay, horizon, dt, seed, coeffs = _inputs(cfg)
    xi = default_initial_segment(spec, delay, dt)
    res = simulate_ensemble(coeffs, xi, horizon, dt, spec,
                            NoisePath.generate(seed, _steps(horizon, dt), coeffs.noise_dim, dt))
    life, lags = float(res.life_times[0]), _steps(delay, dt)
    # path 0 up to its life time: the history, then one row per step
    kept = res.states.shape[0] if math.isinf(life) else lags + round(life / dt) + 1
    states = res.states[:kept, 0]
    taus = {n: stopping_time(res.norms[lags:kept, 0], dt, float(n)) for n in (1, 2, 4, 8)}
    rows = list(zip((-delay + dt * np.arange(kept)).tolist(), *states.T.tolist()))
    metrics = {
        "final_norm": float(np.linalg.norm(states[-1])),
        "life_time": life,
        "stopping_times": {str(k): v for k, v in taus.items()},
    }
    verdicts = {"non_explosive": math.isinf(life)}
    header = ("t",) + tuple(f"mode_{i + 1}" for i in range(spec.n_modes))
    return ExperimentResult("simulate", cfg.hash(), seed, to_jsonable(metrics), verdicts,
                            tables={"trajectory": (header, rows)})


# ---------------------------------------------------------------------------
# solve-u

def _solve_fields(cfg: ExperimentConfig, spec: Spectrum, coeffs: CoefficientSet, horizon: float):
    """Solve u lazily, one field per lam of the config grid, in ascending lam."""
    z = cfg.section("zvonkin")
    grid = zvonkin.ZvonkinGrid(z["time_steps"], z["nodes_per_dim"], float(z["halfwidth"]),
                               z["quad_panels"], z["quad_order"])
    if coeffs.diag_noise is None:
        raise ConfigError("the regularizing solve requires a constant diagonal diffusion")
    ref = zvonkin.ReferenceSemigroup(spec, coeffs.diag_noise, z["hermite_order"])
    for lam in sorted(float(lam) for lam in z["lambda_grid"]):
        yield zvonkin.solve_u(ref, coeffs.drift, lam, horizon, grid)


def run_solve_u(cfg: ExperimentConfig) -> ExperimentResult:
    spec, _, horizon, _, seed, coeffs = _inputs(cfg)
    fields = list(_solve_fields(cfg, spec, coeffs, horizon))
    rows = [(f.lam, f.contraction_factor, f.iterations, f.norms["u_a"],
             f.norms["grad_a"], f.norms["hess"], f.norms["sqrtA_grad"])
            for f in fields]
    try:
        chosen = zvonkin.lambda_threshold(fields, horizon)
        threshold_ok, chosen_lam = True, chosen.lam
        out_dir = Path(cfg.section("output")["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        chosen.save(str(out_dir / "field"))
    except CertificationError:
        threshold_ok, chosen_lam = False, -1.0
    metrics = {"lambda_grid": [f.lam for f in fields],
               "contraction_factors": [f.contraction_factor for f in fields],
               "threshold_lambda": chosen_lam}
    verdicts = {"threshold_found": threshold_ok,
                "all_converged": all(f.converged for f in fields)}
    header = ("lambda", "contraction", "iterations", "u_a", "grad_a", "hess", "sqrtA_grad")
    return ExperimentResult("solve-u", cfg.hash(), seed, to_jsonable(metrics), verdicts,
                            tables={"fields": (header, rows)})


# ---------------------------------------------------------------------------
# uniqueness

def run_uniqueness(cfg: ExperimentConfig) -> ExperimentResult:
    """Check that the runs truncated at levels m and 2m agree up to the exit from level m.

    For each step 2^-e the low (m) and high (2m) runs are one ensemble of
    2 * paths rows on the reference noise coarsened to that step: rows
    [0, paths) carry level m, rows [paths, 2 * paths) level 2m, and both
    halves read the same increments.  Each comparison stops at the first
    crossing of level m by the low run, and the strong error is measured
    against the finest-step low run.
    """
    spec, delay, horizon, _, seed, coeffs = _inputs(cfg)
    u = cfg.section("uniqueness")
    level = float(u["level"])
    exponents = u["dt_exponents"]
    if len(exponents) < 2:
        raise ConfigError("uniqueness.dt_exponents must list at least two exponents: "
                          "an order is fitted across step sizes")
    ref_exp = u["reference_exponent"]
    if any(e >= ref_exp for e in exponents):
        raise ConfigError("uniqueness.dt_exponents must all be below "
                          "uniqueness.reference_exponent")
    paths = u["paths"]

    dt_ref = 2.0 ** (-ref_exp)
    xi_ref = default_initial_segment(spec, delay, dt_ref)
    start = float(np.linalg.norm(xi_ref.values[-1]))
    if level <= start:
        # every comparison would stop at t = 0 and compare nothing
        raise ConfigError(f"uniqueness.level must exceed |xi(0)| = {start:.6g}")
    low = truncate_coeffs(coeffs, level)
    both = truncate_coeffs(coeffs, np.repeat([level, 2.0 * level], paths))
    steps_ref = _steps(horizon, dt_ref)
    noise_ref = NoisePath.generate(seed, steps_ref, coeffs.noise_dim, dt_ref, paths)
    ref = simulate_ensemble(low, xi_ref, horizon, dt_ref, spec, noise_ref)
    lags_ref = _steps(delay, dt_ref)

    rows = []
    pair_gaps, dts, strong_errors = [], [], []
    for e in exponents:
        dt = 2.0 ** (-e)
        factor = round(dt / dt_ref)
        xi = default_initial_segment(spec, delay, dt)
        # both halves read the coarsened increments; no copy outlives the run
        res = simulate_ensemble(both, xi, horizon, dt, spec, NoisePath(
            np.tile(noise_ref.coarsen(factor).increments, (1, 2, 1)), dt))
        lags = _steps(delay, dt)
        states_low, states_high = res.states[lags:, :paths], res.states[lags:, paths:]

        # stop each comparison at the first level crossing of the low run
        crossed = res.norms[lags:, :paths] >= level
        kept = crossed.shape[0]
        stop_steps = np.where(crossed.any(axis=0), np.argmax(crossed, axis=0), kept - 1)
        upto = np.arange(kept)[:, None] <= stop_steps

        gap = np.linalg.norm(states_low - states_high, axis=-1)
        err = np.linalg.norm(states_low - ref.states[lags_ref::factor][:kept], axis=-1)
        pair_gap = float(np.max(gap, where=upto, initial=0.0))
        # a left-to-right Python sum keeps the bits strong_errors is recorded with
        strong = sum(np.max(err, axis=0, where=upto, initial=0.0).tolist()) / paths
        pair_gaps.append(pair_gap)
        dts.append(dt)
        strong_errors.append(strong)
        rows.append((dt, pair_gap, strong))

    degenerate = max(strong_errors) <= 1e-14  # exact-scheme regime, nothing to fit
    order = 0.0 if degenerate else fit_order(dts, strong_errors)
    agreement = all(g <= max(s, 1e-12) for g, s in zip(pair_gaps, strong_errors))
    metrics = {"dts": dts, "pair_gaps": pair_gaps, "strong_errors": strong_errors,
               "fitted_order": order, "level": level, "degenerate_exact": degenerate}
    verdicts = {"truncation_agreement": agreement,
                "order_in_band": degenerate or 0.3 <= order <= 0.7}
    return ExperimentResult("uniqueness", cfg.hash(), seed, to_jsonable(metrics), verdicts,
                            tables={"sweep": (("dt", "pair_gap", "strong_error"), rows)})


# ---------------------------------------------------------------------------
# galerkin

def run_galerkin(cfg: ExperimentConfig) -> ExperimentResult:
    spec, delay, horizon, dt, seed, coeffs = _inputs(cfg)
    g = cfg.section("galerkin")
    counts, n_ref, paths = g["mode_counts"], g["reference_modes"], g["paths"]
    if n_ref != spec.n_modes:
        raise ConfigError("galerkin.reference_modes must equal spectrum.n_modes")
    if len(counts) < 2:
        raise ConfigError("galerkin.mode_counts must list at least two mode counts: "
                          "the errors are compared between them")
    if any(c > n_ref for c in counts):
        raise ConfigError("galerkin.mode_counts must not exceed the reference")

    xi = default_initial_segment(spec, delay, dt)
    steps = _steps(horizon, dt)
    lags = _steps(delay, dt)
    noise = NoisePath.generate(seed, steps, coeffs.noise_dim, dt, paths)
    ref = simulate_ensemble(coeffs, xi, horizon, dt, spec, noise)
    ref_tail = ref.states[-lags - 1:]

    def projected_error(n: int) -> float:
        sub_spec = Spectrum(n, spec.growth_coeff, spec.growth_power, spec.trace_exponent)
        sub_xi = SegmentPath(delay, dt, xi.values[:, :n])
        sub = simulate_ensemble(build_coefficients(cfg, sub_spec, delay), sub_xi, horizon,
                                dt, sub_spec, NoisePath(noise.increments[:, :, :n], dt))
        diff = ref_tail.copy()
        diff[:, :, :n] -= sub.states[-lags - 1:]
        seg_sup = np.linalg.norm(diff, axis=-1).max(axis=0)
        return float(np.mean(seg_sup**2))

    rows, errors = [], []
    for n in counts + [n_ref]:
        err = projected_error(n) if n < n_ref else 0.0
        errors.append(err)
        rows.append((n, err))
    decreasing = all(a > b for a, b in zip(errors[:-2], errors[1:-1]))
    metrics = {"mode_counts": counts + [n_ref], "errors": errors}
    verdicts = {"strictly_decreasing": decreasing,
                "reference_exact": errors[-1] == 0.0}
    return ExperimentResult("galerkin", cfg.hash(), seed, to_jsonable(metrics), verdicts,
                            tables={"sweep": (("modes", "mean_sq_segment_error"), rows)})


# ---------------------------------------------------------------------------
# nonexplosion

def build_lyapunov(coeffs: CoefficientSet, cfg: ExperimentConfig) -> LyapunovSpec:
    """Comparison pair matched to the built-in dissipative drift pairing."""
    margin = float(cfg.section("nonexplosion")["comparison_margin"])
    drift_cfg = cfg.section("coefficients")["drift"]
    rate = float(drift_cfg["rate"]) if drift_cfg["kind"] == "linear" else 0.0
    beta = abs(float(cfg.section("coefficients")["delay_drift"]["beta"]))
    bound = coeffs.drift_sup
    c = rate + beta + bound + margin
    return LyapunovSpec(
        comparison=lambda t, s: c * (1.0 + np.asarray(s, dtype=float)),
        forcing=lambda t, s: c * (1.0 + np.asarray(s, dtype=float) ** 2))


def run_nonexplosion(cfg: ExperimentConfig) -> ExperimentResult:
    spec, delay, horizon, dt, seed, coeffs = _inputs(cfg)
    section = cfg.section("nonexplosion")
    paths = section["paths"]
    lyap = build_lyapunov(coeffs, cfg)
    xi = default_initial_segment(spec, delay, dt)
    noise = NoisePath.generate(seed, _steps(horizon, dt), coeffs.noise_dim, dt, paths)
    result = simulate_ensemble(coeffs, xi, horizon, dt, spec, noise, record_convolution=True)
    exploded = int(np.count_nonzero(result.exploded))
    margins = simulator.bihari_margin(lyap, xi, result)
    min_margin = float(np.min(margins))

    verdicts = {"zero_explosions": exploded == 0,
                "comparison_dominates": min_margin >= -1e-8}
    metrics = {"paths": paths, "exploded": exploded, "min_margin": min_margin}

    if section["negative_control"]:
        ctrl_spec = Spectrum(1, spec.growth_coeff, spec.growth_power, spec.trace_exponent)
        start = float(section["control_start"])
        ctrl = simulator.make_coefficients(
            1, drift=simulator.cubic_drift(1.0), diag_noise=np.array([0.1]))
        ctrl_xi = SegmentPath.constant(np.array([start]), delay, dt)
        ctrl_horizon = float(section["control_horizon"])
        ctrl_noise = NoisePath.generate(seed + 1, _steps(ctrl_horizon, dt), ctrl.noise_dim, dt,
                                        min(paths, 100))
        ctrl_res = simulate_ensemble(ctrl, ctrl_xi, ctrl_horizon, dt, ctrl_spec, ctrl_noise)
        ctrl_exploded = int(np.count_nonzero(ctrl_res.exploded))
        verdicts["negative_control_explodes"] = ctrl_exploded > 0
        metrics["control_exploded"] = ctrl_exploded

    rows = [(p, float(margins[p]), bool(result.exploded[p])) for p in range(paths)]
    return ExperimentResult("nonexplosion", cfg.hash(), seed, to_jsonable(metrics), verdicts,
                            tables={"margins": (("path", "margin", "exploded"), rows)})


# ---------------------------------------------------------------------------
# harnack campaign

def run_harnack_campaign(cfg: ExperimentConfig) -> ExperimentResult:
    spec, delay, horizon, dt, seed, coeffs = _inputs(cfg)
    section = cfg.section("harnack")
    samples = section.get("samples", cfg.section("montecarlo")["samples"])
    f = build_test_function(cfg, spec.n_modes)

    # the walk stops solving at the first lam that certifies
    field = zvonkin.lambda_threshold(_solve_fields(cfg, spec, coeffs, horizon), horizon)
    tsys = zvonkin.transform_coeffs(field, coeffs, delay=delay, grid_step=dt,
                                    seed=seed + 11)
    gain = tsys.bounds["K2"] * tsys.bounds["K3"]
    floor = (1.0 + gain) ** 2
    powers = [floor * float(fac) for fac in section["power_factors"]]

    n_train, n_hold = section["train_pairs"], section["holdout_pairs"]
    scale = float(section["pair_scale"])
    pairs = random_segment_pairs(spec, delay, dt, n_train + n_hold, scale, seed + 23)
    train, hold = pairs[:n_train], pairs[n_train:]

    est_train = harnack.collect_pair_estimates(coeffs, train, f, horizon, powers,
                                               grid_step=dt, spec=spec,
                                               samples=samples, seed=seed + 37)
    est_hold = harnack.collect_pair_estimates(coeffs, hold, f, horizon, powers,
                                              grid_step=dt, spec=spec,
                                              samples=samples, seed=seed + 53)

    c_log = harnack.fit_log_constant(est_train, horizon)
    c_pow = {p: harnack.fit_power_constant(est_train, horizon, p) for p in powers}

    rows = []
    log_ok = True
    power_ok = True
    for k, est in enumerate(est_hold):
        res, se = harnack.log_residual_from_estimates(est, horizon, c_log)
        log_ok &= res >= -3.0 * se
        rows.append((k, "log", float("nan"), res, se))
        for p in powers:
            pres, pse = harnack.power_residual_from_estimates(est, horizon, p, c_pow[p])
            power_ok &= pres >= -3.0 * pse
            rows.append((k, "power", p, pres, pse))

    est_rows = [
        (split, k, est.seed, est.mean_f_xi, est.se_f_xi, est.mean_logf_eta,
         est.se_logf_eta, est.mean_f_eta, est.se_f_eta)
        for split, batch in (("train", est_train), ("holdout", est_hold))
        for k, est in enumerate(batch)]

    cp_values = [c_pow[p] for p in powers]
    cp_monotone = all(a >= b - 1e-12 for a, b in zip(cp_values[:-1], cp_values[1:]))

    metrics = {
        "threshold_lambda": field.lam,
        "field_norms": field.norms,
        "bounds": tsys.bounds,
        "gain_K2K3": gain,
        "power_floor": floor,
        "powers": powers,
        "fitted_log_constant": c_log,
        "fitted_power_constants": {f"{p:.6g}": c_pow[p] for p in powers},
        "samples": samples,
    }
    verdicts = {
        "field_certified": field.certified,
        "log_holdout": log_ok,
        "power_holdout": power_ok,
        "power_constant_monotone": cp_monotone,
    }
    return ExperimentResult(
        "harnack", cfg.hash(), seed, to_jsonable(metrics), verdicts,
        tables={
            "residuals": (("pair", "form", "power", "residual", "stderr"), rows),
            "estimates": (("split", "pair", "seed", "P_f_xi", "se_f_xi",
                           "P_logf_eta", "se_logf_eta", "P_f_eta", "se_f_eta"),
                          est_rows),
        })


RUNNERS = {
    "classcheck": run_classcheck,
    "simulate": run_simulate,
    "solve-u": run_solve_u,
    "uniqueness": run_uniqueness,
    "galerkin": run_galerkin,
    "nonexplosion": run_nonexplosion,
    "harnack": run_harnack_campaign,
}

