"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every tolerance below is fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from fspdelab import analysis as an
from fspdelab import harnack as ha
from fspdelab import simulator as sim
from fspdelab import zvonkin as zv
from fspdelab.config import ExperimentConfig
from fspdelab.experiments import (RUNNERS, fit_order, run_classcheck,
                                  run_galerkin, run_harnack_campaign,
                                  run_nonexplosion, run_uniqueness)
from fspdelab.segment import SegmentPath


def criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def lambda_sweep():
    """Fields for lam in {50, 100, 200, 400}, with the solve wall time."""
    spec = an.Spectrum(2)
    ref = zv.ReferenceSemigroup(spec, np.ones(2), quad_order=7)
    drift = sim.dini_drift(an.log_dini_modulus(scale=0.4), np.array([1.0, 0.0]))
    grid = zv.ZvonkinGrid(time_steps=12, nodes_per_dim=13, halfwidth=3.0)
    start = time.perf_counter()
    fields = [zv.solve_u(ref, drift, lam, 1.0, grid)
              for lam in (50.0, 100.0, 200.0, 400.0)]
    elapsed = time.perf_counter() - start
    return fields, elapsed


def test_criterion_1_class_library():
    start = time.perf_counter()
    result = run_classcheck(ExperimentConfig.defaults("classcheck"))
    elapsed = time.perf_counter() - start
    ok = result.passed and elapsed < 1.0
    criterion(1, "class library", ok,
              f"verdicts={result.verdicts} elapsed={elapsed:.2f}s")


def test_criterion_2_trace_and_moment_constant():
    start = time.perf_counter()
    spec = an.Spectrum(16, growth_power=2.0, trace_exponent=0.4)
    trace = an.trace_class_check(spec)
    fitted = {}
    for horizon in (0.5, 1.0, 2.0):
        report = sim.maximal_inequality_check(
            spec, lambda t: np.eye(16), q=1.25, horizon=horizon, samples=10000,
            grid_step=1.0 / 64.0, seed=20240802)
        fitted[horizon] = report.integral_value
    elapsed = time.perf_counter() - start
    spread = max(fitted.values()) / min(fitted.values())
    ok = trace.passed and spread < 2.0 and elapsed < 30.0
    criterion(2, "trace and moment constant", ok,
              f"trace={trace.verdict} c_q={fitted} spread={spread:.3f} "
              f"elapsed={elapsed:.1f}s")


def test_criterion_3_resolvent_contraction_rate(lambda_sweep):
    fields, elapsed = lambda_sweep
    lams = np.array([f.lam for f in fields])
    factors = np.array([f.contraction_factor for f in fields])
    slope = float(np.polyfit(np.log(lams), np.log(factors), 1)[0])
    monotone = all(
        all(a.norms[key] >= b.norms[key] - 1e-12 for a, b in zip(fields, fields[1:]))
        for key in ("u_a", "grad_a", "hess"))
    ok = (-0.65 <= slope <= -0.35) and monotone and elapsed < 60.0
    criterion(3, "resolvent contraction rate", ok,
              f"slope={slope:.3f} monotone={monotone} elapsed={elapsed:.1f}s")


def test_criterion_4_diffeomorphism_brackets(lambda_sweep):
    fields, _ = lambda_sweep
    field = zv.lambda_threshold(fields, 1.0)
    assert field.certified
    rng = np.random.default_rng(20240804)
    hw = 0.8 * field.halfwidth
    violations = 0
    for t in np.linspace(0.0, field.horizon, 10):
        xs = rng.uniform(-hw, hw, size=(100, 2))
        ys = rng.uniform(-hw, hw, size=(100, 2))
        d = np.linalg.norm(xs - ys, axis=-1)
        fwd = np.linalg.norm(field.theta(t, xs) - field.theta(t, ys), axis=-1) / d
        inv = np.linalg.norm(field.invert_theta(t, xs)
                             - field.invert_theta(t, ys), axis=-1) / d
        violations += int(np.sum((fwd < 7.0 / 8.0) | (fwd > 9.0 / 8.0)))
        violations += int(np.sum((inv < 8.0 / 9.0) | (inv > 8.0 / 7.0)))
    ok = violations == 0
    criterion(4, "diffeomorphism brackets", ok,
              f"pairs=1000 violations={violations} lam={field.lam}")


def test_criterion_5_conjugation_identity(field, dini_coeffs, spec2):
    start = time.perf_counter()
    f = ha.exp_head_function(np.array([1.0, 0.0]))
    rows = []
    for e in (6, 7, 8, 9):
        dt = 2.0**-e
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), 0.25, dt)
        res = ha.conjugation_check(dini_coeffs, field, xi, f, 0.5, 3000,
                                   grid_step=dt, spec=spec2, seed=20240805)
        rows.append((dt, abs(res.residual), res.stderr))
    elapsed = time.perf_counter() - start
    dts = [r[0] for r in rows]
    residuals = [max(r[1], r[2]) for r in rows]  # stderr floors the log fit
    order = fit_order(dts, residuals)
    coeff = 1.5 * math.exp(
        float(np.polyfit(np.log(dts), np.log(residuals), 1)[1]))
    agrees = all(r[1] <= 3.0 * r[2] + coeff * r[0] ** order for r in rows)
    ok = order >= 0.4 and agrees and elapsed < 120.0
    criterion(5, "conjugation identity", ok,
              f"order={order:.2f} residuals={[f'{r[1]:.1e}' for r in rows]} "
              f"elapsed={elapsed:.1f}s")


def test_criterion_6_pathwise_uniqueness_surrogate():
    result = run_uniqueness(ExperimentConfig.defaults("uniqueness"))
    order = result.metrics["fitted_order"]
    ok = result.verdicts["truncation_agreement"] and 0.3 <= order <= 0.7
    criterion(6, "pathwise uniqueness surrogate", ok,
              f"order={order:.3f} pair_gaps={result.metrics['pair_gaps']}")


def test_criterion_7_galerkin_convergence():
    result = run_galerkin(ExperimentConfig.defaults("galerkin"))
    errors = result.metrics["errors"]
    ok = result.verdicts["strictly_decreasing"] and result.verdicts["reference_exact"]
    criterion(7, "galerkin convergence", ok,
              "errors=" + "/".join(f"{e:.3e}" for e in errors))


def test_criterion_8_nonexplosion():
    result = run_nonexplosion(ExperimentConfig.defaults("nonexplosion"))
    ok = (result.verdicts["zero_explosions"]
          and result.verdicts["comparison_dominates"]
          and result.verdicts["negative_control_explodes"])
    criterion(8, "non-explosion with comparison bound", ok,
              f"exploded={result.metrics['exploded']} "
              f"min_margin={result.metrics['min_margin']:.3f} "
              f"control={result.metrics['control_exploded']}")


def test_criterion_9_harnack_inequalities():
    result = run_harnack_campaign(ExperimentConfig.defaults("harnack"))
    cps = list(result.metrics["fitted_power_constants"].values())
    ok = (result.verdicts["field_certified"] and result.verdicts["log_holdout"]
          and result.verdicts["power_holdout"]
          and result.verdicts["power_constant_monotone"])
    criterion(9, "log and power Harnack", ok,
              f"C_log={result.metrics['fitted_log_constant']:.4f} C_p={cps} "
              f"floor={result.metrics['power_floor']:.3f}")


TINY = {
    "classcheck": {},
    "simulate": {},
    "solve-u": {"zvonkin": {"lambda_grid": [60.0], "time_steps": 6,
                            "nodes_per_dim": 9}},
    "uniqueness": {"uniqueness": {"dt_exponents": [6, 7], "reference_exponent": 8,
                                  "paths": 8}},
    "galerkin": {"spectrum": {"n_modes": 8},
                 "galerkin": {"mode_counts": [2, 4], "reference_modes": 8,
                              "paths": 32}},
    "nonexplosion": {"nonexplosion": {"paths": 100}},
    "harnack": {"zvonkin": {"lambda_grid": [60.0], "time_steps": 6,
                            "nodes_per_dim": 9},
                "harnack": {"train_pairs": 3, "holdout_pairs": 3, "samples": 400}},
}


def test_criterion_10_byte_identical_reports(tmp_path):
    mismatches = []
    for name, overrides in TINY.items():
        digests = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            cfg = ExperimentConfig.defaults(
                name, {**overrides, "output": {"directory": str(out)}})
            result = RUNNERS[name](cfg)
            result.write(out)
            digest = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.suffix in (".json", ".csv")}
            digests.append(digest)
        if digests[0] != digests[1]:
            mismatches.append(name)
    ok = not mismatches
    criterion(10, "byte-identical reports", ok, f"mismatches={mismatches}")
