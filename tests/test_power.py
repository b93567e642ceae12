"""Power audit: which runner verdicts a planted defect can turn false.

Each entry plants a defect in a runner's inputs or coefficients, never in
its checker, and runs the runner's own verdict on it.  A verdict that no
defect can flip gets an entry that records why, so it is not mistaken for
evidence.
"""

import pytest

from fspdelab.config import ExperimentConfig
from fspdelab.errors import CertificationError
from fspdelab.experiments import (run_classcheck, run_galerkin, run_harnack_campaign,
                                  run_nonexplosion, run_simulate, run_solve_u, run_uniqueness)


def test_zero_explosions_flipped_by_cubic_growth():
    """nonexplosion.zero_explosions turns false when the drift -x becomes +x^3.

    The defect is the drift of the runner's negative control, b(x) = +x^3,
    which the built-in `cubic` drift kind gives and `validate` accepts; the
    runner's spectrum, noise and initial segment are its defaults.  Paths
    blow up before the horizon, so the verdict, which requires that no
    path explodes, is false.
    """
    result = run_nonexplosion(ExperimentConfig.defaults("nonexplosion", {
        "coefficients": {"drift": {"kind": "cubic", "coeff": 1.0}},
        "nonexplosion": {"paths": 100, "negative_control": False}}))
    assert result.metrics["exploded"] > 0
    assert result.verdicts["zero_explosions"] is False


def test_comparison_dominates_flipped_by_cubic_growth():
    """nonexplosion.comparison_dominates turns false under the drift +x^3.

    The comparison constant is built for a drift bounded by its sup, and
    +x^3 (coeff 1.0) outgrows it: 14 of 50 paths explode, and one path that
    does not explode also leaves the comparison curve (margin -0.047).
    Shrinking the constant instead does not flip the verdict: as
    `comparison_margin` goes 0.5, -1.0, -1.2, -1.25 the least margin rises
    0.36, 0.97, 2.15, 3.87, and at -5.0 the comparison function fails its
    divergence requirement and the runner raises InputError.
    """
    result = run_nonexplosion(ExperimentConfig.defaults("nonexplosion", {
        "coefficients": {"drift": {"kind": "cubic", "coeff": 1.0}},
        "nonexplosion": {"paths": 50, "negative_control": False}}))
    assert result.metrics["min_margin"] < 0.0
    assert result.verdicts["comparison_dominates"] is False


def test_negative_control_explodes_flipped_by_a_late_small_start():
    """nonexplosion.negative_control_explodes turns false for a control started at 0.1 for 0.5.

    The control is dX = X^3 dt + 0.1 dW from X = control_start; from 0.1
    over a horizon of 0.5 none of its 50 paths reaches the explosion
    threshold, so the control shows nothing.
    """
    result = run_nonexplosion(ExperimentConfig.defaults("nonexplosion", {
        "nonexplosion": {"paths": 50, "control_start": 0.1, "control_horizon": 0.5}}))
    assert result.metrics["control_exploded"] == 0
    assert result.verdicts["negative_control_explodes"] is False


def test_non_explosive_flipped_by_cubic_growth():
    """simulate.non_explosive turns false when the drift is +4 x^3.

    The path's life time is 0.281 of the horizon 1.0.  The drift +x^3 with
    coeff 1.0 is not enough: the path lives to the horizon.
    """
    result = run_simulate(ExperimentConfig.defaults("simulate", {
        "coefficients": {"drift": {"kind": "cubic", "coeff": 4.0}}}))
    assert result.metrics["life_time"] == 0.28125
    assert result.verdicts["non_explosive"] is False


def test_order_in_band_flipped_by_constant_noise():
    """uniqueness.order_in_band turns false when the noise is a constant q = 1.2.

    With additive noise the exponential-Euler scheme converges at order 1,
    not 1/2: the fitted order is 1.13, outside the band [0.3, 0.7].
    """
    result = run_uniqueness(ExperimentConfig.defaults("uniqueness", {
        "coefficients": {"diffusion": {"kind": "diag", "q": 1.2}},
        "uniqueness": {"dt_exponents": [6, 7, 8], "reference_exponent": 10, "paths": 16}}))
    assert result.metrics["fitted_order"] > 0.7
    assert result.verdicts["order_in_band"] is False


def test_trace_class_flipped_by_a_slow_spectrum():
    """classcheck.trace_class turns false when the eigenvalues grow like i, not i^2.

    The sum of lambda_i^(eps - 1) converges only for power * (1 - eps) > 1,
    and at power 1.0 and the default eps = 0.4 that is 0.6.  The other
    seven verdicts of the runner stay true.
    """
    result = run_classcheck(ExperimentConfig.defaults("classcheck", {
        "spectrum": {"power": 1.0}}))
    assert result.verdicts.pop("trace_class") is False
    assert all(result.verdicts.values()) and len(result.verdicts) == 7


def test_threshold_found_flipped_by_a_small_lambda(tmp_path):
    """solve-u.threshold_found turns false when the lam grid is [5.0].

    That lam is too small for the field to meet the Hessian cap, and the
    runner reports it instead of raising, as `harnack` does.
    """
    result = run_solve_u(ExperimentConfig.defaults("solve-u", {
        "zvonkin": {"lambda_grid": [5.0], "time_steps": 2, "nodes_per_dim": 5,
                    "quad_panels": 2, "quad_order": 3, "hermite_order": 3},
        "output": {"directory": str(tmp_path)}}))
    assert result.metrics["threshold_lambda"] == -1.0
    assert result.verdicts["threshold_found"] is False


def test_reference_exact_cannot_fail():
    """galerkin.reference_exact holds for every input: it compares 0.0 with 0.0.

    The runner enters the reference run's own error as the literal 0.0 and
    never measures it, so no defect in the inputs reaches the verdict.  Here
    the noise is 100 times the default and the verdict still passes.
    """
    result = run_galerkin(ExperimentConfig.defaults("galerkin", {
        "spectrum": {"n_modes": 4},
        "coefficients": {"diffusion": {"q": 50.0}},
        "galerkin": {"mode_counts": [1, 2], "reference_modes": 4, "paths": 8}}))
    assert result.metrics["errors"][-1] == 0.0
    assert result.verdicts["reference_exact"] is True


def test_strictly_decreasing_flipped_by_reversed_mode_counts():
    """galerkin.strictly_decreasing turns false when the mode counts are listed 4, 2.

    The verdict reads the errors in the order the counts are listed, so a
    list that drops modes from one sub-run to the next makes the error
    rise: 0.031 on 4 modes, then 0.087 on 2, of an 8-mode reference.
    """
    result = run_galerkin(ExperimentConfig.defaults("galerkin", {
        "spectrum": {"n_modes": 8},
        "galerkin": {"mode_counts": [4, 2], "reference_modes": 8, "paths": 16}}))
    first, second = result.metrics["errors"][:2]
    assert first < second
    assert result.verdicts["strictly_decreasing"] is False


def test_truncation_agreement_cannot_fail():
    """uniqueness.truncation_agreement holds by construction: both levels agree inside level m.

    Each comparison stops at the low run's first crossing of level m, and
    up to there the cut-offs of levels m and 2m are both exactly 1, so the
    two runs are the same run and every pair gap is 0.0.  Here the noise
    amplitude is 5.0, about four times the default's 1.2, paths cross the
    level early, and the gaps and the verdict do not move.
    """
    result = run_uniqueness(ExperimentConfig.defaults("uniqueness", {
        "coefficients": {"diffusion": {"q": 5.0}},
        "uniqueness": {"dt_exponents": [6, 7], "reference_exponent": 8, "paths": 8}}))
    assert result.metrics["pair_gaps"] == [0.0, 0.0]
    assert result.verdicts["truncation_agreement"] is True


def test_field_certified_cannot_fail():
    """harnack.field_certified is true whenever it exists: the campaign runs on a certified field.

    `lambda_threshold` returns the first field of the grid that meets the
    caps, or raises.  A grid whose one lam is too small to meet the Hessian
    cap stops the runner with a CertificationError before any verdict is
    formed.
    """
    with pytest.raises(CertificationError, match=r"no lam .*hess<=1/8"):
        run_harnack_campaign(ExperimentConfig.defaults("harnack", {"zvonkin": {
            "lambda_grid": [5.0], "time_steps": 2, "nodes_per_dim": 5, "quad_panels": 2,
            "quad_order": 3, "hermite_order": 3}}))
