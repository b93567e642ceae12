"""Power audit: which runner verdicts a planted defect can turn false.

Each entry plants a defect in a runner's inputs or coefficients, never in
its checker, and runs the runner's own verdict on it.  A verdict that no
defect can flip gets an entry that records why, so it is not mistaken for
evidence.
"""

from fspdelab.config import ExperimentConfig
from fspdelab.experiments import run_galerkin, run_nonexplosion


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
