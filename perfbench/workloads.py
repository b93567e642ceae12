"""The benchmark's workloads: one public fspdelab call each, sized for a closed loop.

A workload is prepared once (`prepare`, which is set-up) and then called
repeatedly with a seed (`call`); every call returns the sha256 of its
canonical report and its verdicts.  The sizes are scaled down from the
lab's default configs so that one call takes seconds, not a minute; see
NOTES.md for why each workload exists and how it was scaled.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

REFERENCE_SEED = 20240801
# fixed before any result on it was looked at; a failing verdict here is a finding
HELD_OUT_SEED = 4242

REFERENCES = Path(__file__).with_name("references.json")

# The lab's lambda grid and 11 nodes per axis, with fewer time slices and
# quadrature points than the default (12 slices, 8x6 time rule, 7-point Hermite).
SMALL_ZVONKIN = {"lambda_grid": [40.0, 80.0, 160.0], "time_steps": 6, "nodes_per_dim": 11,
                 "quad_panels": 2, "quad_order": 4, "hermite_order": 5}


@dataclass(frozen=True)
class Outcome:
    report_hash: str
    verdicts: dict


class RunnerWorkload:
    """`RUNNERS[experiment]` on its default config merged with `overrides`."""

    def __init__(self, experiment: str, overrides: dict):
        self.experiment = experiment
        self.overrides = overrides

    def config(self, seed: int, out_dir):
        from fspdelab.config import ExperimentConfig

        extra = {**self.overrides, "output": {"directory": str(out_dir)}}
        extra["montecarlo"] = {**self.overrides.get("montecarlo", {}), "seed": int(seed)}
        return ExperimentConfig.defaults(self.experiment, extra)

    def prepare(self, out_dir):
        return out_dir

    def call(self, out_dir, seed: int) -> Outcome:
        from fspdelab import experiments

        result = experiments.RUNNERS[self.experiment](self.config(seed, out_dir))
        return Outcome(result.report_hash(), dict(result.verdicts))


class ConjugationWorkload:
    """`harnack.conjugation_check` over a dt ladder, as acceptance criterion 5 calls it.

    Set-up solves and certifies the lam = 60 field; every call reads it.
    """

    lam = 60.0
    horizon = 0.5
    delay = 0.25

    def __init__(self, grid: dict, samples: int, dt_exponents: tuple):
        self.grid = grid
        self.samples = samples
        self.dt_exponents = dt_exponents

    @staticmethod
    def _coefficients():
        from fspdelab import experiments
        from fspdelab.config import ExperimentConfig

        # the harnack defaults are the criterion-5 coefficients: Dini drift of
        # scale 0.4, tanh delay drift beta = 0.3, unit diagonal noise
        cfg = ExperimentConfig.defaults("harnack")
        spec = experiments.build_spectrum(cfg)
        return spec, experiments.build_coefficients(cfg, spec, ConjugationWorkload.delay)

    def prepare(self, out_dir):
        from fspdelab import zvonkin

        spec, coeffs = self._coefficients()
        ref = zvonkin.ReferenceSemigroup(spec, coeffs.diag_noise, self.grid["hermite_order"])
        grid = zvonkin.ZvonkinGrid(
            time_steps=self.grid["time_steps"], nodes_per_dim=self.grid["nodes_per_dim"],
            halfwidth=3.0, quad_panels=self.grid["quad_panels"],
            quad_order=self.grid["quad_order"])
        field = zvonkin.solve_u(ref, coeffs.drift, self.lam, self.horizon, grid)
        # raises CertificationError unless the field meets the derivative caps
        return zvonkin.lambda_threshold([field], self.horizon)

    def call(self, field, seed: int) -> Outcome:
        import numpy as np
        from fspdelab import harnack
        from fspdelab.config import canonical_json
        from fspdelab.segment import SegmentPath

        spec, coeffs = self._coefficients()
        f = harnack.exp_head_function(np.array([1.0, 0.0]))
        results = []
        for e in self.dt_exponents:
            dt = 2.0 ** -e
            xi = SegmentPath.from_function(
                lambda s: np.array([0.3 * math.cos(s), -0.2]), self.delay, dt)
            results.append(harnack.conjugation_check(
                coeffs, field, xi, f, self.horizon, self.samples, grid_step=dt,
                spec=spec, seed=int(seed)))
        # no verdict of its own: criterion 5's order fit needs the finer field
        report = canonical_json([asdict(r) for r in results])
        return Outcome(hashlib.sha256(report.encode("utf-8")).hexdigest(), {})


WORKLOADS = {
    "solve-u": RunnerWorkload("solve-u", {"zvonkin": SMALL_ZVONKIN}),
    "harnack": RunnerWorkload("harnack", {
        "zvonkin": SMALL_ZVONKIN,
        "harnack": {"train_pairs": 3, "holdout_pairs": 3, "samples": 2000}}),
    "uniqueness": RunnerWorkload("uniqueness", {"uniqueness": {
        "dt_exponents": [6, 7, 8, 9], "reference_exponent": 10}}),
    "conjugation": ConjugationWorkload(
        {"time_steps": 6, "nodes_per_dim": 9, "quad_panels": 4, "quad_order": 4,
         "hermite_order": 5},
        samples=1000, dt_exponents=(6, 7, 8)),
}

# The lab's own default configs, whose report hashes the runners give at the
# seed commit; checked by the slow self-test, never by a timed run.
DEFAULT_CONFIGS = {
    "solve-u": RunnerWorkload("solve-u", {}),
    "harnack": RunnerWorkload("harnack", {}),
    "uniqueness": RunnerWorkload("uniqueness", {}),
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))
