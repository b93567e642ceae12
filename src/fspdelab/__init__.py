"""fspdelab: a desk-scale laboratory for functional SPDEs with delay.

Mild solutions of dX = (AX + b(t,X) + B(t,X_t)) dt + Q(t,X) dW are
simulated on a truncated eigenbasis; the drift regularization transform
theta = id + u is built by fixed-point iteration of a resolvent map; and
the uniqueness, non-explosion and Harnack properties of the semigroup
are verified empirically at experiment scale.
"""

from .analysis import (ClassReport, ModulusFunction, Spectrum, WeightFunction,
                       dini_check, semigroup_apply, trace_class_check, weight_class_check)
from .config import ExperimentConfig
from .errors import (CertificationError, ConfigError, ExplosionError, InputError)
from .segment import SegmentPath, segment_norm, stopping_time
from .simulator import (CoefficientSet, LyapunovSpec, NoisePath, make_coefficients,
                        maximal_inequality_check, simulate_ensemble, truncate_coeffs)
from .zvonkin import (ReferenceSemigroup, RegularizingField, TransformedSystem,
                      ZvonkinGrid, lambda_threshold, solve_u, transform_coeffs)
from .harnack import ConjugationResult, conjugation_check

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
