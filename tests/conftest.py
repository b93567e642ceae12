import numpy as np
import pytest
from hypothesis import settings

from fspdelab import analysis, simulator, zvonkin

# property tests must neither flake between runs nor time out on a loaded box
settings.register_profile("fspdelab", derandomize=True, deadline=None)
settings.load_profile("fspdelab")


@pytest.fixture(scope="session")
def spec2():
    return analysis.Spectrum(2)


@pytest.fixture(scope="session")
def dini_phi():
    return analysis.log_dini_modulus(scale=0.4)


@pytest.fixture(scope="session")
def dini_coeffs(dini_phi):
    return simulator.make_coefficients(
        2,
        drift=simulator.dini_drift(dini_phi, np.array([1.0, 0.0])),
        delay_drift=simulator.delay_tanh_drift(0.3, np.array([1.0, 0.0])),
        diag_noise=np.ones(2),
        drift_sup=float(dini_phi(np.array([1.0]))[0]),
    )


@pytest.fixture(scope="session")
def field(spec2, dini_coeffs):
    """Certified regularizing field shared by the transform-level tests."""
    ref = zvonkin.ReferenceSemigroup(spec2, np.ones(2), quad_order=7)
    fld = zvonkin.solve_u(ref, dini_coeffs.drift, 60.0, 0.5,
                          zvonkin.ZvonkinGrid(time_steps=10, nodes_per_dim=13,
                                              halfwidth=3.0))
    assert fld.certified
    return fld


@pytest.fixture(scope="session")
def transformed(field, dini_coeffs):
    return zvonkin.transform_coeffs(field, dini_coeffs, delay=0.25,
                                    grid_step=1.0 / 128.0, seed=99)
