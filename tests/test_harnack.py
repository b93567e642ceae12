import math

import numpy as np
import pytest

from fspdelab import analysis as an
from fspdelab import harnack as ha
from fspdelab import simulator as sim
from fspdelab import zvonkin as zv
from fspdelab.config import ExperimentConfig
from fspdelab.errors import ConfigError, ExplosionError, InputError
from fspdelab.segment import SegmentPath, _steps

DT = 1.0 / 128.0
DELAY = 0.25
HORIZON = 0.5


def constant_function(value=1.0):
    return lambda view: np.full(np.shape(view.value_at(0.0))[0], value)


def segment(vec):
    return SegmentPath.constant(np.asarray(vec, dtype=float), DELAY, DT)


def estimates(coeffs, xi, eta, f, powers=(), *, samples, seed, horizon=HORIZON, spec=None):
    """Shared-noise estimates of one (xi, eta) pair."""
    spec = spec or an.Spectrum(xi.n_modes)
    return ha.collect_pair_estimates(coeffs, [(xi, eta)], f, horizon, list(powers),
                                     grid_step=DT, spec=spec, samples=samples,
                                     seed=seed)[0]


class TestEstimates:
    def test_constant_function_exact(self, dini_coeffs):
        xi = segment([0.2, 0.0])
        est = estimates(dini_coeffs, xi, xi, constant_function(), samples=500, seed=3)
        assert est.mean_f_xi == 1.0
        assert est.se_f_xi == 0.0

    def test_linear_functional_matches_gaussian_mean(self, spec2):
        # free dynamics with diagonal noise: E <v, X(T)> has closed form
        coeffs = sim.make_coefficients(2, diag_noise=np.ones(2))
        xi = segment([0.8, -0.4])
        v = np.array([1.0, 0.5])
        f = lambda view: view.value_at(0.0) @ v + 3.0
        est = estimates(coeffs, xi, xi, f, samples=20000, seed=11)
        exact = float(an.semigroup_apply(spec2, HORIZON, xi.value_at(0.0)) @ v) + 3.0
        assert abs(est.mean_f_xi - exact) <= 3.0 * est.se_f_xi

    def test_disjoint_seeds_agree(self, dini_coeffs):
        f = ha.tanh_norm_function()
        xi = segment([0.3, 0.1])
        a = estimates(dini_coeffs, xi, xi, f, samples=4000, seed=101)
        b = estimates(dini_coeffs, xi, xi, f, samples=4000, seed=202)
        assert a.seed != b.seed
        assert abs(a.mean_f_xi - b.mean_f_xi) <= 3.0 * math.hypot(a.se_f_xi, b.se_f_xi)

    def test_horizon_must_exceed_delay(self, field, dini_coeffs, spec2):
        # the conjugation check estimates P_T f(xi) too, on both of its sides
        with pytest.raises(InputError, match="T > r"):
            ha.conjugation_check(dini_coeffs, field, segment([0.0, 0.0]), constant_function(),
                                 DELAY, 300, grid_step=DT, spec=spec2, seed=1)

    @pytest.mark.parametrize("horizon", [DELAY, 0.5 * DELAY])
    def test_pair_estimates_need_horizon_beyond_delay(self, dini_coeffs, spec2, horizon):
        xi = segment([0.1, 0.0])
        with pytest.raises(InputError, match="T > r"):
            ha.collect_pair_estimates(dini_coeffs, [(xi, xi)], constant_function(), horizon,
                                      [], grid_step=DT, spec=spec2, samples=200, seed=1)

    @staticmethod
    def _no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the sample count was checked")

    def test_pair_estimates_need_two_samples(self, dini_coeffs, spec2, monkeypatch):
        # one sample has no standard error: np.std(ddof=1) would be NaN
        monkeypatch.setattr(ha, "simulate_ensemble", self._no_simulation)
        xi = segment([0.1, 0.0])
        with pytest.raises(InputError, match="at least 2 samples"):
            ha.collect_pair_estimates(dini_coeffs, [(xi, xi)], constant_function(), HORIZON,
                                      [], grid_step=DT, spec=spec2, samples=1, seed=1)

    def test_conjugation_needs_two_samples(self, field, dini_coeffs, spec2, monkeypatch):
        monkeypatch.setattr(ha, "simulate_ensemble", self._no_simulation)
        with pytest.raises(InputError, match="at least 2 samples"):
            ha.conjugation_check(dini_coeffs, field, segment([0.1, 0.0]), constant_function(),
                                 HORIZON, 1, grid_step=DT, spec=spec2, seed=1)

    def test_explosive_configuration_rejected(self):
        coeffs = sim.make_coefficients(1, drift=sim.cubic_drift(1.0),
                                       diag_noise=np.array([0.1]))
        xi = SegmentPath.constant(np.array([2.0]), DELAY, DT)
        with pytest.raises(ExplosionError):
            estimates(coeffs, xi, xi, constant_function(), samples=200, seed=1, horizon=3.0)

    def test_builtin_functions_positive_and_capped(self, spec2):
        rng = np.random.default_rng(0)
        window = rng.normal(size=(33, 50, 2))
        view = sim.SegmentView(window, DT, DELAY)
        caps = [(ha.exp_head_function(np.array([1.0, 0.0])), math.exp(2.0)),
                (ha.tanh_norm_function(), 2.0), (ha.bump_function(np.zeros(2)), 1.05)]
        for f, cap in caps:
            vals = f(view)
            assert np.all(vals > 0.0)
            assert np.all(vals <= cap + 1e-12)


class TestLogResidual:
    def test_coincident_pair_reduces_to_jensen(self, dini_coeffs):
        xi = segment([0.4, -0.1])
        f = ha.exp_head_function(np.array([1.0, 0.0]))
        est = estimates(dini_coeffs, xi, xi, f, samples=4000, seed=7)
        res, se = ha.log_residual_from_estimates(est, HORIZON, 0.0)
        assert res >= -3.0 * se

    def test_constant_function_gives_exact_bound_term(self, dini_coeffs):
        xi, eta = segment([0.4, 0.0]), segment([-0.2, 0.3])
        est = estimates(dini_coeffs, xi, eta, constant_function(), samples=500, seed=3)
        res, _ = ha.log_residual_from_estimates(est, HORIZON, 2.0)
        assert res == pytest.approx(ha.log_harnack_rhs(xi, eta, HORIZON, 2.0))
        assert res >= 0.0

    def test_horizon_below_delay_rejected(self, dini_coeffs):
        xi = segment([0.0, 0.0])
        with pytest.raises(InputError, match="T > r"):
            estimates(dini_coeffs, xi, xi, constant_function(), samples=500, seed=1,
                      horizon=0.1875)

    def test_jensen_sanity_across_pairs(self, dini_coeffs, spec2):
        # P log f <= log P f at the same start, up to Monte Carlo error
        f = ha.exp_head_function(np.array([1.0, 0.0]))
        rng = np.random.default_rng(5)
        for _ in range(5):
            xi = segment(rng.uniform(-0.5, 0.5, size=2))
            est = ha.collect_pair_estimates(dini_coeffs, [(xi, xi)], f, HORIZON, [],
                                            grid_step=DT, spec=spec2, samples=3000,
                                            seed=int(rng.integers(1 << 30)))[0]
            gap = math.log(est.mean_f_xi) - est.mean_logf_eta
            assert gap >= -3.0 * math.hypot(est.se_f_xi / est.mean_f_xi, est.se_logf_eta)


class TestPowerResidual:
    def test_coincident_pair_power_mean_dominates(self, dini_coeffs):
        xi = segment([0.3, 0.2])
        f = ha.exp_head_function(np.array([1.0, 0.0]))
        est = estimates(dini_coeffs, xi, xi, f, [2.0], samples=4000, seed=9)
        res, se = ha.power_residual_from_estimates(est, HORIZON, 2.0, 0.0)
        assert res >= -3.0 * se

    def test_constant_function_exact_exponential_gap(self, dini_coeffs):
        xi, eta = segment([0.4, 0.0]), segment([0.0, 0.4])
        c_p = 0.7
        est = estimates(dini_coeffs, xi, eta, constant_function(), [2.0], samples=500, seed=2)
        res, _ = ha.power_residual_from_estimates(est, HORIZON, 2.0, c_p)
        head, sup = ha.pair_distance(xi, eta)
        psi = c_p * (1.0 + head**2 / (HORIZON - DELAY) + sup**2)
        assert res == pytest.approx(math.exp(psi) - 1.0)
        assert res >= 0.0

    def test_power_floor_enforced(self):
        # the campaign compares the powers floor * factor, floor = (1 + K2 K3)^2
        for factors in ([0.5, 1.0], [1.5, 1.0], []):
            with pytest.raises(ConfigError, match="power_factors"):
                ExperimentConfig.defaults("harnack", {"harnack": {"power_factors": factors}})


class TestFormulaProperties:
    def test_bound_non_increasing_in_horizon(self):
        xi, eta = segment([0.5, 0.0]), segment([0.0, 0.5])
        values = [ha.log_harnack_rhs(xi, eta, T, 1.5) for T in (0.3, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(values[:-1], values[1:]))

    def test_residual_shrinks_with_pair_distance(self, dini_coeffs, spec2):
        # fixed constant, nested pairs, same noise: the closed-inequality
        # residual follows the bound's right-hand side down as eta -> xi
        f = ha.exp_head_function(np.array([1.0, 0.0]))
        xi = segment([0.5, 0.0])
        residuals = []
        for scale in (1.0, 0.5, 0.25):
            eta = segment([0.5 - 0.8 * scale, 0.4 * scale])
            est = ha.collect_pair_estimates(dini_coeffs, [(xi, eta)], f, HORIZON, [],
                                            grid_step=DT, spec=spec2, samples=4000,
                                            seed=31)[0]
            res, _ = ha.log_residual_from_estimates(est, HORIZON, 2.0)
            residuals.append(res)
        assert residuals[0] > residuals[1] > residuals[2]

    def test_fitted_constants_close_training_pairs(self, dini_coeffs, spec2):
        f = ha.exp_head_function(np.array([1.0, 0.0]))
        rng = np.random.default_rng(17)
        pairs = [(segment(rng.uniform(-0.4, 0.4, 2)), segment(rng.uniform(-0.4, 0.4, 2)))
                 for _ in range(4)]
        powers = [1.5, 2.0]
        est = ha.collect_pair_estimates(dini_coeffs, pairs, f, HORIZON, powers,
                                        grid_step=DT, spec=spec2, samples=2000, seed=23)
        c_log = ha.fit_log_constant(est, HORIZON)
        for e in est:
            res, _ = ha.log_residual_from_estimates(e, HORIZON, c_log)
            assert res >= -1e-9
        for p in powers:
            c_p = ha.fit_power_constant(est, HORIZON, p)
            for e in est:
                res, _ = ha.power_residual_from_estimates(e, HORIZON, p, c_p)
                assert res >= -1e-9
        # shared estimates make the fitted constant exactly non-increasing in p
        assert ha.fit_power_constant(est, HORIZON, 1.5) >= \
            ha.fit_power_constant(est, HORIZON, 2.0) - 1e-12


class TestConjugation:
    def test_trivial_field_identity(self, spec2):
        ref = __import__("fspdelab").zvonkin.ReferenceSemigroup(spec2, np.ones(2))
        from fspdelab import zvonkin as zv

        fld = zv.solve_u(ref, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, HORIZON, zv.ZvonkinGrid(time_steps=6, nodes_per_dim=9))
        coeffs = sim.make_coefficients(
            2, delay_drift=sim.delay_tanh_drift(0.3, np.array([1.0, 0.0])),
            diag_noise=np.ones(2))
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), DELAY, DT)
        f = ha.exp_head_function(np.array([1.0, 0.0]))
        res = ha.conjugation_check(coeffs, fld, xi, f, HORIZON, 500,
                                   grid_step=DT, spec=spec2, seed=5)
        assert res.residual == 0.0
        assert res.rms_gap == 0.0

    def test_constant_function_both_sides_one(self, field, dini_coeffs, spec2):
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), DELAY, DT)
        res = ha.conjugation_check(dini_coeffs, field, xi, constant_function(),
                                   HORIZON, 300, grid_step=DT, spec=spec2, seed=6)
        assert res.direct_mean == 1.0
        assert res.transformed_mean == 1.0

    # float.hex of (direct_mean, transformed_mean, residual, stderr, rms_gap)
    PINNED = {
        (2.0 ** -6, "exp_head"): (
            "0x1.9e8300a231bf1p+0", "0x1.9eafc5dd3e238p+0", "-0x1.6629d86323c64p-11",
            "0x1.aa8ad1df78e62p-15", "0x1.03aafb44afa57p-10"),
        (2.0 ** -6, "tanh_norm"): (
            "0x1.b2563bd9bcda4p+0", "0x1.b25700d1fab0ap+0", "-0x1.89f07bac968f6p-17",
            "0x1.25de4bc39a80ep-17", "0x1.04432da06aa2dp-13"),
        (1.0 / 196.0, "exp_head"): (
            "0x1.a548e6ac94448p+0", "0x1.a5512dd957c0fp+0", "-0x1.08e5986f90e3dp-13",
            "0x1.63ff2db9d43d4p-15", "0x1.40c8474a5e3e5p-11"),
        (1.0 / 196.0, "tanh_norm"): (
            "0x1.b3ce9e7d46b3dp+0", "0x1.b3cf50c65f356p+0", "-0x1.649231030e148p-17",
            "0x1.47beb90397199p-18", "0x1.24616b0d84f42p-14"),
    }

    @pytest.mark.parametrize("step, name", sorted(PINNED))
    def test_result_bytes_are_pinned(self, field, dini_coeffs, spec2, step, name):
        """Every float of the result, byte for byte.

        On 1/196 the last step ends at 98 / 196 = 0.49999999999999994, not
        at the horizon 0.5, and tanh_norm reads the pulled view's sup norm.
        """
        assert (_steps(HORIZON, step) * step < HORIZON) == (step == 1.0 / 196.0)
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), DELAY, step)
        f = {"exp_head": ha.exp_head_function(np.array([1.0, 0.0])),
             "tanh_norm": ha.tanh_norm_function()}[name]
        res = ha.conjugation_check(dini_coeffs, field, xi, f, HORIZON, 200,
                                   grid_step=step, spec=spec2, seed=11)
        got = (res.direct_mean, res.transformed_mean, res.residual, res.stderr, res.rms_gap)
        assert tuple(v.hex() for v in got) == self.PINNED[step, name]

    def test_one_field_read_per_step(self, field, dini_coeffs, spec2, monkeypatch):
        """One u_grad_at per step and no grad_at; theta^{-1} reads u_at as before.

        129 u_at calls under invert_theta were counted on this case when
        every step read u and grad u apart.
        """
        calls, inverting = {}, []

        def count(name):
            real = getattr(zv.RegularizingField, name)

            def counted(self, *args):
                key = f"{name} in invert_theta" if inverting and name == "u_at" else name
                calls[key] = calls.get(key, 0) + 1
                inverting.append(name == "invert_theta")
                try:
                    return real(self, *args)
                finally:
                    inverting.pop()

            monkeypatch.setattr(zv.RegularizingField, name, counted)

        for name in ("u_at", "grad_at", "u_grad_at", "invert_theta"):
            count(name)
        step = 2.0 ** -6
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), DELAY, step)
        ha.conjugation_check(dini_coeffs, field, xi, ha.exp_head_function(np.array([1.0, 0.0])),
                             HORIZON, 200, grid_step=step, spec=spec2, seed=11)
        steps = _steps(HORIZON, step)
        # theta maps the start point with the one u_at outside an inversion
        assert calls == {"u_grad_at": steps, "invert_theta": steps + 1, "u_at": 1,
                         "u_at in invert_theta": 129}

    def test_horizon_beyond_the_field_rejected(self, field, dini_coeffs, spec2, monkeypatch):
        # past its horizon the field reads u(T) = 0, so Y would lose the drift X keeps
        ran = []
        monkeypatch.setattr(ha, "simulate_ensemble", lambda *args, **kwargs: ran.append(1))
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), DELAY, DT)
        with pytest.raises(InputError, match="beyond the field's horizon"):
            ha.conjugation_check(dini_coeffs, field, xi, constant_function(), 2.0 * HORIZON, 50,
                                 grid_step=DT, spec=spec2, seed=6)
        assert ran == []

    @pytest.mark.parametrize("noise", [
        {"diffusion": sim.state_diagonal_diffusion(np.ones(2))},
        {"diag_noise": 2.0 * np.ones(2)}])
    def test_noise_other_than_the_reference_rejected(self, field, dini_coeffs, spec2,
                                                     monkeypatch, noise):
        # the transformed side would omit the Ito remainder of any other noise
        ran = []
        monkeypatch.setattr(ha, "simulate_ensemble", lambda *args, **kwargs: ran.append(1))
        coeffs = sim.make_coefficients(2, drift=dini_coeffs.drift,
                                       delay_drift=dini_coeffs.delay_drift, **noise)
        with pytest.raises(InputError, match="reference noise"):
            ha.conjugation_check(coeffs, field, segment([0.1, 0.0]), constant_function(),
                                 HORIZON, 50, grid_step=DT, spec=spec2, seed=6)
        assert ran == []

    def test_explosive_direct_side_rejected(self, field, spec2):
        coeffs = sim.make_coefficients(2, drift=sim.cubic_drift(1.0), diag_noise=np.ones(2))
        with pytest.raises(ExplosionError, match="paths exploded"):
            ha.conjugation_check(coeffs, field, segment([2.0, 2.0]), constant_function(),
                                 HORIZON, 50, grid_step=DT, spec=spec2, seed=7)

    def test_segment_grid_must_match(self, field, dini_coeffs, spec2):
        xi = SegmentPath.from_function(
            lambda s: np.array([0.3 * math.cos(s), -0.2]), DELAY, DT)
        with pytest.raises(InputError):
            ha.conjugation_check(dini_coeffs, field, xi, constant_function(),
                                 HORIZON, 300, grid_step=DT / 2.0, spec=spec2, seed=6)
