import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fspdelab import analysis as an
from fspdelab import simulator as sim
from fspdelab.errors import InputError
from fspdelab.segment import SegmentPath, _steps


SPEC1 = an.Spectrum(1)
DT = 1.0 / 64.0
DELAY = 0.25
COORD = st.floats(-3.0, 3.0)


def near_zero_noise(n):
    return sim.make_coefficients(n, diag_noise=np.full(n, 1e-300))


def seeded(coeffs, horizon, seed, paths=1, dt=DT):
    """Seeded noise for `paths` paths of `coeffs` over [0, horizon] in steps of dt."""
    return sim.NoisePath.generate(seed, _steps(horizon, dt), coeffs.noise_dim, dt, paths)


class TestMildIntegrator:
    def test_pure_heat_flow_is_exact(self, spec2):
        xi = SegmentPath.constant(np.array([1.0, 2.0]), DELAY, DT)
        coeffs = near_zero_noise(2)
        res = sim.simulate_ensemble(coeffs, xi, 1.0, DT, spec2, seeded(coeffs, 1.0, 1))
        exact = an.semigroup_apply(spec2, 1.0, xi.value_at(0.0))
        assert np.allclose(res.terminal_view().value_at(0.0)[0], exact, atol=1e-14)

    def test_ou_stationary_variance(self):
        # oracle: closed-form stationary variance q^2 / (2 lam) of the
        # one-mode linear equation, Monte Carlo within three stderr
        coeffs = sim.make_coefficients(1, diag_noise=np.array([1.0]))
        xi = SegmentPath.constant(np.array([0.0]), DELAY, DT)
        res = sim.simulate_ensemble(coeffs, xi, 8.0, DT, SPEC1, seeded(coeffs, 8.0, 7, 4000))
        terminal = res.states[-1, :, 0]
        target = 1.0 / (2.0 * SPEC1.eigenvalues[0])
        stderr = np.std(terminal**2, ddof=1) / math.sqrt(terminal.size)
        assert abs(np.var(terminal) - target) <= 3.0 * stderr

    def test_delayed_linear_equation_against_step_oracle(self):
        # oracle: dense Runge-Kutta integration of xdot = -lam x + beta x(t-r)
        # with interpolated history, an independent method for the same flow
        lam, beta, horizon = 1.0, 0.5, 2.0
        coeffs = sim.make_coefficients(
            1, delay_drift=sim.delay_shift_drift(beta, DELAY),
            diag_noise=np.array([1e-300]))

        def oracle(dt_f):
            n_hist = round(DELAY / dt_f)
            steps = round(horizon / dt_f)
            ts = -DELAY + dt_f * np.arange(n_hist + steps + 1)
            x = np.empty(n_hist + steps + 1)
            x[: n_hist + 1] = 1.0 + 0.5 * ts[: n_hist + 1]

            def history(t):
                i = (t + DELAY) / dt_f
                lo = min(max(int(math.floor(i)), 0), x.size - 2)
                fr = i - lo
                return (1.0 - fr) * x[lo] + fr * x[lo + 1]

            def f(t, y):
                return -lam * y + beta * history(t - DELAY)

            for k in range(steps):
                t, y = k * dt_f, x[n_hist + k]
                k1 = f(t, y)
                k2 = f(t + dt_f / 2.0, y + dt_f / 2.0 * k1)
                k3 = f(t + dt_f / 2.0, y + dt_f / 2.0 * k2)
                k4 = f(t + dt_f, y + dt_f * k3)
                x[n_hist + k + 1] = y + dt_f / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return x

        fine = oracle(1.0 / 1024.0)
        errors = {}
        for e in (6, 7):
            dt = 2.0**-e
            xi = SegmentPath.from_function(lambda s: np.array([1.0 + 0.5 * s]), DELAY, dt)
            res = sim.simulate_ensemble(coeffs, xi, horizon, dt, SPEC1,
                                        seeded(coeffs, horizon, 1, dt=dt))
            sub = fine[:: round(dt * 1024)]
            errors[e] = float(np.max(np.abs(res.states[:, 0, 0] - sub[: res.states.shape[0]])))
        assert errors[6] < 5e-3
        assert errors[6] / errors[7] > 1.5  # roughly first order in dt

    def test_determinism_bit_identical(self, dini_coeffs, spec2):
        xi = SegmentPath.constant(np.array([0.3, -0.2]), DELAY, DT)
        a, b = (sim.simulate_ensemble(dini_coeffs, xi, 0.5, DT, spec2,
                                      seeded(dini_coeffs, 0.5, 9, 16)) for _ in range(2))
        assert np.array_equal(a.states, b.states)

    def test_explosion_flagging_and_truncation(self):
        coeffs = sim.make_coefficients(1, drift=sim.cubic_drift(1.0),
                                       diag_noise=np.array([0.1]))
        xi = SegmentPath.constant(np.array([2.0]), DELAY, DT)
        res = sim.simulate_ensemble(coeffs, xi, 3.0, DT, SPEC1, seeded(coeffs, 3.0, 5))
        assert res.exploded[0]
        assert res.life_times[0] < 3.0
        # the row at the life time is the first out of bounds, later rows are
        # frozen copies of it, and the history is still in front
        stop = round((DELAY + res.life_times[0]) / DT)
        norms = res.norms[:, 0]
        assert not norms[stop] <= sim.EXPLOSION_THRESHOLD
        assert np.all(norms[:stop] <= sim.EXPLOSION_THRESHOLD)
        assert np.isfinite(res.states[stop - 1]).all()
        tail = res.states[stop:, 0]
        assert np.array_equal(tail, np.broadcast_to(tail[0], tail.shape), equal_nan=True)
        assert np.array_equal(res.states[: round(DELAY / DT) + 1, 0], xi.values)

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_norms_are_linalg_norm_bitwise(self, n):
        # n = 32 is the galerkin reference spectrum
        rng = np.random.default_rng(n)
        xi = SegmentPath(DELAY, DT, rng.normal(size=(round(DELAY / DT) + 1, n)))
        coeffs = sim.make_coefficients(n, drift=sim.linear_drift(0.5),
                                       diag_noise=np.linspace(1.0, 0.1, n))
        res = sim.simulate_ensemble(coeffs, xi, 0.5, DT, an.Spectrum(n),
                                    seeded(coeffs, 0.5, n, 5))
        assert np.array_equal(res.norms, np.linalg.norm(res.states, axis=-1))

    def test_batch_with_explosions_matches_one_path_runs(self, spec2):
        # cubic drift from the unstable equilibrium: some paths explode, some decay;
        # each path's column must not see whether its neighbours are dead
        coeffs = sim.make_coefficients(2, drift=sim.cubic_drift(1.0),
                                       diag_noise=np.array([1.5, 0.5]))
        xi = SegmentPath.constant(np.array([1.0, 0.5]), DELAY, DT)
        noise = sim.NoisePath.generate(3, 128, 2, DT, n_paths=16)
        res = sim.simulate_ensemble(coeffs, xi, 2.0, DT, spec2, noise, record_convolution=True)
        assert 0 < res.exploded.sum() < res.n_paths
        for p in range(res.n_paths):
            one = sim.simulate_ensemble(coeffs, xi, 2.0, DT, spec2,
                                        sim.NoisePath(noise.increments[:, p: p + 1], DT),
                                        record_convolution=True)
            assert one.life_times[0] == res.life_times[p]
            if one.exploded[0]:
                # frozen from the exploding step on
                stop = round((DELAY + one.life_times[0]) / DT)
                tail = res.states[stop:, p]
                assert np.array_equal(tail, np.broadcast_to(tail[0], tail.shape), equal_nan=True)
            for name in ("states", "norms", "convolution"):
                assert np.array_equal(getattr(one, name)[:, 0], getattr(res, name)[:, p],
                                      equal_nan=True), (p, name)

    def test_noise_grid_mismatch_rejected(self, spec2):
        xi = SegmentPath.constant(np.zeros(2), DELAY, DT)
        noise = sim.NoisePath.generate(1, 10, 2, DT / 2.0)
        with pytest.raises(InputError):
            sim.simulate_ensemble(near_zero_noise(2), xi, 0.5, DT, spec2, noise)


class TestConvolutionIncrement:
    def test_exact_step_variance_matches_quadrature(self):
        # oracle: Var int_0^dt e^{-lam(dt-s)} q dW = q^2 int_0^dt e^{-2 lam u} du
        lam, q, dt = 9.0, 0.7, 1.0 / 32.0
        u = np.linspace(0.0, dt, 100001)
        oracle = q**2 * np.trapezoid(np.exp(-2.0 * lam * u), u)
        decay = math.exp(-lam * dt)
        code_scale = q * math.sqrt((1.0 - decay**2) / (2.0 * lam))
        assert code_scale**2 == pytest.approx(oracle, rel=1e-8)


class TestNoisePath:
    def test_per_step_covariance_matches_seed_law(self):
        noise = sim.NoisePath.generate(21, 4, 3, 0.01, n_paths=20000)
        flat = noise.increments.reshape(-1, 3)
        cov = flat.T @ flat / flat.shape[0]
        assert np.allclose(cov, 0.01 * np.eye(3), atol=4e-4)

    def test_coarsen_sums_increments(self):
        noise = sim.NoisePath.generate(3, 8, 2, 0.125, n_paths=4)
        coarse = noise.coarsen(4)
        assert coarse.grid_step == pytest.approx(0.5)
        assert np.allclose(coarse.increments[0],
                           noise.increments[:4].sum(axis=0))
        with pytest.raises(InputError):
            noise.coarsen(3)


class TestTruncation:
    def test_agreement_inside_and_vanishing_outside(self, dini_coeffs):
        trunc = sim.truncate_coeffs(dini_coeffs, 3.0)
        inside = np.array([[0.5, -0.5]])
        inside_norms = np.linalg.norm(inside, axis=-1)
        assert np.allclose(trunc.drift(1.0, inside, inside_norms),
                           dini_coeffs.drift(1.0, inside, inside_norms))
        far = np.array([[6.0, 0.0]])
        far_norms = np.linalg.norm(far, axis=-1)
        assert np.allclose(trunc.drift(1.0, far, far_norms), 0.0)
        assert np.allclose(trunc.diffusion_matrix(1.0, far, far_norms), 0.0)

    def test_time_clamped_beyond_level(self):
        calls = []

        def drift(t, x, norms):
            calls.append(t)
            return np.zeros_like(np.asarray(x, dtype=float))

        coeffs = sim.make_coefficients(1, drift=drift, diag_noise=np.ones(1))
        trunc = sim.truncate_coeffs(coeffs, 2.0)
        trunc.drift(5.0, np.zeros((1, 1)), np.zeros(1))
        assert calls == [2.0]
        # per-path levels: one whole-batch call per distinct truncated time
        calls.clear()
        sim.truncate_coeffs(coeffs, np.array([2.0, 4.0])).drift(3.0, np.zeros((2, 1)),
                                                                np.zeros(2))
        assert calls == [2.0, 3.0]
        calls.clear()
        sim.truncate_coeffs(coeffs, np.array([2.0, 4.0])).drift(1.5, np.zeros((2, 1)),
                                                                np.zeros(2))
        assert calls == [1.5]

    def test_pathwise_agreement_up_to_stopping_level(self, dini_coeffs, spec2):
        low = sim.truncate_coeffs(dini_coeffs, 4.0)
        high = sim.truncate_coeffs(dini_coeffs, 8.0)
        xi = SegmentPath.constant(np.array([0.2, 0.1]), DELAY, DT)
        noise = sim.NoisePath.generate(17, round(1.0 / DT), 2, DT, n_paths=32)
        a = sim.simulate_ensemble(low, xi, 1.0, DT, spec2, noise)
        b = sim.simulate_ensemble(high, xi, 1.0, DT, spec2, noise)
        assert np.max(np.abs(a.states - b.states)) <= 1e-12

    @given(paths=st.integers(1, 4), n=st.integers(1, 2),
           level=st.sampled_from([0.25, 0.75, 3.0, 1e9]), cubic=st.sampled_from([0.0, 4.0]),
           amplitude=st.floats(0.1, 1.5), seed=st.integers(0, 2**16))
    @example(paths=3, n=2, level=1e9, cubic=4.0, amplitude=0.5, seed=1)
    def test_per_path_levels_equal_scalar_runs_bytes(self, paths, n, level, cubic, amplitude,
                                                     seed):
        # levels below the horizon 1 clamp time; a cubic drift with level 1e9
        # explodes some paths and so runs the dead-path freeze
        dt = 1.0 / 32.0
        q = sim.state_diagonal_diffusion(np.full(n, 0.8), 0.5, 3.0)
        shift = sim.delay_shift_drift(0.4, DELAY)
        coeffs = sim.make_coefficients(
            n, drift=lambda t, x, norms: (1.0 + t) * cubic * np.asarray(x, dtype=float) ** 3,
            delay_drift=lambda t, view: (1.0 - t) * shift(t, view),
            diffusion=lambda t, x, norms: (1.0 + 0.5 * t) * q(t, x, norms), noise_dim=n)
        xi = SegmentPath.from_function(
            lambda s: amplitude * np.cos(2.0 * s + np.arange(n)), DELAY, dt)
        spec = an.Spectrum(n)
        noise = sim.NoisePath.generate(seed, 32, n, dt, n_paths=paths)
        both = sim.simulate_ensemble(
            sim.truncate_coeffs(coeffs, np.repeat([level, 2.0 * level], paths)), xi, 1.0, dt,
            spec, sim.NoisePath(np.tile(noise.increments, (1, 2, 1)), dt))
        for half, m in ((slice(None, paths), level), (slice(paths, None), 2.0 * level)):
            single = sim.simulate_ensemble(sim.truncate_coeffs(coeffs, m), xi, 1.0, dt, spec,
                                           noise)
            assert both.states[:, half].tobytes() == single.states.tobytes()
            assert both.norms[:, half].tobytes() == single.norms.tobytes()
            assert both.life_times[half].tobytes() == single.life_times.tobytes()
        if (paths, level, cubic, amplitude, seed) == (3, 1e9, 4.0, 0.5, 1):
            assert both.exploded.any() and not both.exploded.all()

    @given(n=st.integers(1, 3), per_path=st.booleans(), diag=st.booleans(),
           rows=st.lists(st.sampled_from(["inside", "at", "above", "between", "beyond", "inf",
                                          "nan"]),
                         min_size=1, max_size=6),
           levels=st.lists(st.one_of(st.floats(1e-3, 1e3),
                                     st.sampled_from([0.0, -1.0, math.inf, math.nan])),
                           min_size=6, max_size=6))
    @example(n=1, per_path=False, diag=True, rows=["inside"], levels=[-1.0] * 6)
    @example(n=2, per_path=True, diag=False, rows=["inside", "at"],
             levels=[2.0, math.nan, 1.0, 1.0, 1.0, 1.0])
    @example(n=2, per_path=True, diag=False, rows=["inside", "at", "inside"],
             levels=[0.5, 2.0, 3.0, 1.0, 1.0, 1.0])
    @example(n=1, per_path=False, diag=True, rows=["at", "above"], levels=[1.5] * 6)
    def test_truncated_values_equal_cutoff_product_bytes(self, n, per_path, diag, rows,
                                                         levels):
        # the reference is the product the shortcut skips when every row is
        # within its level; a level that is not positive and finite is rejected:
        # at 0 every coefficient vanished, below 0 nothing was cut off
        m = np.array(levels[: len(rows)]) if per_path else levels[0]
        if not np.all((np.asarray(m) > 0.0) & (np.asarray(m) < math.inf)):
            with pytest.raises(InputError, match="positive and finite"):
                sim.truncate_coeffs(sim.make_coefficients(n, diag_noise=np.ones(n)), m)
            return
        x = np.zeros((len(rows), n))
        for i, (kind, lvl) in enumerate(zip(rows, np.broadcast_to(m, (len(rows),)))):
            if kind == "inside":
                x[i] = 0.5 * lvl * np.cos(np.arange(n) + i) / math.sqrt(n)
            else:
                x[i, i % n] = (-1.0) ** i * {
                    "at": lvl, "above": np.nextafter(lvl, math.inf), "between": 1.5 * lvl,
                    "beyond": 3.0 * lvl + 1.0, "inf": math.inf, "nan": math.nan}[kind]
        shift = sim.delay_shift_drift(0.4, DT)
        coeffs = sim.make_coefficients(
            n, drift=lambda t, x, norms: np.tanh(x) - 0.25,
            delay_drift=lambda t, view: shift(t, view) + view.sup_norm()[:, None],
            diag_noise=np.linspace(1.0, 0.5, n) if diag else None,
            diffusion=None if diag else sim.state_diagonal_diffusion(np.full(n, 0.8)))
        view = sim.SegmentView(np.stack([0.5 * x, x]), DT, DT)
        trunc = sim.truncate_coeffs(coeffs, m)
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(x, axis=-1)
            cases = [(trunc.drift(0.0, x, norms), coeffs.drift(0.0, x, norms),
                      sim.smooth_cutoff(norms / m)[..., None]),
                     (trunc.delay_drift(0.0, view), coeffs.delay_drift(0.0, view),
                      sim.smooth_cutoff(view.sup_norm() / m)[..., None]),
                     (trunc.diffusion_matrix(0.0, x, norms),
                      coeffs.diffusion_matrix(0.0, x, norms),
                      sim.smooth_cutoff(norms / m)[..., None, None])]
            for got, base, factor in cases:
                want = base * factor
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.one_of(
        st.floats(0.0, 1.0), st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
        st.floats(2.0, 1e300), st.sampled_from([1.0, 2.0, -0.0, math.nan, math.inf]))))
    def test_cutoff_batch_equals_elementwise_bytes(self, u):
        # the formula runs on every entry, and np.where picks exactly 1.0 at u <= 1
        batch = sim.smooth_cutoff(u)
        single = np.array([sim.smooth_cutoff(v) for v in u])
        assert batch.dtype == single.dtype and batch.tobytes() == single.tobytes()

    @given(st.lists(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e300),
                              st.sampled_from([0.0, 1.0, 2.0, math.inf])), min_size=2))
    def test_smooth_cutoff_is_a_cutoff(self, us):
        # values in [0, 1], exactly 1 on [0, 1], exactly 0 on [2, inf),
        # non-increasing in between: sorted arguments give sorted values
        u = np.sort(np.concatenate([us, np.linspace(0.0, 3.0, 301)]))
        v = sim.smooth_cutoff(u)
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert np.all(v[u <= 1.0] == 1.0) and np.all(v[u >= 2.0] == 0.0)
        assert np.all(np.diff(v) <= 0.0)


class TestCoefficientProtocol:
    """Coefficients read |x| from the engine and read its history through read-only views."""

    @staticmethod
    def _run(drift=None, delay_drift=None, diffusion=None, levels=None, steps=8):
        n = 2
        coeffs = sim.make_coefficients(
            n, drift=drift, delay_drift=delay_drift,
            diffusion=diffusion or sim.constant_diagonal_diffusion(np.ones(n)))
        paths = 4 if levels is None else len(levels)
        if levels is not None:
            coeffs = sim.truncate_coeffs(coeffs, levels)
        xi = SegmentPath.constant(np.array([0.6, -0.4]), DELAY, DT)
        return sim.simulate_ensemble(coeffs, xi, steps * DT, DT, an.Spectrum(n),
                                     seeded(coeffs, steps * DT, 5, paths))

    @pytest.mark.parametrize("target", ["x", "norms", "window"])
    def test_coefficient_write_into_history_raises(self, target):
        def drift(t, x, norms):
            {"x": x, "norms": norms}[target][0] = 1.0
            return np.zeros_like(x)

        def delay_drift(t, view):
            view.window[-1, 0] = 1.0
            return np.zeros_like(view.value_at(0.0))

        with pytest.raises(ValueError, match="read-only"):
            if target == "window":
                self._run(delay_drift=delay_drift)
            else:
                self._run(drift=drift)

    def test_one_norm_per_state_in_truncated_run(self, monkeypatch):
        # the initial segment and each new row: the drift and both cut-offs
        # read the stored row instead of taking |x| again
        counts = {"_row_norms": 0}
        real = sim._row_norms

        def counted(x):
            counts["_row_norms"] += 1
            return real(x)

        monkeypatch.setattr(sim, "_row_norms", counted)
        steps = 24
        res = self._run(drift=sim.dini_drift(an.log_dini_modulus(0.4), np.array([1.0, 0.0])),
                        delay_drift=sim.delay_shift_drift(0.5, DELAY),
                        diffusion=sim.state_diagonal_diffusion(np.full(2, 0.8)),
                        levels=np.array([0.05, 0.1, 0.5, 0.5, 4.0, 8.0]), steps=steps)
        assert not res.exploded.any() and np.isfinite(res.states).all()
        assert counts == {"_row_norms": steps + 1}


class TestBihari:
    def test_linear_comparison_matches_gronwall(self):
        # Phi(s) = K s gives Psi(s) = log(s) / (2K), so the comparison curve
        # Psi^{-1}(Psi(alpha) + t) is alpha * exp(2 K t)
        K = 2.0
        transform = sim.PsiTransform(lambda s: K * np.asarray(s, dtype=float), 1.0, 200.0)
        s = np.geomspace(0.6, 200.0, 301)
        assert np.max(np.abs(transform.value(s) - np.log(s) / (2.0 * K))) < 1e-6

    def test_zero_forcing_constant_segment_alpha(self):
        lyap = sim.LyapunovSpec(
            comparison=lambda t, s: 1.0 + np.asarray(s, dtype=float),
            forcing=lambda t, s: np.zeros_like(np.asarray(s, dtype=float)))
        xi = SegmentPath.constant(np.array([0.5, 0.5]), DELAY, DT)
        conv = np.zeros((round(DELAY / DT) + round(1.0 / DT) + 1, 3, 2))
        alpha = sim.bihari_alpha(lyap, xi, conv, 1.0, DT)
        assert np.allclose(alpha, 2.0 * 0.5)

    def test_bound_curve_is_non_decreasing(self):
        # Psi is non-decreasing, so the comparison curve Psi^{-1}(Psi(alpha) + t)
        # that bihari_margin checks against grows with t
        phi = lambda s: 1.0 + np.asarray(s, dtype=float)
        transform = sim.PsiTransform(phi, 0.1, 50.0)
        assert np.all(np.diff(transform.value(np.geomspace(0.01, 50.0, 500))) >= 0.0)

    def test_convergent_reciprocal_rejected(self, spec2):
        lyap = sim.LyapunovSpec(
            comparison=lambda t, s: np.asarray(s, dtype=float) ** 2 + 1.0,
            forcing=lambda t, s: np.zeros_like(np.asarray(s, dtype=float)))
        xi = SegmentPath.constant(np.array([1.0, 0.0]), DELAY, DT)
        coeffs = near_zero_noise(2)
        res = sim.simulate_ensemble(coeffs, xi, 1.0, DT, spec2, seeded(coeffs, 1.0, 2, 4),
                                    record_convolution=True)
        with pytest.raises(InputError, match="divergent-reciprocal"):
            sim.bihari_margin(lyap, xi, res)


class TestMaximalInequality:
    SPEC = an.Spectrum(16)

    def test_zero_integrand(self):
        report = sim.maximal_inequality_check(
            self.SPEC, lambda t: np.zeros((16, 16)), 1.25, 1.0, 500, seed=1)
        assert report.diagnostics["lhs"] == 0.0
        assert report.integral_value == 0.0

    def test_doubling_scales_exactly(self):
        q = 1.25
        r1 = sim.maximal_inequality_check(self.SPEC, lambda t: np.eye(16), q, 1.0,
                                          2000, seed=1)
        r2 = sim.maximal_inequality_check(self.SPEC, lambda t: 2.0 * np.eye(16), q,
                                          1.0, 2000, seed=1)
        assert r2.diagnostics["lhs"] == pytest.approx(
            2.0 ** (2.0 * q) * r1.diagnostics["lhs"], rel=1e-12)

    def test_moment_order_outside_range_rejected(self):
        with pytest.raises(InputError):
            sim.maximal_inequality_check(self.SPEC, lambda t: np.eye(16), 0.9, 1.0, 500)
        with pytest.raises(InputError):
            sim.maximal_inequality_check(self.SPEC, lambda t: np.eye(16), 3.0, 1.0, 500)


class TestCoefficientValidation:
    """Bounds the experiments assume of the built-in coefficients, with 1e-6 relative slack."""

    @given(modes=st.integers(1, 3), scale=st.floats(0.05, 2.0), use_sqrt=st.booleans(),
           data=st.data())
    def test_dini_drift_obeys_its_modulus(self, modes, scale, use_sqrt, data):
        # |b(x) - b(y)| <= phi(|x - y|) and |b| <= phi(1)
        phi = an.sqrt_modulus() if use_sqrt else an.log_dini_modulus(scale)
        direction = data.draw(hnp.arrays(np.float64, modes, elements=COORD))
        assume(np.linalg.norm(direction) > 0.1)
        xs = data.draw(hnp.arrays(np.float64, (16, modes), elements=COORD))
        ys = data.draw(hnp.arrays(np.float64, (16, modes), elements=COORD))
        b = sim.dini_drift(phi, direction)
        bx = b(0.0, xs, np.linalg.norm(xs, axis=-1))
        gaps = np.linalg.norm(bx - b(0.0, ys, np.linalg.norm(ys, axis=-1)), axis=-1)
        assert np.all(gaps <= phi(np.linalg.norm(xs - ys, axis=-1)) * (1.0 + 1e-6))
        assert np.all(np.linalg.norm(bx, axis=-1) <= phi(1.0) * (1.0 + 1e-6))

    @given(q=hnp.arrays(np.float64, st.integers(1, 3), elements=st.floats(0.1, 3.0)),
           amp=st.floats(-0.99, 0.99), freq=st.floats(0.1, 5.0), data=st.data())
    def test_state_diagonal_keeps_covariance_invertible(self, q, amp, freq, data):
        # the smallest singular value of Q stays at or above min(q) (1 - |amp|) > 0
        xs = data.draw(hnp.arrays(np.float64, (16, q.size), elements=COORD))
        qm = sim.state_diagonal_diffusion(q, amp, freq)(0.0, xs,
                                                        np.linalg.norm(xs, axis=-1))
        diag = np.zeros_like(qm)
        diag[..., np.arange(q.size), np.arange(q.size)] = q * (1.0 + amp * np.sin(freq * xs))
        assert qm.tobytes() == diag.tobytes()
        smallest = np.linalg.svd(qm, compute_uv=False)[..., -1]
        bound = np.min(q) * (1.0 - abs(amp))
        assert bound > 0.0
        assert np.all(smallest >= bound * (1.0 - 1e-6))

    @given(beta=st.floats(-2.0, 2.0), lags=st.integers(0, 6), modes=st.integers(1, 3),
           data=st.data())
    def test_delay_tanh_drift_lipschitz_and_bounded(self, beta, lags, modes, data):
        # |B(xi) - B(eta)| <= |beta| |xi - eta|_inf and |B| <= |beta|
        windows = hnp.arrays(np.float64, (lags + 1, 8, modes), elements=COORD)
        sa, sb = data.draw(windows), data.draw(windows)
        drift = sim.delay_tanh_drift(beta, np.ones(modes))
        ba = drift(0.0, sim.SegmentView(sa, DT, lags * DT))
        bb = drift(0.0, sim.SegmentView(sb, DT, lags * DT))
        window_sup = np.linalg.norm(sa - sb, axis=-1).max(axis=0)
        assert np.all(np.linalg.norm(ba - bb, axis=-1)
                      <= abs(beta) * window_sup * (1.0 + 1e-6))
        assert np.all(np.linalg.norm(ba, axis=-1) <= abs(beta) * (1.0 + 1e-6))

    def test_amplitude_cap_enforced(self):
        with pytest.raises(InputError):
            sim.state_diagonal_diffusion(np.ones(2), 1.2)
