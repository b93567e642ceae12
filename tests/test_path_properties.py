"""Property tests of the path engine's grid bookkeeping and stored norms."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fspdelab import analysis as an
from fspdelab import simulator as sim
from fspdelab.errors import InputError
from fspdelab.segment import SegmentPath, _steps

# finite values up to overflow of the squared norm, plus inf and NaN rows
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)


def _histories(max_rows=8, max_paths=5, max_modes=10):
    shape = st.tuples(st.integers(1, max_rows), st.integers(1, max_paths),
                      st.integers(1, max_modes))
    return hnp.arrays(np.float64, shape, elements=ANY_FLOAT)


def _old_window_sup_norms(states, lags):
    mags = np.linalg.norm(states, axis=-1)
    steps = mags.shape[0] - lags
    out = np.empty((steps,) + mags.shape[1:])
    for k in range(steps):
        out[k] = mags[k: k + lags + 1].max(axis=0)
    return out


class TestStoredNorms:
    @given(_histories())
    def test_row_norms_stack_to_window_norms(self, window):
        # the simulator stores each new row's norm as it writes the row
        delay = 0.25 * (window.shape[0] - 1)
        with np.errstate(over="ignore"):
            norms = np.stack([np.linalg.norm(row, axis=-1) for row in window])
            recomputed = sim.SegmentView(window, 0.25, delay).sup_norm()
        stored = sim.SegmentView(window, 0.25, delay, norms).sup_norm()
        assert np.array_equal(stored, recomputed, equal_nan=True)

    @given(lags=st.integers(0, 4), steps=st.integers(1, 12), paths=st.integers(1, 5),
           modes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from(["diagonal", "general"]),
           start=st.sampled_from(["mild", "explodes", "overflows", "cancels"]))
    def test_simulator_views_match_recomputed(self, lags, steps, paths, modes, seed,
                                              noise, start):
        """Every view the step loop builds, and the terminal view, reads stored norms.

        Under the cubic drift a start at 1.6 crosses the explosion threshold
        at path-dependent steps and a start at 1e110 overflows to inf; the
        drift x^3 - 2 x^3 turns that overflow into NaN.  Dead paths are
        frozen, so later windows hold huge, inf or NaN rows.
        """
        dt = 0.125
        delay = lags * dt
        level, drift = {"mild": (0.3, sim.cubic_drift(1.0)),
                        "explodes": (1.6, sim.cubic_drift(1.0)),
                        "overflows": (1e110, sim.cubic_drift(1.0)),
                        "cancels": (1e110, lambda t, x: x**3 - 2.0 * x**3)}[start]
        checked = []

        def delay_drift(t, view):
            assert view.norms is not None
            sup = view.sup_norm()
            assert np.array_equal(sup, np.linalg.norm(view.window, axis=-1).max(axis=0),
                                  equal_nan=True)
            checked.append(t)
            return 0.3 * np.tanh(sup)[:, None] * np.ones(modes)

        coeffs = sim.make_coefficients(modes, drift=drift, delay_drift=delay_drift,
                                       diag_noise=np.ones(modes))
        xi = SegmentPath.constant(np.full(modes, level), delay, dt)
        spec = an.Spectrum(modes)
        with np.errstate(over="ignore", invalid="ignore"):
            if noise == "general":
                coeffs = replace(coeffs, diag_noise=None)
            res = sim.simulate_ensemble(coeffs, xi, steps * dt, dt, spec, n_paths=paths,
                                        seed=seed)
            recomputed = np.linalg.norm(res.states, axis=-1)
        assert len(checked) == steps
        assert np.array_equal(res.norms, recomputed, equal_nan=True)
        assert np.array_equal(res.terminal_view().sup_norm(),
                              recomputed[-lags - 1:].max(axis=0), equal_nan=True)

    @given(st.integers(1, 32).flatmap(lambda n: hnp.arrays(
        np.float64, st.tuples(st.integers(0, 3), st.integers(1, 4), st.just(n)),
        elements=st.one_of(ANY_FLOAT, st.sampled_from([1e154, -1e200, 1e308])))))
    def test_row_norms_are_linalg_norm_bytes(self, x):
        # n up to 32, the galerkin reference spectrum; squares of huge rows overflow to inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert sim._row_norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("neighbour", [False, True])
    def test_explosion_threshold_is_inclusive(self, above, neighbour):
        # X(dt) = decay * x0 exactly when dW = 0; a one-mode norm sqrt(v * v) is |v|.
        # A neighbour whose huge increment kills it makes the step build its mask.
        target = sim.EXPLOSION_THRESHOLD
        if above:
            target = np.nextafter(target, np.inf)
        dt = 1.0 / 64.0
        spec = an.Spectrum(1)
        decay = np.exp(-spec.eigenvalues[:1] * dt)
        x0 = np.array([target]) / decay
        while (decay * x0)[0] != target:
            x0 = np.nextafter(x0, np.inf if (decay * x0)[0] < target else -np.inf)
        coeffs = sim.make_coefficients(1, diag_noise=np.ones(1))
        noise = sim.NoisePath(np.array([[[0.0], [1e300]]])[:, : 1 + neighbour], dt)
        res = sim.simulate_ensemble(coeffs, SegmentPath.constant(x0, 0.0, dt), dt, dt, spec,
                                    noise)
        assert res.norms[-1, 0] == target
        assert res.life_times.tolist() == [dt if above else math.inf] + [dt] * neighbour

    @given(_histories(max_rows=12), st.integers(0, 11))
    def test_window_sup_norms_equal_the_step_loop(self, states, lags):
        lags %= states.shape[0]
        with np.errstate(over="ignore"):
            assert np.array_equal(sim._window_sup_norms(states, lags),
                                  _old_window_sup_norms(states, lags), equal_nan=True)


class TestHistoryWindows:
    @given(lags=st.integers(0, 5), steps=st.integers(1, 8), paths=st.integers(1, 4),
           modes=st.integers(1, 3), data=st.data())
    def test_windows_are_history_slices(self, lags, steps, paths, modes, data):
        dt = 0.125
        states = data.draw(hnp.arrays(np.float64, (lags + steps + 1, paths, modes),
                                      elements=ANY_FLOAT))
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(states, axis=-1)
        walked = list(sim._history_windows(states, norms, lags * dt, dt, steps))
        assert len(walked) == steps
        for k, (t, x, view) in enumerate(walked):
            assert t == k * dt
            assert x.shape == (paths, modes)
            assert np.array_equal(x, states[lags + k], equal_nan=True)
            assert view.window.shape == (lags + 1, paths, modes)
            for j in range(lags + 1):
                assert np.array_equal(view.window[j], states[k + j], equal_nan=True)
            assert np.array_equal(view.value_at(0.0), x, equal_nan=True)
            with np.errstate(over="ignore"):
                recomputed = np.linalg.norm(states[k: k + lags + 1], axis=-1).max(axis=0)
            assert np.array_equal(view.sup_norm(), recomputed, equal_nan=True)

    @given(lags=st.integers(0, 5), steps=st.integers(1, 8))
    def test_rows_written_after_a_yield_show_in_the_next_window(self, lags, steps):
        dt = 0.125
        states = np.zeros((lags + steps + 1, 2, 1))
        norms = np.zeros(states.shape[:2])
        for k, (t, x, view) in enumerate(sim._history_windows(states, norms, lags * dt, dt,
                                                              steps)):
            assert np.all(view.window[-1] == k) and np.all(view.sup_norm() == k)
            states[lags + k + 1] = x + 1.0
            norms[lags + k + 1] = k + 1.0


class TestGridBookkeeping:
    @given(seed=st.integers(0, 2**32 - 1), coarse=st.integers(1, 6),
           factor=st.integers(1, 5), paths=st.integers(1, 4), dim=st.integers(1, 3))
    def test_coarsen_sums_consecutive_increments(self, seed, coarse, factor, paths, dim):
        noise = sim.NoisePath.generate(seed, coarse * factor, dim, 0.125, paths)
        out = noise.coarsen(factor)
        assert out.increments.shape == (coarse, paths, dim)
        assert out.grid_step == 0.125 * factor
        for k in range(coarse):
            block = noise.increments[k * factor: (k + 1) * factor]
            np.testing.assert_allclose(out.increments[k], functools.reduce(np.add, block),
                                       rtol=1e-13, atol=1e-15)

    @given(steps=st.integers(1, 12), factor=st.integers(2, 13))
    def test_coarsen_rejects_non_divisors(self, steps, factor):
        noise = sim.NoisePath.generate(0, steps, 1, 0.125)
        if steps % factor:
            with pytest.raises(InputError):
                noise.coarsen(factor)
        else:
            assert noise.coarsen(factor).n_steps == steps // factor

    @given(k=st.integers(0, 4096), denom=st.sampled_from([2, 3, 10, 64, 128, 1024]),
           frac=st.floats(1e-3, 1.0 - 1e-3))
    def test_steps_accepts_aligned_and_rejects_misaligned(self, k, denom, frac):
        dt = 1.0 / denom
        assert _steps(k * dt, dt) == k
        with pytest.raises(InputError):
            _steps((k + frac) * dt, dt)

    @given(lags=st.integers(0, 32), j=st.integers(0, 32), denom=st.sampled_from([8, 64, 3]),
           frac=st.floats(1e-3, 1.0 - 1e-3))
    def test_value_at_accepts_aligned_and_rejects_misaligned(self, lags, j, denom, frac):
        dt = 1.0 / denom
        window = np.arange(lags + 1, dtype=float)[:, None, None] * np.ones((1, 2, 1))
        view = sim.SegmentView(window, dt, lags * dt)
        if j <= lags:
            assert np.array_equal(view.value_at(-j * dt), window[lags - j])
        else:
            with pytest.raises(InputError, match="outside"):
                view.value_at(-j * dt)
        with pytest.raises(InputError, match="not grid aligned"):
            view.value_at(-(j + frac) * dt)
        with pytest.raises(InputError, match="outside"):
            view.value_at(dt)
