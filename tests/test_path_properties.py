"""Property tests of the path engine's grid bookkeeping and stored norms."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
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
        stored = sim.SegmentView(window, 0.25, delay, sup=norms.max(axis=0)).sup_norm()
        assert np.array_equal(stored, recomputed, equal_nan=True)

    @given(lags=st.integers(0, 4), steps=st.integers(1, 12), paths=st.integers(1, 5),
           modes=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from(["diagonal", "general"]),
           start=st.sampled_from(["mild", "explodes", "overflows", "cancels"]))
    def test_simulator_views_match_recomputed(self, lags, steps, paths, modes, seed,
                                              noise, start):
        """Every view the step loop builds, and the terminal view, reads stored norms.

        The norms the drift and the diffusion are called with are the bytes
        of |x| on every step.  Under the cubic drift a start at 1.6 crosses
        the explosion threshold at path-dependent steps and a start at 1e110
        overflows to inf; the drift x^3 - 2 x^3 turns that overflow into
        NaN.  Dead paths are frozen, so later windows hold huge, inf or NaN
        rows.
        """
        dt = 0.125
        delay = lags * dt
        level, inner = {"mild": (0.3, sim.cubic_drift(1.0)),
                        "explodes": (1.6, sim.cubic_drift(1.0)),
                        "overflows": (1e110, sim.cubic_drift(1.0)),
                        "cancels": (1e110, lambda t, x, norms: x**3 - 2.0 * x**3)}[start]
        checked = []
        passed_norms = {"drift": 0, "diffusion": 0}

        def spy(name, fn):
            def call(t, x, norms):
                assert norms.tobytes() == np.linalg.norm(x, axis=-1).tobytes()
                passed_norms[name] += 1
                return fn(t, x, norms)
            return call

        def delay_drift(t, view):
            assert view.sup is not None
            sup = view.sup_norm()
            assert np.array_equal(sup, np.linalg.norm(view.window, axis=-1).max(axis=0),
                                  equal_nan=True)
            checked.append(t)
            return 0.3 * np.tanh(sup)[:, None] * np.ones(modes)

        coeffs = sim.make_coefficients(
            modes, drift=spy("drift", inner), delay_drift=delay_drift,
            diffusion=spy("diffusion", sim.constant_diagonal_diffusion(np.ones(modes))),
            diag_noise=np.ones(modes))
        xi = SegmentPath.constant(np.full(modes, level), delay, dt)
        spec = an.Spectrum(modes)
        with np.errstate(over="ignore", invalid="ignore"):
            if noise == "general":
                coeffs = replace(coeffs, diag_noise=None)
            res = sim.simulate_ensemble(coeffs, xi, steps * dt, dt, spec, sim.NoisePath.generate(
                seed, _steps(steps * dt, dt), coeffs.noise_dim, dt, paths))
            recomputed = np.linalg.norm(res.states, axis=-1)
        assert len(checked) == steps
        assert passed_norms == {"drift": steps,
                                "diffusion": steps if noise == "general" else 0}
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
        for k, (t, x, x_norm, view) in enumerate(walked):
            assert t == k * dt
            assert x.shape == (paths, modes)
            assert np.array_equal(x, states[lags + k], equal_nan=True)
            assert np.array_equal(x_norm, norms[lags + k], equal_nan=True)
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
        for k, (t, x, x_norm, view) in enumerate(sim._history_windows(states, norms, lags * dt,
                                                                      dt, steps)):
            assert np.all(view.window[-1] == k) and np.all(view.sup_norm() == k)
            assert np.all(x_norm == k)
            states[lags + k + 1] = x + 1.0
            norms[lags + k + 1] = k + 1.0

    def test_yielded_rows_and_windows_are_read_only(self):
        """A write through x, |x| or the window raises; the buffers stay writable."""
        states = np.zeros((4, 2, 1))
        norms = np.zeros(states.shape[:2])
        for t, x, x_norm, view in sim._history_windows(states, norms, 0.25, 0.125, 2):
            for row in (x, x_norm, view.window):
                assert not row.flags.writeable
                with pytest.raises(ValueError):
                    row[...] = 1.0
        assert states.flags.writeable and norms.flags.writeable


# a norm is >= 0, inf or NaN; SENTINEL marks a row not yet written
NORM = st.one_of(st.floats(0.0, 1e300), st.sampled_from([0.0, math.inf, math.nan]))
SENTINEL = 7e307


def _same_max(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)


class TestWindowWalker:
    @given(lags=st.integers(0, 40), steps=st.integers(1, 100), paths=st.integers(1, 3),
           data=st.data())
    @example(lags=0, steps=6, paths=2, data=None)
    @example(lags=40, steps=100, paths=2, data=None)  # block edges at k = 41 and 82
    @example(lags=3, steps=13, paths=1, data=None)
    def test_sup_norm_equals_the_plain_window_max(self, lags, steps, paths, data):
        """sup_norm of walked views is norms[k:k+lags+1].max(axis=0), bit for bit.

        Row lags + k is written just before window k is asked for, as the
        step loops write it; a step calls sup_norm zero, one or two times,
        and may then ask an earlier, possibly stale, view again.
        """
        rows = lags + steps + 1
        if data is None:
            final = np.abs(np.sin(np.arange(rows * paths, dtype=float))).reshape(rows, paths)
            final[rows // 2, 0] = math.nan
            final[rows // 3, -1] = math.inf
            calls = [k % 3 for k in range(steps)]
            stale = [k // 2 if k % 4 == 3 else None for k in range(steps)]
        else:
            final = data.draw(hnp.arrays(np.float64, (rows, paths), elements=NORM))
            calls = data.draw(st.lists(st.integers(0, 2), min_size=steps, max_size=steps))
            stale = [data.draw(st.none() | st.integers(0, k)) for k in range(steps)]
        norms = np.full((rows, paths), SENTINEL)
        norms[: lags + 1] = final[: lags + 1]
        states = np.zeros((rows, paths, 1))
        views = []
        for k, (t, x, x_norm, view) in enumerate(sim._history_windows(states, norms,
                                                                      lags * 0.125, 0.125, steps)):
            _same_max(x_norm, final[lags + k])
            norms[lags + k + 1] = final[lags + k + 1]
            views.append(view)
            for _ in range(calls[k]):
                _same_max(view.sup_norm(), final[k: k + lags + 1].max(axis=0))
            if stale[k] is not None:
                j = stale[k]
                _same_max(views[j].sup_norm(), final[j: j + lags + 1].max(axis=0))

    @given(lags=st.integers(0, 6), steps=st.integers(1, 12), paths=st.integers(1, 3),
           data=st.data())
    def test_a_yielded_sup_is_fixed_and_read_only(self, lags, steps, paths, data):
        """Later writes to the norms leave a yielded view's sup_norm unchanged.

        Every norm row is overwritten once the walk is done, and the sup a
        view hands out cannot be written through.
        """
        rows = lags + steps + 1
        final = data.draw(hnp.arrays(np.float64, (rows, paths), elements=NORM))
        norms = final.copy()
        states = np.zeros((rows, paths, 1))
        views = list(sim._history_windows(states, norms, lags * 0.125, 0.125, steps))
        norms[:] = SENTINEL
        for k, (t, x, x_norm, view) in enumerate(views):
            _same_max(view.sup_norm(), final[k: k + lags + 1].max(axis=0))
            assert not view.sup_norm().flags.writeable
            with pytest.raises(ValueError):
                view.sup_norm()[...] = 0.0

    def test_walker_reads_each_norm_row_at_most_twice(self):
        """Every ufunc input drawn from the norms is counted row by row.

        The running max reads a row once for its block's suffix maxima and
        once for its prefix maxima, so a sup_norm that reduced its whole
        window at every step would read row r up to lags + 1 times.
        """
        lags, steps, paths = 32, 200, 4
        reads = np.zeros(lags + steps + 1, dtype=int)

        class CountedRows(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = []
                for a in inputs:
                    if isinstance(a, CountedRows):
                        first = (a.__array_interface__["data"][0] - base) // row_bytes
                        reads[first: first + (a.shape[0] if a.ndim == 2 else 1)] += 1
                        a = a.view(np.ndarray)
                    plain.append(a)
                if "out" in kwargs:
                    kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, CountedRows)
                                          else o for o in kwargs["out"])
                return getattr(ufunc, method)(*plain, **kwargs)

        norms = np.abs(np.cos(np.arange(reads.size * paths))).reshape(-1, paths)
        base, row_bytes = norms.__array_interface__["data"][0], norms.strides[0]
        states = np.zeros(norms.shape + (1,))
        for k, (t, x, x_norm, view) in enumerate(sim._history_windows(
                states, norms.view(CountedRows), lags / 64.0, 1.0 / 64.0, steps)):
            _same_max(np.asarray(view.sup_norm()), norms[k: k + lags + 1].max(axis=0))
        assert reads.sum() >= steps and reads.max() <= 2

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)),
                      elements=NORM))
    def test_running_max_is_the_accumulated_maximum(self, rows):
        out = np.empty_like(rows)
        sim._running_max(rows, out)
        _same_max(out, np.maximum.accumulate(rows, axis=0))


class TestColumnWrites:
    """The drifts written one mode column at a time equal the broadcast products."""

    @staticmethod
    def _states(n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(3, 5, n)) * 10.0 ** rng.integers(-4, 4, size=(3, 5, 1))
        x[0, 0] = 0.0
        x[0, 1] = -0.0
        x[1, 2, 0] = math.nan
        x[2, 3, -1] = math.inf
        return x, rng.normal(size=n)

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_dini_drift(self, n):
        # the drift reads the passed norms at every mode count, so a wrong one
        # shows in the result
        x, direction = self._states(n)
        modulus = an.log_dini_modulus(0.4, 1.0)
        v = direction / np.linalg.norm(direction)
        drift = sim.dini_drift(modulus, direction)
        with np.errstate(invalid="ignore"):
            for states in (x, x[0], x[0, 0]):
                for norms in (np.linalg.norm(states, axis=-1), np.full(states.shape[:-1], 0.25)):
                    want = modulus(np.minimum(norms, 1.0))[..., None] * v
                    got = drift(0.0, states, norms)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_delay_tanh_drift(self, n):
        x, direction = self._states(n)
        v = direction / np.linalg.norm(direction)
        view = sim.SegmentView(x, 0.125, 0.25)
        with np.errstate(invalid="ignore"):
            want = 0.3 * np.tanh(view.sup_norm())[..., None] * v
            got = sim.delay_tanh_drift(0.3, direction)(0.0, view)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_transformed_drift(self, n):
        from types import SimpleNamespace

        from fspdelab.zvonkin import TransformedSystem

        x, _ = self._states(n)
        spec = an.Spectrum(n)
        field = SimpleNamespace(lam=60.0, spec=spec, n_modes=n,
                                u_grad_at=lambda t, z: (0.37 * z - 0.1, 0.5 * z[..., None]))
        sys = TransformedSystem(field, None, {})
        for z in (x, x[0], x[0, 0]):
            want = (60.0 + spec.eigenvalues) * (0.37 * z - 0.1)
            got, jac = sys.drift_jac_at(0.0, z)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.array_equal(jac, 0.5 * z[..., None] + np.eye(n), equal_nan=True)


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
