import numpy as np
import pytest

from fspdelab.errors import InputError
from fspdelab.experiments import ExperimentResult
from fspdelab.segment import SegmentPath, _steps, segment_norm, stopping_time
from fspdelab.simulator import SegmentView


def norms_from_zero(states, delay=0.5, dt=0.25):
    """|X(t)| for t >= 0 of states stored on the grid from -delay on."""
    return np.linalg.norm(np.asarray(states, dtype=float)[round(delay / dt):], axis=1)


class TestSegmentNorm:
    def test_constant_segment(self):
        xi = SegmentPath.constant(np.array([3.0, 4.0]), 1.0, 0.25)
        assert segment_norm(xi) == pytest.approx(5.0)

    def test_linear_ramp(self):
        v = np.array([1.0, 0.0])
        xi = SegmentPath.from_function(lambda s: s * v, 1.0, 0.125)
        assert segment_norm(xi) == pytest.approx(1.0)

    def test_triangle_and_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = SegmentPath(1.0, 0.25, rng.normal(size=(5, 3)))
            b = SegmentPath(1.0, 0.25, rng.normal(size=(5, 3)))
            kappa = rng.normal()
            both = SegmentPath(1.0, 0.25, a.values + b.values)
            assert segment_norm(both) <= segment_norm(a) + segment_norm(b) + 1e-12
            scaled = SegmentPath(1.0, 0.25, kappa * a.values)
            assert segment_norm(scaled) == pytest.approx(abs(kappa) * segment_norm(a))

    def test_projected_segment_norm_contracts(self):
        rng = np.random.default_rng(6)
        xi = SegmentPath(1.0, 0.25, rng.normal(size=(5, 6)))
        for n in range(7):
            kept = xi.values.copy()
            kept[:, n:] = 0.0  # Galerkin projection onto the first n modes
            proj = SegmentPath(1.0, 0.25, kept)
            assert segment_norm(proj) <= segment_norm(xi) + 1e-12

    def test_shape_invariants(self):
        with pytest.raises(InputError):
            SegmentPath(1.0, 0.25, np.zeros((4, 2)))  # needs 5 rows
        with pytest.raises(InputError):
            SegmentPath(1.0, 0.3, np.zeros((4, 2)))  # 0.3 does not divide 1.0


class TestSteps:
    def test_whole_counts(self):
        for span, dt, k in ((1.0, 0.25, 4), (0.0, 0.25, 0), (1.0, 1.0 / 3.0, 3),
                            (np.float64(0.5), np.float64(1.0 / 128.0), 64)):
            assert _steps(span, dt) == k and type(_steps(span, dt)) is int

    # a negative step once gave -4 steps, and 0.0, 1e-320 and a NaN span
    # raised ZeroDivisionError, OverflowError and ValueError
    @pytest.mark.parametrize("span, dt", [(1.0, -0.25), (-1.0, 0.25), (1.0, 0.0), (1.0, 1e-320),
                                          (float("nan"), 0.25), (1.0, float("nan")),
                                          (float("inf"), 0.25), (1.0, 0.3)])
    def test_a_step_that_does_not_divide_raises(self, span, dt):
        with pytest.raises(InputError, match="does not divide"):
            _steps(span, dt)


class TestLagReads:
    def test_segment_and_view_share_the_alignment_rule(self):
        # alignment within 1e-6 grid units first, then the row range; a lag
        # that rounds onto the window's last row is read even if it is above 0
        xi = SegmentPath(0.5, 0.25, np.arange(6.0).reshape(3, 2))
        view = SegmentView(xi.values[:, None, :], 0.25, 0.5)
        for s, row in ((-0.5, 0), (-0.25, 1), (0.0, 2), (1e-8, 2), (-0.5 - 1e-8, 0)):
            assert np.array_equal(xi.value_at(s), xi.values[row])
            assert np.array_equal(view.value_at(s)[0], xi.values[row])
        for s, match in ((-0.1, "not grid aligned"), (0.3, "not grid aligned"),
                         (0.25, "outside"), (-0.75, "outside")):
            with pytest.raises(InputError, match=match):
                xi.value_at(s)
            with pytest.raises(InputError, match=match):
                view.value_at(s)


class TestStoppingTime:
    def test_bounded_path_returns_cap(self):
        states = 0.5 * np.ones((30, 1))
        assert stopping_time(norms_from_zero(states), 0.25, 2.0) == 2.0

    def test_immediate_crossing_returns_zero(self):
        states = np.concatenate([np.zeros((2, 1)), 5.0 * np.ones((7, 1))])
        assert stopping_time(norms_from_zero(states), 0.25, 3.0) == 0.0

    def test_monotone_in_level_on_random_paths(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            walk = np.cumsum(rng.normal(scale=0.4, size=(21, 2)), axis=0)
            norms = norms_from_zero(walk)
            taus = [stopping_time(norms, 0.25, n) for n in (0.5, 1.0, 1.5, 2.0, 3.0)]
            assert all(a <= b + 1e-12 for a, b in zip(taus[:-1], taus[1:]))

    def test_non_finite_states_count_as_crossed(self):
        states = np.array([[0.0], [0.0], [0.0], [np.nan], [np.nan]])
        assert stopping_time(norms_from_zero(states), 0.25, 10.0) == pytest.approx(0.25)


class TestCsvExport:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        # report tables write floats with 17 significant digits
        rng = np.random.default_rng(12)
        states = rng.normal(size=(9, 3))
        times = -0.5 + 0.25 * np.arange(9)
        rows = [(t, *row) for t, row in zip(times.tolist(), states.tolist())]
        result = ExperimentResult("simulate", "0" * 64, 77, {}, {},
                                  tables={"trajectory": (("t", "mode_1", "mode_2", "mode_3"),
                                                         rows)})
        result.write(tmp_path)
        lines = (tmp_path / "simulate_trajectory.csv").read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("seed=77" in ln for ln in header)
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "t,mode_1,mode_2,mode_3"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
        assert np.array_equal(parsed[:, 1:], states)
        assert np.array_equal(parsed[:, 0], times)
