import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.interpolate import RegularGridInterpolator

from fspdelab import analysis as an
from fspdelab import simulator as sim
from fspdelab import zvonkin as zv
from fspdelab.errors import CertificationError, InputError
from fspdelab.quadrature import _gl_rule, hermite_tensor
from fspdelab.segment import SegmentPath, _steps


@pytest.fixture(scope="module")
def ref(spec2):
    return zv.ReferenceSemigroup(spec2, np.ones(2), quad_order=7)


SMALL_GRID = zv.ZvonkinGrid(time_steps=8, nodes_per_dim=9, halfwidth=3.0)


class TestKernelQuadrature:
    def test_linear_function_gives_gaussian_mean(self, ref, spec2):
        x = np.array([0.5, -0.3])
        v = np.array([1.0, 2.0])
        got = zv.ou_apply(ref, lambda y: y @ v, 0.0, 0.7, x)
        decay, _ = ref.transition(0.0, 0.7)
        assert got == pytest.approx(float((decay * x) @ v), abs=1e-13)

    def test_squared_norm_second_moment(self, ref):
        x = np.array([0.5, -0.3])
        got = zv.ou_apply(ref, lambda y: np.sum(y**2, axis=-1), 0.0, 0.7, x)
        decay, sigma = ref.transition(0.0, 0.7)
        exact = float(np.sum((decay * x) ** 2) + np.sum(sigma**2))
        assert got == pytest.approx(exact, rel=1e-13)

    def test_constant_function_weights_sum_to_one(self, ref):
        got = zv.ou_apply(ref, lambda y: np.ones(y.shape[0]), 0.0, 0.3,
                          np.array([1.0, 1.0]))
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_time_ordering_enforced(self, ref):
        with pytest.raises(InputError):
            zv.ou_apply(ref, lambda y: np.ones(y.shape[0]), 0.5, 0.5, np.zeros(2))

    def test_gradient_of_linear_function_is_constant(self, ref):
        v = np.array([1.0, 2.0])
        decay, _ = ref.transition(0.0, 0.5)
        for x in (np.zeros(2), np.array([0.9, -1.7])):
            g = zv.ou_gradient(ref, lambda y: y @ v, 0.0, 0.5, x, 1)
            assert np.allclose(g, decay * v, atol=1e-13)

    def test_gradient_estimate_with_fitted_constant(self, ref):
        # |grad P0 f|^2 <= c/(t-s) P0 |f|^2 with one c across a battery,
        # validated on held-out evaluation points with a 1.5 margin
        fns = [lambda y: np.tanh(y[:, 0]),
               lambda y: np.sin(y[:, 0] + 2.0 * y[:, 1]),
               lambda y: 1.0 / (1.0 + np.sum(y**2, axis=-1))]
        rng = np.random.default_rng(2)

        def ratios(count):
            out = []
            for _ in range(count):
                f = fns[rng.integers(len(fns))]
                t = rng.uniform(0.05, 1.0)
                x = rng.uniform(-2.0, 2.0, size=2)
                grad = zv.ou_gradient(ref, f, 0.0, t, x, 1)
                mean_sq = zv.ou_apply(ref, lambda y: f(y) ** 2, 0.0, t, x)
                out.append(float(np.sum(grad**2)) * t / max(mean_sq, 1e-300))
            return out

        fitted = max(ratios(120))
        held = max(ratios(120))
        assert np.isfinite(fitted) and fitted > 0.0
        assert held <= 1.5 * fitted

    def test_second_derivative_of_quadratic(self, ref):
        # f(y) = <v, y>^2 has hessian of P0 f equal to 2 (Dv)(Dv)^T exactly
        v = np.array([1.0, -0.5])
        decay, _ = ref.transition(0.0, 0.6)
        x = np.array([0.3, 0.8])
        hess = zv.ou_gradient(ref, lambda y: (y @ v) ** 2, 0.0, 0.6, x, 2)
        exact = 2.0 * np.outer(decay * v, decay * v)
        assert np.allclose(hess, exact, atol=1e-11)

    def test_weight_commutes_with_kernel_derivatives(self, ref, spec2):
        aw = np.sqrt(spec2.eigenvalues)
        fvec = lambda y: np.stack([np.sin(y[:, 0]), np.cos(y[:, 1])], axis=-1)
        weighted = lambda y: fvec(y) * aw
        for x in (np.zeros(2), np.array([0.4, -0.8])):
            lhs = aw[:, None] * zv.ou_gradient(ref, fvec, 0.0, 0.5, x, 1)
            rhs = zv.ou_gradient(ref, weighted, 0.0, 0.5, x, 1)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_chapman_kolmogorov_within_quadrature_tolerance(self, ref):
        f = lambda y: np.tanh(y[:, 0] + 0.3 * y[:, 1])
        x = np.array([0.5, -0.3])
        direct = zv.ou_apply(ref, f, 0.0, 1.0, x)
        inner = lambda y: zv.ou_apply(ref, f, 0.4, 1.0, y)
        composed = zv.ou_apply(ref, inner, 0.0, 0.4, x)
        assert composed == pytest.approx(direct, abs=2e-3)

    def test_monte_carlo_route_for_higher_dimensions(self):
        spec4 = an.Spectrum.power_law(4)
        ref4 = zv.ReferenceSemigroup(spec4, np.ones(4))
        x = np.array([0.2, -0.1, 0.3, 0.0])
        v = np.array([1.0, 2.0, -1.0, 0.5])
        got = zv.ou_apply(ref4, lambda y: y @ v, 0.0, 0.7, x, method="mc",
                          mc_samples=200000, seed=9)
        decay, _ = ref4.transition(0.0, 0.7)
        assert got == pytest.approx(float((decay * x) @ v), abs=5e-3)
        with pytest.raises(InputError):
            zv.ou_apply(ref4, lambda y: y @ v, 0.0, 0.7, x, method="gh")

    def test_cached_rules_are_read_only(self):
        for arr in (*hermite_tensor(5, 2), *_gl_rule(8)):
            with pytest.raises(ValueError):
                arr[0] = 0.0


@st.composite
def _grid_and_points(draw):
    """Random grid of 1-3 dims, table, and per-dimension query coordinates.

    The coordinates always include every grid node, so both box edges and
    interior nodes are hit exactly, plus points drawn inside the box.
    """
    n = draw(st.integers(1, 3))
    finite = st.floats(-4.0, 4.0, allow_nan=False)
    axes, coords = [], []
    for _ in range(n):
        axis = np.array(sorted(draw(st.sets(finite, min_size=2, max_size=4))))
        inside = draw(st.lists(st.floats(axis[0], axis[-1]), max_size=4))
        axes.append(axis)
        coords.append(np.concatenate([axis, inside]))
    width = draw(st.integers(1, 3))
    shape = tuple(a.size for a in axes) + (width,)
    table = np.array(draw(st.lists(finite, min_size=math.prod(shape),
                                   max_size=math.prod(shape)))).reshape(shape)
    return axes, table, coords


class TestSweepKernels:
    @given(_grid_and_points())
    def test_stencil_interpolation_matches_scipy_linear(self, case):
        axes, table, coords = case
        n = len(axes)
        lo, frac = [], []
        for d, (axis, c) in enumerate(zip(axes, coords)):
            layout = tuple(c.size if a == d else 1 for a in range(n))
            cell, offset = zv._axis_stencil(axis, c)
            lo.append(cell.reshape(layout))
            frac.append(offset.reshape(layout))
        got = zv._multilinear(table, lo, frac)
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        want = RegularGridInterpolator(tuple(axes), table, method="linear")(pts)
        assert np.array_equal(got, want)

    @given(st.integers(2, 3).flatmap(lambda n: st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n**3, max_size=4 * n**3
    ).map(lambda v: np.array(v[: len(v) // n**3 * n**3]).reshape(-1, n, n, n))))
    @example(np.zeros((3, 2, 2, 2)))
    @example(np.zeros((2, 3, 3, 3)))
    @example(np.full((2, 2, 2, 2), 1e-170))  # squares underflow: no Frobenius bound
    def test_pruned_bilinear_norm_equals_full_svd_max(self, tensors):
        n = tensors.shape[-1]
        slices = np.einsum("...kij,dj->...dki", tensors, zv._sphere_directions(n))
        full = float(np.max(np.linalg.svd(slices, compute_uv=False)[..., 0]))
        assert zv._bilinear_norm(tensors) == full


class TestResolventSolve:
    def test_zero_drift_single_iteration(self, ref):
        fld = zv.solve_u(ref, lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 1.0, SMALL_GRID)
        assert fld.iterations == 1
        assert np.max(np.abs(fld.u)) == 0.0
        assert fld.trivial
        assert fld.contraction_factor == 0.0

    def test_constant_drift_closed_form(self, ref):
        c = np.array([0.3, -0.2])
        lam = 50.0
        fld = zv.solve_u(ref, lambda t, y: np.broadcast_to(
            c, np.asarray(y, dtype=float).shape).copy(), lam, 1.0, SMALL_GRID)
        for s in fld.times[:-1]:
            exact = c * (1.0 - math.exp(-lam * (1.0 - s))) / lam
            got = fld.u_at(float(s), np.array([0.7, -1.1]))
            assert np.allclose(got, exact, atol=1e-12)
        # off the stored slices only the linear time interpolation remains
        off = c * (1.0 - math.exp(-lam * 0.2)) / lam
        assert np.allclose(fld.u_at(0.8, np.array([0.7, -1.1])), off, rtol=2e-3)
        assert fld.norms["grad"] <= 1e-12  # x-independent

    def test_missing_contraction_reported(self, ref):
        rough = lambda t, y: 40.0 * np.sin(3.0 * np.asarray(y, dtype=float))
        with pytest.raises(CertificationError, match="increase lam"):
            zv.solve_u(ref, rough, 0.5, 1.0, SMALL_GRID)

    def test_dimension_cap(self):
        spec4 = an.Spectrum.power_law(4)
        ref4 = zv.ReferenceSemigroup(spec4, np.ones(4))
        with pytest.raises(InputError, match="active modes"):
            zv.solve_u(ref4, lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
                       50.0, 1.0, SMALL_GRID)


class TestThreshold:
    def test_zero_drift_takes_smallest_lam(self, ref):
        zero = lambda t, y: np.zeros_like(np.asarray(y, dtype=float))
        fields = [zv.solve_u(ref, zero, lam, 1.0, SMALL_GRID) for lam in (30.0, 90.0)]
        chosen = zv.lambda_threshold(fields, 1.0)
        assert chosen.lam == 30.0
        assert chosen.norms["hess"] == 0.0

    def test_certified_bounds_below_caps(self, field):
        lam1 = float(field.spec.eigenvalues[0])
        assert field.norms["hess"] <= 1.0 / 8.0
        assert field.norms["sqrtA_grad"] <= math.sqrt(lam1) / 8.0
        assert zv.composite_smallness(field, an.sqrt_weight()) <= 0.2

    def test_failing_grid_lists_bounds(self, ref):
        big = sim.dini_drift(an.log_dini_modulus(scale=30.0), np.array([1.0, 0.0]))
        fields = [zv.solve_u(ref, big, 50.0, 1.0, SMALL_GRID)]
        with pytest.raises(CertificationError, match="hess"):
            zv.lambda_threshold(fields, 1.0)


class TestDiffeomorphism:
    def test_trivial_field_inverts_to_identity(self, ref):
        fld = zv.solve_u(ref, lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 1.0, SMALL_GRID)
        y = np.array([[0.7, -0.4], [1.2, 0.3]])
        assert np.array_equal(fld.invert_theta(0.3, y), y)

    def test_roundtrip_within_tolerance(self, field):
        rng = np.random.default_rng(3)
        ys = rng.uniform(-2.4, 2.4, size=(500, 2))
        xs = field.invert_theta(0.2, ys)
        assert np.max(np.abs(field.theta(0.2, xs) - ys)) <= 1e-9

    def test_difference_quotients_within_brackets(self, field):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = rng.uniform(0.0, field.horizon)
            a, b = rng.uniform(-2.4, 2.4, size=(2, 2))
            d = np.linalg.norm(a - b)
            forward = np.linalg.norm(field.theta(t, a) - field.theta(t, b)) / d
            inverse = np.linalg.norm(field.invert_theta(t, a)
                                     - field.invert_theta(t, b)) / d
            assert 7.0 / 8.0 <= forward <= 9.0 / 8.0
            assert 8.0 / 9.0 <= inverse <= 8.0 / 7.0

    def test_module_level_inverse_accepts_field_or_system(self, field, transformed):
        y = np.array([0.5, -0.5])
        a = zv.theta_invert(field, 0.2, y)
        b = zv.theta_invert(transformed, 0.2, y)
        assert np.array_equal(a, b)

    def test_segment_transform_roundtrip(self, field):
        xi = SegmentPath.from_function(lambda s: np.array([0.4 * math.cos(s), 0.2]),
                                       0.25, 1.0 / 32.0)
        fwd = field.theta_segment(0.1, xi)
        back = field.theta_segment_inverse(0.1, fwd)
        assert np.max(np.abs(back.values - xi.values)) <= 1e-9


class TestTransformedSystem:
    def test_trivial_transform_returns_base(self, ref, dini_coeffs):
        fld = zv.solve_u(ref, lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 0.5, SMALL_GRID)
        tsys = zv.transform_coeffs(fld, dini_coeffs)
        assert tsys.trivial
        assert tsys.coefficient_set() is dini_coeffs

    def test_diffusion_modulus_holds_out(self, transformed):
        rng = np.random.default_rng(4242)
        k2 = transformed.bounds["K2"]
        for t in np.linspace(0.0, 0.5, 5):
            xs = rng.uniform(-2.4, 2.4, size=(200, 2))
            ys = rng.uniform(-2.4, 2.4, size=(200, 2))
            dq = np.linalg.svd(transformed.diffusion(t, xs)
                               - transformed.diffusion(t, ys), compute_uv=False)[..., 0]
            caps = k2 * np.minimum(1.0, np.linalg.norm(xs - ys, axis=-1))
            assert np.all(dq <= caps + 1e-12)

    def test_one_sided_dissipativity_holds_out(self, transformed, spec2):
        rng = np.random.default_rng(777)
        k4 = transformed.bounds["K4"]
        lamvec = spec2.eigenvalues
        for t in np.linspace(0.0, 0.5, 5):
            xs = rng.uniform(-2.4, 2.4, size=(200, 2))
            ys = rng.uniform(-2.4, 2.4, size=(200, 2))
            gaps = xs - ys
            qd = transformed.diffusion(t, xs) - transformed.diffusion(t, ys)
            quad = 2.0 * np.einsum("pi,pi->p", gaps,
                                   -lamvec * gaps + transformed.drift(t, xs)
                                   - transformed.drift(t, ys)) \
                + np.sum(qd**2, axis=(-2, -1))
            d2 = np.sum(gaps**2, axis=-1)
            assert np.all(quad <= k4 * d2 + 0.1 * abs(k4) * d2 + 1e-9)

    def test_control_gain_bounded(self, transformed):
        assert transformed.bounds["K3"] >= 1.0
        assert transformed.bounds["K3"] <= 8.0 / 7.0 * 1.1

    def test_uncertified_field_rejected(self, ref, dini_coeffs):
        big = sim.dini_drift(an.log_dini_modulus(scale=30.0), np.array([1.0, 0.0]))
        fld = zv.solve_u(ref, big, 50.0, 0.5, SMALL_GRID)
        assert not fld.certified
        with pytest.raises(CertificationError):
            zv.transform_coeffs(fld, dini_coeffs)


class TestGradLipschitz:
    def test_trivial_field_ratio_zero(self, ref):
        fld = zv.solve_u(ref, lambda t, y: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 0.5, SMALL_GRID)
        report = zv.lipschitz_grad_check(fld, pairs=100)
        assert report.passed
        assert report.integral_value == 0.0

    def test_coincident_points_give_zero(self, field):
        x = np.array([0.4, -0.2])
        dg = field.grad_at(0.3, x) - field.grad_at(0.3, x)
        assert np.all(dg == 0.0)

    def test_holdout_within_margin(self, field):
        report = zv.lipschitz_grad_check(field, pairs=1000)
        assert report.passed
        assert report.tail_bound <= 1.1 * report.integral_value


class TestPersistence:
    def test_save_load_roundtrip(self, field, tmp_path):
        base = str(tmp_path / "field")
        field.save(base)
        loaded = zv.RegularizingField.load(base)
        x = np.array([[0.4, -0.7]])
        assert np.array_equal(field.u_at(0.2, x), loaded.u_at(0.2, x))
        assert loaded.norms == pytest.approx(field.norms)
        assert loaded.certified == field.certified

    def test_tampered_sidecar_rejected(self, field, tmp_path):
        import json

        base = str(tmp_path / "field")
        field.save(base)
        with open(base + ".json") as fh:
            meta = json.load(fh)
        meta["spectrum_hash"] = "0" * 64
        with open(base + ".json", "w") as fh:
            json.dump(meta, fh)
        with pytest.raises(InputError):
            zv.RegularizingField.load(base)

    def test_swapped_table_rejected(self, field, tmp_path):
        base = str(tmp_path / "field")
        field.save(base)
        with np.load(base + ".npz") as data:
            tables = dict(data)
        tables["u"] = 0.5 * tables["u"]
        np.savez(base + ".npz", **tables)
        with pytest.raises(InputError):
            zv.RegularizingField.load(base)


class TestRepresentation:
    def test_residual_shrinks_with_dt(self, field, dini_coeffs, spec2):
        trunc = sim.truncate_coeffs(dini_coeffs, sim.TruncationScheme(5.0))
        residuals = {}
        for e in (5, 8):
            dt = 2.0**-e
            xi = SegmentPath.from_function(
                lambda s: np.array([0.3 * math.cos(s), -0.2]), 0.25, dt)
            steps = _steps(0.5, dt)
            noise = sim.NoisePath.generate(3, steps, 2, dt, n_paths=256)
            res = sim.simulate_ensemble(trunc, xi, 0.5, dt, spec2, noise)
            residuals[e] = zv.representation_residual(field, trunc, res.states,
                                                      noise, 0.25, 0.5)
        # RMS should drop roughly like sqrt(dt) over the 8x refinement
        assert residuals[8] < residuals[5] / 1.5
        assert residuals[5] < 5e-3
