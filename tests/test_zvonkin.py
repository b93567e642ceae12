import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.interpolate import NdBSpline, RegularGridInterpolator

from fspdelab import analysis as an
from fspdelab import simulator as sim
from fspdelab import zvonkin as zv
from fspdelab.errors import CertificationError, InputError
from fspdelab.quadrature import gl_rule, hermite_tensor
from fspdelab.segment import SegmentPath, segment_norm


@pytest.fixture(scope="module")
def ref(spec2):
    return zv.ReferenceSemigroup(spec2, np.ones(2), quad_order=7)


SMALL_GRID = zv.ZvonkinGrid(time_steps=8, nodes_per_dim=9, halfwidth=3.0)


def gauss_cloud(ref, s, t, x):
    """Points decay * x + sigma * z of the Hermite rule solve_u applies P0_{s,t} with."""
    decay, sigma = ref.transition(s, t)
    z, w = hermite_tensor(ref.quad_order, ref.spec.n_modes)
    return decay * x + sigma * z, w, z, decay, sigma


class TestKernelQuadrature:
    def test_linear_function_gives_gaussian_mean(self, ref):
        x = np.array([0.5, -0.3])
        v = np.array([1.0, 2.0])
        pts, w, _, decay, _ = gauss_cloud(ref, 0.0, 0.7, x)
        assert float(w @ (pts @ v)) == pytest.approx(float((decay * x) @ v), abs=1e-13)

    def test_squared_norm_second_moment(self, ref):
        x = np.array([0.5, -0.3])
        pts, w, _, decay, sigma = gauss_cloud(ref, 0.0, 0.7, x)
        exact = float(np.sum((decay * x) ** 2) + np.sum(sigma**2))
        assert float(w @ np.sum(pts**2, axis=-1)) == pytest.approx(exact, rel=1e-13)

    def test_constant_function_weights_sum_to_one(self, ref):
        _, w, _, _, _ = gauss_cloud(ref, 0.0, 0.3, np.array([1.0, 1.0]))
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-15)

    def test_time_ordering_enforced(self, ref):
        with pytest.raises(InputError, match="t > s"):
            ref.transition(0.5, 0.5)

    def test_gradient_of_linear_function_is_constant(self, ref):
        # the first-order Stein weights z * decay / sigma of the sweep's grad u
        v = np.array([1.0, 2.0])
        for x in (np.zeros(2), np.array([0.9, -1.7])):
            pts, w, z, decay, sigma = gauss_cloud(ref, 0.0, 0.5, x)
            g = np.einsum("g,g,gj->j", w, pts @ v, z) * decay / sigma
            assert np.allclose(g, decay * v, atol=1e-13)

    def test_second_derivative_of_quadratic(self, ref):
        # the second-order Stein weights (z z^T - I) of the Hessian sweep:
        # f(y) = <v, y>^2 has hessian of P0 f equal to 2 (Dv)(Dv)^T exactly
        v = np.array([1.0, -0.5])
        pts, w, z, decay, sigma = gauss_cloud(ref, 0.0, 0.6, np.array([0.3, 0.8]))
        pair = z[:, :, None] * z[:, None, :] - np.eye(2)[None]
        stein = decay / sigma
        hess = np.einsum("g,g,gij->ij", w, (pts @ v) ** 2, pair) * np.outer(stein, stein)
        exact = 2.0 * np.outer(decay * v, decay * v)
        assert np.allclose(hess, exact, atol=1e-11)

    def test_cached_rules_are_read_only(self):
        for arr in (*hermite_tensor(5, 2), *gl_rule(8)):
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


# (3, 3, 3, 3) points of distinct entries of mixed sign, and 12 small
# points with one 1e4 times larger than the rest
_SPREAD_POINTS = np.cos(np.arange(81.0)).reshape(3, 3, 3, 3)
_DOMINANT_POINT = np.sin(np.arange(12 * 27.0)).reshape(12, 3, 3, 3) * np.where(
    np.arange(12) == 7, 1e2, 1e-2)[:, None, None, None]


def _with_entry(tensors, index, value):
    out = tensors.copy()
    out[index] = value
    return out


def _full_svd_max(mats):
    """Largest spectral norm of a (..., n, n) stack by one SVD of every matrix."""
    return float(np.max(np.linalg.svd(mats, compute_uv=False)[..., 0]))


class TestSweepKernels:
    @given(_grid_and_points())
    def test_stencil_interpolation_matches_scipy_linear(self, case):
        axes, table, coords = case
        n = len(axes)
        lo, frac = [], []
        for d, (axis, c) in enumerate(zip(axes, coords)):
            layout = (1,) + tuple(c.size if a == d else 1 for a in range(n))
            cell, offset = zv._axis_stencil(axis, c)
            lo.append(cell.reshape(layout))
            frac.append(offset.reshape(layout))
        # two component-major tables, (width, 2, *grid), read at the same
        # points: row b of the result interpolates table b
        tables = np.stack([table, table[..., ::-1]])
        got = zv._multilinear(np.moveaxis(tables, -1, 0),
                              [np.concatenate([c, c]) for c in lo],
                              [np.concatenate([y, y]) for y in frac], {})
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
        for b, tab in enumerate(tables):
            want = RegularGridInterpolator(tuple(axes), tab, method="linear")(pts)
            assert np.array_equal(np.moveaxis(got[:, b], 0, -1), want)

    @given(st.integers(2, 3).flatmap(lambda n: st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n**3, max_size=4 * n**3
    ).map(lambda v: np.array(v[: len(v) // n**3 * n**3]).reshape(-1, n, n, n))))
    @example(np.zeros((3, 2, 2, 2)))
    @example(np.zeros((2, 3, 3, 3)))
    @example(np.full((2, 2, 2, 2), 1e-170))  # squares underflow: no Frobenius bound
    @example(_DOMINANT_POINT)
    @example(np.tile(_SPREAD_POINTS[:3], (4, 1, 1, 1)))  # every point tied at the max
    @example(np.concatenate([np.full((5, 2, 2, 2), 1e-170), _SPREAD_POINTS[:2, :2, :2, :2],
                             np.full((5, 2, 2, 2), -1e-170)]))
    # rank one along the sampled direction e1: its Frobenius norm rounds
    # below its spectral norm, so only the slack keeps it
    @example(np.einsum("k,i,j->kij", [0.1, 0.1], [0.1, 0.3], [1.0, 0.0])[None])
    @example(_with_entry(_SPREAD_POINTS[:, :2, :2, :2], (1, 0, 1, 1), math.inf))
    @example(_with_entry(_SPREAD_POINTS, (2, 1, 1, 0), math.nan))
    def test_pruned_bilinear_norm_equals_full_svd_max(self, tensors):
        n = tensors.shape[-1]
        slices = np.einsum("...kij,dj->...dki", tensors, zv._sphere_directions(n))
        try:
            full = float(np.max(np.linalg.svd(slices, compute_uv=False)[..., 0]))
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                zv._bilinear_norm(tensors)
        else:
            # repr tells NaN from NaN-free values and keeps the last bit
            assert repr(zv._bilinear_norm(tensors)) == repr(full)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=n * n, max_size=6 * n * n
    ).map(lambda v: np.array(v[: len(v) // n**2 * n**2]).reshape(-1, n, n))))
    @example(np.zeros((3, 2, 2)))
    @example(np.full((4, 3, 3), 1e-170))  # squares underflow: no Frobenius bound
    @example(np.concatenate([_SPREAD_POINTS[0], np.full((1, 3, 3), 1e200)]))  # squares overflow
    @example(np.tile(_SPREAD_POINTS[0, 0], (4, 1, 1)))  # every matrix tied at the max
    # rank one: its Frobenius norm rounds below its spectral norm, so only
    # the slack keeps it
    @example(np.outer([0.7, -0.9], [0.5, -0.6])[None])
    @example(_with_entry(_SPREAD_POINTS[0], (1, 0, 1), math.inf))
    @example(_with_entry(_SPREAD_POINTS[0], (2, 1, 0), math.nan))
    def test_max_spectral_norm_equals_full_svd_max(self, mats):
        try:
            full = _full_svd_max(mats)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                zv._max_spectral_norm(mats)
        else:
            assert repr(zv._max_spectral_norm(mats)) == repr(full)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_merged_layout_matches_scipy_and_the_split_layout(self, n):
        """solve_u's stencils, one merged (node, Hermite) axis per dimension, read bit for bit.

        The read equals scipy's linear interpolation at the same points, and
        the read of the split (nodes..., Hermite nodes...) layout once its
        axes are interleaved.
        """
        rng = np.random.default_rng(10 + n)
        axis = zv.ZvonkinGrid(nodes_per_dim=5).axis()
        z1 = hermite_tensor(3, 1)[0][:, 0]
        slots, nodes, order = 2, axis.size, z1.size
        tables = rng.normal(size=(n * n, slots) + (nodes,) * n)
        merged, split, coords = ([], []), ([], []), []
        for d in range(n):
            # a query coordinate per (slot, node, Hermite node), as solve_u clips it
            coord = np.clip(rng.uniform(0.2, 1.0, (slots, 1, 1)) * axis[:, None]
                            + rng.uniform(0.1, 2.0, (slots, 1, 1)) * z1, -3.0, 3.0)
            cell, offset = zv._axis_stencil(axis, coord)
            merged_layout = (slots,) + tuple(nodes * order if a == d else 1 for a in range(n))
            split_layout = (slots,) + tuple(nodes if a == d else order if a == n + d else 1
                                            for a in range(2 * n))
            for (lo, frac), layout in ((merged, merged_layout), (split, split_layout)):
                lo.append(cell.reshape(layout))
                frac.append(offset.reshape(layout))
            coords.append(coord.reshape(merged_layout))
        got = zv._multilinear(tables, *merged, {})
        by_split = zv._multilinear(tables, *split, {})
        interleave = (0, 1) + tuple(a for d in range(n) for a in (2 + d, 2 + n + d))
        assert np.array_equal(got, by_split.transpose(interleave).reshape(got.shape))
        pts = np.stack(np.broadcast_arrays(*coords), axis=-1)
        for b in range(slots):
            want = RegularGridInterpolator((axis,) * n, np.moveaxis(tables[:, b], 0, -1),
                                           method="linear")(pts[b])
            assert np.array_equal(np.moveaxis(got[:, b], 0, -1), want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multilinear_ignores_dirty_work_arrays(self, n):
        """A small call on buffers a larger call left behind equals a fresh one byte for byte."""
        rng = np.random.default_rng(n)
        axis = np.linspace(-1.0, 1.0, 4)
        tables = rng.normal(size=(n * n, 3) + (axis.size,) * n)

        def stencil(rows, size):
            lo, frac = [], []
            for d in range(n):
                layout = (rows,) + tuple(size if a == d else 1 for a in range(n))
                cell, offset = zv._axis_stencil(axis, rng.uniform(-1.2, 1.2, size=layout))
                lo.append(cell)
                frac.append(offset)
            return lo, frac

        work = {}
        zv._multilinear(tables, *stencil(3, 7), work)
        lo, frac = stencil(2, 3)
        small = zv._multilinear(tables[:, :2], lo, frac, work)
        fresh = zv._multilinear(tables[:, :2], lo, frac, {})
        assert small.shape == fresh.shape == (n * n, 2) + (3,) * n
        assert small.tobytes() == fresh.tobytes()

    def test_bilinear_norm_memory_stays_below_slice_array(self):
        """On the n3 recorded field, far less than the (points, 400, 3, 3) slices it once built."""
        hess = TestRecordedFields.solve("n3").hess.reshape(-1, 3, 3, 3)
        slice_bytes = hess.shape[0] * 400 * 3 * 3 * hess.itemsize
        tracemalloc.start()
        try:
            zv._bilinear_norm(hess)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < slice_bytes / 4


class TestResolventSolve:
    def test_zero_drift_single_iteration(self, ref):
        fld = zv.solve_u(ref, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 1.0, SMALL_GRID)
        assert fld.iterations == 1
        assert np.max(np.abs(fld.u)) == 0.0
        assert fld.contraction_factor == 0.0

    def test_constant_drift_closed_form(self, ref):
        c = np.array([0.3, -0.2])
        lam = 50.0
        fld = zv.solve_u(ref, lambda t, y, norms: np.broadcast_to(
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
        rough = lambda t, y, norms: 40.0 * np.sin(3.0 * np.asarray(y, dtype=float))
        with pytest.raises(CertificationError, match="increase lam"):
            zv.solve_u(ref, rough, 0.5, 1.0, SMALL_GRID)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_horizon_rejected(self, ref, horizon):
        with pytest.raises(InputError, match="horizon must be positive"):
            zv.solve_u(ref, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                       50.0, horizon, SMALL_GRID)

    @pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
    def test_lam_outside_the_positive_reals_rejected(self, ref, lam):
        # a NaN lam once returned a converged, certified all-zero field
        with pytest.raises(InputError, match="lam must be positive and finite"):
            zv.solve_u(ref, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                       lam, 1.0, SMALL_GRID)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_drift_sample_rejected(self, bad):
        # it once reached _max_spectral_norm, whose SVD did not converge
        grid = zv.ZvonkinGrid(time_steps=2, nodes_per_dim=5, quad_panels=2, quad_order=3)
        dini = sim.dini_drift(an.log_dini_modulus(scale=0.4), np.array([1.0, 0.0]))

        def drift(t, x, norms):
            out = dini(t, x, norms)
            out[norms == 0.0] = bad
            return out

        # the origin is a query point of the first slot
        t = float(zv._warped_time_rule(60.0, 1.0, grid)[0][0])
        with pytest.raises(InputError, match=re.escape(f"drift is not finite at t = {t!r}")):
            zv.solve_u(zv.ReferenceSemigroup(an.Spectrum(2), np.ones(2), quad_order=3),
                       drift, 60.0, 1.0, grid)

    @pytest.mark.parametrize("nodes", [4, 6])
    def test_even_node_count_rejected(self, nodes):
        # 6 nodes once gave the axis [-3, -0.02, 0, 0.02, 3, 4], and reads left of -3
        # extrapolated the spline
        with pytest.raises(InputError, match="nodes_per_dim must be odd"):
            zv.ZvonkinGrid(nodes_per_dim=nodes)

    @pytest.mark.parametrize("grid, message", [
        ({"nodes_per_dim": 3}, "at least 5"), ({"nodes_per_dim": 1}, "at least 5"),
        ({"halfwidth": 0.01}, "exceed 0.02"), ({"halfwidth": 0.02}, "exceed 0.02"),
        ({"halfwidth": math.nan}, "exceed 0.02")])
    def test_degenerate_axis_rejected(self, grid, message):
        # 3 nodes once gave the axis [-0.02, 0, 0.02] and halfwidth 0.01 the unsorted
        # [-0.01, -0.02, 0, 0.02, 0.01], on which solve_u returned a certified field;
        # halfwidth 0.02 repeated nodes and ended in an SVD that did not converge
        with pytest.raises(InputError, match=message):
            zv.ZvonkinGrid(**grid)

    def test_dimension_cap(self):
        spec4 = an.Spectrum(4)
        ref4 = zv.ReferenceSemigroup(spec4, np.ones(4))
        with pytest.raises(InputError, match="active modes"):
            zv.solve_u(ref4, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                       50.0, 1.0, SMALL_GRID)


class TestRecordedFields:
    """Fields pinned by content hash and contraction factor.

    The values come from a sweep that handled one quadrature slot at a
    time; the chunked sweep keeps every float operation and summation
    order, so a reordering shows here as a changed hash.
    """

    CASES = {  # n, lam, Hermite order, grid, content hash, contraction factor, norms
        "n1": (1, 60.0, 7, zv.ZvonkinGrid(time_steps=6, nodes_per_dim=11, quad_panels=4,
                                          quad_order=4),
               "72c117c3230b5ca2318e8c09f3979a44596cb8547564a3cbb4edcf66fc77dcd4",
               "0.003606712151788585",
               "{'u_a': 0.0014736908888727568, 'grad_a': 0.0017676440420114168, "
               "'grad': 0.0017676440420114168, 'sqrtA_grad': 0.0017676440420114168, "
               "'hess': 0.11998396523597829}"),
        "n2": (2, 60.0, 5, zv.ZvonkinGrid(time_steps=4, nodes_per_dim=9, quad_panels=3,
                                          quad_order=4),
               "382f48fc1cb135db1b55e7da0d29843919432d5d078e7de3e17edf1a04b57a3c",
               "0.002497047588847499",
               "{'u_a': 0.0023301483505961834, 'grad_a': 0.0022488100103494404, "
               "'grad': 0.0014222723315382114, 'sqrtA_grad': 0.0022488100103494404, "
               "'hess': 0.07744801806305082}"),
        "n3": (3, 80.0, 3, zv.ZvonkinGrid(time_steps=2, nodes_per_dim=5, quad_panels=2,
                                          quad_order=3),
               "780a1c9417b6cd0699afdc2948cf9128e570073d1650d90ee9d80bedb46f8104",
               "0.0011740655538867296",
               "{'u_a': 0.002387722428307269, 'grad_a': 0.0010991808227382028, "
               "'grad': 0.000508821849487779, 'sqrtA_grad': 0.0010991808227382028, "
               "'hess': 0.06390767670647787}"),
        # 20 slots of 81 nodes x 49 Hermite points per slice: chunks of 8, 8 and 4
        "n2-chunked": (2, 60.0, 7, zv.ZvonkinGrid(time_steps=2, nodes_per_dim=9,
                                                  quad_panels=4, quad_order=5),
                       "eca8e7946ad0354c2c82a0e63a903afaaec72a2f729281df4934725365fb9706",
                       "0.002554627818923533",
                       "{'u_a': 0.0023301484399715078, 'grad_a': 0.0022979182316714827, "
                       "'grad': 0.0014533310977816714, 'sqrtA_grad': 0.0022979182316714827, "
                       "'hess': 0.07130776963299462}"),
        # the drift along e1, as every field of the lab has it: modes 2..n of
        # b and rows 2..n of grad u are +0.0, so the sweep selects g_11 alone;
        # recorded by the sweep that interpolated and reduced every entry
        "n2-e1-chunked": (2, 60.0, 7, zv.ZvonkinGrid(time_steps=2, nodes_per_dim=9,
                                                     quad_panels=4, quad_order=5),
                          "3430ba52e432cee1e82d74eb3d73b8bf2b02e972f08d911cf18ea56f47e10553",
                          "0.0025674223011270345",
                          "{'u_a': 0.0014736988012174666, 'grad_a': 0.0014546778538851307, "
                          "'grad': 0.0014546778538851307, 'sqrtA_grad': 0.0014546778538851307, "
                          "'hess': 0.07130774079768555}"),
        "n3-e1": (3, 80.0, 3, zv.ZvonkinGrid(time_steps=2, nodes_per_dim=5, quad_panels=2,
                                             quad_order=3),
                  "dc06ddbd300f85e7dcf22780a1358df0ea5bf21197ce4c1a530f60952576b582",
                  "0.0011667645531708406",
                  "{'u_a': 0.001105282216770025, 'grad_a': 0.0005082028208080981, "
                  "'grad': 0.0005082028208080981, 'sqrtA_grad': 0.0005082028208080981, "
                  "'hess': 0.06390768172103953}"),
    }

    @staticmethod
    def solve(name, wrap=lambda drift: drift):
        """The recorded solve of case `name`, with its drift passed through `wrap`.

        The drift points along e1 for an "-e1" case and along the diagonal
        otherwise, where every component of b and every term of grad u . b
        is nonzero.
        """
        n, lam, order, grid = TestRecordedFields.CASES[name][:4]
        ref = zv.ReferenceSemigroup(an.Spectrum(n), np.ones(n), quad_order=order)
        direction = np.eye(n)[0] if "-e1" in name else np.ones(n)
        drift = sim.dini_drift(an.log_dini_modulus(scale=0.4), direction)
        return zv.solve_u(ref, wrap(drift), lam, 1.0, grid)

    @pytest.mark.parametrize("name", list(CASES))
    def test_field_matches_recorded_hash(self, name):
        n, lam, order, grid, content, factor, norms = self.CASES[name]
        if name.endswith("-chunked"):
            slots = zv._warped_time_rule(lam, 1.0, grid)[0].size
            assert slots * grid.nodes_per_dim**n * order**n > zv.CHUNK_POINTS
        fld = self.solve(name)
        assert fld.content_hash() == content
        assert repr(fld.contraction_factor) == factor
        assert repr(fld.norms) == norms
        assert fld.converged and fld.certified

    @pytest.mark.parametrize("name", list(CASES))
    def test_norms_equal_full_svd_recomputation(self, name):
        fld = self.solve(name)
        n = fld.n_modes
        aw = np.asarray(an.sqrt_weight()(fld.spec.eigenvalues), dtype=float)
        grad = fld.grad.reshape(-1, n, n)
        hess = fld.hess.reshape(-1, n, n, n)
        if n == 1:
            hess_norm = float(np.max(np.abs(hess)))
        else:
            hess_norm = _full_svd_max(np.einsum("...kij,dj->...dki", hess,
                                                zv._sphere_directions(n)))
        assert repr(fld.norms) == repr({
            "u_a": float(np.max(np.linalg.norm(fld.u * aw, axis=-1))),
            "grad_a": _full_svd_max(grad * aw[None, :, None]),
            "grad": _full_svd_max(grad),
            "sqrtA_grad": _full_svd_max(grad * np.sqrt(fld.spec.eigenvalues)[None, :, None]),
            "hess": hess_norm,
        })

    def test_weighted_norms_take_few_matrices_through_the_svd(self, monkeypatch):
        fld = self.solve("n2")
        aw = np.asarray(an.sqrt_weight()(fld.spec.eigenvalues), dtype=float)
        stack = fld.grad[..., 0, 0].size
        sizes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            sizes.append(a[..., 0, 0].size)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        zv._weighted_norms(fld.u, fld.grad, aw)
        assert 0 < sum(sizes) < 0.05 * stack


class TestKeptDriftSamples:
    """solve_u samples the drift once per slot while the samples fit its budget."""

    @staticmethod
    def counted(calls):
        """A wrap for TestRecordedFields.solve that appends each drift call's t to calls."""
        def wrap(drift):
            def fn(t, x, norms):
                calls.append(t)
                return drift(t, x, norms)
            return fn
        return wrap

    @staticmethod
    def slots_and_floats(name, fld):
        """Quadrature slots of the solve and the floats of their drift samples."""
        n, lam, order, grid = TestRecordedFields.CASES[name][:4]
        slots = sum(zv._warped_time_rule(lam, fld.horizon - t, grid)[0].size
                    for t in fld.times[:-1])
        return slots, slots * grid.nodes_per_dim**n * order**n * n

    @pytest.mark.parametrize("name", ["n1", "n2", "n3"])
    def test_fitting_solve_samples_each_slot_once(self, name):
        calls = []
        fld = TestRecordedFields.solve(name, self.counted(calls))
        slots, floats = self.slots_and_floats(name, fld)
        assert floats <= zv.KEPT_DRIFT_FLOATS
        assert fld.iterations >= 2
        assert len(calls) == slots
        assert fld.content_hash() == TestRecordedFields.CASES[name][4]

    @pytest.mark.parametrize("name", ["n2-e1-chunked", "n3-e1", "n3"])
    def test_unkept_samples_give_the_recorded_field(self, monkeypatch, name):
        # with no budget every chunk is sampled again in every sweep, and a
        # mode that is +0.0 throughout is read as the float +0.0 there too
        monkeypatch.setattr(zv, "KEPT_DRIFT_FLOATS", 0)
        calls = []
        fld = TestRecordedFields.solve(name, self.counted(calls))
        assert len(calls) == self.slots_and_floats(name, fld)[0] * (fld.iterations + 1)
        assert fld.content_hash() == TestRecordedFields.CASES[name][4]

    def test_solve_beyond_budget_keeps_a_prefix(self):
        name = "n2-chunked"
        calls = []
        fld = TestRecordedFields.solve(name, self.counted(calls))
        slots, floats = self.slots_and_floats(name, fld)
        assert floats > zv.KEPT_DRIFT_FLOATS
        assert slots < len(calls) < slots * (fld.iterations + 1)
        content, factor, norms = TestRecordedFields.CASES[name][4:]
        assert fld.content_hash() == content
        assert repr(fld.contraction_factor) == factor
        assert repr(fld.norms) == norms

    def test_only_reached_modes_count_toward_the_budget(self):
        # along e1 mode 2 is +0.0 throughout and is not kept: the samples of
        # all n modes overflow the budget, those of mode 1 alone fit it
        name = "n2-e1-chunked"
        calls = []
        fld = TestRecordedFields.solve(name, self.counted(calls))
        slots, floats = self.slots_and_floats(name, fld)
        assert floats > zv.KEPT_DRIFT_FLOATS >= floats // 2
        assert fld.iterations >= 2
        assert len(calls) == slots
        content, factor, norms = TestRecordedFields.CASES[name][4:]
        assert fld.content_hash() == content
        assert repr(fld.contraction_factor) == factor
        assert repr(fld.norms) == norms

    def test_kept_samples_do_not_alias_the_drift_result(self):
        # the identity drift returns a view of the point buffer the sweep
        # refills for every slot, and `reused` overwrites one output array
        out = {}

        def reused(t, x, norms):
            buf = out.setdefault(x.shape, np.empty(x.shape))
            np.copyto(buf, x)
            return buf

        hashes = {TestRecordedFields.solve("n2", lambda _: drift).content_hash()
                  for drift in (lambda t, x, norms: x, lambda t, x, norms: np.array(x),
                                reused)}
        assert len(hashes) == 1


@st.composite
def _drift_products(draw):
    """g (n, n, points) and component-major b (n, points) for grad u . b + b.

    Some rows of g and some modes of b are zero throughout, and one entry
    of g or b may be -0.0; the other entries are finite and reach the whole
    float range.
    """
    n, points = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    value = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
    g = np.array(draw(st.lists(value, min_size=n * n * points,
                               max_size=n * n * points))).reshape(n, n, points)
    b = np.array(draw(st.lists(value, min_size=n * points, max_size=n * points))).reshape(n, points)
    g[sorted(draw(st.sets(st.integers(0, n - 1))))] = 0.0
    b[sorted(draw(st.sets(st.integers(0, n - 1))))] = 0.0
    at = draw(st.none() | st.tuples(st.sampled_from((g, b)), st.integers(0, n * n * points - 1)))
    if at is not None:
        arr, entry = at
        arr.reshape(-1)[entry % arr.size] = -0.0
    return g, b


def _full_sum(g, b):
    """grad u . b + b with every term, added in mode order."""
    out, term = np.empty_like(b), np.empty_like(b[0])
    for i in range(len(b)):
        np.multiply(g[i, 0], b[0], out=out[i])
        for j in range(1, len(b)):
            out[i] += np.multiply(g[i, j], b[j], out=term)
        out[i] += b[i]
    return out


class TestSweepSelection:
    """The sweep builds and interpolates only the terms that can be nonzero."""

    @given(_drift_products())
    @example((np.array([[[1.0]]]), np.array([[-0.0]])))
    @example((np.array([[[0.0, 0.0], [1.0, 2.0]]]).reshape(2, 2, 1), np.array([[0.0], [-0.0]])))
    @example((np.array([[2.0, 0.0], [0.0, 0.0]]).reshape(2, 2, 1), np.array([[-1.0], [0.0]])))
    @example((np.full((3, 3, 1), 1e306), np.array([[1.0], [0.0], [0.0]])))
    def test_selected_terms_equal_the_full_sum(self, case):
        g, b = case
        terms = zv._drift_terms(zv._live_rows(np.moveaxis(g, -1, 0)), zv._reached_modes(b), len(b))
        kept = np.array([g[i, j] for i, modes in terms for j in modes]).reshape(-1, b.shape[1])
        got = np.empty((len(terms),) + b.shape[1:])
        with np.errstate(all="ignore"):  # products may overflow and inf - inf is NaN
            zv._combine(terms, kept, b, got, np.empty(b.shape[1:]))
            full = _full_sum(g, b)
        # equal values, a zero of either sign equal to the other
        built = [i for i, _ in terms]
        assert np.array_equal(got, full[built], equal_nan=True)
        # a row left out is zero throughout, so the reductions may skip it
        assert not full[sorted(set(range(len(b))) - set(built))].any()

    @staticmethod
    def components_per_call(monkeypatch, solve):
        """The component count of every _multilinear call `solve` makes, and its field."""
        real, calls = zv._multilinear, []

        def spy(table, lo, frac, work):
            calls.append(table.shape[0])
            return real(table, lo, frac, work)

        monkeypatch.setattr(zv, "_multilinear", spy)
        return calls, solve()

    @staticmethod
    def chunk_count(name, fld):
        """Chunks of one sweep of case `name`: runs of at most per_chunk slots per slice."""
        n, lam, order, grid = TestRecordedFields.CASES[name][:4]
        per_chunk = max(1, zv.CHUNK_POINTS // (grid.nodes_per_dim**n * order**n))
        return sum(-(-zv._warped_time_rule(lam, fld.horizon - t, grid)[0].size // per_chunk)
                   for t in fld.times[:-1])

    @pytest.mark.parametrize("name, components", [
        ("n2-e1-chunked", 1), ("n3-e1", 1), ("n2", 4), ("n3", 9)])
    def test_sweeps_interpolate_the_live_reached_entries(self, monkeypatch, name, components):
        calls, fld = self.components_per_call(
            monkeypatch, lambda: TestRecordedFields.solve(name))
        # the zero seed of the first sweep has no live row; each later
        # sweep, the final one too, interpolates once per chunk
        assert calls == [components] * (fld.iterations * self.chunk_count(name, fld))
        assert fld.content_hash() == TestRecordedFields.CASES[name][4]

    def test_zero_drift_interpolates_nothing(self, monkeypatch):
        calls, fld = self.components_per_call(monkeypatch, lambda: TestRecordedFields.solve(
            "n2", lambda _: sim.zero_drift()))
        assert calls == [] and fld.iterations == 1
        assert not fld.u.any() and not fld.grad.any() and not fld.hess.any()

    def test_negative_zero_drift_selects_like_any_other(self, monkeypatch):
        # -rate * 0.0 is -0.0 at the query points on the origin; the zero seed
        # of the first sweep has no live row, and every later sweep
        # interpolates all n * n entries
        calls, fld = self.components_per_call(monkeypatch, lambda: TestRecordedFields.solve(
            "n2", lambda _: sim.linear_drift(0.5)))
        assert fld.iterations >= 2
        assert calls == [4] * (fld.iterations * self.chunk_count("n2", fld))
        # recorded by the sweep that selected every row and mode on -0.0
        assert fld.content_hash() == (
            "04aa552fab220ac55f73bf67329fd92bba984692fab2dc847bc32eeb060b9773")


class TestThreshold:
    def test_zero_drift_takes_smallest_lam(self, ref):
        zero = lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float))
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

    def test_descending_lams_raise(self, ref):
        # the walk reads fields in the order given; a failing 50 then a 40 is out of order
        big = sim.dini_drift(an.log_dini_modulus(scale=30.0), np.array([1.0, 0.0]))
        failing = zv.solve_u(ref, big, 50.0, 1.0, SMALL_GRID)
        with pytest.raises(InputError, match="must ascend"):
            zv.lambda_threshold([failing, replace(failing, lam=40.0)], 1.0)


class TestDiffeomorphism:
    def test_trivial_field_inverts_to_identity(self, ref):
        fld = zv.solve_u(ref, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 1.0, SMALL_GRID)
        y = np.array([[0.7, -0.4], [1.2, 0.3]])
        assert np.array_equal(fld.invert_theta(0.3, y), y)

    def test_empty_batch_inverts_to_empty(self, field):
        # no row at a scalar time, no row of per-row times, rows without a point
        for t, y in ((0.2, np.zeros((0, 2))), (np.zeros(0), np.zeros((0, 2))),
                     (np.zeros(0), np.zeros((0, 3, 2))), (np.full(2, 0.2), np.zeros((2, 0, 2)))):
            x = field.invert_theta(t, y)
            assert x.shape == y.shape
        assert field.u_at(0.2, np.zeros((0, 2))).shape == (0, 2)
        u, grad = field.u_grad_at(np.zeros(0), np.zeros((0, 3, 2)))
        assert u.shape == (0, 3, 2) and grad.shape == (0, 3, 2, 2)

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

    def test_segment_transform_roundtrip(self, field):
        # a window of preimages as the K1 battery of transform_coeffs reads it
        delay, step = 0.25, 1.0 / 32.0
        xi = SegmentPath.from_function(lambda s: np.array([0.4 * math.cos(s), 0.2]),
                                       delay, step)
        lags = -delay + step * np.arange(xi.values.shape[0])
        times = 0.1 + lags
        fwd = np.stack([field.theta(t, v) for t, v in zip(times, xi.values)])
        back = sim.SegmentView(field.invert_theta(times, fwd[:, None]), step, delay)
        vals = np.stack([back.value_at(s)[0] for s in lags])
        assert np.max(np.abs(vals - xi.values)) <= 1e-9
        assert back.sup_norm()[0] == pytest.approx(segment_norm(xi), abs=1e-9)


@st.composite
def _timed_rows(draw):
    """Rows of states for the conftest field, each with its own time.

    A time is a float in [-0.3, 0.8], which the horizon T = 0.5 clamps at
    both ends, or an integer naming a slice node of the field (frac = 0).
    Coordinates reach past the box [-3, 3].
    """
    n_rows, n_pts = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    times = draw(st.lists(st.one_of(st.floats(-0.3, 0.8), st.integers(0, 15)),
                          min_size=n_rows, max_size=n_rows))
    coords = draw(st.lists(st.floats(-4.5, 4.5), min_size=2 * n_rows * n_pts,
                           max_size=2 * n_rows * n_pts))
    return times, np.array(coords).reshape(n_rows, n_pts, 2)


class TestPerRowTimes:
    # u(T) = 0, so the row at t = 0.7 stops after one step while the others run on
    @given(_timed_rows())
    @example(([-0.2, 3, 0.123, 0.7, 0.46],
              np.array([[[0.3, -0.1], [4.2, -3.6]], [[1.0, 0.0], [-0.01, 0.02]],
                        [[-2.9, 2.9], [0.0, 0.0]], [[0.3, -0.1], [0.5, 0.5]],
                        [[-4.4, 0.1], [2.0, -1.5]]])))
    def test_rows_equal_scalar_calls(self, field, case):
        times, states = case
        ts = np.array([field.times[t % field.times.size] if isinstance(t, int) else t
                       for t in times])
        for f in (field.u_at, field.grad_at, field.invert_theta):
            want = np.stack([f(t, x) for t, x in zip(ts, states)])
            assert np.array_equal(f(ts, states), want)

    def test_converged_rows_leave_the_iteration(self, field, monkeypatch):
        real = zv.RegularizingField.u_at
        rows = []

        def counted(self, t, x):
            rows.append(np.size(t))
            return real(self, t, x)

        monkeypatch.setattr(zv.RegularizingField, "u_at", counted)
        field.invert_theta(np.array([0.2, 0.7]), np.full((2, 1, 2), 0.3))
        assert rows[0] == 2 and rows[-1] == 1 and len(rows) > 2

    def test_window_sup_norm_equals_row_loop(self, field):
        # t = 0.3 with delay 0.25 reads times 0.05 ... 0.3, across five slices
        delay, step = 0.25, 1.0 / 32.0
        window = np.random.default_rng(5).uniform(-2.5, 2.5, size=(9, 4, 2))
        times = 0.3 + (-delay + np.arange(9) * step)
        view = sim.SegmentView(field.invert_theta(times, window), step, delay)
        want = np.max([np.linalg.norm(field.invert_theta(t, row), axis=-1)
                       for t, row in zip(times, window)], axis=0)
        assert np.array_equal(view.sup_norm(), want)

    def test_window_row_without_convergence_raises(self, field):
        # scaled up 1000-fold, x <- y - u(t, x) no longer contracts at y = (0, -2.5)
        steep = replace(field, u=1000.0 * field.u)
        window = np.zeros((9, 2, 2))
        window[:, 1] = [0.0, -2.5]
        times = 0.3 + (-0.25 + np.arange(9) / 32.0)
        with pytest.raises(CertificationError, match="200 iterations: 9 of 9 rows still moving, "
                                                     r"largest last step \d"):
            steep.invert_theta(times, window)
        # a row at T, where u = 0, stops after one step and is not counted
        with pytest.raises(CertificationError, match="200 iterations: 9 of 10 rows still moving"):
            steep.invert_theta(np.append(times, 0.5), np.concatenate([window, window[:1]]))

    @pytest.mark.parametrize("read", ["u_at", "grad_at", "u_grad_at", "theta", "invert_theta"])
    def test_bad_times_raise(self, field, read):
        f = getattr(field, read)
        x = np.full((4, 2), 0.3)
        # two times for four rows, an array of times for one point, and a NaN time
        for t, states in ((np.array([0.05, 0.4]), x), (np.array([0.2]), x[0]),
                          (math.nan, x), (np.array([0.2, math.nan, 0.3, 0.1]), x)):
            with pytest.raises(InputError):
                f(t, states)

    def test_infinite_times_clamp(self, field):
        x = np.array([[[0.3, -0.1]], [[1.2, 0.4]]])
        for f in (field.u_at, field.grad_at, field.invert_theta):
            assert np.array_equal(f(np.array([-math.inf, math.inf]), x),
                                  np.stack([f(0.0, x[0]), f(field.horizon, x[1])]))

    def test_non_finite_target_raises(self, field):
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError, match="target y"):
                field.invert_theta(0.2, np.array([[0.3, bad], [0.1, 0.2]]))


@st.composite
def _time_sequences(draw):
    """Two read times of the conftest field and four rows of states, one point each.

    A time is a float in [-0.3, 0.8] or a slice node of the field (frac = 0).
    """
    time = st.one_of(st.floats(-0.3, 0.8), st.integers(0, 15))
    t1, t2 = draw(st.lists(time, min_size=2, max_size=2, unique=True))
    coords = draw(st.lists(st.floats(-4.5, 4.5), min_size=8, max_size=8))
    return t1, t2, np.array(coords).reshape(4, 1, 2)


class TestTimePlan:
    """invert_theta and u_at derive a read's time plan once per distinct time."""

    @staticmethod
    def _spy_stencil(monkeypatch):
        calls = []
        real = zv._axis_stencil

        def counted(axis, coords):
            calls.append(np.size(coords))
            return real(axis, coords)

        monkeypatch.setattr(zv, "_axis_stencil", counted)
        return calls

    def test_one_plan_per_scalar_inversion(self, field, monkeypatch):
        fresh = replace(field)  # no plan yet
        calls = self._spy_stencil(monkeypatch)
        fresh.invert_theta(0.3, np.random.default_rng(6).uniform(-2.0, 2.0, size=(50, 2)))
        assert calls == [1]
        # the read that follows an inversion at the same time reuses its plan
        fresh.u_grad_at(0.3, np.zeros((3, 2)))
        assert calls == [1]

    def test_one_plan_per_live_set(self, field, monkeypatch):
        # the row at 0.7 stops after one step, so the live times change once
        fresh = replace(field)
        calls = self._spy_stencil(monkeypatch)
        fresh.invert_theta(np.array([0.2, 0.7]), np.full((2, 1, 2), 0.3))
        assert calls == [2, 1]

    @given(_time_sequences())
    def test_plan_keyed_by_value(self, field, case):
        # every read of the field, whose plan is that of the read before it,
        # against the same read of a copy that holds no plan
        t1, t2 = (field.times[t % field.times.size] if isinstance(t, int) else t
                  for t in case[:2])
        x = case[2]
        fresh = replace(field)

        def planless(read, t):
            fresh._plan.clear()
            return getattr(fresh, read)(t, x)

        times = np.array([t1, t2, t1, t2])
        reads = [("u_at", t1), ("u_at", t2), ("u_at", t1), ("u_grad_at", times), ("u_at", times)]
        for read, t in reads:
            got, want = getattr(field, read)(t, x), planless(read, t)
            assert np.concatenate(got, axis=None).tobytes() == \
                np.concatenate(want, axis=None).tobytes()
        times[1] = t1  # changed in place, the array reads its new times
        for read in ("u_at", "invert_theta"):
            assert getattr(field, read)(times, x).tobytes() == planless(read, times).tobytes()

    def test_plan_weights_read_only(self, field):
        for t in (0.3, np.array([0.05, 0.3, 0.3, 0.5])):
            field.u_at(t, np.zeros((4, 1, 2)))
            for _, _, keep, frac in field._time_plan(t):
                assert not keep.flags.writeable and not frac.flags.writeable

    @given(st.lists(st.one_of(st.floats(-0.3, 0.8), st.integers(0, 15)), max_size=6))
    def test_plan_groups_partition_the_rows(self, field, times):
        """Every row is in exactly one group, of its own clamped slice and weights."""
        ts = np.array([field.times[t % field.times.size] if isinstance(t, int) else t
                       for t in times], dtype=float)
        plan = field._time_plan(ts)
        rows = np.concatenate([sel for sel, *_ in plan] + [np.empty(0, dtype=np.intp)])
        assert np.array_equal(np.sort(rows), np.arange(ts.size))
        lo, frac = zv._axis_stencil(field.times, ts.clip(0.0, field.horizon))
        for sel, j, keep, w in plan:
            assert np.all(lo[sel] == j)
            assert np.array_equal(w.reshape(-1), frac[sel])
            assert np.array_equal(keep.reshape(-1), 1.0 - frac[sel])
        assert len({j for _, j, _, _ in plan}) == len(plan)

    def test_read_at_a_slice_equals_its_own_spline(self, field):
        """At t = times[j] a read is slice j's spline, built here from its fit.

        Below the last slice that is 1.0 * A_j + 0.0 * A_{j+1}, and at T it
        is 0.0 * A_{j-1} + 1.0 * A_j: either equals A_j but for the sign of a zero.
        """
        x = np.random.default_rng(7).uniform(-3.5, 3.5, size=(40, 2))
        knots = tuple(map(zv._cubic_knots, field.axes))
        for j in range(field.times.size):
            own = NdBSpline(knots, field._coefficients("u", j), 3)
            assert np.array_equal(field.u_at(field.times[j], x),
                                  own(np.clip(x, -field.halfwidth, field.halfwidth)))

    def test_read_before_zero_equals_the_read_at_zero(self, field):
        x = np.random.default_rng(8).uniform(-3.5, 3.5, size=(3, 5, 2))
        for read in (field.u_at, field.grad_at, field.u_grad_at):
            want = np.concatenate(read(0.0, x), axis=None)
            for t in (-0.25, -1e-300, np.array([-0.1, -0.2, -0.3])):
                assert np.concatenate(read(t, x), axis=None).tobytes() == want.tobytes()


@st.composite
def _field_reads(draw):
    """A read of one table of a 1-, 2- or 3-mode field: scalar or per-row times.

    The 3-mode field's hess table is left out: its cubic fit does not
    converge on that 5-node grid (test_unconverged_fit_raises).  A time is
    a multiple in [-0.5, 1.5] of the horizon, which clamps it at both ends,
    or an integer naming a slice node (frac = 0; the last slice for any
    integer past it).  Coordinates reach past the box [-3, 3], and one of
    them may be NaN.
    """
    n = draw(st.sampled_from((1, 2, 3)))
    kind = draw(st.sampled_from(("u", "grad") if n == 3 else ("u", "grad", "hess")))
    per_row = draw(st.booleans())
    n_rows, n_pts = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    times = draw(st.lists(st.one_of(st.floats(-0.5, 1.5), st.integers(0, 20)),
                          min_size=n_rows, max_size=n_rows))
    size = n_rows * n_pts * n
    coords = np.array(draw(st.lists(st.floats(-4.5, 4.5), min_size=size, max_size=size)))
    nan_at = draw(st.none() | st.integers(0, size - 1))
    if nan_at is not None:
        coords[nan_at] = math.nan
    return n, kind, per_row, times, coords.reshape(n_rows, n_pts, n)


class TestSplineReads:
    """u_at/grad_at/hess_at against the cubic RegularGridInterpolator read they replace."""

    @pytest.fixture(scope="class")
    def fields(self, field):
        out = {2: field}
        for n in (1, 3):
            out[n] = TestRecordedFields.solve(f"n{n}")
        return out

    @pytest.fixture(scope="class")
    def grid_read(self):
        """One scalar-time read: a cubic RegularGridInterpolator per slice, blended in time."""
        interps = {}

        def interp(field, kind, j):
            key = (id(field), kind, j)
            if key not in interps:
                table = getattr(field, kind)[j]
                interps[key] = RegularGridInterpolator(
                    field.axes, table.reshape(table.shape[: field.n_modes] + (-1,)),
                    method="cubic", bounds_error=False, fill_value=None)
            return interps[key]

        def read(field, kind, t, x):
            lo, frac = zv._axis_stencil(field.times, min(max(t, 0.0), field.horizon))
            xb = np.clip(x, -field.halfwidth, field.halfwidth)
            out = (1.0 - frac) * interp(field, kind, lo)(xb)
            if frac > 0.0:
                out += frac * interp(field, kind, lo + 1)(xb)
            return out.reshape(x.shape[:-1] + getattr(field, kind).shape[1 + field.n_modes:])

        return read

    @given(_field_reads())
    @example((2, "grad", True, [20, -0.5, 1.5, 0],
              np.array([[[0.3, -0.1]], [[4.2, math.nan]], [[-3.0, 3.0]], [[0.0, 0.0]]])))
    @example((3, "grad", False, [0.25], np.full((1, 2, 3), -4.0)))
    def test_reads_equal_grid_interpolator(self, fields, grid_read, case):
        n, kind, per_row, times, x = case
        field = fields[n]
        ts = np.array([field.times[min(t, field.times.size - 1)] if isinstance(t, int)
                       else t * field.horizon for t in times])
        read = {"u": field.u_at, "grad": field.grad_at, "hess": field.hess_at}[kind]
        if per_row:
            got = read(ts, x)
            want = np.stack([grid_read(field, kind, t, row) for t, row in zip(ts, x)])
        else:
            got, want = read(ts[0], x), grid_read(field, kind, ts[0], x)
        assert np.array_equal(got, want, equal_nan=True)
        # a point with a NaN coordinate reads NaN, every other point a number
        nan_pts = np.isnan(x).any(axis=-1)
        assert np.isnan(got[nan_pts]).all() and not np.isnan(got[~nan_pts]).any()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fit_equals_grid_interpolator_coefficients(self, fields, n):
        field = fields[n]
        for kind in ("u", "grad") if n == 3 else ("u", "grad", "hess"):
            for j in range(field.times.size):
                table = getattr(field, kind)[j]
                rgi = RegularGridInterpolator(field.axes, table.reshape(table.shape[:n] + (-1,)),
                                              method="cubic")
                assert np.array_equal(field._coefficients(kind, j), rgi._spline.c)

    def test_unconverged_fit_raises(self, fields):
        # scipy's cubic grid interpolation fails on this slice as well
        with pytest.raises(CertificationError, match="hess table at slice 1"):
            fields[3].hess_at(fields[3].times[1], np.zeros(3))

    def test_one_spline_call_per_read(self, field, monkeypatch):
        calls = []
        real = NdBSpline.__call__

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(NdBSpline, "__call__", counted)
        x = np.array([[0.4, -0.7]])
        field.grad_at(0.123, x)          # between slices
        field.u_at(field.times[3], x)    # on a slice
        assert len(calls) == 2

    @given(_field_reads())
    @example((2, "u", True, [20, -0.5, 1.5, 0],
              np.array([[[0.3, -0.1]], [[4.2, math.nan]], [[-3.0, 3.0]], [[0.0, 0.0]]])))
    @example((3, "grad", False, [0.25], np.full((1, 2, 3), -4.0)))
    @example((1, "u", False, [3], np.array([[[0.2], [-0.0]]])))
    def test_u_grad_read_equals_u_and_grad_reads(self, fields, case):
        n, _, per_row, times, x = case
        field = fields[n]
        ts = np.array([field.times[min(t, field.times.size - 1)] if isinstance(t, int)
                       else t * field.horizon for t in times])
        t = ts if per_row else ts[0]
        u, grad = field.u_grad_at(t, x)
        for got, want in ((u, field.u_at(t, x)), (grad, field.grad_at(t, x))):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert got.tobytes() == want.tobytes()

    def test_u_grad_read_is_one_spline_call(self, field, monkeypatch):
        calls = []
        real = NdBSpline.__call__

        def counted(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(NdBSpline, "__call__", counted)
        x = np.array([[0.4, -0.7], [1.1, 0.2]])
        field.u_grad_at(0.123, x)                # between slices
        field.u_grad_at(field.times[3], x)       # on a slice
        assert len(calls) == 2


def conjugated_at(tsys, t, ys):
    """The conjugated drift and diffusion at states ys, read from their preimages."""
    zs = tsys.field.invert_theta(t, ys)
    drift, jac = tsys.drift_jac_at(t, zs)
    return drift, tsys.diffusion_at(t, zs, jac, np.linalg.norm(zs, axis=-1))


class TestTransformedSystem:
    def test_trivial_transform_returns_base(self, ref, dini_coeffs):
        fld = zv.solve_u(ref, lambda t, y, norms: np.zeros_like(np.asarray(y, dtype=float)),
                         50.0, 0.5, SMALL_GRID)
        tsys = zv.transform_coeffs(fld, dini_coeffs)
        xs = np.array([[0.7, -0.4], [1.2, 0.3]])
        drift, diffusion = conjugated_at(tsys, 0.2, xs)
        assert np.array_equal(drift, np.zeros_like(xs))
        assert np.array_equal(diffusion, dini_coeffs.diffusion_matrix(
            0.2, xs, np.linalg.norm(xs, axis=-1)))
        view = sim.SegmentView(np.stack([xs] * 9), 1.0 / 32.0, 0.25)
        assert np.array_equal(tsys.delay_drift_at(0.2, fld.grad_theta(0.2, xs), view),
                              dini_coeffs.delay_drift(0.2, view))
        assert tsys.bounds["K2"] == 0.0

    def test_control_gain_bound_equals_full_svd_max(self, monkeypatch, field, dini_coeffs,
                                                     transformed):
        monkeypatch.setattr(zv, "_max_spectral_norm", _full_svd_max)
        full = zv.transform_coeffs(field, dini_coeffs, delay=0.25, grid_step=1.0 / 128.0,
                                   seed=99)
        assert repr(transformed.bounds) == repr(full.bounds)

    def test_diffusion_modulus_holds_out(self, transformed):
        rng = np.random.default_rng(4242)
        k2 = transformed.bounds["K2"]
        for t in np.linspace(0.0, 0.5, 5):
            xs = rng.uniform(-2.4, 2.4, size=(200, 2))
            ys = rng.uniform(-2.4, 2.4, size=(200, 2))
            dq = np.linalg.svd(conjugated_at(transformed, t, xs)[1]
                               - conjugated_at(transformed, t, ys)[1], compute_uv=False)[..., 0]
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
            (bx, qx), (by, qy) = (conjugated_at(transformed, t, pts) for pts in (xs, ys))
            quad = 2.0 * np.einsum("pi,pi->p", gaps, -lamvec * gaps + bx - by) \
                + np.sum((qx - qy)**2, axis=(-2, -1))
            d2 = np.sum(gaps**2, axis=-1)
            assert np.all(quad <= k4 * d2 + 0.1 * abs(k4) * d2 + 1e-9)

    def test_bounds_pinned(self, transformed):
        # K1..K4 of the conftest battery, bit for bit: a change to field
        # evaluation or theta inversion must not move them
        assert {k: repr(transformed.bounds[k]) for k in ("K1", "K2", "K3", "K4")} == {
            "K1": "0.18661670625805435", "K2": "0.03125545029646565",
            "K3": "1.008792059449004", "K4": "-1.5477460182369709"}

    @pytest.mark.parametrize("delay, step, seed, pinned", [
        (0.25, 1.0 / 128.0, 99, ("0.40011008239311874", "0.03125545029646565",
                                 "1.008792059449004", "-1.5477460182369709")),
        # a grid step that is not a binary fraction: lag times carry rounding
        (0.3, 0.1, 7, ("0.4002175331411", "0.03126497991670568",
                       "1.008961562066308", "-1.4254486985361408"))])
    def test_bounds_pinned_shift(self, field, dini_coeffs, delay, step, seed, pinned):
        # B reads xi(-r), row 0 of the preimage window
        coeffs = replace(dini_coeffs, delay_drift=sim.delay_shift_drift(0.4, delay))
        tsys = zv.transform_coeffs(field, coeffs, delay=delay, grid_step=step, seed=seed)
        assert tuple(repr(tsys.bounds[k]) for k in ("K1", "K2", "K3", "K4")) == pinned

    @pytest.mark.parametrize("noise", [
        {"diffusion": sim.state_diagonal_diffusion(np.ones(2))},
        {"diag_noise": 2.0 * np.ones(2)}])
    def test_noise_other_than_the_reference_rejected(self, field, dini_coeffs, noise):
        # theta conjugates the field's reference noise alone: with state-dependent
        # noise the conjugated drift would omit the Ito remainder
        coeffs = sim.make_coefficients(2, drift=dini_coeffs.drift, **noise)
        with pytest.raises(InputError, match="reference noise"):
            zv.transform_coeffs(field, coeffs)

    def test_one_inversion_per_battery(self, field, dini_coeffs, monkeypatch):
        real = zv.RegularizingField.invert_theta
        rows = []

        def counted(self, t, y):
            rows.append(np.size(t))
            return real(self, t, y)

        monkeypatch.setattr(zv.RegularizingField, "invert_theta", counted)
        zv.transform_coeffs(field, dini_coeffs, delay=0.25, grid_step=1.0 / 32.0)
        # two battery rows at each of the nine K2-K4 times, then the K1 battery:
        # 32 pairs of 9-row windows and their 64 heads in one call
        assert rows == [2] * 9 + [32 * 2 * 9 + 64]

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
    def test_coincident_points_give_zero(self, field):
        x = np.array([0.4, -0.2])
        dg = field.grad_at(0.3, x) - field.grad_at(0.3, x)
        assert np.all(dg == 0.0)


class TestPersistence:
    def test_save_load_roundtrip(self, field, tmp_path):
        base = str(tmp_path / "field")
        field.save(base)
        loaded = zv.RegularizingField.load(base)
        x = np.array([[0.4, -0.7]])
        assert np.array_equal(field.u_at(0.2, x), loaded.u_at(0.2, x))
        assert loaded.norms == pytest.approx(field.norms)
        assert loaded.certified == field.certified

    def test_built_and_loaded_tables_are_read_only(self, field, tmp_path):
        # a write in place would leave the cached splines describing old tables
        base = str(tmp_path / "field")
        field.save(base)
        loaded = zv.RegularizingField.load(base)
        for fld in (field, loaded):
            for table in (fld.u, fld.grad, fld.hess):
                with pytest.raises(ValueError):
                    table[0] = 0.0

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

