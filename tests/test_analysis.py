import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fspdelab import analysis as an
from fspdelab.errors import InputError
from fspdelab.quadrature import halfline_windowed, CONVERGED, DIVERGENT, INDETERMINATE


class TestDiniCheck:
    def test_sqrt_modulus_integral_is_two(self):
        report = an.dini_check(an.sqrt_modulus())
        assert report.passed
        assert report.integral_value == pytest.approx(2.0, abs=1e-9)

    def test_log_family_passes(self):
        report = an.dini_check(an.log_dini_modulus(scale=1.0, delta=1.0))
        assert report.passed
        assert report.diagnostics["square_concave"]
        assert report.diagnostics["monotone"]

    def test_inverse_log_diverges(self):
        report = an.dini_check(an.divergent_log_modulus())
        assert report.verdict == an.FAIL
        assert math.isinf(report.integral_value)

    def test_inverse_log_partial_sums_grow_like_log(self):
        # oracle: s(N) = integral of phi(s)/s over [exp(-N), 1] grows ~ log N
        phi = an.divergent_log_modulus()

        def partial(n):
            u = np.linspace(0.0, n, 20001)
            return np.trapezoid(phi(np.exp(-u)), u)

        s = {n: partial(n) for n in (10, 100, 1000)}
        assert s[100] > s[10] + 1.0
        assert s[1000] > s[100] + 1.5  # each decade contributes ~ log(10)

    def test_rescaling_keeps_verdict_and_scales_integral(self):
        base = an.dini_check(an.log_dini_modulus())
        scaled = an.dini_check(an.log_dini_modulus(scale=7.0))
        assert scaled.verdict == base.verdict == an.PASS
        assert scaled.integral_value == pytest.approx(7.0 * base.integral_value, rel=1e-9)
        divergent = an.ModulusFunction(lambda s: 5.0 * an.divergent_log_modulus()(s))
        assert an.dini_check(divergent).verdict == an.FAIL

    def test_non_evaluable_modulus_raises(self):
        def bad(s):
            if np.any(s < 0.5):
                raise ValueError("undefined")
            return np.sqrt(s)

        with pytest.raises(InputError):
            an.dini_check(an.ModulusFunction(bad))

    def test_indeterminate_distinct_from_fail(self):
        # window contributions follow ratios 0.95, 0.95, 0.95, 0.5 repeating:
        # the decay rule never sees five slow windows in a row, and the
        # contributions stay far above the truncation tolerance, so the
        # classifier must refuse both verdicts
        ratios = [0.95, 0.95, 0.95, 0.5]
        levels = np.cumprod([1.0] + [ratios[k % 4] for k in range(70)])

        def integrand(u):
            u = np.asarray(u, dtype=float)
            k = np.where(u < 1.0, 0, np.floor(np.log2(np.maximum(u, 1.0))).astype(int) + 1)
            width = np.where(k == 0, 1.0, 2.0 ** (k - 1))
            return levels[k] / width

        value, status, _ = halfline_windowed(integrand)
        assert status == INDETERMINATE

    def test_oscillating_partial_sums_are_indeterminate(self):
        # sign-flipping contributions make the partial sums oscillate; the
        # verdict must be indeterminate, not a divergence failure
        def phi(s):
            s = np.asarray(s, dtype=float)
            with np.errstate(divide="ignore"):
                u = np.where(s > 0.0, -np.log(np.maximum(s, 1e-300)), 0.0)
            return np.sin(2.0 * math.pi * u / math.log(2.0) / 2.0)

        report = an.dini_check(an.ModulusFunction(phi))
        assert report.verdict == an.INDETERMINATE


def _two_where_log_dini(s, scale, delta):
    """phi(s) = scale / log(e^2 + 1/s)**(1+delta) and 0 for s <= 0, by two np.where."""
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        inv = np.where(s > 0.0, 1.0 / np.maximum(s, 1e-300), np.inf)
        out = scale / np.log(math.e**2 + inv) ** (1.0 + delta)
    return np.where(s > 0.0, out, 0.0)


class TestLogDiniModulus:
    @given(s=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=5),
                        elements=st.one_of(st.floats(1e-20, 1e3), st.floats(0.0, 1e-300),
                                           st.floats(allow_nan=True, allow_infinity=True),
                                           st.sampled_from([0.0, -0.0, math.nan, math.inf]))),
           scale=st.floats(0.1, 10.0), delta=st.sampled_from([0.5, 1.0, 200.0]))
    @example(s=np.array([1.7e-15, 1e-300, 0.5]), scale=1.0, delta=200.0)
    @example(s=np.array(0.25), scale=1.0, delta=1.0)
    @example(s=np.array(0.0), scale=1.0, delta=1.0)
    def test_equals_two_where_formula_bytes(self, s, scale, delta):
        # delta = 200 overflows the power and leaves subnormal quotients: the
        # modulus masks those flags even when the caller raises on every one
        with np.errstate(all="raise"):
            got = an.log_dini_modulus(scale, delta)(s)
        want = _two_where_log_dini(s, scale, delta)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestWeightClasses:
    def test_power_weight_envelope_integral(self, spec2):
        spec = an.Spectrum(16)
        report = an.weight_class_check(an.power_weight(1.0), spec, as_class=an.CLASS_A)
        assert report.passed
        bound = (1.0 - math.exp(-spec.eigenvalues[0])) / spec.eigenvalues[0]
        assert report.integral_value <= bound + 1e-6

    def test_log_weight_in_monotone_class(self):
        spec = an.Spectrum(16)
        report = an.weight_class_check(an.log_weight(1.0), spec)
        assert report.passed
        assert report.diagnostics["a_monotone"]
        assert report.diagnostics["x_over_a_monotone"]

    def test_oscillating_weight_by_domination(self):
        spec = an.Spectrum(16)
        report = an.weight_class_check(an.oscillating_power_weight(0.5), spec)
        assert report.passed
        assert report.diagnostics["dominating"] == "x^0.5"

    def test_monotone_subclass_contained_in_envelope_class(self):
        spec = an.Spectrum(16)
        library = an.builtin_weight_library()
        assert len(library) >= 5
        for w in library:
            prime = an.weight_class_check(w, spec, as_class=an.CLASS_A_PRIME)
            full = an.weight_class_check(w, spec, as_class=an.CLASS_A)
            assert prime.passed, w.name
            assert full.passed, w.name

    def test_borderline_log_weight_fails_the_reciprocal_integral(self):
        # a(x) = log(c+x) makes 1/(s a(s)) integrate like 1/(s log s): divergent
        spec = an.Spectrum(16)
        borderline = an.WeightFunction(lambda x: np.log(math.e**2 + x),
                                       an.CLASS_A_PRIME, "log^1")
        report = an.weight_class_check(borderline, spec)
        assert report.verdict == an.FAIL
        assert math.isinf(report.integral_value)

    def test_ratio_monotonicity_violation_fails(self):
        spec = an.Spectrum(16)
        quadratic = an.WeightFunction(lambda x: x**2, an.CLASS_A_PRIME, "x^2")
        report = an.weight_class_check(quadratic, spec)
        assert report.verdict == an.FAIL
        assert not report.diagnostics["x_over_a_monotone"]


class TestTraceClass:
    def test_quadratic_growth_passes(self):
        spec = an.Spectrum(16, growth_power=2.0, trace_exponent=0.4)
        report = an.trace_class_check(spec)
        assert report.passed
        assert report.diagnostics["criterion_exponent"] == pytest.approx(1.2)
        # oracle: direct partial sums of i^{-1.2} bracketed by integral tails
        n = spec.n_modes
        partial = sum(i ** (-1.2) for i in range(1, n + 1))
        tail_hi = (n ** -0.2) / 0.2
        tail_lo = ((n + 1) ** -0.2) / 0.2
        assert partial + tail_lo <= report.integral_value <= partial + tail_hi + 1e-9
        assert report.diagnostics["partial_sum"] == pytest.approx(partial)

    def test_linear_growth_fails(self):
        spec = an.Spectrum(16, growth_power=1.0, trace_exponent=0.5)
        assert an.trace_class_check(spec).verdict == an.FAIL

    def test_singular_kernel_integral_below_closed_form_bound(self):
        spec = an.Spectrum(16, growth_power=2.0, trace_exponent=0.4)
        report = an.trace_class_check(spec)
        assert np.isfinite(report.diagnostics["hs_integral"])
        assert report.diagnostics["hs_integral"] <= report.diagnostics["hs_integral_bound"]


class TestSemigroup:
    def test_identity_at_time_zero(self, spec2):
        x = np.array([1.0, -2.0])
        assert np.array_equal(an.semigroup_apply(spec2, 0.0, x), x)

    def test_single_mode_decay(self, spec2):
        lam1 = spec2.eigenvalues[0]
        out = an.semigroup_apply(spec2, 1.0 / lam1, np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(math.exp(-1.0))
        assert out[1] == 0.0

    def test_contraction_bound(self, spec2):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=2)
            t = rng.uniform(0.0, 3.0)
            out = an.semigroup_apply(spec2, t, x)
            assert np.linalg.norm(out) <= math.exp(-spec2.eigenvalues[0] * t) \
                * np.linalg.norm(x) + 1e-12

    def test_composition_law_machine_precision(self, spec2):
        x = np.array([0.7, -1.3])
        lhs = an.semigroup_apply(spec2, 0.3, an.semigroup_apply(spec2, 0.9, x))
        rhs = an.semigroup_apply(spec2, 1.2, x)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0.0)

    def test_negative_time_rejected(self, spec2):
        with pytest.raises(InputError):
            an.semigroup_apply(spec2, -0.1, np.zeros(2))


class TestInvariants:
    def test_spectrum_rejects_non_monotone(self):
        # the law must give 0 < lambda_1 <= lambda_2 <= ...
        with pytest.raises(InputError, match="growth_power"):
            an.Spectrum(2, growth_power=-1.0)  # decreasing
        with pytest.raises(InputError, match="growth_coeff"):
            an.Spectrum(2, growth_coeff=-1.0)  # negative
        with pytest.raises(InputError, match="growth_coeff"):
            an.Spectrum(2, growth_coeff=0.0)
        with pytest.raises(InputError, match="mode"):
            an.Spectrum(0)
        with pytest.raises(InputError, match="trace_exponent"):
            an.Spectrum(2, trace_exponent=1.5)
        flat = an.Spectrum(3, growth_coeff=2.5, growth_power=0.0)
        assert np.array_equal(flat.eigenvalues, [2.5, 2.5, 2.5])

    def test_spectrum_eigenvalues_read_only(self):
        spec = an.Spectrum(3)
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 50.0
        assert spec.eigenvalues[0] == 1.0

    def test_flat_spectrum_weight_check_reports(self):
        # a flat law has no virtual modes above the stored ones
        report = an.weight_class_check(an.power_weight(1.0), an.Spectrum(3, 2.5, 0.0),
                                       as_class=an.CLASS_A)
        assert report.passed
        assert np.isfinite(report.integral_value)

    def test_passing_report_requires_finite_integral(self):
        with pytest.raises(InputError):
            an.ClassReport(verdict=an.PASS, integral_value=math.inf)

    def test_windowed_rule_statuses(self):
        value, status, _ = halfline_windowed(lambda u: np.exp(-u))
        assert status == CONVERGED and value == pytest.approx(1.0, rel=1e-10)
        _, status, _ = halfline_windowed(lambda u: 1.0 / (1.0 + u))
        assert status == DIVERGENT
