import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import _oracles as orc
from _strategies import magnitudes, signed
from catslab import weierstrass as wz
from catslab.errors import DataInvalidError, ResolutionError
from catslab.geometry import Slab

TWO_PI = 2.0 * math.pi
E = math.e


def draw_admissible_laurent(rng, min_modulus_rel=0.02):
    """Rejection-sample a zero-constant-term Laurent polynomial staying safely
    away from zero on a random circle; returns (None, None) on rejection."""
    powers = [p for p in range(-4, 5) if p != 0]
    coeffs = {p: complex(rng.standard_normal(), rng.standard_normal()) for p in powers}
    rho = float(rng.uniform(0.5, 2.0))
    theta = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    z = rho * np.exp(1j * theta)
    values = sum(c * z**p for p, c in coeffs.items())
    if np.abs(values).min() < min_modulus_rel * np.abs(values).max():
        return None, None
    return coeffs, rho


@pytest.fixture(scope="module")
def cat_data():
    return wz.catenoid_data(1.0, 1 / E, E)


@pytest.fixture(scope="module")
def cat_annulus(cat_data):
    return wz.immerse(cat_data, (64, 256))


class TestValidation:
    def test_catenoid_passes(self, cat_data):
        val = wz.validate(cat_data)
        assert val.f3 == pytest.approx(TWO_PI, rel=1e-12)
        assert val.mu == pytest.approx(1.0, rel=1e-12)
        assert val.winding == 1

    def test_imaginary_residue_rejected(self):
        data = wz.WeierstrassData({1: 1.0}, {-1: 1.0 + 0.1j}, 1 / E, E)
        for _ in range(2):  # a failure is not remembered as a pass
            with pytest.raises(DataInvalidError):
                wz.validate(data)

    def test_result_kept_on_the_data(self, rng):
        data = wz.random_annulus_data(rng)
        first = wz.validate(data)
        assert wz.validate(data) is first
        assert not first.flux_vector.flags.writeable
        assert wz.validate(data.scaled(2.0)).f3 == pytest.approx(2 * first.f3, rel=1e-12)

    def test_planar_rejected(self):
        # no residue means no vertical flux; such data cannot span
        data = wz.WeierstrassData({1: 1.0}, {0: 0.3}, 1 / E, E)
        with pytest.raises(DataInvalidError):
            wz.validate(data)

    def test_zero_of_g_rejected(self):
        data = wz.WeierstrassData({0: -1.0, 1: 1.0}, {-1: 1.0}, 1 / E, E)
        with pytest.raises(DataInvalidError):
            wz.validate(data)

    def test_unbalanced_periods_rejected(self):
        data = wz.WeierstrassData({1: 1.0}, {-1: 1.0, -2: 0.3}, 1 / E, E)
        with pytest.raises(DataInvalidError):
            wz.validate(data)

    def test_bad_radii(self):
        with pytest.raises(DataInvalidError):
            wz.WeierstrassData({1: 1.0}, {-1: 1.0}, 2.0, 1.0)

    @pytest.mark.parametrize(
        "r_inner, r_outer", [(0.5, math.inf), (math.nan, 2.0), (0.5, math.nan)]
    )
    def test_non_finite_radii_rejected(self, r_inner, r_outer):
        with pytest.raises(DataInvalidError):
            wz.WeierstrassData({1: 1.0}, {-1: 1.0}, r_inner, r_outer)

    @pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.inf)])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(DataInvalidError):
            wz.WeierstrassData({1: 1.0}, {-1: 1.0, 1: bad}, 1 / E, E)
        with pytest.raises(DataInvalidError):
            wz.WeierstrassData({1: bad}, {-1: 1.0}, 1 / E, E)

    @pytest.mark.parametrize(
        "name, row, message",
        [
            ("g", [1.5, 0.01, 0.0], "non-integer power"),
            ("h", [1, math.nan, 0.0], "non-finite coefficient"),
            ("h", [-1.0, 2.0, 0.0], "repeated power"),
            ("g", [10**400, 0.01, 0.0], r"2\*\*53 or more"),
        ],
    )
    def test_bad_document_row_rejected(self, cat_data, name, row, message):
        doc = json.loads(wz.to_json(cat_data))
        doc[name].append(row)
        with pytest.raises(DataInvalidError, match=message):
            wz.from_json(json.dumps(doc))


def _laurent_tables():
    """1 to 3 terms of powers -3..3, each with a log-uniform real part and an
    imaginary part that is zero or log-uniform."""
    term = st.tuples(st.integers(-3, 3), signed(), st.just(0.0) | signed())
    return st.lists(term, min_size=1, max_size=3, unique_by=lambda t: t[0]).map(
        lambda terms: [list(t) for t in terms]
    )


@given(g=_laurent_tables(), h=_laurent_tables(), r_inner=magnitudes(), ratio=magnitudes())
@example(g=[[1, 1.0, 0.0]], h=[[-1, 1.0, 0.0]], r_inner=1 / E, ratio=E * E - 1.0)  # a catenoid
def test_any_document_validates_or_refuses(g, h, r_inner, ratio):
    # a validation with finite fields, or DataInvalidError (a ValueError);
    # never NaN, another exception or a warning
    doc = {"version": 1, "g": g, "h": h, "r_inner": r_inner, "r_outer": r_inner * (1.0 + ratio)}
    try:
        val = wz.validate(wz.from_document(doc))
    except ValueError:
        return
    fields = [val.f3, val.mu, val.min_modulus_g, *val.period_residuals.values()]
    assert np.isfinite(fields).all() and np.isfinite(val.flux_vector).all()
    assert val.f3 > 0.0 and val.min_modulus_g >= 1e-6


class TestFlux:
    def test_catenoid_flux(self, cat_data):
        vec = orc.flux(cat_data)
        assert vec[2] == pytest.approx(TWO_PI, rel=1e-12)
        assert np.abs(vec[:2]).max() <= 1e-10

    def test_homothety(self, cat_data, rng):
        data = wz.random_annulus_data(rng)
        for c in (0.5, 2.0):
            assert orc.flux(data.scaled(c))[2] == pytest.approx(
                c * orc.flux(data)[2], rel=1e-12
            )

    def test_homology_invariance(self, rng):
        data = wz.random_annulus_data(rng)
        values = [
            orc.flux(data, radius=r)
            for r in (data.r_inner * 1.0001, 1.0, data.r_outer * 0.9999)
        ]
        for vec in values[1:]:
            assert np.abs(vec - values[0]).max() <= 1e-9

    def test_horizontal_components_small(self, rng):
        for _ in range(5):
            data = wz.random_annulus_data(rng)
            vec = orc.flux(data)
            assert np.abs(vec[:2]).max() <= 1e-10
            # the library's flux vector is the one validate reports
            assert np.abs(wz.validate(data).flux_vector - vec).max() <= 1e-12 * vec[2]

    def test_required_rotation(self, cat_data):
        axis, angle = orc.required_rotation(cat_data)
        assert angle == 0.0
        tilted = wz.WeierstrassData({1: 1.0}, {-1: 1.0, -2: 0.3}, 1 / E, E)
        axis, angle = orc.required_rotation(tilted)
        assert angle > 1e-3
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)


class TestImmersion:
    def test_catenoid_lands_on_surface(self, cat_annulus):
        pts = cat_annulus.grid.reshape(-1, 3)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.abs(r - np.cosh(pts[:, 2])).max() <= 1e-7

    def test_neck_circle(self, cat_data):
        ann = wz.immerse(cat_data, (65, 128))  # odd M puts a level at |z| = 1
        mid = ann.grid[32]
        assert np.abs(np.hypot(mid[:, 0], mid[:, 1]) - 1.0).max() <= 1e-9
        assert np.abs(mid[:, 2]).max() <= 1e-9

    def test_perturbed_data_closes(self):
        data = wz.adjust_height_for_periods({1: 1.0, 2: 0.05}, {}, 1.0, 1 / E, E)
        ann = wz.immerse(data, (48, 256))
        assert ann.grid.shape == (48, 256, 3)

    def test_conformality(self, cat_data, rng):
        for data in (cat_data, wz.random_annulus_data(rng)):
            ann = wz.immerse(data, (32, 128))
            z = np.exp(ann.log_radii[:, None] + 1j * ann.thetas[None, :])
            gv, hv = (orc.laurent_direct(c, z) for c in (data.g_coeffs, data.h_coeffs))
            W = wz._phi(gv, hv)
            f_t = (W * z[..., None]).real
            f_th = (W * (1j * z)[..., None]).real
            dot = np.abs((f_t * f_th).sum(axis=-1))
            n_t = np.linalg.norm(f_t, axis=-1)
            n_th = np.linalg.norm(f_th, axis=-1)
            scale = (n_t * n_th).max()
            assert dot.max() <= 1e-7 * scale
            assert np.abs(n_t - n_th).max() <= 1e-7 * n_t.max()

    def test_harmonicity(self, cat_data):
        ann = wz.immerse(cat_data, (128, 512))
        F = ann.grid
        dt = ann.log_radii[1] - ann.log_radii[0]
        dth = ann.thetas[1] - ann.thetas[0]
        lap = (F[2:, 1:-1] - 2 * F[1:-1, 1:-1] + F[:-2, 1:-1]) / dt**2 + (
            F[1:-1, 2:] - 2 * F[1:-1, 1:-1] + F[1:-1, :-2]
        ) / dth**2
        size = float(np.ptp(F.reshape(-1, 3), axis=0).max())
        assert np.abs(lap).max() <= 1e-5 * size**2

    def test_modulus_identity(self, cat_annulus, rng):
        assert orc.measured_modulus(cat_annulus) == pytest.approx(
            cat_annulus.flux_vertical / TWO_PI, rel=1e-8
        )
        data = wz.random_annulus_data(rng)
        ann = wz.immerse(data, (48, 256))
        assert orc.measured_modulus(ann) == pytest.approx(
            ann.flux_vertical / TWO_PI, rel=1e-8
        )

    def test_metric_positive_and_normals_unit(self, cat_annulus):
        assert cat_annulus.metric_factor.min() > 0.0
        norms = np.linalg.norm(cat_annulus.normal, axis=-1)
        assert np.abs(norms - 1.0).max() <= 1e-10

    def test_invalid_data_refused(self):
        data = wz.WeierstrassData({1: 1.0}, {-1: 1.0, -2: 0.3}, 1 / E, E)
        with pytest.raises(DataInvalidError):
            wz.immerse(data)

    def test_bad_grid_spec(self, cat_data):
        with pytest.raises(ValueError):
            wz.immerse(cat_data, (2, 128))
        with pytest.raises(ValueError):
            wz.immerse(cat_data, (16, 127))


class TestLevelProfile:
    def test_catenoid_closed_form(self, cat_data):
        prof = wz.level_profile(cat_data, 33, n_theta=512)
        expected = TWO_PI * np.cosh(prof.log_radii)
        assert np.abs(prof.lengths - expected).max() <= 1e-10
        assert np.abs(prof.heights - prof.log_radii).max() <= 1e-12

    def test_lengths_bound_flux(self, rng):
        for _ in range(5):
            prof = wz.level_profile(wz.random_annulus_data(rng), 21)
            assert prof.lengths.min() >= prof.flux_vertical

    def test_rotation_about_axis_invariance(self, rng):
        data = wz.random_annulus_data(rng)
        alpha = 0.83
        rotated = wz.WeierstrassData(
            {p: c * complex(math.cos(alpha), math.sin(alpha)) for p, c in data.g_coeffs.items()},
            data.h_coeffs,
            data.r_inner,
            data.r_outer,
        )
        a = wz.level_profile(data, 17)
        b = wz.level_profile(rotated, 17)
        assert np.abs(a.lengths - b.lengths).max() <= 1e-10 * a.lengths.max()

    def test_near_zero_levels_skipped(self):
        # h = 1/z + z/r^2 vanishes at z = +-i r, on the circle of level 15 of 21
        r = math.exp(np.linspace(math.log(0.5), math.log(2.0), 21)[15])
        data = wz.WeierstrassData({1: 1.0}, {-1: 1.0, 1: 1.0 / r**2}, 0.5, 2.0)
        wz.validate(data)
        prof = wz.level_profile(data, 21)
        assert prof.skipped == [15]
        assert prof.lengths.size + len(prof.skipped) == 21
        # the profile stays convex across the gap, and L'' >= L on every kept level
        assert wz.convexity_check(prof).min_slack >= 0.0

    def test_resolution_error(self):
        data = wz.WeierstrassData({1: 1.0, 5: 0.3}, {-1: 1.0}, 0.8, 1.25)
        with pytest.raises(ResolutionError):
            wz.level_profile(data, 9, n_theta=8)


class TestConvexity:
    def test_catenoid_equality(self, cat_data):
        prof = wz.level_profile(cat_data, 33)
        report = wz.convexity_check(prof)
        assert report.equality_flag
        assert abs(report.min_slack) <= 1e-6
        assert abs(report.max_abs_slack) <= 1e-6 * prof.lengths.max()

    def test_randomized_nonnegative(self, rng):
        for _ in range(20):
            prof = wz.level_profile(wz.random_annulus_data(rng), 21)
            report = wz.convexity_check(prof)
            assert report.min_slack >= -1e-7

    def test_homothety_scales_slack_linearly(self, rng):
        data = wz.random_annulus_data(rng)
        base = wz.convexity_check(wz.level_profile(data, 17))
        for c in (0.5, 3.0):
            scaled = wz.convexity_check(wz.level_profile(data.scaled(c), 17))
            assert scaled.min_slack == pytest.approx(c * base.min_slack, rel=1e-6)
            assert scaled.equality_flag == base.equality_flag

    def test_geometric_gauge_consistency(self, rng):
        prof = wz.level_profile(wz.random_annulus_data(rng), 17)
        report = wz.convexity_check(prof)
        assert report.min_slack_geometric == pytest.approx(
            report.min_slack / prof.mu**2, rel=1e-12
        )


class TestCircleMeanInequality:
    def test_equality_cases(self):
        for coeffs in ({1: 2.3 + 0.7j}, {-1: -1.1 + 0.4j}):
            for rho in (0.6, 1.0, 1.9):
                report = wz.cpx_inequality_check(coeffs, rho)
                assert abs(report.slack) <= 1e-12 * max(report.lhs, 1.0)

    def test_square_power(self):
        report = wz.cpx_inequality_check({2: 1.0}, 1.0)
        assert report.lhs == pytest.approx(8 * math.pi, rel=1e-12)
        assert report.rhs == pytest.approx(2 * math.pi, rel=1e-12)

    def test_randomized_nonnegative_vs_doubled_oracle(self, rng):
        accepted = 0
        while accepted < 60:
            coeffs, rho = draw_admissible_laurent(rng)
            if coeffs is None:
                continue
            report = wz.cpx_inequality_check(coeffs, rho)
            accepted += 1
            assert report.slack >= -1e-9
            # both sides on twice the angles, with directly evaluated F and z F'
            z = rho * np.exp(1j * np.linspace(0.0, TWO_PI, 4096, endpoint=False))
            F = orc.laurent_direct(coeffs, z)
            zFp = orc.laurent_direct({p: p * c for p, c in coeffs.items()}, z)
            assert report.lhs == pytest.approx(TWO_PI * np.mean(np.abs(zFp) ** 2 / np.abs(F)),
                                               rel=1e-9)
            assert report.rhs == pytest.approx(TWO_PI * np.mean(np.abs(F)), rel=1e-9)

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            wz.cpx_inequality_check({0: 1.0, 1: 1.0}, 1.0)

    def test_zero_on_circle_rejected(self):
        with pytest.raises(ValueError):
            wz.cpx_inequality_check({1: 1.0, -1: -1.0}, 1.0)  # zeros at +-1


class TestDecomposition:
    def test_catenoid_identity_and_beta(self, cat_data):
        ann = wz.immerse(cat_data, (64, 256))
        for idx in (16, 32, 49):
            report = wz.second_derivative_decomposition(ann, idx)
            assert report.beta_term <= 1e-10
            assert report.fd_value == pytest.approx(report.formula_value, rel=1e-5)
            # saturation: formula equals the convexity bound plus the beta term
            L = TWO_PI * math.cosh(ann.log_radii[idx])
            bound = (TWO_PI / ann.flux_vertical) ** 2 * L + report.beta_term
            assert report.formula_value == pytest.approx(bound, rel=1e-9)

    def test_randomized_identity(self, rng):
        for _ in range(4):
            data = wz.vertical_annulus_data(rng)
            ann = wz.immerse(data, (64, 512))
            report = wz.second_derivative_decomposition(ann, 32)
            assert report.fd_value == pytest.approx(report.formula_value, rel=1e-4)
            assert report.beta_term >= 0.0

    def test_requires_vertical_gauge(self, rng):
        data = wz.random_annulus_data(rng)  # general gauge
        if wz.is_vertical_gauge(data):
            pytest.skip("draw happened to be vertical")
        ann = wz.immerse(data, (32, 128))
        with pytest.raises(ValueError):
            wz.second_derivative_decomposition(ann, 16)

    def test_edge_levels_accepted(self, rng):
        # the exact L'' needs no neighbouring levels, so the edges work too
        for data in (wz.catenoid_data(1.0, 1 / E, E), wz.vertical_annulus_data(rng)):
            ann = wz.immerse(data, (64, 256))
            for idx in (0, 63):
                report = wz.second_derivative_decomposition(ann, idx)
                assert report.fd_value == pytest.approx(report.formula_value, rel=1e-12)

    @pytest.mark.parametrize("index", [64, -1])
    def test_level_index_out_of_range(self, cat_annulus, index):
        with pytest.raises(ValueError):
            wz.second_derivative_decomposition(cat_annulus, index)


class TestAreaComparison:
    def test_catenoid_equality(self, cat_data):
        report = wz.area_comparison(cat_data, Slab(-0.8, 0.8))
        assert abs(report.gap) <= 1e-7 * report.area_sigma
        assert abs(report.neck_height) <= 1e-6
        assert report.level_gap_min >= -1e-9 * report.area_sigma

    def test_randomized_bound(self, rng):
        for _ in range(10):
            data = wz.vertical_annulus_data(rng)
            report = wz.area_comparison(data, Slab(-0.8, 0.8))
            assert report.gap >= -1e-6 * report.area_sigma
            assert report.level_gap_min >= -1e-9 * report.area_sigma

    def test_level_comparison_everywhere(self, rng):
        # directly evaluated lengths on 129 levels against the reported catenoid
        data = wz.vertical_annulus_data(rng)
        report = wz.area_comparison(data, Slab(-0.9, 0.9))
        mu = wz.validate(data).mu
        ts = np.linspace(-0.9 / mu, 0.9 / mu, 129)
        gap = orc.circle_lengths_direct(data, ts) - TWO_PI * mu * np.cosh(
            ts - report.neck_height / mu
        )
        assert report.level_gap_min >= -1e-9 * report.area_sigma
        assert gap.min() >= -1e-9 * report.area_sigma

    def test_cauchy_schwarz_per_level(self, rng):
        # d(area)/dh at each level dominates length^2 / flux
        data = wz.vertical_annulus_data(rng)
        mu = wz.validate(data).mu
        ts = np.linspace(-0.5, 0.5, 9)
        theta = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        z = np.exp(ts[:, None] + 1j * theta[None, :])
        gv = orc.laurent_direct(data.g_coeffs, z)
        hv = orc.laurent_direct(data.h_coeffs, z)
        lam = 0.5 * (np.abs(gv) + 1 / np.abs(gv)) * np.abs(hv) * np.abs(z)
        d_area_dh = (lam**2).mean(axis=1) * TWO_PI / mu
        lengths = lam.mean(axis=1) * TWO_PI
        f3 = TWO_PI * mu
        assert np.all(d_area_dh >= lengths**2 / f3 - 1e-10 * d_area_dh)

    def test_variance_of_grad_on_catenoid_levels(self, cat_data):
        ann = wz.immerse(cat_data, (32, 256))
        grad = ann.flux_vertical / TWO_PI / ann.metric_factor  # |grad x3| per node
        assert np.max(np.var(grad, axis=1)) <= 1e-10

    def test_slab_not_spanned(self, cat_data):
        with pytest.raises(ValueError):
            wz.area_comparison(cat_data, Slab(-2.0, 2.0))


class TestSerialization:
    def test_bit_exact_roundtrip(self, rng):
        for _ in range(5):
            data = wz.random_annulus_data(rng)
            back = wz.from_json(wz.to_json(data))
            assert back.g_coeffs == data.g_coeffs
            assert back.h_coeffs == data.h_coeffs
            assert back.r_inner == data.r_inner and back.r_outer == data.r_outer
            assert orc.flux(back)[2] == orc.flux(data)[2]

    def test_unknown_keys_rejected(self, cat_data):
        doc = json.loads(wz.to_json(cat_data))
        doc["extra"] = 1
        with pytest.raises(DataInvalidError):
            wz.from_json(json.dumps(doc))

    def test_version_checked(self, cat_data):
        doc = json.loads(wz.to_json(cat_data))
        doc["version"] = 99
        with pytest.raises(DataInvalidError):
            wz.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, value, message",
        [("version", True, "numbers only"), ("g", [[True, 1.0, 0.0]], "numbers only"),
         ("r_inner", "0.5", "numbers only"), ("r_outer", None, "numbers only"),
         ("r_inner", 10**400, "too large"), ("g", [[1, 10**400, 0.0]], "too large")],
    )
    def test_non_numeric_values_rejected(self, cat_data, key, value, message):
        # True was read as 1 and "0.5" as 0.5; the huge integers raised OverflowError
        doc = json.loads(wz.to_json(cat_data))
        doc[key] = value
        with pytest.raises(DataInvalidError, match=message):
            wz.from_json(json.dumps(doc))


class TestGenerators:
    def test_random_data_is_valid(self, rng):
        for _ in range(10):
            wz.validate(wz.random_annulus_data(rng))

    def test_vertical_gauge_properties(self, rng):
        for _ in range(5):
            data = wz.vertical_annulus_data(rng)
            assert wz.is_vertical_gauge(data)
            val = wz.validate(data)
            assert max(val.period_residuals.values()) <= 1e-10 * val.f3


@pytest.fixture(scope="module")
def seeded_trials():
    rng = np.random.default_rng(2006)
    return [wz.random_annulus_data(rng) for _ in range(100)]


class TestSeparableEvaluation:
    def test_circle_tables_match_direct_powers(self, seeded_trials):
        ts = np.linspace(-1.0, 1.0, 9)
        theta = np.linspace(0.0, TWO_PI, 256, endpoint=False)
        z = np.exp(ts[:, None] + 1j * theta[None, :])
        for data in seeded_trials:
            tables = [data.g_coeffs, data.h_coeffs]
            tables += [wz._z_derivative(c) for c in tables]
            for coeffs, values in zip(tables, wz._on_circles(tables, ts, theta.size)):
                ref = orc.laurent_direct(coeffs, z)
                assert np.abs(values - ref).max() <= 1e-14 * np.abs(ref).max()


class TestExactLevelDerivatives:
    def test_second_derivative_matches_stencil(self, seeded_trials):
        for data in seeded_trials:
            prof = wz.level_profile(data, 17)
            # the stencil's 2e-3 half-width fits inside the annulus off the edges
            _, d2 = orc.level_length_stencil(data, prof.log_radii[1:-1])
            error = np.abs(prof.second_derivative[1:-1] - d2).max()
            assert error <= 1e-8 * prof.lengths.max()

    def test_first_derivative_matches_central_difference(self, seeded_trials):
        ts = np.linspace(-0.9, 0.9, 13)
        for data in seeded_trials:
            _, _, lengths, first, _ = wz._level_lengths(ts, *wz._level_values(data, ts, 512))
            d1, _ = orc.level_length_stencil(data, ts)
            assert np.abs(first - d1).max() <= 1e-9 * lengths.max()

    def test_strong_convexity_with_margin(self, seeded_trials):
        for data in seeded_trials:
            assert wz.convexity_check(wz.level_profile(data, 17)).min_slack > 0.0

    def test_edge_levels_have_second_derivative(self, cat_data):
        prof = wz.level_profile(cat_data, 9)
        assert np.isfinite(prof.second_derivative).all()
        # catenoid: L'' = L = 2 pi cosh t at every level
        assert np.abs(prof.second_derivative - prof.lengths).max() <= 1e-12 * prof.lengths.max()

    def test_neck_matches_minimization_oracle(self, cat_data, rng):
        cases = [(cat_data, Slab(h_minus, h_plus))
                 for h_minus, h_plus in ((-0.8, 0.8), (0.2, 0.8), (-0.8, -0.3))]
        cases += [(wz.vertical_annulus_data(rng), Slab(-0.8, 0.7)) for _ in range(8)]
        for data, slab in cases:
            mu = wz.validate(data).mu
            t0 = orc.neck_by_minimization(data, slab.h_minus / mu, slab.h_plus / mu)
            report = wz.area_comparison(data, slab)
            assert report.neck_height == pytest.approx(mu * t0, abs=1e-8)
