import numpy as np
import pytest
from scipy.integrate import quad

import cgolab as cg
from cgolab.errors import DomainError
from cgolab.grid import plane_wave
from cgolab.potential import _bump_spectrum, conductivity_from_array, mollify
from cgolab.spaces import smooth_bridge

from conftest import (
    BUMP_AMPLITUDE,
    BUMP_WIDTH,
    TWO_PI,
    _oracle_duality_form,
    _oracle_gradient,
    _oracle_laplacian,
    _oracle_lattice,
    _oracle_leibniz_form,
    full_spectrum,
    random_values,
    write_gamma_file,
)


def oracle_bump(grid, eps):
    """The unit-mass bump exp(1 - 1/(1 - r^2/eps^2)) on the whole grid, at
    minimum-image radii r from the origin, normalized on the grid."""
    delta = np.minimum(grid.x_axis, grid.L - grid.x_axis)
    rho_sq = sum(
        (delta ** 2).reshape([-1 if j == axis else 1 for j in range(grid.d)])
        for axis in range(grid.d)
    ) / eps ** 2
    vals = np.zeros(grid.shape)
    inside = rho_sq < 1.0
    vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho_sq[inside]))
    return vals / (vals.sum() * grid.measure)


class TestProfiles:
    def test_uniform_gives_zero_potential(self, uniform32):
        q = cg.potential_q(uniform32)
        assert np.max(np.abs(q.values)) < 1e-13

    def test_gaussian_metadata(self, bump32):
        # not premollified: the support radius is L/4 as declared
        assert bump32.support_radius == bump32.grid.L / 4
        assert bump32.gamma.values.min() >= 1.0

    def test_gaussian_tail_guard(self, grid32):
        with pytest.raises(DomainError):
            cg.make_conductivity(grid32, {"kind": "gaussian", "amplitude": 0.05, "width": 0.8})

    def test_nonsmooth_profiles_premollified(self, grid32):
        c1 = cg.make_conductivity(grid32, {"kind": "c1_cap", "amplitude": 0.4, "radius": 1.1})
        cone = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        for cond in (c1, cone):
            # premollified at width 2h, which widens the support by 2h
            assert cond.support_radius == pytest.approx(1.1 + 2 * grid32.h)
        # cone seminorm approaches the closed form a/R of the raw profile
        assert cone.lipschitz_seminorm == pytest.approx(0.5 / 1.1, rel=0.25)

    def test_positivity_guard(self, grid32):
        vals = np.ones(grid32.shape)
        vals[0, 0, 0] = -0.5
        with pytest.raises(DomainError):
            conductivity_from_array(grid32, vals, grid32.L / 4)

    @pytest.mark.parametrize("premollify", [False, True])
    def test_complex_gamma_rejected(self, grid32, premollify):
        # premollify must not drop the imaginary part before the check
        inside = grid32.radius_from_center < 1.0
        vals = np.where(inside, 1.2 + 0.5j, 1.0)
        with pytest.raises(DomainError, match="real"):
            conductivity_from_array(grid32, vals, 1.0, premollify=premollify)

    def test_rounding_level_imaginary_part_premollified(self, grid32):
        # the realness check allows 1e-13 relative; mollify gets the real part
        vals = np.where(grid32.radius_from_center < 1.0, 1.2, 1.0)
        cond = conductivity_from_array(grid32, vals + 1e-15j, 1.0, premollify=True)
        real = conductivity_from_array(grid32, vals, 1.0, premollify=True)
        np.testing.assert_array_equal(cond.gamma.values, real.gamma.values)

    @pytest.mark.parametrize("premollify", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["centre", "corner"])
    def test_non_finite_gamma_rejected_before_computing(self, grid32, premollify, bad, where, monkeypatch):
        # NaN compares false with every bound, so the positivity and support
        # tests alone let it through
        def forbidden(*args, **kwargs):
            raise AssertionError("mollified a non-finite gamma")

        monkeypatch.setattr(cg.potential, "mollify", forbidden)
        vals = np.where(grid32.radius_from_center < 1.0, 1.2, 1.0)
        vals[(grid32.n // 2,) * 3 if where == "centre" else (0, 0, 0)] = bad
        with pytest.raises(DomainError, match="1 non-finite"):
            conductivity_from_array(grid32, vals, 1.0, premollify=premollify)

    @pytest.mark.parametrize("premollify", [False, True])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_caller_array_stays_writable(self, grid32, premollify, dtype):
        # the conductivity holds its own copy; the caller's array is not made read-only
        vals = np.where(grid32.radius_from_center < 1.0, 1.2, 1.0).astype(dtype)
        cond = conductivity_from_array(grid32, vals, 1.0, premollify=premollify)
        assert vals.flags.writeable
        assert not np.shares_memory(vals, cond.gamma.values)
        assert cond.gamma.values.dtype == np.float64

    def test_support_guard(self, grid32):
        vals = 1.0 + 0.1 * np.ones(grid32.shape)  # deviates everywhere
        with pytest.raises(DomainError):
            conductivity_from_array(grid32, vals, grid32.L / 4)

    @pytest.mark.parametrize("profile", [
        {"kind": "gaussian", "amplitude": 0.05, "width": 0.3},
        {"kind": "c1_cap", "amplitude": 0.4, "radius": 1.1},
        {"kind": "cone", "amplitude": 0.5, "radius": 1.1},
    ], ids=lambda p: p["kind"])
    def test_center_rejected(self, grid32, profile):
        # every profile sits at the torus centre; a requested centre is not ignored
        with pytest.raises(DomainError, match="center"):
            cg.make_conductivity(grid32, {**profile, "center": [0.5, 0.5, 0.5]})

    def test_unknown_kind(self, grid32):
        with pytest.raises(DomainError):
            cg.make_conductivity(grid32, {"kind": "fractal", "amplitude": 1.0})


class TestPotential:
    def test_radial_symmetry_under_quarter_turns(self, bump32):
        q = cg.potential_q(bump32).values.real
        # x -> L - x per axis maps the grid to itself and fixes the centre
        for axis in range(3):
            rolled = np.flip(np.roll(q, -1, axis=axis), axis=axis)
            assert np.max(np.abs(rolled - q)) < 1e-10
        # swap two axes (rotation by pi/2 composed with reflection)
        assert np.max(np.abs(np.swapaxes(q, 0, 1) - q)) < 1e-10

    def test_finite_difference_oracle(self):
        # oracle: 2nd-order 7-point Laplacian of g divided by g
        grid = cg.FrequencyGrid(3, 48, TWO_PI)
        cond = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        g = cond.g.values.real
        lap_fd = np.zeros_like(g)
        for axis in range(3):
            lap_fd += (np.roll(g, 1, axis=axis) - 2 * g + np.roll(g, -1, axis=axis)) / grid.h ** 2
        q_fd = lap_fd / g
        q = cg.potential_q(cond).values.real
        rel = np.sqrt(np.sum((q - q_fd) ** 2) / np.sum(q ** 2))
        # second-order truncation at h/sigma ~ 0.44; the convergence-order
        # fit across resolutions lives in the acceptance suite
        assert rel < 0.12

    def test_scale_invariance(self, bump32):
        # q built from c * gamma equals q built from gamma, identically
        c = 2.7
        g_scaled = np.sqrt(c * bump32.gamma.values)
        q_scaled = _oracle_laplacian(g_scaled, bump32.grid.L) / g_scaled
        q = cg.potential_q(bump32).values.real
        assert np.max(np.abs(q_scaled - q)) < 1e-12 * max(1.0, np.max(np.abs(q)))

    def test_mean_identity_discrete_exact(self, bump32):
        # integral q dx = -sum grad(g).grad(1/g) h^d holds to rounding
        grid = bump32.grid
        lhs = float(np.sum(cg.potential_q(bump32).values) * grid.measure)
        g = bump32.g.values
        gg = [f.real for f in _oracle_gradient(g, grid.L)]
        gi = [f.real for f in _oracle_gradient(1.0 / g, grid.L)]
        rhs = -sum(np.sum(a * b) for a, b in zip(gg, gi)) * grid.measure
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs > 0

    @staticmethod
    def mean_identity(cond):
        """Both sides of  integral q dx = integral g^{-2} |grad g|^2 dx (>= 0),
        the right one in plain numpy from gamma."""
        grid = cond.grid
        lhs = float(np.sum(cond.q.values.real) * grid.measure)
        g = np.sqrt(cond.gamma.values.real)
        dens = sum(gj.real ** 2 for gj in _oracle_gradient(g, grid.L)) / g ** 2
        return lhs, float(np.sum(dens) * grid.measure)

    def test_mean_identity_pointwise_form(self, bump64):
        lhs, rhs = self.mean_identity(bump64)
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert lhs > 0

    def test_mean_identity_zero_iff_constant(self, uniform32):
        lhs, rhs = self.mean_identity(uniform32)
        assert abs(lhs) < 1e-13 and abs(rhs) < 1e-13


def mq_form(u, v, cond):
    """The m_q form of the lattice arrays u, v as the pairing reads it:
    sum q u v h^d."""
    return complex(np.sum(cond.q.values.real * (u * v)) * cond.grid.measure)


class TestMqBilinear:
    def test_uniform_gamma_vanishes(self, uniform32, grid32):
        u, v = random_values(grid32, 1), random_values(grid32, 2)
        assert mq_form(u, v, uniform32) == 0

    def test_bilinearity(self, bump32, grid32):
        u, v = random_values(grid32, 3), random_values(grid32, 4)
        alpha = 1.3 - 0.4j
        a = mq_form(u * alpha, v, bump32)
        b = mq_form(u, v, bump32) * alpha
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_direct_quadrature(self, bump32, grid32):
        # oracle: the duality form -sum grad g . grad(uv/g) h^d in plain numpy,
        # on the closed-form gaussian gamma
        u, v = random_values(grid32, 5), random_values(grid32, 6)
        deltas, _ = _oracle_lattice(32)
        gamma = 1.0 + BUMP_AMPLITUDE * np.exp(-sum(dl * dl for dl in deltas) / BUMP_WIDTH ** 2)
        direct = _oracle_duality_form(gamma, u * v, TWO_PI)
        assert mq_form(u, v, bump32) == pytest.approx(direct, rel=1e-8)

    def test_two_forms_agree_on_smooth_data(self, bump64):
        grid = bump64.grid
        u = plane_wave(grid, grid.lattice_frequency([1, 0, 0]))
        v = plane_wave(grid, grid.lattice_frequency([0, 2, 0]))
        split = _oracle_leibniz_form(bump64.gamma.values.real, u * v, grid.L)
        assert mq_form(u, v, bump64) == pytest.approx(split, rel=1e-9)

    def test_localization_invariance(self, bump64):
        # phi = 1 on supp q, so inserting the cutoff changes nothing
        grid = bump64.grid
        phi = cg.make_cutoff(bump64)
        u = plane_wave(grid, grid.lattice_frequency([1, 1, 0]))
        v = plane_wave(grid, grid.lattice_frequency([0, 0, 2]))
        plain = mq_form(u, v, bump64)
        localized = mq_form(phi.values * u, phi.values * v, bump64)
        assert localized == pytest.approx(plain, rel=1e-9)


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize(
    "profile",
    [
        {"kind": "gaussian", "amplitude": 0.05, "width": 0.3},
        # mollified at 2h, the support must stay within L/4 at n = 16
        {"kind": "cone", "amplitude": 0.5, "radius": 0.7},
    ],
    ids=["gaussian", "cone"],
)
class TestRealPath:
    """q, q_hat and mollify go through the real transforms on the half
    spectrum; the oracles are complex numpy transforms of the same real data."""

    @staticmethod
    def close(value, expected):
        assert np.max(np.abs(value - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_q_matches_complex_transforms(self, n, profile):
        cond = cg.make_conductivity(cg.FrequencyGrid(3, n, TWO_PI), profile)
        g = cond.g.values.real
        _, modes = _oracle_lattice(n)
        lap = -sum(np.where(m == -(n // 2), 0.0, m) ** 2 for m in modes)
        self.close(cond.q.values, np.fft.ifftn(lap * np.fft.fftn(g)).real / g)

    def test_q_hat_matches_complex_transform(self, n, profile):
        cond = cg.make_conductivity(cg.FrequencyGrid(3, n, TWO_PI), profile)
        q_hat = full_spectrum(cond.grid, cond.q_hat)
        self.close(q_hat, np.fft.fftn(cond.q.values.real, norm="ortho"))

    def test_q_hat_is_hermitian_bit_for_bit(self, n, profile):
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        q_hat = full_spectrum(grid, cg.make_conductivity(grid, profile).q_hat)
        neg = (-np.arange(n)) % n  # -m in FFT order; fixes 0 and the Nyquist n/2
        np.testing.assert_array_equal(q_hat[np.ix_(neg, neg, neg)], np.conj(q_hat))

    def test_real_mollify_matches_complex_transforms(self, n, profile):
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        f = cg.make_conductivity(grid, profile).gamma.values.real
        eps = 4 * grid.h
        bump = oracle_bump(grid, eps)
        out = mollify(cg.Field(grid, f), eps).values
        assert not out.imag.any()
        self.close(out, np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(bump)).real * grid.measure)


@pytest.mark.parametrize(
    "profile",
    [
        {"kind": "gaussian", "amplitude": 0.05, "width": 0.3},
        {"kind": "cone", "amplitude": 0.5, "radius": 1.1},
    ],
    ids=["gaussian", "cone"],
)
def test_real_data_is_float64_and_q_hat_complex(grid32, profile):
    cond = cg.make_conductivity(grid32, profile)
    real = {
        "gamma": cond.gamma, "g": cond.g, "log_g": cond.log_g, "q": cond.q,
        "potential_q": cg.potential_q(cond), "cutoff": cg.make_cutoff(cond),
        "mollify": mollify(cond.gamma, 4 * grid32.h),
    }
    assert {name: f.values.dtype for name, f in real.items()} == {name: np.float64 for name in real}
    assert cond.q_hat.dtype == np.complex128


class TestMollify:
    @staticmethod
    def real_field(grid, seed):
        return cg.Field(grid, np.random.default_rng(seed).standard_normal(grid.shape))

    def test_constant_unchanged(self, grid16):
        f = cg.Field(grid16, np.full(grid16.shape, 2.5))
        out = mollify(f, 4 * grid16.h)
        assert np.max(np.abs(out.values - 2.5)) < 1e-12

    def test_mass_preserved(self, grid32):
        f = self.real_field(grid32, 17)
        out = mollify(f, 4 * grid32.h)
        assert np.sum(out.values) * grid32.measure == pytest.approx(np.sum(f.values) * grid32.measure, rel=1e-12)

    def test_below_grid_scale_warns_noop(self, grid16):
        f = self.real_field(grid16, 18)
        with pytest.warns(UserWarning):
            out = mollify(f, 0.5 * grid16.h)
        assert out is f

    def test_complex_or_spectral_field_rejected(self, grid16):
        # conductivity_from_array rejects complex gamma before mollifying;
        # a spectrum is a complex array, so it is rejected as complex
        f = self.real_field(grid16, 19)
        for bad in (random_values(grid16, 19), np.fft.fftn(f.values, norm="ortho")):
            with pytest.raises(ValueError, match="real field"):
                mollify(cg.Field(grid16, bad), 4 * grid16.h)

    def test_flattening_monotone_in_width(self, grid32):
        r = grid32.radius_from_center
        f = cg.Field(grid32, np.exp(-((r / 0.5) ** 2)))
        mean = np.sum(f.values) * grid32.measure / grid32.L ** 3
        devs = []
        for eps in (2 * grid32.h, 4 * grid32.h, 8 * grid32.h):
            out = mollify(f, eps)
            devs.append(np.max(np.abs(out.values - mean)))
        assert devs[0] > devs[1] > devs[2]

    def test_gradient_bounds_on_lipschitz_data(self):
        # oracle: C = || grad phi ||_{L1} of the unit bump from radial
        # quadrature; the cone's exact gradient bound is a/R
        grid = cg.FrequencyGrid(3, 48, TWO_PI)
        a, radius = 0.5, 1.1
        r = grid.radius_from_center
        cone = cg.Field(grid, a * np.maximum(0.0, 1.0 - r / radius))
        grad_sup_exact = a / radius
        eps = 8 * grid.h

        smooth = mollify(cone, eps)
        grads = [g.real for g in _oracle_gradient(smooth.values, grid.L)]
        grad_sup = np.max(np.sqrt(sum(g * g for g in grads)))
        assert grad_sup <= grad_sup_exact * (1 + 1e-6)

        # C from the continuum unit bump: integral |phi'(r)| r^2 dr * 4pi
        # with phi(r) = c exp(1 - 1/(1 - r^2)) normalized to unit mass
        mass = 4 * np.pi * quad(lambda t: np.exp(1 - 1 / (1 - t * t)) * t * t, 0, 1)[0]

        def dphi(t):
            val = np.exp(1 - 1 / (1 - t * t))
            return abs(val * (-2 * t / (1 - t * t) ** 2))

        c_const = 4 * np.pi * quad(lambda t: dphi(t) * t * t, 0, 1, limit=200)[0] / mass
        hess_sup = 0.0
        for gi in grads:
            for gj in _oracle_gradient(gi, grid.L):
                hess_sup = max(hess_sup, np.max(np.abs(gj.real)))
        assert hess_sup <= (c_const / eps) * grad_sup_exact * 1.05

    @pytest.mark.parametrize("n", [32, 64])
    def test_cone_gamma_bit_identical_to_numpy_real_pair(self, n):
        # mollify keeps the unnormalised scaling of numpy's rfftn / irfftn
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        cone = cg.make_conductivity(grid, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        raw = 1.0 + 0.5 * np.maximum(0.0, 1.0 - grid.radius_from_center / 1.1)
        half = np.fft.rfftn(raw) * _bump_spectrum(grid, 2 * grid.h)
        expected = np.fft.irfftn(half, s=grid.shape, axes=(0, 1, 2)) * grid.measure
        np.testing.assert_array_equal(cone.gamma.values, expected)

    def test_bump_kernel_unit_mass(self, grid16):
        # the zero mode of the unnormalized DFT is the bump's sum
        spec = _bump_spectrum(grid16, 3 * grid16.h)
        assert spec[0, 0, 0] * grid16.measure == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("width", ["2h", "3h", "4h", "0.6L"])
    def test_bump_spectrum_matches_transforms(self, n, width):
        # 0.6 L reaches past half a period, so the box is clipped to one
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        eps = 0.6 * grid.L if width == "0.6L" else int(width[0]) * grid.h
        expected = np.fft.rfftn(oracle_bump(grid, eps))
        spec = _bump_spectrum(grid, eps)
        assert spec.shape == expected.shape
        assert np.max(np.abs(spec - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestCutoff:
    def test_q_capture(self):
        # support containment at the 1e-10 level needs the profile's
        # spectrum resolved to that level (outside-ball values of the
        # spectral q are pure truncation ringing)
        grid = cg.FrequencyGrid(3, 96, TWO_PI)
        cond = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        phi = cg.make_cutoff(cond)
        q = cg.potential_q(cond)
        leak = (1.0 - phi.values.real) * q.values.real
        assert np.max(np.abs(leak)) <= 1e-10 * np.max(np.abs(q.values))

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("kind", ["gaussian", "cone", "c1_cap"])
    def test_is_the_bridge_of_the_scaled_radius(self, n, kind):
        # formed in place, with the bridge evaluated on the shell only
        profile = {"gaussian": {"amplitude": 0.05, "width": 0.3}}.get(kind, {"amplitude": 0.5, "radius": 1.1})
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        cond = cg.make_conductivity(grid, {"kind": kind, **profile})
        expected = smooth_bridge(grid.radius_from_center / cond.support_radius)
        np.testing.assert_array_equal(cg.make_cutoff(cond).values, expected)

    def test_center_value_and_range(self, bump32):
        phi = cg.make_cutoff(bump32)
        grid = bump32.grid
        center_idx = (grid.n // 2,) * 3
        assert phi.values.real[center_idx] == 1.0
        assert np.all(phi.values.real >= 0)
        assert np.all(phi.values.real <= 1)

    def test_gradient_bound_from_bridge_profile(self, bump32):
        # oracle: sup |bridge'| by dense numerical differentiation
        phi = cg.make_cutoff(bump32)
        rho = np.linspace(1.0, 2.0, 200001)
        chi = smooth_bridge(rho)
        c_bridge = np.max(np.abs(np.diff(chi))) / (rho[1] - rho[0])
        grads = [g.real for g in _oracle_gradient(phi.values, bump32.grid.L)]
        grad_sup = np.max(np.sqrt(sum(g * g for g in grads)))
        assert grad_sup <= (c_bridge / bump32.support_radius) * 1.05


class TestGammaFile:
    def test_round_trip(self, bump32, tmp_path):
        path = tmp_path / "gamma.bin"
        write_gamma_file(path, bump32)
        back = cg.read_gamma_file(path)
        assert back.grid == bump32.grid
        assert np.max(np.abs(back.gamma.values - bump32.gamma.values)) == 0.0
        assert back.support_radius <= bump32.support_radius + 1e-12

    def test_truncated_file_rejected(self, bump32, tmp_path):
        path = tmp_path / "gamma.bin"
        write_gamma_file(path, bump32)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(DomainError):
            cg.read_gamma_file(path)

    def test_header_layout(self, tmp_path):
        # packed by hand: uint32 d, uint32 n, float64 L, then gamma in C
        # order, little-endian; one off-centre sample pins the axis order
        import struct

        gamma = np.ones((8, 8, 8))
        gamma[4, 4, 5] = 1.5
        path = tmp_path / "gamma.bin"
        path.write_bytes(struct.pack("<IId", 3, 8, 5.0) + gamma.astype("<f8").tobytes())
        cond = cg.read_gamma_file(path)
        assert cond.grid == cg.FrequencyGrid(3, 8, 5.0)
        np.testing.assert_array_equal(cond.gamma.values, gamma)
