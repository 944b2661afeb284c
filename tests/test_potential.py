import numpy as np
import pytest
from scipy.integrate import quad

import cgolab as cg
from cgolab.errors import DomainError
from cgolab.grid import integral, laplacian, multiply, spectral_gradient
from cgolab.potential import conductivity_from_array, mollifier_bump, mollify, write_gamma_file
from cgolab.spaces import smooth_bridge

from conftest import (
    BUMP_AMPLITUDE,
    BUMP_WIDTH,
    TWO_PI,
    _oracle_duality_form,
    _oracle_gradient,
    _oracle_lattice,
    _oracle_leibniz_form,
    random_field,
)


class TestProfiles:
    def test_uniform_gives_zero_potential(self, uniform32):
        q = cg.potential_q(uniform32)
        assert np.max(np.abs(q.values)) < 1e-13

    def test_gaussian_metadata(self, bump32):
        assert bump32.smoothness_class == "smooth"
        assert bump32.mollification_width == 0.0
        assert bump32.lower_bound >= 1.0
        assert bump32.support_radius == pytest.approx(bump32.grid.L / 4)

    def test_gaussian_tail_guard(self, grid32):
        with pytest.raises(DomainError):
            cg.make_conductivity(grid32, {"kind": "gaussian", "amplitude": 0.05, "width": 0.8})

    def test_nonsmooth_profiles_premollified(self, grid32):
        c1 = cg.make_conductivity(grid32, {"kind": "c1_cap", "amplitude": 0.4, "radius": 1.1})
        cone = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        for cond in (c1, cone):
            assert cond.mollification_width == pytest.approx(2 * grid32.h)
            assert cond.support_radius == pytest.approx(1.1 + 2 * grid32.h)
        assert c1.smoothness_class == "c1"
        assert cone.smoothness_class == "lipschitz"
        # cone seminorm approaches the closed form a/R of the raw profile
        assert cone.lipschitz_seminorm == pytest.approx(0.5 / 1.1, rel=0.25)

    def test_positivity_guard(self, grid32):
        vals = np.ones(grid32.shape)
        vals[0, 0, 0] = -0.5
        with pytest.raises(DomainError):
            conductivity_from_array(grid32, vals, grid32.L / 4)

    def test_support_guard(self, grid32):
        vals = 1.0 + 0.1 * np.ones(grid32.shape)  # deviates everywhere
        with pytest.raises(DomainError):
            conductivity_from_array(grid32, vals, grid32.L / 4)

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
        g_scaled = cg.physical_field(bump32.grid, np.sqrt(c * bump32.gamma.values.real))
        lap = cg.to_physical(laplacian(g_scaled))
        q_scaled = lap.values.real / g_scaled.values.real
        q = cg.potential_q(bump32).values.real
        assert np.max(np.abs(q_scaled - q)) < 1e-12 * max(1.0, np.max(np.abs(q)))

    def test_mean_identity_discrete_exact(self, bump32):
        # integral q dx = -sum grad(g).grad(1/g) h^d holds to rounding
        grid = bump32.grid
        lhs = integral(cg.potential_q(bump32)).real
        ginv = cg.physical_field(grid, 1.0 / bump32.g.values.real)
        gg = [cg.to_physical(f).values.real for f in spectral_gradient(bump32.g)]
        gi = [cg.to_physical(f).values.real for f in spectral_gradient(ginv)]
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
    """The m_q form of physical u, v as the pairing reads it: sum q u v h^d."""
    return complex(np.sum(cond.q.values.real * (u.values * v.values)) * cond.grid.measure)


class TestMqBilinear:
    def test_uniform_gamma_vanishes(self, uniform32, grid32):
        u, v = random_field(grid32, 1), random_field(grid32, 2)
        assert mq_form(u, v, uniform32) == 0

    def test_bilinearity(self, bump32, grid32):
        u, v = random_field(grid32, 3), random_field(grid32, 4)
        alpha = 1.3 - 0.4j
        a = mq_form(u * alpha, v, bump32)
        b = mq_form(u, v, bump32) * alpha
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_direct_quadrature(self, bump32, grid32):
        # oracle: the duality form -sum grad g . grad(uv/g) h^d in plain numpy,
        # on the closed-form gaussian gamma
        u, v = random_field(grid32, 5), random_field(grid32, 6)
        deltas, _ = _oracle_lattice(32)
        gamma = 1.0 + BUMP_AMPLITUDE * np.exp(-sum(dl * dl for dl in deltas) / BUMP_WIDTH ** 2)
        direct = _oracle_duality_form(gamma, u.values * v.values, TWO_PI)
        assert mq_form(u, v, bump32) == pytest.approx(direct, rel=1e-8)

    def test_two_forms_agree_on_smooth_data(self, bump64):
        grid = bump64.grid
        u = cg.exp_ik_field(grid, grid.lattice_frequency([1, 0, 0]))
        v = cg.exp_ik_field(grid, grid.lattice_frequency([0, 2, 0]))
        split = _oracle_leibniz_form(bump64.gamma.values.real, u.values * v.values, grid.L)
        assert mq_form(u, v, bump64) == pytest.approx(split, rel=1e-9)

    def test_localization_invariance(self, bump64):
        # phi = 1 on supp q, so inserting the cutoff changes nothing
        grid = bump64.grid
        phi = cg.make_cutoff(bump64)
        u = cg.exp_ik_field(grid, grid.lattice_frequency([1, 1, 0]))
        v = cg.exp_ik_field(grid, grid.lattice_frequency([0, 0, 2]))
        plain = mq_form(u, v, bump64)
        localized = mq_form(multiply(phi.field, u), multiply(phi.field, v), bump64)
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
        self.close(cond.q_hat.values, np.fft.fftn(cond.q.values.real, norm="ortho"))

    def test_q_hat_is_hermitian_bit_for_bit(self, n, profile):
        q_hat = cg.make_conductivity(cg.FrequencyGrid(3, n, TWO_PI), profile).q_hat.values
        neg = (-np.arange(n)) % n  # -m in FFT order; fixes 0 and the Nyquist n/2
        np.testing.assert_array_equal(q_hat[np.ix_(neg, neg, neg)], np.conj(q_hat))

    def test_real_mollify_matches_complex_transforms(self, n, profile):
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        f = cg.make_conductivity(grid, profile).gamma.values.real
        eps = 4 * grid.h
        bump = mollifier_bump(grid, eps).values.real
        out = mollify(cg.physical_field(grid, f), eps).values
        assert not out.imag.any()
        self.close(out, np.fft.ifftn(np.fft.fftn(f) * np.fft.fftn(bump)).real * grid.measure)


class TestMollify:
    def test_constant_unchanged(self, grid16):
        f = cg.physical_field(grid16, np.full(grid16.shape, 2.5))
        out = mollify(f, 4 * grid16.h)
        assert np.max(np.abs(out.values - 2.5)) < 1e-12

    def test_mass_preserved(self, grid32):
        f = random_field(grid32, 17)
        out = mollify(f, 4 * grid32.h)
        assert integral(out) == pytest.approx(integral(f), rel=1e-12)

    def test_below_grid_scale_warns_noop(self, grid16):
        f = random_field(grid16, 18)
        with pytest.warns(UserWarning):
            out = mollify(f, 0.5 * grid16.h)
        assert out is f

    def test_flattening_monotone_in_width(self, grid32):
        r = grid32.radius_from_center
        f = cg.physical_field(grid32, np.exp(-((r / 0.5) ** 2)))
        mean = integral(f).real / grid32.L ** 3
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
        cone = cg.physical_field(grid, a * np.maximum(0.0, 1.0 - r / radius))
        grad_sup_exact = a / radius
        eps = 8 * grid.h

        smooth = mollify(cone, eps)
        grads = [cg.to_physical(g).values.real for g in spectral_gradient(smooth)]
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
        for i in range(3):
            gi = spectral_gradient(smooth)[i]
            for gj in spectral_gradient(gi):
                hess_sup = max(hess_sup, np.max(np.abs(cg.to_physical(gj).values.real)))
        assert hess_sup <= (c_const / eps) * grad_sup_exact * 1.05

    def test_bump_kernel_unit_mass(self, grid16):
        bump = mollifier_bump(grid16, 3 * grid16.h)
        assert integral(bump).real == pytest.approx(1.0, rel=1e-13)


class TestCutoff:
    def test_q_capture(self):
        # support containment at the 1e-10 level needs the profile's
        # spectrum resolved to that level (outside-ball values of the
        # spectral q are pure truncation ringing)
        grid = cg.FrequencyGrid(3, 96, TWO_PI)
        cond = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        phi = cg.make_cutoff(cond)
        q = cg.potential_q(cond)
        leak = (1.0 - phi.field.values.real) * q.values.real
        assert np.max(np.abs(leak)) <= 1e-10 * np.max(np.abs(q.values))

    def test_center_value_and_range(self, bump32):
        phi = cg.make_cutoff(bump32)
        grid = bump32.grid
        center_idx = (grid.n // 2,) * 3
        assert phi.field.values.real[center_idx] == 1.0
        assert np.all(phi.field.values.real >= 0)
        assert np.all(phi.field.values.real <= 1)

    def test_gradient_bound_from_bridge_profile(self, bump32):
        # oracle: sup |bridge'| by dense numerical differentiation
        phi = cg.make_cutoff(bump32)
        rho = np.linspace(1.0, 2.0, 200001)
        chi = smooth_bridge(rho)
        c_bridge = np.max(np.abs(np.diff(chi))) / (rho[1] - rho[0])
        grads = [cg.to_physical(g).values.real for g in spectral_gradient(phi.field)]
        grad_sup = np.max(np.sqrt(sum(g * g for g in grads)))
        assert grad_sup <= (c_bridge / phi.inner_radius) * 1.05


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

    def test_header_layout(self, bump32, tmp_path):
        import struct

        path = tmp_path / "gamma.bin"
        write_gamma_file(path, bump32)
        with open(path, "rb") as fh:
            d, n, L = struct.unpack("<IId", fh.read(16))
        assert (d, n) == (3, 32)
        assert L == pytest.approx(TWO_PI)
