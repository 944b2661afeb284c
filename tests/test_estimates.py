import numpy as np
import pytest

import cgolab as cg
from cgolab import estimates
from cgolab.estimates import mq_operator_ratio, top_singular_value
from cgolab.potential import conductivity_from_array

from conftest import TWO_PI, _oracle_duality_form, random_field


def gaussian_phi(pts):
    return np.exp(-np.sum(pts * pts, axis=-1))


def tilted_phi(pts):
    """Neither even nor real, so a missing flip or conjugation shows."""
    shift = np.array([0.5, -0.3, 0.2])
    tilt = np.array([0.7, 0.1, -0.4])
    return np.exp(-np.sum((pts - shift) ** 2, axis=-1) + 1j * (pts @ tilt))


def unit(pts):
    return np.ones(pts.shape[:-1])


def radial(pts):
    return 1.0 + 0.3 * np.sum(pts * pts, axis=-1)


def decaying(pts):
    return 1.0 / radial(pts)


KERNELS = {"gaussian": gaussian_phi, "tilted": tilted_phi}
# (v, w); a decaying w makes the column sums (sup over eta) the smaller side
WEIGHTS = {
    "flat": (unit, unit),
    "radial_v": (radial, unit),
    "radial_w": (unit, radial),
    "decaying_w": (unit, decaying),
}


class TestSchurBound:
    """Dense n=8 oracle: the 512x512 matrix of the weighted convolution."""

    @pytest.fixture(scope="class")
    def grid8(self):
        return cg.FrequencyGrid(3, 8, TWO_PI)

    @staticmethod
    def dense(grid, phi, v, w):
        axis = np.sort(grid.xi_axis)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        kern = phi(pts[:, None, :] - pts[None, :, :])
        v_arr, w_arr = v(pts), w(pts)
        cell = grid.freq_step ** 3
        mat = np.sqrt(w_arr)[:, None] * kern / np.sqrt(v_arr)[None, :] * cell
        # J(xi, eta) = |phi(xi - eta)| w(xi) / v(eta), summed over each slot
        jmat = np.abs(kern) * w_arr[:, None] / v_arr[None, :] * cell
        diff = grid.freq_step * np.arange(-(grid.n - 1), grid.n)
        dpts = np.stack(np.meshgrid(diff, diff, diff, indexing="ij"), axis=-1)
        phi_l1 = np.abs(phi(dpts)).sum() * cell
        value = np.sqrt(phi_l1) * np.sqrt(min(jmat.sum(axis=1).max(), jmat.sum(axis=0).max()))
        return value, np.linalg.norm(mat, 2)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("weights", sorted(WEIGHTS))
    def test_matches_dense_matrix(self, grid8, kernel, weights):
        phi = KERNELS[kernel]
        v, w = WEIGHTS[weights]
        sb = cg.schur_bound(phi, v, w, grid8, seed=0)
        value, spectral_norm = self.dense(grid8, phi, v, w)
        assert sb.value == pytest.approx(value, rel=1e-12)
        assert sb.operator_norm <= spectral_norm * (1 + 1e-12)
        assert sb.operator_norm >= spectral_norm * (1 - 1e-10)

    def test_nonpositive_weight_rejected(self, grid8):
        with pytest.raises(ValueError):
            cg.schur_bound(gaussian_phi, lambda pts: np.sum(pts * pts, axis=-1), unit, grid8)


class TestTopSingularValue:
    @staticmethod
    def counted(mat, calls):
        def apply(x):
            calls.append(1)
            return mat @ x
        return apply, lambda y: mat.conj().T @ y

    def test_matches_dense_norm(self):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
        apply, adjoint = self.counted(mat, [])
        x0 = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        assert top_singular_value(apply, adjoint, x0) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)

    def test_step_cap_returns_a_lower_bound(self, monkeypatch):
        monkeypatch.setattr(estimates, "LANCZOS_MAX_STEPS", 3)
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
        calls = []
        apply, adjoint = self.counted(mat, calls)
        sigma = top_singular_value(apply, adjoint, rng.standard_normal(30) + 0j)
        assert len(calls) == 3
        assert 0.5 * np.linalg.norm(mat, 2) < sigma < np.linalg.norm(mat, 2)

    def test_rank_one_stops_when_beta_vanishes(self):
        # the Krylov space of a rank-1 map is invariant after two steps;
        # the relative-change stop alone would need a third
        rng = np.random.default_rng(4)
        u = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        calls = []
        apply, adjoint = self.counted(np.outer(u, v.conj()), calls)
        sigma = top_singular_value(apply, adjoint, rng.standard_normal(12) + 0j)
        assert sigma == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert len(calls) == 2


class TestMqOperatorNorm:
    """Dense n=8 oracle: the 512x512 matrix of the weighted m_q form."""

    @staticmethod
    def dense_norm(cond, pair, dealias):
        """||D2 E diag(q) E D1||_2, where E is the unitary inverse DFT (a
        symmetric matrix), q = (Lap g)/g with the Nyquist row zeroed, and D
        carries 1/sqrt(max(|p|, s/2)), zero where |p| < 1e-6 s and, when
        dealiased, outside the 2/3 cube."""
        n = cond.grid.n
        m = np.fft.fftfreq(n, d=1.0 / n)
        mn = np.where(m == -(n // 2), 0.0, m)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1).reshape(-1, 3)
        lap = -sum(a ** 2 for a in np.meshgrid(mn, mn, mn, indexing="ij"))
        g = np.sqrt(cond.gamma.values.real)
        q = (np.fft.ifftn(lap * np.fft.fftn(g)).real / g).ravel()
        e1 = np.exp(2j * np.pi * np.outer(np.arange(n), m) / n) / np.sqrt(n)
        dft = np.kron(np.kron(e1, e1), e1)
        cube = np.all(np.abs(xi) <= (n // 3 if dealias else n), axis=-1)
        k, s = pair.k, pair.s
        r = np.sqrt(s * s - 0.25 * (k @ k))
        scales = []
        for zeta in (s * pair.eta1 + 1j * (0.5 * k + r * pair.eta2),
                     -s * pair.eta1 + 1j * (0.5 * k - r * pair.eta2)):
            pabs = np.abs(-np.sum(xi * xi, axis=-1) + 2j * (xi @ zeta))
            keep = cube & (pabs >= 1e-6 * s)
            scales.append(np.where(keep, 1.0 / np.sqrt(np.maximum(pabs, 0.5 * s)), 0.0))
        mat = scales[1][:, None] * (dft @ (q[:, None] * dft)) * scales[0][None, :]
        return np.linalg.norm(mat, 2)

    @pytest.mark.parametrize("dealias", [True, False], ids=["dealiased", "full"])
    @pytest.mark.parametrize("profile", ["bump", "cone"])
    def test_matches_dense_matrix(self, profile, dealias):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        if profile == "bump":
            cond = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        else:
            # the unmollified Lipschitz cone: at n = 8 the 2h pre-mollification
            # of the "cone" profile would push its support past L/4
            cone = 1.0 + 0.5 * np.maximum(0.0, 1.0 - grid.radius_from_center / 1.1)
            cond = conductivity_from_array(grid, cone, 1.1, "lipschitz")
        k = np.array([0.0, 0.0, 1.0])
        rep = mq_operator_ratio(cond, cg.zeta_pair_from_angle(k, 4.0, 0.3), seed=1,
                                s_values=[4.0, 8.0], dealias=dealias)
        for sample in rep.samples:
            pair = cg.zeta_pair_from_angle(k, sample.params["s"], 0.3)
            assert sample.lhs == pytest.approx(self.dense_norm(cond, pair, dealias), rel=1e-10)


class TestMqKernel:
    @pytest.fixture(scope="class")
    def cone32(self, grid32):
        return cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})

    @pytest.mark.parametrize("profile", ["bump32", "cone32"])
    def test_duality_form_is_sum_of_q(self, request, profile):
        """sum q u v h^d equals the duality form -sum grad g . grad(uv/g) h^d
        evaluated in plain numpy: the kernel that mq_operator_ratio uses
        is the form's own."""
        cond = request.getfixturevalue(profile)
        u = random_field(cond.grid, 11)
        v = random_field(cond.grid, 12)
        duality = _oracle_duality_form(cond.gamma.values.real, u.values * v.values, cond.grid.L)
        # the sum cancels (|value| 0.010 on bump32), so its rounding is
        # measured against the L1 majorant sum |q u v| h^d
        q = cg.potential_q(cond).values.real
        majorant = np.sum(np.abs(q * u.values * v.values)) * cond.grid.measure
        form = np.sum(q * (u.values * v.values)) * cond.grid.measure
        assert abs(form - duality) <= 1e-12 * majorant


class TestAveragedDecay:
    K = np.array([0.0, 0.0, 1.0])

    @staticmethod
    def oracle_density(f, phi, dealias=True):
        """sum_j |(phi d_j f)^hat|^2 (2/3-cut with dealias) in plain numpy
        on [0, 2pi)^3, with complex transforms of the physical arrays."""
        n = f.shape[0]
        m = np.fft.fftfreq(n, d=1.0 / n)
        deriv = np.where(m == -(n // 2), 0.0, m)
        axes = [(n, 1, 1), (1, n, 1), (1, 1, n)]
        keep = np.abs(m) <= n // 3 if dealias else np.ones(n, dtype=bool)
        cube = keep.reshape(axes[0]) & keep.reshape(axes[1]) & keep.reshape(axes[2])
        fhat = np.fft.fftn(f, norm="ortho")
        dens = 0.0
        for shape in axes:
            grad = np.fft.ifftn(1j * deriv.reshape(shape) * fhat, norm="ortho")
            dens = dens + np.abs(np.fft.fftn(phi * grad, norm="ortho") * cube) ** 2
        return dens

    @classmethod
    def oracle_a(cls, f, phi, lam, quad_s, quad_eta):
        """A(lam) re-derived per zeta in plain numpy on [0, 2pi)^3, from the
        physical arrays of f and the cutoff: oracle_density, trapezoid in
        s, uniform angle in the plane of e_x, e_y (orthogonal to k = e_z),
        |p| floored at s dxi / 2."""
        n = f.shape[0]
        m = np.fft.fftfreq(n, d=1.0 / n)
        dens = cls.oracle_density(f, phi)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
        xi_sq = np.sum(xi * xi, axis=-1)
        ex, ey, k = np.eye(3)
        total = 0.0
        for i, s in enumerate(np.linspace(lam, 2.0 * lam, quad_s)):
            ws = lam / (quad_s - 1) * (0.5 if i in (0, quad_s - 1) else 1.0)
            r = np.sqrt(s * s - 0.25)
            for j in range(quad_eta):
                t = 2.0 * np.pi * j / quad_eta
                eta1 = np.cos(t) * ex + np.sin(t) * ey
                eta2 = -np.sin(t) * ex + np.cos(t) * ey
                for zeta in (s * eta1 + 1j * (0.5 * k + r * eta2),
                             -s * eta1 + 1j * (0.5 * k - r * eta2)):
                    pabs = np.abs(-xi_sq + 2j * (xi @ zeta))
                    total += ws * (2.0 * np.pi / quad_eta) * np.sum(dens / np.maximum(pabs, 0.5 * s))
        return total * (2.0 * np.pi / n) ** 3

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_density_matches_complex_transforms(self, n, dealias):
        # the half-spectrum density against complex fftn of the same real data
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        cone = cg.make_conductivity(grid, {"kind": "cone", "amplitude": 0.5, "radius": 0.7})
        phi = cg.make_cutoff(cone)
        f = cone.log_g.values.real
        dens = estimates._decay_density(grid, cg.grid.real_forward(f), phi, dealias)
        expected = self.oracle_density(f, phi.field.values.real, dealias)
        assert np.max(np.abs(dens - expected)) <= 1e-13 * np.max(expected)
        # completed as an exactly even density
        neg = (-np.arange(n)) % n
        np.testing.assert_array_equal(dens, dens[np.ix_(neg, neg, neg)])

    def test_complex_field_rejected(self, bump32):
        phi = cg.make_cutoff(bump32)
        f = cg.physical_field(bump32.grid, bump32.log_g.values * (1 + 1j))
        with pytest.raises(ValueError, match="real"):
            cg.averaged_decay(f, self.K, [8.0], 8, 8, phi)

    def test_matches_per_zeta_oracle(self, grid32):
        cone = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        phi = cg.make_cutoff(cone)
        rep = cg.averaged_decay(cone.log_g, self.K, [8.0, 16.0], 8, 8, phi)
        f, cut = cone.log_g.values.real, phi.field.values.real
        for sample, lam in zip(rep.samples, (8.0, 16.0)):
            expected = self.oracle_a(f, cut, lam, 8, 8)
            assert sample.params["A"] == pytest.approx(expected, rel=1e-12)
            assert sample.params["A_over_lambda"] == pytest.approx(expected / lam, rel=1e-12)


class TestSingboundQuadrature:
    @staticmethod
    def oracle(zeta, eta, M, n, floor):
        """sum_xi <xi - eta>^{-M} / max(dist(xi, Sigma), floor) on the integer
        lattice of [0, 2pi)^3 (dxi = 1), with zeta = s (e1 - i e2) and
        dist = | s - |xi - s e2| | + |xi . e1|."""
        m = np.fft.fftfreq(n, d=1.0 / n)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
        s = np.linalg.norm(zeta.value.real)
        e1, e2 = zeta.value.real / s, -zeta.value.imag / s
        dist = np.abs(s - np.linalg.norm(xi - s * e2, axis=-1)) + np.abs(xi @ e1)
        bracket = (1.0 + np.sum((xi - eta) ** 2, axis=-1)) ** (-M / 2.0)
        return np.sum(bracket / np.maximum(dist, floor))

    @pytest.mark.parametrize("M", [5, 6])
    def test_matches_plain_numpy_oracle(self, grid16, M):
        rng = np.random.default_rng(M)
        zetas = [
            cg.zeta_pair_from_angle(np.array([1.0, 2.0, 0.0]), 5.0, 0.7).zeta1,
            cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0])),
        ]
        for zeta in zetas:
            for floor in (None, 0.25):
                for _ in range(3):
                    eta = rng.normal(size=3) * 4.0
                    value = cg.singbound_quadrature(zeta, eta, M, grid16, floor)
                    expected = self.oracle(zeta, eta, M, 16, 1.0 if floor is None else floor)
                    assert value == pytest.approx(expected, rel=1e-13)
