import numpy as np
import pytest

import cgolab as cg
from cgolab import estimates
from cgolab.estimates import mq_operator_ratio, top_singular_value
from cgolab.potential import conductivity_from_array
from cgolab.spaces import smooth_bridge

from conftest import TWO_PI, _oracle_duality_form, random_values


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
        assert sb["value"] == pytest.approx(value, rel=1e-12)
        assert sb["operator_norm"] <= spectral_norm * (1 + 1e-12)
        assert sb["operator_norm"] >= spectral_norm * (1 - 1e-10)

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
    def dense_norm(cond, pair):
        """||D2 E diag(q) E D1||_2, where E is the unitary inverse DFT (a
        symmetric matrix), q = (Lap g)/g with the Nyquist row zeroed, and D
        carries 1/sqrt(max(|p|, s/2)), zero where |p| < 1e-6 s and outside
        the 2/3 cube."""
        n = cond.grid.n
        m = np.fft.fftfreq(n, d=1.0 / n)
        mn = np.where(m == -(n // 2), 0.0, m)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1).reshape(-1, 3)
        lap = -sum(a ** 2 for a in np.meshgrid(mn, mn, mn, indexing="ij"))
        g = np.sqrt(cond.gamma.values.real)
        q = (np.fft.ifftn(lap * np.fft.fftn(g)).real / g).ravel()
        e1 = np.exp(2j * np.pi * np.outer(np.arange(n), m) / n) / np.sqrt(n)
        dft = np.kron(np.kron(e1, e1), e1)
        cube = np.all(np.abs(xi) <= n // 3, axis=-1)
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

    @pytest.mark.parametrize("profile", ["bump", "cone"])
    def test_matches_dense_matrix(self, profile):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        if profile == "bump":
            cond = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        else:
            # the unmollified Lipschitz cone: at n = 8 the 2h pre-mollification
            # of the "cone" profile would push its support past L/4
            cone = 1.0 + 0.5 * np.maximum(0.0, 1.0 - grid.radius_from_center / 1.1)
            cond = conductivity_from_array(grid, cone, 1.1)
        k = np.array([0.0, 0.0, 1.0])
        rows, _ = mq_operator_ratio(cond, cg.zeta_pair_from_angle(k, 4.0, 0.3), seed=1,
                                    s_values=[4.0, 8.0])
        assert [row["s"] for row in rows] == [4.0, 8.0]
        for row in rows:
            pair = cg.zeta_pair_from_angle(k, row["s"], 0.3)
            assert row["operator_norm"] == pytest.approx(self.dense_norm(cond, pair), rel=1e-10)


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
        u = random_values(cond.grid, 11)
        v = random_values(cond.grid, 12)
        duality = _oracle_duality_form(cond.gamma.values.real, u * v, cond.grid.L)
        # the sum cancels (|value| 0.010 on bump32), so its rounding is
        # measured against the L1 majorant sum |q u v| h^d
        q = cg.potential_q(cond).values.real
        majorant = np.sum(np.abs(q * u * v)) * cond.grid.measure
        form = np.sum(q * (u * v)) * cond.grid.measure
        assert abs(form - duality) <= 1e-12 * majorant


def test_ratio_keeps_the_zero_and_inf_rules():
    assert estimates._ratio(0.0, 0.0) == 0.0
    assert estimates._ratio(2.0, 0.0) == float("inf")
    assert estimates._ratio(3.0, 2.0) == 1.5


class TestHarnessNorms:
    """Plain-numpy oracle for the localization and bilinear norms at n=16
    (L = 2 pi, so the lattice is the integer one, dxi = 1 and the cell
    floor is s/2): |p| from its formula, the homogeneous weights |p|^{2b}
    with the modes under the cell floor dropped, the inhomogeneous
    (sqrt(2) s + |p|)^{2b}, b = +-1/2, and the high pass 1 - chi(|xi|/8s)."""

    N = 16
    K = np.array([0.0, 0.0, 1.0])
    SAMPLES = 8

    @pytest.fixture(scope="class")
    def setup(self, grid16):
        cond = cg.make_conductivity(grid16, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        # 8s = 6.4 lies inside the 2/3 cube, so the high pass keeps modes
        return cg.zeta_pair_from_angle(self.K, 0.8, 0.3), cg.make_cutoff(cond)

    @classmethod
    def lattice(cls):
        m = np.fft.fftfreq(cls.N, d=1.0 / cls.N)
        return np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)

    @classmethod
    def norm(cls, uhat, weight=1.0):
        return float(np.sqrt(np.sum(weight * np.abs(uhat) ** 2) * (TWO_PI / cls.N) ** 3))

    @classmethod
    def weights(cls, zeta):
        """|p|, s and the squared homogeneous and inhomogeneous weights."""
        xi = cls.lattice()
        pabs = np.abs(-np.sum(xi * xi, axis=-1) + 2j * (xi @ zeta.value))
        s = np.linalg.norm(zeta.value.real)
        kept = pabs >= 0.5 * s
        dot = {b: np.where(kept, pabs, 1.0) ** (2 * b) * kept for b in (0.5, -0.5)}
        inh = {b: (np.sqrt(2.0) * s + pabs) ** (2 * b) for b in (0.5, -0.5)}
        return pabs, s, dot, inh

    @classmethod
    def cube(cls):
        return np.all(np.abs(cls.lattice()) <= cls.N // 3, axis=-1)

    @classmethod
    def localize(cls, phi, uhat):
        """(phi u)^hat, cut to the 2/3 cube."""
        return np.fft.fftn(phi * np.fft.ifftn(uhat, norm="ortho"), norm="ortho") * cls.cube()

    @classmethod
    def draw(cls, rng, zeta, alpha):
        """One sampler spectrum: complex normal noise times
        max(|p|, s/2)^{-1/2} <xi>^{-alpha} (flat for alpha None), cut to
        the 2/3 cube."""
        shape = (cls.N,) * 3
        coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if alpha is not None:
            pabs, s, _, _ = cls.weights(zeta)
            xi_sq = np.sum(cls.lattice() ** 2, axis=-1)
            coef = coef * np.maximum(pabs, 0.5 * s) ** -0.5 * (1.0 + xi_sq) ** (-alpha / 2.0)
        return coef * cls.cube()

    @classmethod
    def draws(cls, zeta, seed):
        """The localization samples: alpha = 0, 1, 2, then flat, in turn."""
        rng = np.random.default_rng(seed)
        return [cls.draw(rng, zeta, i % 4 if i % 4 < 3 else None) for i in range(cls.SAMPLES)]

    def test_localization_samples_match_oracle(self, setup):
        pair, phi_B = setup
        zeta = pair.zeta1
        reports = estimates.localization_ratios(self.SAMPLES, zeta, phi_B, 5)
        assert [rep["estimate_id"] for rep in reports] == list(estimates.LOCALIZATION_IDS)
        phi = phi_B.values.real
        _, s, dot, inh = self.weights(zeta)
        xi = self.lattice()
        xi_nyq = np.where(xi == -(self.N // 2), 0.0, xi)
        high_pass = 1.0 - smooth_bridge(np.sqrt(np.sum(xi * xi, axis=-1)) / (8.0 * s))
        assert 0.0 < high_pass[self.cube()].max()
        for i, uhat in enumerate(self.draws(zeta, 5)):
            u_b = self.localize(phi, uhat)
            high = high_pass * u_b
            rhs_half = self.norm(uhat, dot[0.5])
            expected = {
                "cutoff_neg_half": (self.norm(u_b, dot[-0.5]), self.norm(uhat, inh[-0.5])),
                "cutoff_pos_half": (self.norm(u_b, inh[0.5]), rhs_half),
                "cutoff_l2": (self.norm(u_b), rhs_half / np.sqrt(s)),
                "cutoff_high_grad": (self.norm(high, np.sum(xi_nyq ** 2, axis=-1)), rhs_half),
                "cutoff_high_l2": (self.norm(high), rhs_half / s),
            }
            for rep in reports:
                sample = rep["samples"][i]
                assert sample["params"] == {"sample": i, "kind": estimates.SAMPLER_KINDS[i % 4]}
                lhs, rhs = expected[rep["estimate_id"]]
                assert sample["lhs"] == pytest.approx(lhs, rel=1e-12, abs=0)
                assert sample["rhs"] == pytest.approx(rhs, rel=1e-12, abs=0)
                assert sample["ratio"] == sample["lhs"] / sample["rhs"]
        for rep in reports:
            assert rep["max_ratio"] == max(x["ratio"] for x in rep["samples"])

    def test_bilinear_ratio_matches_oracle(self, setup):
        pair, phi_B = setup
        ratio = cg.bilinear_ratio(pair, phi_B, 21)
        # f = 1, and u, v are the near_char_1 draws at zeta1, then zeta2
        rng = np.random.default_rng(21)
        uhat, vhat = (self.draw(rng, z, 1) for z in (pair.zeta1, pair.zeta2))
        phi = phi_B.values.real
        u_b, v_b = (np.fft.ifftn(self.localize(phi, w), norm="ortho") for w in (uhat, vhat))
        lhs = abs(np.sum(u_b * v_b)) * (TWO_PI / self.N) ** 3
        denom = self.norm(uhat, self.weights(pair.zeta1)[2][0.5]) * self.norm(vhat, self.weights(pair.zeta2)[2][0.5])
        assert ratio == pytest.approx(lhs * pair.s / denom, rel=1e-12, abs=0)


class TestAveragedDecay:
    K = np.array([0.0, 0.0, 1.0])

    @staticmethod
    def oracle_density(f, phi):
        """sum_j |(phi d_j f)^hat|^2, cut to the 2/3 cube, in plain numpy
        on [0, 2pi)^3, with complex transforms of the physical arrays."""
        n = f.shape[0]
        m = np.fft.fftfreq(n, d=1.0 / n)
        deriv = np.where(m == -(n // 2), 0.0, m)
        axes = [(n, 1, 1), (1, n, 1), (1, 1, n)]
        keep = np.abs(m) <= n // 3
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
    def test_density_matches_complex_transforms(self, n):
        # the half-spectrum density against complex fftn of the same real data
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        cone = cg.make_conductivity(grid, {"kind": "cone", "amplitude": 0.5, "radius": 0.7})
        phi = cg.make_cutoff(cone)
        f = cone.log_g.values.real
        f_half = np.fft.rfftn(f, norm="ortho")
        dens = estimates._decay_density(grid, f_half, phi)
        # bit for bit the unpruned form: whole-half-lattice transforms, cut after
        unpruned = np.zeros(f_half.shape)
        for mult in grid.half_deriv_multipliers:
            prod = np.fft.irfftn(f_half * mult, s=grid.shape, axes=(0, 1, 2), norm="ortho")
            unpruned += np.abs(np.fft.rfftn(prod * phi.values, norm="ortho")) ** 2
        unpruned *= grid.dealias_mask[..., : n // 2 + 1]
        np.testing.assert_array_equal(dens, cg.grid.hermitian_planes(grid, unpruned))
        expected = self.oracle_density(f, phi.values.real)[..., : n // 2 + 1]
        assert dens.shape == expected.shape
        assert np.max(np.abs(dens - expected)) <= 1e-13 * np.max(expected)
        # the half block of an exactly even density: its self-mirrored
        # planes m_d = 0, n/2 are even
        neg = (-np.arange(n)) % n
        for plane in (0, n // 2):
            np.testing.assert_array_equal(dens[..., plane], dens[np.ix_(neg, neg)][..., plane])

    @pytest.mark.parametrize("n", [16, 32])
    def test_sobolev_norms_match_full_spectrum(self, n):
        # the half-spectrum H^theta norms against weighted sums over fftn
        grid = cg.FrequencyGrid(3, n, TWO_PI)
        cone = cg.make_conductivity(grid, {"kind": "cone", "amplitude": 0.5, "radius": 0.7})
        lam = 8.0
        (params,), _ = cg.averaged_decay(cone.log_g, self.K, [lam], 8, 8, cg.make_cutoff(cone))
        fhat_sq = np.abs(np.fft.fftn(cone.log_g.values.real, norm="ortho")) ** 2
        m = np.fft.fftfreq(n, d=1.0 / n)
        xi_sq = m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, :] ** 2
        for theta in (0.0, 0.5, 1.0):
            norm_sq = np.sum((1.0 + xi_sq) ** theta * fhat_sq) * (TWO_PI / n) ** 3
            expected = params["A"] / (lam ** (1.0 - theta) * norm_sq)
            assert params[f"normalized_theta_{theta:g}"] == pytest.approx(expected, rel=1e-13)

    def test_complex_field_rejected(self, bump32):
        phi = cg.make_cutoff(bump32)
        f = cg.Field(bump32.grid, bump32.log_g.values * (1 + 1j))
        with pytest.raises(ValueError, match="real"):
            cg.averaged_decay(f, self.K, [8.0], 8, 8, phi)

    @pytest.mark.parametrize("quad_eta", [8, 9])
    def test_matches_per_zeta_oracle(self, grid32, quad_eta, monkeypatch):
        # the oracle takes every angle at both zetas; for even quad_eta the
        # pairs at theta + pi repeat those at theta with the zetas swapped,
        # so only half of them are evaluated
        cone = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        phi = cg.make_cutoff(cone)
        pair_counts = []
        sums = estimates.pair_inverse_symbol_sums

        def counted(dens, pairs, *args):
            pair_counts.append(len(pairs))
            return sums(dens, pairs, *args)

        monkeypatch.setattr(estimates, "pair_inverse_symbol_sums", counted)
        records, trend = cg.averaged_decay(cone.log_g, self.K, [8.0, 16.0], 8, quad_eta, phi)
        assert pair_counts == [8 * quad_eta // 2 if quad_eta % 2 == 0 else 8 * quad_eta] * 2
        f, cut = cone.log_g.values.real, phi.values.real
        expected = [self.oracle_a(f, cut, lam, 8, quad_eta) for lam in (8.0, 16.0)]
        for row, lam, a in zip(records, (8.0, 16.0), expected):
            assert row["lambda"] == lam
            assert row["A"] == pytest.approx(a, rel=1e-12)
            assert row["A_over_lambda"] == pytest.approx(a / lam, rel=1e-12)
        # two bands: the trend is the slope of log(A / lam) against log lam
        assert trend == pytest.approx(np.log2((expected[1] / 16.0) / (expected[0] / 8.0)), rel=1e-10)


class TestSingboundQuadrature:
    @staticmethod
    def oracle(zeta, eta, M, n):
        """sum_xi <xi - eta>^{-M} / max(dist(xi, Sigma), 1) on the integer
        lattice of [0, 2pi)^3 (dxi = 1, the floor), with zeta = s (e1 - i e2)
        and dist = | s - |xi - s e2| | + |xi . e1|."""
        m = np.fft.fftfreq(n, d=1.0 / n)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
        s = np.linalg.norm(zeta.value.real)
        e1, e2 = zeta.value.real / s, -zeta.value.imag / s
        dist = np.abs(s - np.linalg.norm(xi - s * e2, axis=-1)) + np.abs(xi @ e1)
        bracket = (1.0 + np.sum((xi - eta) ** 2, axis=-1)) ** (-M / 2.0)
        return np.sum(bracket / np.maximum(dist, 1.0))

    @pytest.mark.parametrize("M", [5, 6, 8])
    def test_matches_plain_numpy_oracle(self, M):
        rng = np.random.default_rng(M)
        zetas = [
            cg.zeta_pair_from_angle(np.array([1.0, 2.0, 0.0]), 5.0, 0.7).zeta1,
            cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0])),
        ]
        for n in (16, 32):
            grid = cg.FrequencyGrid(3, n, TWO_PI)
            for zeta in zetas:
                etas = rng.normal(size=(3, 3)) * 4.0
                values = cg.singbound_quadrature(zeta, etas, M, grid)
                for eta, value in zip(etas, values):
                    assert value == pytest.approx(self.oracle(zeta, eta, M, n), rel=1e-13)

    def test_partial_slabs_match_oracle(self, grid32, monkeypatch):
        # slabs of 3 axis-0 rows: ten full ones and a last one of 2 rows
        monkeypatch.setattr(estimates, "SLAB_POINTS", 3 * 32 * 32)
        zeta = cg.zeta_pair_from_angle(np.array([1.0, 2.0, 0.0]), 5.0, 0.7).zeta1
        etas = np.random.default_rng(9).normal(size=(2, 3)) * 4.0
        for M in (5, 6):
            values = cg.singbound_quadrature(zeta, etas, M, grid32)
            for eta, value in zip(etas, values):
                assert value == pytest.approx(self.oracle(zeta, eta, M, 32), rel=1e-13)

    def test_eta_must_be_a_batch(self, grid16):
        zeta = cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0]))
        with pytest.raises(ValueError, match="eta"):
            cg.singbound_quadrature(zeta, np.zeros(3), 6, grid16)
