import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cgolab as cg
from cgolab.estimates import _norm_weights
from cgolab.spaces import clamp_rule, pair_inverse_symbol_sums, smooth_bridge
from cgolab.symbol import lattice_symbol, make_zeta_pair

from conftest import TWO_PI, full_psihat, full_spectrum, random_values


@pytest.fixture(scope="module")
def zeta16():
    # frame aligned with the lattice: p((0,2,0)) = 4 exactly
    return cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0]))


@pytest.fixture(scope="module")
def bump16(grid16):
    return cg.make_conductivity(grid16, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})


@pytest.fixture(scope="module")
def pair16():
    return cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 6.0, 0.3)


class TestBridge:
    def test_plateaus(self):
        rho = np.array([0.0, 0.3, 1.0, 2.0, 2.5, 100.0])
        chi = smooth_bridge(rho)
        assert np.all(chi[:3] == 1.0)
        assert np.all(chi[3:] == 0.0)

    def test_monotone_transition(self):
        rho = np.linspace(1.0, 2.0, 513)
        chi = smooth_bridge(rho)
        assert np.all(np.diff(chi) <= 1e-15)
        assert 0.0 < chi[256] < 1.0


def spectral_norm(grid, spec, weight=1.0):
    """(sum weight |spec|^2 h^d)^{1/2}, a harness norm of the function
    whose unitary spectrum is spec."""
    return np.sqrt(np.sum(weight * np.abs(spec) ** 2) * grid.measure)


class TestNorms:
    """The harness norms: plain spectral sums with the squared weights of
    estimates._norm_weights, which drop the modes under the cell floor s/2."""

    def test_b_zero_is_l2(self, grid16, zeta16):
        # the weights of b = 1/2 and -1/2 multiply to the L2 weight, zero
        # on the dropped modes for the homogeneous pair
        f = random_values(grid16, 5)
        hom, inh, _ = _norm_weights(zeta16, grid16)
        kept = hom[0.5] > 0
        assert not kept[0, 0, 0]
        np.testing.assert_allclose(hom[0.5] * hom[-0.5], kept, rtol=1e-14, atol=0)
        l2 = np.sqrt(np.sum(np.abs(f) ** 2) * grid16.measure)
        assert spectral_norm(grid16, f, inh[0.5] * inh[-0.5]) == pytest.approx(l2, rel=1e-13)

    def test_single_mode_value(self, grid16, zeta16):
        # |p| = 4 at xi = (0, 2, 0): the 1/2-norm is 2 sqrt(measure), the
        # -1/2-norm a quarter of that
        spec = np.zeros(grid16.shape, dtype=complex)
        spec[grid16.mode_index(np.array([0.0, 2.0, 0.0]))] = 1.0
        hom, _, _ = _norm_weights(zeta16, grid16)
        expected = 2.0 * np.sqrt(grid16.measure)
        assert spectral_norm(grid16, spec, hom[0.5]) == pytest.approx(expected, rel=1e-12)
        assert spectral_norm(grid16, spec, hom[-0.5]) == pytest.approx(expected / 4.0, rel=1e-12)

    def test_x_norm_zero_mode(self, grid16, zeta16):
        # p(0) = 0: the inhomogeneous weight is |zeta|^{-1}, the homogeneous
        # one drops the mode
        spec = np.zeros(grid16.shape, dtype=complex)
        spec[0, 0, 0] = 1.0
        hom, inh, _ = _norm_weights(zeta16, grid16)
        expected = (np.sqrt(2.0) * zeta16.s) ** -0.5 * np.sqrt(grid16.measure)
        assert spectral_norm(grid16, spec, inh[-0.5]) == pytest.approx(expected, rel=1e-12)
        assert spectral_norm(grid16, spec, hom[-0.5]) == 0.0

    @given(seed=st.integers(0, 500))
    def test_inhomogeneous_dominated_by_homogeneous(self, seed):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        zeta = cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0]))
        hom, inh, _ = _norm_weights(zeta, grid)
        # off the dropped modes
        f = random_values(grid, seed) * (hom[0.5] > 0)
        assert spectral_norm(grid, f, inh[-0.5]) <= spectral_norm(grid, f, hom[-0.5]) * (1 + 1e-12)

    def test_clamped_mass_fraction(self, grid16, zeta16):
        # the share of the L2 mass on the clamped modes, in plain numpy
        clamped = clamp_rule(np.abs(lattice_symbol(zeta16, [grid16.xi_axis] * 3)), 1e-6, zeta16.s)

        def fraction(spec):
            return np.linalg.norm(spec[clamped]) / np.linalg.norm(spec)

        f = np.fft.fftn(np.ones(grid16.shape), norm="ortho")  # all mass at xi = 0
        assert fraction(f) == pytest.approx(1.0)
        spec = np.zeros(grid16.shape, dtype=complex)
        spec[grid16.mode_index(np.array([0.0, 2.0, 0.0]))] = 1.0
        assert fraction(spec) == 0.0


class TestProjections:
    """The high-pass amplitude 1 - chi(|xi| / 8s) of estimates._norm_weights."""

    @staticmethod
    def zeta(s):
        return cg.Zeta(s * (np.array([1.0, 0, 0]) - 1j * np.array([0, 1.0, 0])))

    @staticmethod
    def high_pass(zeta, grid):
        return _norm_weights(zeta, grid)[2]

    def test_partition_of_identity(self, grid16):
        high = self.high_pass(self.zeta(1.0), grid16)
        low = smooth_bridge(np.sqrt(grid16.xi_sq) / 8.0)
        assert np.max(np.abs(low + high - 1.0)) < 1e-15

    def test_low_supported_in_double_ball(self, grid16):
        # s = 1/2: the high pass is the identity beyond |xi| = 16 s
        high = self.high_pass(self.zeta(0.5), grid16)
        outside = grid16.xi_sq >= 8.0 ** 2
        assert outside.any() and np.all(high[outside] == 1.0)

    def test_high_vanishes_inside_ball(self, grid16):
        high = self.high_pass(self.zeta(1.0), grid16)
        inside = grid16.xi_sq <= 8.0 ** 2
        assert np.all(high[inside] == 0.0) and high[~inside].any()

    def test_band_limited_input_passes_low(self, grid16, pair16):
        # 8s = 48 covers the whole n=16 lattice
        assert not self.high_pass(pair16.zeta1, grid16).any()

    def test_idempotent_on_plateaus(self, grid16):
        high = self.high_pass(self.zeta(1.0), grid16)
        rho_sq = grid16.xi_sq / 8.0 ** 2
        plateau = (rho_sq <= 1.0) | (rho_sq >= 4.0)
        assert np.array_equal(high[plateau] * high[plateau], high[plateau])

    def test_finite_band_property(self, grid16):
        # the high part of a 2/3-cube field lives at |xi| > 8s, off the
        # Nyquist planes, so its gradient is at least 8s times its L2 norm
        zeta = self.zeta(1.0)
        high = random_values(grid16, 13) * grid16.dealias_mask * self.high_pass(zeta, grid16)
        xi = grid16.xi_axis.copy()
        xi[grid16.n // 2] = 0.0  # the derivative's Nyquist row
        grad_weight = reduce(np.add.outer, [xi ** 2] * 3)
        assert spectral_norm(grid16, high) > 0
        assert spectral_norm(grid16, high, grad_weight) >= 8.0 * zeta.s * spectral_norm(grid16, high) * (1 - 1e-12)


class TestInverse:
    """The inverse of the conjugated Laplacian is the solver's: its first
    step from psi_0 = 0 is psi_1 = InvDelta_zeta(q), which divides qhat by
    p on the kept modes K (the 2/3 cube minus the clamped modes) and is
    zero elsewhere."""

    @staticmethod
    def first_step(cond, zeta, **kwargs):
        modes, rep, _ = cg.solve_psi(cond, zeta, max_iter=1, **kwargs)
        psi = full_psihat(cond.grid, modes)
        pabs = np.abs(lattice_symbol(zeta, [cond.grid.xi_axis] * 3))
        clamped = clamp_rule(pabs, kwargs.get("clamp_eps", 1e-6), zeta.s)
        return psi, rep, ~clamped & cond.grid.dealias_mask

    def test_single_mode_division(self, bump16, zeta16):
        # p((0, 2, 0)) = 4 for the lattice-aligned zeta
        psi, _, _ = self.first_step(bump16, zeta16)
        idx = bump16.grid.mode_index(np.array([0.0, 2.0, 0.0]))
        assert psi[idx] == pytest.approx(0.25 * full_spectrum(bump16.grid, bump16.q_hat)[idx], rel=1e-14)

    def test_right_inverse_identity_off_clamped(self, bump16, pair16):
        z = pair16.zeta1
        psi, _, kept = self.first_step(bump16, z)
        qhat = full_spectrum(bump16.grid, bump16.q_hat)
        back = lattice_symbol(z, [bump16.grid.xi_axis] * 3) * psi
        assert np.max(np.abs(back[kept] - qhat[kept])) <= 1e-11 * np.max(np.abs(qhat[kept]))
        assert np.all(psi[~kept] == 0.0)

    def test_norm_isometry(self, bump16, pair16):
        # ||psi_1|| in the 1/2-norm is ||q|| in the -1/2-norm on K, with
        # |p| = |-|xi|^2 + 2i zeta . xi| on the integer lattice (L = 2 pi)
        z = pair16.zeta1
        psi, _, kept = self.first_step(bump16, z)
        m = np.fft.fftfreq(16, d=1.0 / 16)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
        pabs = np.abs(-np.sum(xi * xi, axis=-1) + 2j * (xi @ z.value))
        qhat = full_spectrum(bump16.grid, bump16.q_hat)[kept]
        lhs = np.sqrt(np.sum(pabs * np.abs(psi) ** 2) * bump16.grid.measure)
        rhs = np.sqrt(np.sum(np.abs(qhat) ** 2 / pabs[kept]) * bump16.grid.measure)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_drop_policy_zeroes(self, bump16, zeta16):
        psi, rep, _ = self.first_step(bump16, zeta16, clamp_eps=1e-6)
        assert full_spectrum(bump16.grid, bump16.q_hat)[0, 0, 0] != 0.0
        assert psi[0, 0, 0] == 0.0
        assert rep.clamped_mass > 0


class TestInverseSymbolSums:
    """The pair -1/2 kernel against a per-zeta plain-numpy oracle: sums at
    zeta2 come from zeta1's symbol and the mirrored density row.  The
    kernel reads even densities on the half lattice; the oracle sums the
    full lattice."""

    K = np.array([0.0, 0.0, 1.0])
    KS = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 0.0]))

    @pytest.fixture(scope="class")
    def pairs(self, zeta16):
        # sampled pairs at each k, plus the k = 0 pair whose zeta1 is the
        # lattice-aligned zeta16 (p vanishes on lattice points besides 0)
        out = [[make_zeta_pair(np.zeros(3), 2.0, [1.0, 0, 0], [0, -1.0, 0])]]
        assert np.array_equal(out[0][0].zeta1.value, zeta16.value)
        for k in self.KS:
            out.append([
                cg.zeta_pair_from_angle(k, s, theta)
                for s, theta in ((4.0, 0.3), (5.5, 1.7), (7.9, 4.0))
            ])
        return out

    @staticmethod
    def even(dens):
        """dens(m) + dens(-m): exactly even on the full FFT-order lattice."""
        neg = (-np.arange(dens.shape[0])) % dens.shape[0]  # FFT-order index of -m
        return dens + dens[np.ix_(neg, neg, neg)]

    @pytest.fixture(scope="class")
    def full_dens(self, grid16):
        # |uhat|^2 of real noise: a full row (the Nyquist planes m_j = -8
        # included) and a cube row
        rng = np.random.default_rng(3)
        full = np.abs(np.fft.fftn(rng.standard_normal(grid16.shape))) ** 2
        cube = np.abs(np.fft.fftn(rng.standard_normal(grid16.shape))) ** 2 * grid16.dealias_mask
        return np.stack([self.even(full), self.even(cube)])

    @pytest.fixture(scope="class")
    def dens(self, full_dens):
        return full_dens[..., : full_dens.shape[-1] // 2 + 1]

    @staticmethod
    def oracle(dens, zeta, n, clamp_eps, policy):
        """sum_xi dens(xi) w(xi) over the full lattice, |p| = |-|xi|^2 +
        2i zeta . xi| built per zeta."""
        m = np.fft.fftfreq(n, d=1.0 / n)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
        pabs = np.abs(-np.sum(xi * xi, axis=-1) + 2j * (xi @ zeta.value))
        floor = clamp_eps * np.linalg.norm(zeta.value.real)
        w = 1.0 / np.maximum(pabs, floor)
        if policy == "drop":
            w[pabs < floor] = 0.0
        return np.sum(dens * w)

    def check(self, sums, dens, pairs, clamp_eps, policy, rel=1e-13):
        assert sums.shape == (len(dens), len(pairs), 2)
        for i, row in enumerate(dens):
            for j, pair in enumerate(pairs):
                for l, zeta in enumerate((pair.zeta1, pair.zeta2)):
                    expected = self.oracle(row, zeta, row.shape[0], clamp_eps, policy)
                    assert sums[i, j, l] == pytest.approx(expected, rel=rel)

    @pytest.mark.parametrize("policy", ["floor", "drop"])
    @pytest.mark.parametrize("eps", ["1e-6", "cell"])
    def test_matches_per_zeta_oracle(self, grid16, pairs, dens, full_dens, policy, eps):
        clamp_eps = 1e-6 if eps == "1e-6" else grid16.freq_step / 2.0
        for batch in pairs:
            sums = pair_inverse_symbol_sums(dens, batch, grid16, clamp_eps, policy)
            self.check(sums, full_dens, batch, clamp_eps, policy)

    def test_value_independent_of_batch(self, grid16, dens, full_dens, monkeypatch):
        # a pair alone and among others, first, inside and last in a batch,
        # summed over six axis-0 slabs of the 17 x 17 x 16 box (the last partial)
        monkeypatch.setattr(cg.spaces, "SLAB_POINTS", 3 * 17 * 16)
        for k in self.KS:
            batch = [cg.zeta_pair_from_angle(k, 4.0 + 0.05 * j, 0.1 * j) for j in range(7)]
            together = pair_inverse_symbol_sums(dens, batch, grid16, 1e-6, "drop")
            self.check(together, full_dens, batch, 1e-6, "drop")
            for j in (0, 3, 6):
                alone = pair_inverse_symbol_sums(dens, [batch[j]], grid16, 1e-6, "drop")
                np.testing.assert_allclose(alone[:, 0], together[:, j], rtol=1e-14)

    def test_memory_does_not_grow_with_the_pairs(self, bump32):
        # one box per row and per-slab buffers: 64 pairs hold no more than 4
        # beyond their per-axis terms
        grid = bump32.grid
        dens = [np.abs(bump32.q_hat) ** 2]
        peaks = []
        for count in (4, 64):
            pairs = [cg.zeta_pair_from_angle(self.K, 8.0 + 0.1 * j, 0.1 * j) for j in range(count)]
            tracemalloc.start()
            pair_inverse_symbol_sums(dens, pairs, grid, 1e-6, "drop")
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.25 * 2 ** 20

    def test_mirror_of_the_origin_is_a_zero(self, grid16):
        # p_1(-k) = p_2(0) = 0; with a floor far under rounding (1e-20 s)
        # both zetas see exactly the floored weight at xi = 0
        row = np.zeros((16, 16, 9))
        row[0, 0, 0] = 1.0
        for k in self.KS:
            pair = cg.zeta_pair_from_angle(k, 5.0, 0.4)
            sums = pair_inverse_symbol_sums([row], [pair], grid16, 1e-20, "floor")
            np.testing.assert_allclose(sums[0, 0], 1e20 / pair.s, rtol=1e-13)

    def test_nonpositive_clamp_rejected(self, grid16, pairs, dens, bump32):
        # a positive clamp is a precondition of the sums and of the
        # selection built on them
        for clamp_eps in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError, match="clamp_eps"):
                pair_inverse_symbol_sums(dens, pairs[1], grid16, clamp_eps, "floor")
            with pytest.raises(ValueError, match="clamp_eps"):
                cg.select_zeta_sequence([bump32], self.K, [8.0], 2, seed=0, clamp_eps=clamp_eps)

    def test_selection_builds_no_symbol_data(self, bump32, monkeypatch):
        # the sums evaluate zeta1's symbol in slabs; no full-lattice symbol
        # is formed for any sample
        def forbidden(*args):
            raise AssertionError("a full-lattice symbol was formed")

        for module in (cg.symbol, cg.cgo, cg.estimates):
            monkeypatch.setattr(module, "lattice_symbol", forbidden)
        selection = cg.select_zeta_sequence([bump32, bump32], self.K, [8.0, 16.0], 3, seed=1)
        assert [len(band.samples) for band in selection] == [3, 3]

    def test_zero_density_gives_zeros(self, grid16, pairs):
        sums = pair_inverse_symbol_sums(np.zeros((2, 16, 16, 9)), pairs[1], grid16, 1e-6, "floor")
        assert sums.shape == (2, 3, 2) and not sums.any()

    def test_rejects_pairs_with_different_k(self, grid16, pairs):
        with pytest.raises(ValueError, match="share one k"):
            pair_inverse_symbol_sums([np.ones((16, 16, 9))], pairs[1] + pairs[2], grid16, 1e-6, "floor")

    def test_rejects_negative_density(self, grid16, pairs):
        with pytest.raises(ValueError, match="nonnegative"):
            pair_inverse_symbol_sums([-np.ones((16, 16, 9))], pairs[0], grid16, 1e-6, "floor")

    def test_rejects_full_lattice_rows(self, grid16, pairs):
        with pytest.raises(ValueError, match="half-lattice shape"):
            pair_inverse_symbol_sums([np.ones(grid16.shape)], pairs[1], grid16, 1e-6, "floor")
