import numpy as np
import pytest

import cgolab as cg

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
        assert sb.operator_norm >= spectral_norm * (1 - 1e-6)

    def test_nonpositive_weight_rejected(self, grid8):
        with pytest.raises(ValueError):
            cg.schur_bound(gaussian_phi, lambda pts: np.sum(pts * pts, axis=-1), unit, grid8)


class TestMqKernel:
    @pytest.fixture(scope="class")
    def cone32(self, grid32):
        return cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})

    @pytest.mark.parametrize("profile", ["bump32", "cone32"])
    def test_duality_form_is_sum_of_q(self, request, profile):
        """mq_bilinear, which is sum q u v h^d, equals the duality form
        -sum grad g . grad(uv/g) h^d evaluated in plain numpy: the kernel
        that mq_operator_ratio's power mode uses is the form's own."""
        cond = request.getfixturevalue(profile)
        u = random_field(cond.grid, 11)
        v = random_field(cond.grid, 12)
        duality = _oracle_duality_form(cond.gamma.values.real, u.values * v.values, cond.grid.L)
        # measured gaps 7.5e-14 (bump32, |value| 0.010) and 1.6e-14 (cone32):
        # the oracle's random-field gradients are large, so on bump32 the
        # rounding sits under approx's absolute floor of 1e-12
        assert cg.mq_bilinear(u, v, cond) == pytest.approx(duality, rel=1e-12)
