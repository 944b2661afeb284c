import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cgolab as cg
from cgolab.errors import FrameError, InfeasibleGeometryError
from cgolab.symbol import char_distance, lattice_symbol, make_zeta_pair, orthonormal_plane

from conftest import TWO_PI


class TestZetaPairConstruction:
    def test_k_zero_symmetry(self):
        pair = make_zeta_pair(np.zeros(3), 1.0, [1, 0, 0], [0, 1, 0])
        assert np.allclose(pair.zeta1.value, [1, 1j, 0])
        assert np.allclose(pair.zeta2.value, [-1, -1j, 0])
        assert np.allclose(pair.zeta1.value + pair.zeta2.value, 0)

    def test_worked_example(self):
        # independent arithmetic: r = sqrt(4 - 1) and the two displays
        pair = make_zeta_pair([0.0, 0.0, 2.0], 2.0, [1, 0, 0], [0, 1, 0])
        assert pair.r == pytest.approx(np.sqrt(3.0), rel=1e-15)
        z1 = np.array([2.0, 1j * np.sqrt(3.0), 1j])
        z2 = np.array([-2.0, -1j * np.sqrt(3.0), 1j])
        assert np.max(np.abs(pair.zeta1.value - z1)) < 1e-14
        assert np.max(np.abs(pair.zeta2.value - z2)) < 1e-14
        for z in (pair.zeta1, pair.zeta2):
            assert abs(np.sum(z.value * z.value)) < 1e-12 * pair.s ** 2
        total = pair.zeta1.value + pair.zeta2.value
        assert np.max(np.abs(total - 1j * np.array([0, 0, 2.0]))) < 1e-12 * pair.s

    def test_infeasible_geometry(self):
        with pytest.raises(InfeasibleGeometryError):
            make_zeta_pair([0.0, 0.0, 4.0], 1.0, [1, 0, 0], [0, 1, 0])

    def test_frame_errors(self):
        with pytest.raises(FrameError):
            make_zeta_pair([0.0, 0.0, 1.0], 2.0, [1, 0, 0], [1, 0, 0])
        with pytest.raises(FrameError):
            make_zeta_pair([0.0, 0.0, 1.0], 2.0, [2, 0, 0], [0, 1, 0])
        with pytest.raises(FrameError):
            make_zeta_pair([1.0, 0.0, 0.0], 2.0, [1, 0, 0], [0, 1, 0])

    @given(
        mx=st.integers(-4, 4),
        my=st.integers(-4, 4),
        mz=st.integers(-4, 4),
        s_scale=st.floats(1.05, 16.0),
        theta=st.floats(0.0, 2 * np.pi),
    )
    def test_pair_invariants_random(self, mx, my, mz, s_scale, theta):
        k = np.array([mx, my, mz], dtype=float)
        s = 0.5 * np.linalg.norm(k) * s_scale + 1.0
        pair = cg.zeta_pair_from_angle(k, s, theta)
        for z in (pair.zeta1, pair.zeta2):
            assert abs(np.sum(z.value * z.value)) <= 1e-12 * s * s
            assert abs(np.linalg.norm(z.value.real) - s) <= 1e-12 * s
            assert abs(np.linalg.norm(z.value.imag) - s) <= 1e-12 * s
        total = pair.zeta1.value + pair.zeta2.value - 1j * k
        assert np.max(np.abs(total)) <= 1e-12 * s
        assert pair.s ** 2 == pytest.approx(np.dot(k, k) / 4 + pair.r ** 2, rel=1e-12)
        assert abs(np.dot(pair.eta1, pair.eta2)) < 1e-10
        assert abs(np.dot(pair.k, pair.eta1)) < 1e-10 * max(1, np.linalg.norm(k))
        assert abs(np.dot(pair.k, pair.eta2)) < 1e-10 * max(1, np.linalg.norm(k))


def _adapted_form(zeta, xi):
    """(s^2 - |xi - s e2|^2) + 2is (xi . e1) for points xi of shape (..., d),
    from the zeta's frame in plain numpy."""
    s = zeta.s
    shifted = xi - s * zeta.e2
    return (s * s - np.sum(shifted * shifted, axis=-1)) + 2j * s * (xi @ zeta.e1)


class TestSymbol:
    """p(xi) = -|xi|^2 + 2i zeta . xi read at lattice points (L = 2 pi, so
    the lattice is the integer one)."""

    ZETA = cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0]))

    @staticmethod
    def p_at(zeta, grid, xi):
        return lattice_symbol(zeta, [grid.xi_axis] * 3)[grid.mode_index(np.array(xi))]

    def test_origin_is_characteristic(self, grid16):
        pair = cg.zeta_pair_from_angle(np.array([0, 0, 1.0]), 5.0, 0.7)
        assert self.p_at(pair.zeta1, grid16, [0.0, 0.0, 0.0]) == 0

    def test_hand_evaluated_point_on_sphere(self, grid16):
        # -16 + 2i*(zeta . xi) with zeta . xi = -8i gives exactly 0
        xi = [0.0, 4.0, 0.0]
        assert self.p_at(self.ZETA, grid16, xi) == pytest.approx(0.0, abs=1e-13)
        assert _adapted_form(self.ZETA, np.array(xi)) == pytest.approx(0.0, abs=1e-12)

    def test_sphere_center_value(self, grid16):
        xi = [0.0, 2.0, 0.0]
        assert self.p_at(self.ZETA, grid16, xi) == pytest.approx(4.0, rel=1e-14)
        assert _adapted_form(self.ZETA, np.array(xi)) == pytest.approx(4.0, rel=1e-10)

    def test_two_forms_agree_on_lattice(self, grid16):
        m = np.fft.fftfreq(16, d=1.0 / 16)
        xi = np.stack(np.meshgrid(m, m, m, indexing="ij"), axis=-1)
        rng = np.random.default_rng(21)
        for _ in range(5):
            k = grid16.lattice_frequency(rng.integers(-3, 4, size=3))
            s = rng.uniform(max(1.0, np.linalg.norm(k)), 20.0)
            pair = cg.zeta_pair_from_angle(k, s, rng.uniform(0, TWO_PI))
            direct = lattice_symbol(pair.zeta1, [grid16.xi_axis] * 3)
            adapted = _adapted_form(pair.zeta1, xi)
            scale = np.maximum(np.abs(direct), s * s)
            assert np.max(np.abs(direct - adapted) / scale) < 1e-10

    def test_products_are_restrictions_of_the_lattice(self, grid32):
        # the solver takes p on the 2/3 cube and on axis-0 slabs: every
        # point must carry the bits it has on the whole lattice
        xi = grid32.xi_axis
        cube = np.flatnonzero(np.abs(grid32.mode_axis) <= 32 // 3)
        for k, s, theta in (((0.0, 0.0, 1.0), 16.0, 0.3), ((1.0, 2.0, 0.0), 5.3, 1.9)):
            pair = cg.zeta_pair_from_angle(np.array(k), s, theta)
            for zeta in (pair.zeta1, pair.zeta2, self.ZETA):
                full = lattice_symbol(zeta, [xi] * 3)
                for axes, part in (([xi[cube]] * 3, full[np.ix_(cube, cube, cube)]),
                                   ([xi[29:]] + [xi] * 2, full[29:])):
                    assert lattice_symbol(zeta, axes).tobytes() == part.tobytes()


class TestCharDistance:
    """| s - |xi - s e2| | + |xi . e1| read at lattice points."""

    ZETA = cg.Zeta(np.array([2.0, 0, 0]) - 2j * np.array([0, 1.0, 0]))

    def dist_at(self, grid, xi):
        return char_distance(self.ZETA, [grid.xi_axis] * grid.d)[grid.mode_index(np.array(xi))]

    def test_zero_on_characteristic_set(self, grid16):
        assert self.dist_at(grid16, [0.0, 4.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert self.dist_at(grid16, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_sphere_center(self, grid16):
        assert self.dist_at(grid16, [0.0, 2.0, 0.0]) == pytest.approx(2.0, rel=1e-14)

    def test_hand_formula(self, grid16):
        expected = abs(2.0 - np.sqrt(5.0)) + 1.0
        assert self.dist_at(grid16, [1.0, 0.0, 0.0]) == pytest.approx(expected, rel=1e-14)


class TestAdaptedFrame:
    def test_trivial_frame(self):
        s0 = 3.5
        zeta = cg.Zeta(s0 * np.array([1.0, 0, 0]) - 1j * s0 * np.array([0, -1.0, 0]))
        assert zeta.s == pytest.approx(s0, rel=1e-15)
        assert np.allclose(zeta.e1, [1, 0, 0])
        assert np.allclose(zeta.e2, [0, -1, 0])

    def test_pair_frame_example(self):
        pair = make_zeta_pair([0.0, 0.0, 2.0], 2.0, [1, 0, 0], [0, 1, 0])
        e1, e2, s = pair.zeta1.e1, pair.zeta1.e2, pair.zeta1.s
        assert s == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(e1, [1, 0, 0], atol=1e-14)
        assert np.allclose(e2, -np.array([0, np.sqrt(3.0), 1.0]) / 2.0, atol=1e-14)
        recon = s * (e1 - 1j * e2)
        assert np.max(np.abs(recon - pair.zeta1.value)) < 1e-12 * s

    def test_zero_zeta_rejected(self):
        with pytest.raises(FrameError):
            cg.Zeta(np.zeros(3, dtype=complex))

    def test_non_null_zeta_rejected(self):
        with pytest.raises(FrameError):
            cg.Zeta(np.array([1.0 + 0j, 1j, 1j]))


class TestComparability:
    def test_high_frequency_two_sided_bound(self):
        # small L packs high frequencies onto the lattice so the region
        # |xi| >= 8s is well populated
        grid = cg.FrequencyGrid(3, 16, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(6):
            s = rng.uniform(1.0, 4.0)
            pair = cg.zeta_pair_from_angle(np.zeros(3), s, rng.uniform(0, TWO_PI))
            for zeta in (pair.zeta1, pair.zeta2):
                pabs = np.abs(lattice_symbol(zeta, [grid.xi_axis] * 3))
                xi_sq = grid.xi_sq
                region = xi_sq >= (8.0 * s) ** 2
                assert region.sum() > 0
                assert np.all(pabs[region] >= 0.5 * xi_sq[region])
                assert np.all(pabs[region] <= 1.5 * xi_sq[region])

    def test_low_frequency_ratio_stable_in_s(self):
        # the lattice is rescaled with s so it covers the same relative
        # neighbourhood |xi| <~ 3.5 s at every s; points within one
        # physical-grid h of the characteristic set are excluded
        stats = {}
        for s in (8.0, 16.0, 32.0, 64.0):
            grid = cg.FrequencyGrid(3, 32, TWO_PI * 8.0 / s)
            pair = cg.zeta_pair_from_angle(np.zeros(3), s, 0.37)
            zeta = pair.zeta1
            pabs = np.abs(lattice_symbol(zeta, [grid.xi_axis] * 3))
            dist = char_distance(zeta, [grid.xi_axis] * grid.d)
            keep = dist >= grid.h
            ratio = pabs[keep] / (s * dist[keep])
            stats[s] = (ratio.min(), ratio.max())
        c1s = [v[0] for v in stats.values()]
        c2s = [v[1] for v in stats.values()]
        assert max(c1s) / min(c1s) <= 1.2
        assert max(c2s) / min(c2s) <= 1.2


class TestOrthonormalPlane:
    def test_deterministic_and_orthogonal(self):
        k = np.array([0.0, 0.0, 3.0])
        p1, p2 = orthonormal_plane(k)
        q1, q2 = orthonormal_plane(k)
        assert np.array_equal(p1, q1) and np.array_equal(p2, q2)
        for v in (p1, p2):
            assert abs(np.linalg.norm(v) - 1) < 1e-12
            assert abs(np.dot(v, k)) < 1e-12
        assert abs(np.dot(p1, p2)) < 1e-12

    def test_k_zero_gives_axes(self):
        p1, p2 = orthonormal_plane(np.zeros(3))
        assert np.allclose(p1, [1, 0, 0]) and np.allclose(p2, [0, 1, 0])

    def test_two_dimensional_nonzero_k_rejected(self):
        with pytest.raises(InfeasibleGeometryError):
            orthonormal_plane(np.array([1.0, 0.0]))
