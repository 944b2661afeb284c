import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cgolab as cg
from cgolab.errors import RepresentationError
from cgolab.grid import dealias_23, l2_norm, multiply, spectral_gradient, weighted_l2

from conftest import TWO_PI, random_field


class TestCubeTransform:
    @pytest.mark.parametrize("d, n", [(3, 32), (3, 64), (2, 16)])
    def test_bit_identical_to_full_transforms(self, d, n):
        grid = cg.FrequencyGrid(d, n, TWO_PI)
        rng = np.random.default_rng(n)
        noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        spec = noise * grid.dealias_mask
        phys = cg.grid.cube_transform(grid, spec.copy(), "inverse")
        np.testing.assert_array_equal(phys, np.fft.ifftn(spec, norm="ortho"))
        # the forward is exact on the cube only
        back = cg.grid.cube_transform(grid, noise.copy(), "forward")
        full = np.fft.fftn(noise, norm="ortho")
        np.testing.assert_array_equal(back[grid.dealias_mask], full[grid.dealias_mask])
        assert not np.allclose(back, full)

    def test_rejects_bad_input(self, grid16):
        with pytest.raises(ValueError):
            cg.grid.cube_transform(grid16, np.zeros((16, 16), dtype=complex), "inverse")
        with pytest.raises(ValueError):
            cg.grid.cube_transform(grid16, np.zeros(grid16.shape, dtype=complex), "sideways")


class TestTransform:
    def test_dc_mode(self, grid16):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        fs = cg.transform(cg.physical_field(grid, np.ones(grid.shape)), "forward")
        assert fs.values[0, 0, 0] == pytest.approx(8 ** 1.5, rel=1e-13)
        rest = np.abs(fs.values).copy()
        rest[0, 0, 0] = 0.0
        assert rest.max() < 1e-13

    def test_pure_mode_single_coefficient(self, grid16):
        k = grid16.lattice_frequency([2, -3, 1])
        fs = cg.transform(cg.exp_ik_field(grid16, k), "forward")
        idx = grid16.mode_index(k)
        expected = grid16.n ** (grid16.d / 2.0)
        assert fs.values[idx] == pytest.approx(expected, rel=1e-12)
        rest = np.abs(fs.values).copy()
        rest[idx] = 0.0
        assert rest.max() < 1e-10 * expected

    @given(seed=st.integers(0, 10_000))
    def test_round_trip(self, seed):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        f = random_field(grid, seed)
        back = cg.transform(cg.transform(f, "forward"), "inverse")
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    @given(seed=st.integers(0, 10_000))
    def test_plancherel(self, seed):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        f = random_field(grid, seed)
        assert l2_norm(f) == pytest.approx(l2_norm(cg.to_spectral(f)), rel=1e-12)

    def test_direction_mismatch_raises(self, grid16):
        f = cg.physical_field(grid16, np.ones(grid16.shape))
        fs = cg.transform(f, "forward")
        with pytest.raises(RepresentationError):
            cg.transform(fs, "forward")
        with pytest.raises(RepresentationError):
            cg.transform(f, "inverse")

    def test_deterministic_bit_identical(self, grid16):
        f = random_field(grid16, 4)
        a = cg.transform(f, "forward").values
        b = cg.transform(f, "forward").values
        assert a.tobytes() == b.tobytes()


class TestGradient:
    def test_constant_gradient_zero(self, grid16):
        grads = spectral_gradient(cg.physical_field(grid16, np.full(grid16.shape, 3.7)))
        for gj in grads:
            assert np.max(np.abs(gj.values)) < 1e-12

    def test_single_mode(self, grid16):
        L = grid16.L
        x = grid16.x_axis
        vals = np.sin(TWO_PI * x / L)[:, None, None] * np.ones(grid16.shape)
        f = cg.physical_field(grid16, vals)
        grads = [cg.to_physical(g) for g in spectral_gradient(f)]
        expected = (TWO_PI / L) * np.cos(TWO_PI * x / L)[:, None, None]
        assert np.max(np.abs(grads[0].values - expected)) < 1e-12
        assert np.max(np.abs(grads[1].values)) < 1e-12
        assert np.max(np.abs(grads[2].values)) < 1e-12

    def test_matches_finite_differences_at_order_two(self):
        # oracle: centered differences on the same grid; the same
        # band-limited function is sampled at each resolution
        def build(grid):
            rng = np.random.default_rng(11)
            spec = np.zeros(grid.shape, dtype=complex)
            for _ in range(12):
                m = rng.integers(-3, 4, size=3)
                amp = rng.standard_normal() + 1j * rng.standard_normal()
                spec[grid.mode_index(grid.lattice_frequency(m))] = amp
            return cg.to_physical(cg.spectral_field(grid, spec * grid.n ** 1.5))

        errs = []
        for n in (32, 64):
            grid = cg.FrequencyGrid(3, n, TWO_PI)
            f = build(grid)
            gspec = cg.to_physical(spectral_gradient(f)[0]).values
            vals = f.values
            gfd = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * grid.h)
            errs.append(np.max(np.abs(gspec - gfd)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_leibniz_rule_unaliased(self, grid16):
        # factors band-limited below half Nyquist so the product is exact
        rng = np.random.default_rng(3)

        def bl_field(seed):
            spec = np.zeros(grid16.shape, dtype=complex)
            r = np.random.default_rng(seed)
            for _ in range(6):
                m = r.integers(-3, 4, size=3)
                spec[grid16.mode_index(grid16.lattice_frequency(m))] = r.standard_normal() + 1j * r.standard_normal()
            return cg.to_physical(cg.spectral_field(grid16, spec))

        f, g = bl_field(1), bl_field(2)
        prod = multiply(f, g)
        lhs = [cg.to_physical(t).values for t in spectral_gradient(prod)]
        df = [cg.to_physical(t).values for t in spectral_gradient(f)]
        dg = [cg.to_physical(t).values for t in spectral_gradient(g)]
        scale = max(np.max(np.abs(x)) for x in lhs)
        for j in range(3):
            rhs = df[j] * g.values + f.values * dg[j]
            assert np.max(np.abs(lhs[j] - rhs)) <= 1e-10 * scale


class TestWeightedL2:
    def test_unit_weight_is_physical_l2(self, grid16):
        f = random_field(grid16, 7)
        w = np.ones(grid16.shape)
        assert weighted_l2(f, w) == pytest.approx(l2_norm(f), rel=1e-13)

    def test_single_mode_one_term_sum(self, grid16):
        k = grid16.lattice_frequency([1, 2, 0])
        idx = grid16.mode_index(k)
        spec = np.zeros(grid16.shape, dtype=complex)
        spec[idx] = 1.0
        f = cg.spectral_field(grid16, spec)
        w = np.full(grid16.shape, 0.25)
        w[idx] = 9.0
        expected = 3.0 * np.sqrt(grid16.measure)
        assert weighted_l2(f, w) == pytest.approx(expected, rel=1e-13)

    def test_gradient_weight_matches_gradient_norm(self, grid16):
        # |xi|^2 weight with each axis's Nyquist row zeroed, matching the
        # differentiation convention
        f = random_field(grid16, 9)
        w = sum(np.abs(m) ** 2 for m in grid16.deriv_multipliers)
        w = np.broadcast_to(w, grid16.shape)
        grad_norm = np.sqrt(sum(l2_norm(g) ** 2 for g in spectral_gradient(f)))
        assert weighted_l2(f, w) == pytest.approx(grad_norm, rel=1e-10)

    def test_negative_weight_rejected(self, grid16):
        f = random_field(grid16, 1)
        w = np.ones(grid16.shape)
        w[0, 0, 0] = -1e-9
        with pytest.raises(ValueError):
            weighted_l2(f, w)


class TestFieldAlgebra:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            cg.FrequencyGrid(3, 15, TWO_PI)
        with pytest.raises(ValueError):
            cg.FrequencyGrid(3, 4, TWO_PI)
        with pytest.raises(ValueError):
            cg.FrequencyGrid(1, 16, TWO_PI)
        with pytest.raises(ValueError):
            cg.FrequencyGrid(3, 16, -1.0)
        for period in (np.inf, np.nan):
            with pytest.raises(ValueError, match="period L"):
                cg.FrequencyGrid(3, 16, period)

    def test_lattice_negation_closure_except_nyquist(self, grid16):
        modes = grid16.mode_axis
        non_nyquist = modes[np.abs(modes) != grid16.n // 2]
        assert set(non_nyquist.tolist()) == set((-non_nyquist).tolist())
        assert -grid16.n // 2 in modes.tolist()
        assert grid16.n // 2 not in modes.tolist()

    def test_field_immutable(self, grid16):
        f = cg.physical_field(grid16, np.ones(grid16.shape))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 2.0

    def test_mode_index_validation(self, grid16):
        with pytest.raises(ValueError):
            grid16.mode_index(np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            grid16.mode_index(np.array([float(grid16.n), 0.0, 0.0]))

    @pytest.mark.parametrize("d, n", [(3, 16), (2, 32)])
    def test_radius_from_center_is_the_per_axis_sum(self, d, n):
        grid = cg.FrequencyGrid(d, n, TWO_PI)
        delta = np.abs(grid.x_axis - grid.L / 2.0)
        delta = np.minimum(delta, grid.L - delta)
        total = np.zeros(grid.shape)
        for j in range(d):
            total = total + grid._along(j, delta) ** 2
        np.testing.assert_array_equal(grid.radius_from_center, np.sqrt(total))
        assert "radius_from_center" not in vars(grid)  # formed on each read

    def test_dealias_removes_high_modes(self, grid16):
        f = random_field(grid16, 13, representation="spectral")
        cut = dealias_23(f)
        assert np.all(cut.values[~grid16.dealias_mask] == 0)
        assert np.array_equal(cut.values[grid16.dealias_mask], f.values[grid16.dealias_mask])

    def test_pointwise_product_requires_multiply(self, grid16):
        f = cg.physical_field(grid16, np.ones(grid16.shape))
        with pytest.raises(TypeError):
            f * f


class TestDtypeRule:
    """Real physical data is held as float64; spectral and complex data as
    complex128."""

    def test_only_real_physical_data_is_float64(self, grid16):
        real = np.random.default_rng(1).standard_normal(grid16.shape)
        f = cg.physical_field(grid16, real)
        assert f.values.dtype == np.float64
        assert np.shares_memory(f.values, real)  # cast only when the dtype differs
        assert cg.spectral_field(grid16, real).values.dtype == np.complex128
        assert cg.Field(grid16, "spectral", real).values.dtype == np.complex128
        assert random_field(grid16, 1).values.dtype == np.complex128
        wave = cg.exp_ik_field(grid16, grid16.lattice_frequency([1, 0, 2]))
        assert wave.values.dtype == np.complex128
        assert (f * 1j).values.dtype == np.complex128

    def test_transform_of_a_real_field_is_complex(self, grid16):
        f = cg.physical_field(grid16, np.random.default_rng(2).standard_normal(grid16.shape))
        assert f.values.dtype == np.float64
        fs = cg.transform(f, "forward")
        assert fs.values.dtype == np.complex128
        assert cg.transform(fs, "inverse").values.dtype == np.complex128

    @pytest.mark.parametrize("d, n", [(3, 16), (3, 32), (2, 16)])
    def test_real_forward_bit_identical_to_complex_cast(self, d, n):
        grid = cg.FrequencyGrid(d, n, TWO_PI)
        real = np.random.default_rng(n).standard_normal(grid.shape)
        f = cg.physical_field(grid, real)
        assert f.values.dtype == np.float64
        expected = np.fft.fftn(real.astype(complex), norm="ortho")
        np.testing.assert_array_equal(cg.transform(f, "forward").values, expected)

    @pytest.mark.parametrize("norm", ["ortho", "backward"])
    @pytest.mark.parametrize("d, n", [(3, 16), (3, 32), (2, 16)])
    def test_real_pair_bit_identical_to_numpy(self, d, n, norm):
        grid = cg.FrequencyGrid(d, n, TWO_PI)
        real = np.random.default_rng(n).standard_normal(grid.shape)
        half = np.fft.rfftn(real, norm=norm)
        np.testing.assert_array_equal(cg.grid.real_forward(real, norm=norm), half)
        expected = np.fft.irfftn(half, s=grid.shape, axes=tuple(range(d)), norm=norm)
        consumed = half.copy()
        np.testing.assert_array_equal(cg.grid.real_inverse(grid, consumed, norm=norm), expected)
        assert not np.array_equal(consumed, half)  # inverted in place
        # the pruned forward is exact on the 2/3 cube of the half lattice
        pruned = cg.grid.real_forward(real, norm=norm, cube=True)
        cube = grid.dealias_mask[..., : n // 2 + 1]
        np.testing.assert_array_equal(pruned[cube], half[cube])
        assert not np.allclose(pruned, half)


@pytest.mark.parametrize("d, n", [(2, 16), (2, 32), (3, 16), (3, 32)])
def test_spectrum_at_reads_the_completed_spectrum(d, n):
    # a held half spectrum (Conductivity.q_hat) has Hermitian planes, and
    # its mirror reads are the completed spectrum bit for bit
    grid = cg.FrequencyGrid(d, n, TWO_PI)
    raw = cg.grid.real_forward(np.random.default_rng(n + d).normal(size=grid.shape))
    half = cg.grid.hermitian_planes(grid, raw.copy())
    full = cg.grid.complete_spectrum(grid, raw)
    np.testing.assert_array_equal(cg.grid.complete_spectrum(grid, half), full)
    every = np.arange(n)
    np.testing.assert_array_equal(cg.grid.spectrum_at(grid, half, np.ix_(*[every] * d)), full)
    band = np.flatnonzero(np.abs(grid.mode_axis) <= n // 3)
    np.testing.assert_array_equal(cg.grid.spectrum_at(grid, half, np.ix_(*[band] * d)),
                                  full[np.ix_(*[band] * d)])
    for mode in ([1] * d, [-1] * d, [0] * (d - 1) + [-n // 2], [-2] + [3] * (d - 1)):
        index = grid.mode_index(grid.lattice_frequency(mode))
        assert cg.grid.spectrum_at(grid, half, index) == full[index]


def test_package_takes_real_transforms_through_grid():
    # numpy's rfftn / irfftn allocate a fresh complex array for each axis;
    # grid.real_forward / real_inverse work in one array
    found = []
    for path in sorted(Path(cg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in ("rfftn", "irfftn"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
