import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cgolab as cg
from cgolab.grid import plane_wave

from conftest import TWO_PI, random_values


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


def real_gradient(grid, values):
    """Per-axis derivatives of a real lattice array through the real pair:
    its half spectrum times each of grid.half_deriv_multipliers, back."""
    half = cg.grid.real_forward(values)
    return [cg.grid.real_inverse(grid, half * mult) for mult in grid.half_deriv_multipliers]


class TestTransform:
    """The unitary DFT (numpy norm="ortho") of the real pair and of
    cube_transform."""

    def test_dc_mode(self, grid16):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        fs = cg.grid.real_forward(np.ones(grid.shape))
        assert fs[0, 0, 0] == pytest.approx(8 ** 1.5, rel=1e-13)
        rest = np.abs(fs)
        rest[0, 0, 0] = 0.0
        assert rest.max() < 1e-13

    def test_pure_mode_single_coefficient(self, grid16):
        # the pruned forward is exact on the cube, where k lies
        k = grid16.lattice_frequency([2, -3, 1])
        fs = cg.grid.cube_transform(grid16, plane_wave(grid16, k), "forward")
        idx = grid16.mode_index(k)
        expected = grid16.n ** (grid16.d / 2.0)
        assert fs[idx] == pytest.approx(expected, rel=1e-12)
        rest = np.abs(fs) * grid16.dealias_mask
        rest[idx] = 0.0
        assert rest.max() < 1e-10 * expected

    @given(seed=st.integers(0, 10_000))
    def test_round_trip(self, seed):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        spec = random_values(grid, seed) * grid.dealias_mask
        back = cg.grid.cube_transform(grid, cg.grid.cube_transform(grid, spec.copy(), "inverse"), "forward")
        cube = grid.dealias_mask
        assert np.max(np.abs(back[cube] - spec[cube])) <= 1e-12 * np.max(np.abs(spec))
        f = random_values(grid, seed).real
        back = cg.grid.real_inverse(grid, cg.grid.real_forward(f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))

    @given(seed=st.integers(0, 10_000))
    def test_plancherel(self, seed):
        grid = cg.FrequencyGrid(3, 8, TWO_PI)
        spec = random_values(grid, seed) * grid.dealias_mask
        phys = cg.grid.cube_transform(grid, spec.copy(), "inverse")
        assert np.linalg.norm(phys) == pytest.approx(np.linalg.norm(spec), rel=1e-12)

    def test_deterministic_bit_identical(self, grid16):
        f = random_values(grid16, 4)
        a = cg.grid.cube_transform(grid16, f.copy(), "forward")
        b = cg.grid.cube_transform(grid16, f.copy(), "forward")
        assert a.tobytes() == b.tobytes()


class TestGradient:
    """Spectral derivatives: grid.half_deriv_multipliers (Nyquist row
    zeroed) on the half spectrum of the real pair."""

    def test_constant_gradient_zero(self, grid16):
        for gj in real_gradient(grid16, np.full(grid16.shape, 3.7)):
            assert np.max(np.abs(gj)) < 1e-12

    def test_single_mode(self, grid16):
        L = grid16.L
        x = grid16.x_axis
        vals = np.sin(TWO_PI * x / L)[:, None, None] * np.ones(grid16.shape)
        grads = real_gradient(grid16, vals)
        expected = (TWO_PI / L) * np.cos(TWO_PI * x / L)[:, None, None]
        assert np.max(np.abs(grads[0] - expected)) < 1e-12
        assert np.max(np.abs(grads[1])) < 1e-12
        assert np.max(np.abs(grads[2])) < 1e-12

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
            return np.fft.ifftn(spec * grid.n ** 1.5, norm="ortho").real

        errs = []
        for n in (32, 64):
            grid = cg.FrequencyGrid(3, n, TWO_PI)
            vals = build(grid)
            gspec = real_gradient(grid, vals)[0]
            gfd = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * grid.h)
            errs.append(np.max(np.abs(gspec - gfd)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.9

    def test_leibniz_rule_unaliased(self, grid16):
        # factors band-limited below half Nyquist so the product is exact
        def bl_field(seed):
            spec = np.zeros(grid16.shape, dtype=complex)
            r = np.random.default_rng(seed)
            for _ in range(6):
                m = r.integers(-3, 4, size=3)
                spec[grid16.mode_index(grid16.lattice_frequency(m))] = r.standard_normal() + 1j * r.standard_normal()
            return np.fft.ifftn(spec, norm="ortho").real

        f, g = bl_field(1), bl_field(2)
        lhs = real_gradient(grid16, f * g)
        df, dg = real_gradient(grid16, f), real_gradient(grid16, g)
        scale = max(np.max(np.abs(x)) for x in lhs)
        for j in range(3):
            rhs = df[j] * g + f * dg[j]
            assert np.max(np.abs(lhs[j] - rhs)) <= 1e-10 * scale


class TestWeightedL2:
    def test_gradient_weight_matches_gradient_norm(self, grid16):
        # on the 2/3 cube, which holds no Nyquist row, |xi|^2 is the weight
        # of the gradient norm (the harness's cutoff_high_grad)
        f = np.fft.ifftn(random_values(grid16, 9) * grid16.dealias_mask, norm="ortho").real
        fhat = np.fft.fftn(f, norm="ortho")
        weighted = np.sqrt(np.sum(grid16.xi_sq * np.abs(fhat) ** 2) * grid16.measure)
        grad_norm = np.sqrt(sum(np.sum(g * g) for g in real_gradient(grid16, f)) * grid16.measure)
        assert weighted == pytest.approx(grad_norm, rel=1e-10)


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
        f = cg.Field(grid16, np.ones(grid16.shape))
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



class TestDtypeRule:
    """A Field holds real data as float64 and complex data as complex128."""

    def test_only_real_physical_data_is_float64(self, grid16):
        real = np.random.default_rng(1).standard_normal(grid16.shape)
        f = cg.Field(grid16, real)
        assert f.values.dtype == np.float64
        assert np.shares_memory(f.values, real)  # cast only when the dtype differs
        assert cg.Field(grid16, random_values(grid16, 1)).values.dtype == np.complex128
        assert plane_wave(grid16, grid16.lattice_frequency([1, 0, 2])).dtype == np.complex128

    def test_transform_of_a_real_field_is_complex(self, grid16):
        f = cg.Field(grid16, np.random.default_rng(2).standard_normal(grid16.shape))
        assert f.values.dtype == np.float64
        half = cg.grid.real_forward(f.values)
        assert half.dtype == np.complex128
        assert cg.grid.real_inverse(grid16, half).dtype == np.float64

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
    real = np.random.default_rng(n + d).normal(size=grid.shape)
    half = cg.grid.hermitian_planes(grid, cg.grid.real_forward(real))
    # completed in plain numpy: X(m) = conj X(-m) for m_d = n/2 + 1 .. n - 1
    neg = (-np.arange(n)) % n  # FFT-order index of -m
    full = np.empty(grid.shape, dtype=complex)
    full[..., : n // 2 + 1] = half
    full[..., n // 2 + 1 :] = np.conj(half[np.ix_(*[neg] * (d - 1), neg[n // 2 + 1 :])])
    np.testing.assert_array_equal(full[np.ix_(*[neg] * d)], np.conj(full))
    np.testing.assert_allclose(full, np.fft.fftn(real, norm="ortho"), rtol=0, atol=1e-12)
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
