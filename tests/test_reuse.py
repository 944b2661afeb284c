"""Work that must be done only once: transforms per solver step, per
pairing and per averaged decay, the per-zeta symbol data, and the
characteristic distance of the singular-integral quadrature."""

import numpy as np
import pytest

import cgolab as cg
from cgolab.potential import _grad_log_sup
from cgolab.spaces import SymbolWeight, clamped_mask
from cgolab.symbol import lattice_symbol


class _Calls(list):
    """Names of the transforms made, in order.  work holds one
    (name, axes, points) per call: the axes passed (None for all) and the
    points transformed, the array size times the number of axes."""

    def __init__(self):
        super().__init__()
        self.work = []

    def clear(self):
        super().clear()
        self.work.clear()


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts every numpy.fft.fftn / ifftn / rfftn / irfftn call made while
    the test runs."""
    calls = _Calls()
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            axes = kwargs.get("axes")
            data = np.asarray(args[0])
            axes = None if axes is None else tuple(axes)
            calls.work.append((_name, axes, data.size * (data.ndim if axes is None else len(axes))))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def zeta16():
    return cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3).zeta1


class TestTransformCounts:
    def test_solver_steps_transform_only_the_cube(self, bump32, bump64, zeta16, fft_calls):
        # none for the first step (it divides q_hat); per later step a
        # one-axis inverse on the 4 axis-2 blocks, the 2 axis-1 slabs and
        # all of axis 0, then the mirrored forward; after the loop one
        # such inverse and one full forward of the fresh product
        inverse = ["ifftn"] * 7
        forward = ["fftn"] * 7
        axes = [(2,)] * 4 + [(1,)] * 2 + [(0,)] + [(2,)] + [(1,)] * 2 + [(0,)] * 4
        for cond in (bump32, bump64):
            cond.q_hat
            fft_calls.clear()
            _, rep, _ = cg.solve_psi(cond, zeta16, tol=1e-10)
            assert rep.iterations >= 3
            assert fft_calls == (inverse + forward) * (rep.iterations - 1) + inverse + ["fftn"]
            assert [entry[1] for entry in fft_calls.work[:14]] == axes
            full = 3 * cond.grid.size
            assert fft_calls.work[-1] == ("fftn", None, full)
            inverse_points = sum(entry[2] for entry in fft_calls.work[:7])
            forward_points = sum(entry[2] for entry in fft_calls.work[7:14])
            # 69.6% of a full transform at n=32, 70.8% at n=64
            assert inverse_points == forward_points <= 0.71 * full

    def test_full_lattice_solver_keeps_full_transforms(self, bump32, zeta16, fft_calls):
        bump32.q_hat
        fft_calls.clear()
        _, rep, _ = cg.solve_psi(bump32, zeta16, tol=1e-10, dealias=False)
        assert fft_calls == ["ifftn", "fftn"] * rep.iterations
        assert all(entry[1] is None for entry in fft_calls.work)

    def test_recovery_transforms_nothing_after_its_solves(self, bump64, fft_calls, monkeypatch):
        solve = cg.recovery.solve_psi

        def marked(*args, **kwargs):
            out = solve(*args, **kwargs)
            fft_calls.append("solved")
            return out

        monkeypatch.setattr(cg.recovery, "solve_psi", marked)
        cg.recover_fourier_mode(bump64, np.array([0.0, 0.0, 1.0]), 32.0, samples_per_band=2)
        # the pairing reads the physical psi each solve hands over
        assert fft_calls.count("solved") == 2
        assert fft_calls[-1] == "solved"

    def test_averaged_decay_transforms_f_once(self, bump32, fft_calls):
        phi = cg.make_cutoff(bump32)
        k = np.array([0.0, 0.0, 1.0])
        fft_calls.clear()
        cg.averaged_decay(bump32.log_g, k, [8.0], 8, 8, phi)
        # f once, then per gradient component one real product, all on
        # the half spectrum
        assert fft_calls == ["rfftn"] + ["irfftn", "rfftn"] * 3

    def test_cone_with_q_hat_takes_only_real_transforms(self, grid32, fft_calls):
        cone = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        cone.q_hat
        # mollify: gamma and the bump forward, the product back; q: g
        # forward, Lap g back; q_hat: q forward
        assert fft_calls == ["rfftn", "rfftn", "irfftn"] + ["rfftn", "irfftn"] + ["rfftn"]


class TestLipschitzSeminorm:
    def test_built_on_first_read(self, grid32, fft_calls):
        cond = cg.make_conductivity(grid32, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        assert fft_calls == []
        value = cond.lipschitz_seminorm
        assert len(fft_calls) == 4  # log gamma forward, three gradients back
        assert value == _grad_log_sup(grid32, cond.gamma.values.real)
        assert cond.lipschitz_seminorm is value


class TestSymbolData:
    def test_symbol_is_computed_once_and_exact(self, grid32, zeta16):
        p = lattice_symbol(zeta16, grid32).p
        assert lattice_symbol(zeta16, grid32).p is p
        assert not p.flags.writeable
        # -|xi|^2 + 2i zeta . xi, accumulated axis by axis from the lattice
        xi = [grid32.xi_axis.reshape(shape) for shape in ((32, 1, 1), (1, 32, 1), (1, 1, 32))]
        sq, dot = np.zeros(grid32.shape), np.zeros(grid32.shape, dtype=complex)
        for z, x in zip(zeta16.value, xi):
            sq = sq + x ** 2
            dot = dot + z * x
        np.testing.assert_array_equal(p, -sq + 2j * dot)

    def test_derived_arrays_shared_per_key(self, grid32, zeta16):
        weight = SymbolWeight(zeta16, "homogeneous", 0.5, 1e-6)
        first = weight.multiplier(grid32, "drop")
        assert SymbolWeight(zeta16, "homogeneous", 0.5, 1e-6).multiplier(grid32, "drop") is first
        assert weight.multiplier(grid32, "floor") is not first
        mask = clamped_mask(zeta16, grid32, 1e-6)
        assert clamped_mask(zeta16, grid32, 1e-6) is mask
        assert clamped_mask(zeta16, grid32, 1e-7) is not mask
        # the data belongs to the zeta: an equal zeta builds its own
        twin = cg.Zeta(zeta16.value.copy())
        assert lattice_symbol(twin, grid32).p is not lattice_symbol(zeta16, grid32).p

    def test_cached_arrays_reject_writes(self, grid32, zeta16):
        sym = lattice_symbol(zeta16, grid32)
        arrays = [
            sym.p,
            sym.pabs,
            clamped_mask(zeta16, grid32, 1e-6),
            SymbolWeight(zeta16, "inhomogeneous", -0.5).multiplier(grid32),
        ]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1


class TestSingbound:
    def test_distance_computed_once_per_zeta(self, grid32, zeta16, monkeypatch):
        calls = []
        distance = cg.estimates.char_distance_lattice

        def counted(zeta, grid):
            calls.append(zeta)
            return distance(zeta, grid)

        monkeypatch.setattr(cg.estimates, "char_distance_lattice", counted)
        etas = [np.array([1.0, -2.0, 0.5]), np.array([0.0, 3.0, -1.0])]
        values = [cg.singbound_quadrature(zeta16, eta, 6, grid32) for eta in etas]
        assert calls == [zeta16]
        # the cached distance gives the rows of a fresh evaluation bit for bit
        for eta, value in zip(etas, values):
            fresh = cg.Zeta(zeta16.value.copy())
            assert cg.singbound_quadrature(fresh, eta, 6, grid32) == value
