"""Work that must be done only once: transforms per solver step, per
pairing and per averaged decay, the per-zeta symbol data, and the
characteristic distance of the singular-integral quadrature."""

import numpy as np
import pytest

import cgolab as cg
from cgolab.potential import _grad_log_sup
from cgolab.symbol import lattice_symbol

from conftest import random_field


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts every numpy.fft.fftn / ifftn call made while the test runs."""
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def zeta16():
    return cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3).zeta1


class TestTransformCounts:
    def test_solver_step_takes_two_transforms(self, bump32, zeta16, fft_calls):
        bump32.q_hat
        fft_calls.clear()
        _, rep = cg.solve_psi(bump32, zeta16, tol=1e-10)
        # none for the first step (it divides q_hat), one inverse and one
        # forward per later step, two for the residual
        assert rep.iterations == 4
        assert fft_calls == ["ifftn", "fftn"] * rep.iterations

    def test_pairing_transforms_only_its_slots(self, bump32, fft_calls):
        cg.potential_q(bump32)
        u = random_field(bump32.grid, 1, "spectral")
        v = random_field(bump32.grid, 2, "spectral")
        fft_calls.clear()
        cg.mq_bilinear(u, v, bump32)
        assert fft_calls == ["ifftn", "ifftn"]

    def test_averaged_decay_transforms_f_once(self, bump32, fft_calls):
        phi = cg.make_cutoff(bump32)
        k = np.array([0.0, 0.0, 1.0])
        fft_calls.clear()
        cg.averaged_decay(bump32.log_g, k, [8.0], 8, 8, phi)
        # f once, then per gradient component one product (16 at the parent)
        assert fft_calls == ["fftn"] + ["ifftn", "fftn"] * 3


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
        p = cg.symbol_lattice(zeta16, grid32)
        assert cg.symbol_lattice(zeta16, grid32) is p
        assert not p.flags.writeable
        # -|xi|^2 + 2i zeta . xi, accumulated axis by axis from the lattice
        xi = [grid32.xi_axis.reshape(shape) for shape in ((32, 1, 1), (1, 32, 1), (1, 1, 32))]
        sq, dot = np.zeros(grid32.shape), np.zeros(grid32.shape, dtype=complex)
        for z, x in zip(zeta16.value, xi):
            sq = sq + x ** 2
            dot = dot + z * x
        np.testing.assert_array_equal(p, -sq + 2j * dot)

    def test_derived_arrays_shared_per_key(self, grid32, zeta16):
        weight = cg.SymbolWeight(zeta16, "homogeneous", 0.5, 1e-6)
        first = weight.multiplier(grid32, "drop")
        assert cg.SymbolWeight(zeta16, "homogeneous", 0.5, 1e-6).multiplier(grid32, "drop") is first
        assert weight.multiplier(grid32, "floor") is not first
        mask = cg.clamped_mask(zeta16, grid32, 1e-6)
        assert cg.clamped_mask(zeta16, grid32, 1e-6) is mask
        assert cg.clamped_mask(zeta16, grid32, 1e-7) is not mask
        # the data belongs to the zeta: an equal zeta builds its own
        twin = cg.Zeta(zeta16.value.copy())
        assert cg.symbol_lattice(twin, grid32) is not cg.symbol_lattice(zeta16, grid32)

    def test_cached_arrays_reject_writes(self, grid32, zeta16):
        sym = lattice_symbol(zeta16, grid32)
        arrays = [
            sym.p,
            sym.pabs,
            cg.clamped_mask(zeta16, grid32, 1e-6),
            cg.SymbolWeight(zeta16, "inhomogeneous", -0.5).multiplier(grid32),
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
