"""Fourier-mode recovery against the closed-form q of the gaussian bump."""

import numpy as np
import pytest

import cgolab as cg
import cgolab.recovery
from cgolab.errors import CgolabError
from cgolab.recovery import alessandrini_terms, fourier_mode, pairing_weight
from cgolab.spaces import smooth_bridge

from conftest import _oracle_gaussian_q, _oracle_lattice

BAND, SAMPLES, SEED = 64.0, 4, 0


def exact_mode(n, k):
    """sum q e^{ix.k} h^3 for the closed-form q on the n^3 lattice of [0, 2pi)^3."""
    q = _oracle_gaussian_q(n, spectral=False)
    x = (2.0 * np.pi / n) * np.arange(n)
    _, modes = _oracle_lattice(n)
    phase = sum(kj * x.reshape(m.shape) for kj, m in zip(k, modes))
    return complex(np.sum(q * np.exp(1j * phase)) * (2.0 * np.pi / n) ** 3)


def test_main_term_gate_before_selection(bump32, monkeypatch):
    # at n=32 the cutoff tail of q is 7e-6 ||q||_L1 at k = e_z
    def forbidden(*args, **kwargs):
        raise AssertionError("selected past the main-term gate")

    monkeypatch.setattr(cgolab.recovery, "select_zeta_sequence", forbidden)
    with pytest.raises(CgolabError, match="main-term transform oracle mismatch"):
        cg.recover_fourier_mode(bump32, np.array([0.0, 0.0, 1.0]), 32.0)


# k/2 off the lattice, and on it
@pytest.mark.parametrize("k", [(1.0, 2.0, 0.0), (2.0, 0.0, 0.0)])
def test_recovered_mode_within_error_bar(bump64, k):
    k = np.array(k)
    recovered, diag = cg.recover_fourier_mode(bump64, k, BAND, samples_per_band=SAMPLES, seed=SEED)
    bd = diag.breakdown
    exact = exact_mode(64, k)
    # measured: |recovered - exact| / |exact| = 2.9e-4 and 6.8e-4, equal to the error bar
    assert abs(recovered - exact) <= diag.error_bar + 1e-5 * abs(exact)
    assert abs(diag.oracle - exact) <= 1e-5 * abs(exact)
    assert diag.oracle == fourier_mode(cg.potential_q(bump64), k)
    parts = bd.term_main + bd.term_linear + bd.term_bilinear
    assert abs(bd.total - parts) <= 1e-12 * abs(bd.total)


@pytest.mark.parametrize("k", [(1.0, 2.0, 0.0), (2.0, 0.0, 0.0)])
def test_terms_match_plain_four_term_sum(bump64, k):
    """The four sums of the one weight against the slot products of the
    pairing written out in plain numpy: phi^2 e^{ix.k} in one slot when
    k/2 is off the lattice, phi e^{ixk/2} in both when it is on it."""
    k = np.array(k)
    pair = cg.zeta_pair_from_angle(k, 64.0, 0.7)
    psihat1, _, psi1 = cg.solve_psi(bump64, pair.zeta1)
    psihat2, _, psi2 = cg.solve_psi(bump64, pair.zeta2)
    weight = pairing_weight(bump64, k, cg.make_cutoff(bump64))
    bd = alessandrini_terms(weight, pair, psi1, psi2)

    q = _oracle_gaussian_q(64, spectral=True)
    deltas, _ = _oracle_lattice(64)
    phi = smooth_bridge(np.sqrt(sum(dl * dl for dl in deltas)) / (np.pi / 2.0))
    x = (2.0 * np.pi / 64) * np.arange(64)
    axes = [x.reshape(sh) for sh in ((64, 1, 1), (1, 64, 1), (1, 1, 64))]

    def wave(freq):
        return np.exp(1j * sum(f * a for f, a in zip(freq, axes)))

    if np.all(k % 2 == 0):
        slot1 = slot2 = phi * wave(k / 2)
    else:
        slot1, slot2 = phi * phi * wave(k), np.ones(q.shape)
    # the slots in physical space from psihat, apart from the psi the solver hands over
    u1 = np.fft.ifftn(psihat1.values, norm="ortho")
    u2 = np.fft.ifftn(psihat2.values, norm="ortho")

    def form(u, v):
        return complex(np.sum(q * u * v) * (2.0 * np.pi / 64) ** 3)

    base = slot1 * slot2
    expected = {
        "term_main": form(slot1, slot2),
        "term_linear": form(base, u1 + u2),
        "term_bilinear": form(base, u1 * u2),
        "total": form(slot1 * (1.0 + u1), slot2 * (1.0 + u2)),
    }
    for name, value in expected.items():
        assert abs(getattr(bd, name) - value) <= 1e-13 * abs(value), name


def test_uniqueness_gap_symmetric_under_swap(bump64):
    # two gaussians of one width: the shared selection makes the table
    # exactly symmetric under swapping the conductivities
    grid = bump64.grid
    other = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.08, "width": 0.3})
    k_set = [np.array([1.0, 2.0, 0.0])]
    (row,) = cg.uniqueness_gap(bump64, other, k_set, BAND, samples_per_band=SAMPLES, seed=SEED)
    (swapped,) = cg.uniqueness_gap(other, bump64, k_set, BAND, samples_per_band=SAMPLES, seed=SEED)
    assert (swapped.pairing1, swapped.pairing2) == (row.pairing2, row.pairing1)
    assert (swapped.qhat1, swapped.qhat2) == (row.qhat2, row.qhat1)
    for name in ("gap", "qhat_gap", "error_bar"):
        assert getattr(swapped, name) == getattr(row, name), name
    assert row.gap == abs(row.pairing1 - row.pairing2)
    assert row.pairing1 != row.pairing2
