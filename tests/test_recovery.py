"""Fourier-mode recovery against the closed-form q of the gaussian bump."""

import numpy as np
import pytest

import cgolab as cg

from conftest import _oracle_gaussian_q, _oracle_lattice

BAND, SAMPLES, SEED = 64.0, 4, 0


def exact_mode(n, k):
    """sum q e^{ix.k} h^3 for the closed-form q on the n^3 lattice of [0, 2pi)^3."""
    q = _oracle_gaussian_q(n, spectral=False)
    x = (2.0 * np.pi / n) * np.arange(n)
    _, modes = _oracle_lattice(n)
    phase = sum(kj * x.reshape(m.shape) for kj, m in zip(k, modes))
    return complex(np.sum(q * np.exp(1j * phase)) * (2.0 * np.pi / n) ** 3)


@pytest.mark.parametrize(
    "k, route",
    [((1.0, 2.0, 0.0), "squared_cutoff"), ((2.0, 0.0, 0.0), "half_mode")],
)
def test_recovered_mode_within_error_bar(bump64, k, route):
    k = np.array(k)
    recovered, diag = cg.recover_fourier_mode(bump64, k, BAND, samples_per_band=SAMPLES, seed=SEED)
    bd = diag.breakdown
    exact = exact_mode(64, k)
    assert bd.bilinear_route == route
    # measured: |recovered - exact| / |exact| = 2.9e-4 and 6.8e-4, equal to the error bar
    assert abs(recovered - exact) <= diag.error_bar + 1e-5 * abs(exact)
    assert abs(diag.oracle - exact) <= 1e-5 * abs(exact)
    assert diag.oracle == cg.fourier_mode(cg.potential_q(bump64), k)
    parts = bd.term_main + bd.term_linear + bd.term_bilinear
    assert abs(bd.total - parts) <= 1e-12 * abs(bd.total)
