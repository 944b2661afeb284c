import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cgolab as cg

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

TWO_PI = 2.0 * np.pi

# the bump32 / bump64 fixtures: gamma = 1 + A exp(-r^2 / W^2)
BUMP_AMPLITUDE, BUMP_WIDTH = 0.05, 0.3


@pytest.fixture(scope="session")
def grid16():
    return cg.FrequencyGrid(3, 16, TWO_PI)


@pytest.fixture(scope="session")
def grid32():
    return cg.FrequencyGrid(3, 32, TWO_PI)


@pytest.fixture(scope="session")
def bump32(grid32):
    return cg.make_conductivity(grid32, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})


@pytest.fixture(scope="session")
def bump64():
    grid = cg.FrequencyGrid(3, 64, TWO_PI)
    return cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})


@pytest.fixture(scope="session")
def uniform32(grid32):
    return cg.make_conductivity(grid32, {"kind": "uniform"})


def full_spectrum(grid, half):
    """The full FFT-order spectrum of a real field from its half spectrum,
    read at every mode."""
    return cg.grid.spectrum_at(grid, half, np.ix_(*[np.arange(grid.n)] * grid.d))


def q_rows(*conds):
    """The |q_hat|^2 rows on the half lattice that select_zeta_sequence
    takes, one per conductivity."""
    return [np.abs(cond.q_hat) ** 2 for cond in conds]


def full_psihat(grid, modes):
    """The full-lattice psihat of solve_psi's (psihat on K, K): zero off K."""
    values, kept = modes
    full = np.zeros(grid.size, dtype=complex)
    full[kept] = values
    return full.reshape(grid.shape)


def write_gamma_file(path, cond):
    """The raw gamma file read_gamma_file reads: uint32 d, uint32 n,
    float64 L, then gamma in C order, all little-endian."""
    grid = cond.grid
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IId", grid.d, grid.n, grid.L))
        cond.gamma.values.astype("<f8").tofile(fh)


def random_values(grid, seed):
    """Complex normal noise on the grid's points."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


# Plain-numpy oracles written from the documented conventions (grid
# x = h*i on [0, 2pi)^3, unitary FFTs, Nyquist row zeroed in derivatives)
# with no cgolab call.  With L = 2pi the frequency lattice is the integer
# lattice.


def _oracle_lattice(n):
    """Minimum-image offsets from the torus centre and integer modes, per axis."""
    x = (TWO_PI / n) * np.arange(n)
    delta = np.abs(x - np.pi)
    delta = np.minimum(delta, TWO_PI - delta)
    modes = np.fft.fftfreq(n, d=1.0 / n)
    shapes = [(n, 1, 1), (1, n, 1), (1, 1, n)]
    return [delta.reshape(sh) for sh in shapes], [modes.reshape(sh) for sh in shapes]


def _oracle_gaussian_q(n, spectral):
    """q = Lap(g)/g, g = gamma^{1/2}: spectral Laplacian of g, or the closed
    form Lap(gamma)/(2 gamma) - |grad gamma|^2/(4 gamma^2)."""
    deltas, modes = _oracle_lattice(n)
    r2 = sum(dl * dl for dl in deltas)
    bump = BUMP_AMPLITUDE * np.exp(-r2 / BUMP_WIDTH ** 2)
    gamma = 1.0 + bump
    if spectral:
        g = np.sqrt(gamma)
        lap = -sum(np.where(m == -(n // 2), 0.0, m) ** 2 for m in modes)
        return np.fft.ifftn(lap * np.fft.fftn(g)).real / g
    lap_gamma = bump * (4.0 * r2 / BUMP_WIDTH ** 4 - 6.0 / BUMP_WIDTH ** 2)
    grad_sq = bump ** 2 * 4.0 * r2 / BUMP_WIDTH ** 4
    return lap_gamma / (2.0 * gamma) - grad_sq / (4.0 * gamma ** 2)


def _oracle_gradient(f, L):
    """Per-axis spectral derivatives of the lattice array f on [0, L)^d, from
    numpy.fft with the multipliers i xi_j and the Nyquist row zeroed."""
    n, d = f.shape[0], f.ndim
    xi = (2.0 * np.pi / L) * np.fft.fftfreq(n, d=1.0 / n)
    xi[n // 2] = 0.0
    f_hat = np.fft.fftn(f)
    out = []
    for j in range(d):
        shape = [1] * d
        shape[j] = n
        out.append(np.fft.ifftn(1j * xi.reshape(shape) * f_hat))
    return out


def _oracle_laplacian(f, L):
    """Spectral Laplacian of the real lattice array f on [0, L)^d, from
    numpy.fft with the multiplier -|xi|^2 and the Nyquist row zeroed."""
    n, d = f.shape[0], f.ndim
    xi = (2.0 * np.pi / L) * np.fft.fftfreq(n, d=1.0 / n)
    xi[n // 2] = 0.0
    lap = -sum((xi * xi).reshape([n if a == j else 1 for a in range(d)]) for j in range(d))
    return np.fft.ifftn(lap * np.fft.fftn(f)).real


def _oracle_duality_form(gamma, w, L):
    """-sum grad g . grad(w/g) h^d with g = gamma^{1/2}: the m_q form of the
    product w."""
    n, d = gamma.shape[0], gamma.ndim
    g = np.sqrt(gamma)
    pairs = zip(_oracle_gradient(g, L), _oracle_gradient(w / g, L))
    return complex(-sum(np.sum(a.real * b) for a, b in pairs) * (L / n) ** d)


def _oracle_leibniz_form(gamma, w, L):
    """-sum (grad g . grad g^{-1}) w h^d - sum grad(log g) . grad(w) h^d: the
    Leibniz split of the same form, a different lattice discretization."""
    n, d = gamma.shape[0], gamma.ndim
    g = np.sqrt(gamma)
    grad_g, grad_ginv = _oracle_gradient(g, L), _oracle_gradient(1.0 / g, L)
    grad_log, grad_w = _oracle_gradient(0.5 * np.log(gamma), L), _oracle_gradient(w, L)
    cross = sum(np.sum(a.real * b.real * w) for a, b in zip(grad_g, grad_ginv))
    trans = sum(np.sum(a.real * b) for a, b in zip(grad_log, grad_w))
    return complex(-(cross + trans) * (L / n) ** d)
