"""Independent reference values in plain numpy.

Nothing here imports cgolab.  The oracles re-derive what the CLI reports
from the definitions: the analytic potential of the gaussian conductivity,
the band objective of the zeta selection, the band-averaged decay, the
singular quadrature and the lattice L1 norm of the Schur kernel.  Grids
follow cgolab's documented conventions: x = h*i on [0, L)^d, unitary FFTs in
FFT order, and spectral derivatives that zero the Nyquist row.
"""

from __future__ import annotations

import numpy as np


def rel_err(value, reference) -> float:
    return abs(value - reference) / abs(reference)


class Lattice:
    """Axes of the periodic grid [0, L)^d and its frequency lattice."""

    def __init__(self, n: int, L: float = 2.0 * np.pi, d: int = 3):
        self.n, self.L, self.d = n, L, d
        self.h = L / n
        self.measure = self.h ** d
        self.step = 2.0 * np.pi / L
        self.x = self.h * np.arange(n)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(n, d=self.h)

    def along(self, j: int, axis: np.ndarray) -> np.ndarray:
        shape = [1] * self.d
        shape[j] = self.n
        return axis.reshape(shape)

    def radius(self) -> np.ndarray:
        """Minimum-image distance from the torus centre."""
        delta = np.abs(self.x - self.L / 2.0)
        delta = np.minimum(delta, self.L - delta)
        return np.sqrt(sum(self.along(j, delta) ** 2 for j in range(self.d)))

    def xi_sq(self) -> np.ndarray:
        return sum(self.along(j, self.xi) ** 2 for j in range(self.d))

    def dot(self, vec) -> np.ndarray:
        """sum_j vec_j xi_j on the frequency lattice."""
        return sum(vec[j] * self.along(j, self.xi) for j in range(self.d))

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        axis = self.xi.copy()
        axis[self.n // 2] = 0.0
        mult = sum(self.along(j, axis) ** 2 for j in range(self.d))
        return np.fft.ifftn(-mult * np.fft.fftn(values)).real

    def fourier_mode(self, values: np.ndarray, k) -> complex:
        """sum values e^{i k.x} h^d."""
        phase = sum(k[j] * self.along(j, self.x) for j in range(self.d))
        return complex(np.sum(values * np.exp(1j * phase)) * self.measure)


# -- potentials ---------------------------------------------------------------


def gaussian_q(lat: Lattice, amplitude: float, width: float) -> np.ndarray:
    """q = Lap(g)/g for gamma = 1 + a exp(-r^2/w^2), from closed-form
    derivatives: q = Lap(gamma)/(2 gamma) - |grad gamma|^2/(4 gamma^2)."""
    r2 = lat.radius() ** 2
    bump = amplitude * np.exp(-r2 / width ** 2)
    gamma = 1.0 + bump
    lap_gamma = bump * (4.0 * r2 / width ** 4 - 2.0 * lat.d / width ** 2)
    grad_sq = bump ** 2 * 4.0 * r2 / width ** 4
    return lap_gamma / (2.0 * gamma) - grad_sq / (4.0 * gamma ** 2)


def cone_gamma(lat: Lattice, amplitude: float, radius: float) -> np.ndarray:
    """1 + a max(0, 1 - r/R), convolved with the unit-mass bump
    exp(1 - 1/(1 - |x|^2/eps^2)) of width eps = 2h."""
    raw = 1.0 + amplitude * np.maximum(0.0, 1.0 - lat.radius() / radius)
    eps = 2.0 * lat.h
    delta = np.minimum(lat.x, lat.L - lat.x)
    rho_sq = sum(lat.along(j, delta) ** 2 for j in range(lat.d)) / eps ** 2
    bump = np.zeros(rho_sq.shape)
    inside = rho_sq < 1.0
    bump[inside] = np.exp(1.0 - 1.0 / (1.0 - rho_sq[inside]))
    bump /= bump.sum() * lat.measure
    conv = np.fft.ifftn(np.fft.fftn(raw) * np.fft.fftn(bump)) * lat.measure
    return conv.real


def potential_from_gamma(lat: Lattice, gamma: np.ndarray) -> np.ndarray:
    """q = Lap(g)/g with g = gamma^{1/2} and the spectral Laplacian."""
    g = np.sqrt(gamma)
    return lat.laplacian(g) / g


# -- zeta geometry --------------------------------------------------------------


def orthonormal_plane(k) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt on the coordinate axes least aligned with k (the first
    two axes when k = 0): the plane in which selection angles are measured."""
    k = np.asarray(k, dtype=float)
    d = k.shape[0]
    norm = np.linalg.norm(k)
    if norm == 0.0:
        return np.eye(d)[0], np.eye(d)[1]
    khat = k / norm
    vecs = []
    for idx in np.argsort(np.abs(khat), kind="stable"):
        cand = np.eye(d)[idx] - khat[idx] * khat
        for v in vecs:
            cand = cand - np.dot(cand, v) * v
        if np.linalg.norm(cand) > 1e-8:
            vecs.append(cand / np.linalg.norm(cand))
        if len(vecs) == 2:
            break
    return vecs[0], vecs[1]


def zeta_pair(k, s: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """zeta1,2 = +-s eta1 + i(k/2 +- r eta2), r = sqrt(s^2 - |k|^2/4)."""
    k = np.asarray(k, dtype=float)
    p1, p2 = orthonormal_plane(k)
    eta1 = np.cos(theta) * p1 + np.sin(theta) * p2
    eta2 = -np.sin(theta) * p1 + np.cos(theta) * p2
    r = np.sqrt(s * s - 0.25 * np.dot(k, k))
    return s * eta1 + 1j * (0.5 * k + r * eta2), -s * eta1 + 1j * (0.5 * k - r * eta2)


def symbol_abs(lat: Lattice, zeta, xi_sq=None) -> np.ndarray:
    """|p(xi)| with p = -|xi|^2 + 2i zeta.xi."""
    xi_sq = lat.xi_sq() if xi_sq is None else xi_sq
    return np.hypot(xi_sq + 2.0 * lat.dot(np.imag(zeta)), 2.0 * lat.dot(np.real(zeta)))


def neg_half_norm(lat: Lattice, values: np.ndarray, zeta, clamp_eps: float) -> float:
    """|| |p|^{-1/2} uhat || with modes under clamp_eps * s dropped."""
    s = np.linalg.norm(np.real(zeta))
    pabs = symbol_abs(lat, zeta)
    keep = pabs >= clamp_eps * s
    uhat = np.fft.fftn(values, norm="ortho")
    dens = np.abs(uhat[keep]) ** 2 / pabs[keep]
    return float(np.sqrt(dens.sum() * lat.measure))


def selection_objective(lat, qs, k, s, theta, clamp_eps) -> float:
    """The band objective sum_{q, zeta} || |p_zeta|^{-1/2} qhat ||."""
    return sum(
        neg_half_norm(lat, q, zeta, clamp_eps) for q in qs for zeta in zeta_pair(k, s, theta)
    )


def singbound(lat: Lattice, zeta, eta, M: int) -> float:
    """sum <xi - eta>^{-M} / max(dist(xi, Sigma), dxi) dxi^d, with
    dist = |s - |xi - s e2|| + |xi . e1| and zeta = s (e1 - i e2)."""
    s = np.linalg.norm(np.real(zeta))
    e1, e2 = np.real(zeta) / s, -np.imag(zeta) / s
    shifted_sq = np.maximum(lat.xi_sq() - 2.0 * s * lat.dot(e2) + s * s, 0.0)
    dist = np.abs(s - np.sqrt(shifted_sq)) + np.abs(lat.dot(e1))
    bracket = (1.0 + sum((lat.along(j, lat.xi) - eta[j]) ** 2 for j in range(lat.d))) ** (-M / 2.0)
    return float(np.sum(bracket / np.maximum(dist, lat.step)) * lat.step ** lat.d)


def smooth_bridge(rho: np.ndarray) -> np.ndarray:
    """1 for rho <= 1, 0 for rho >= 2, a/(a+b) with a = exp(-1/(2-t)) and
    b = exp(-1/(t-1)) between."""
    out = (rho < 2.0).astype(float)
    mid = (rho > 1.0) & (rho < 2.0)
    a, b = np.exp(-1.0 / (2.0 - rho[mid])), np.exp(-1.0 / (rho[mid] - 1.0))
    out[mid] = a / (a + b)
    return out


def decay_density(lat: Lattice, f: np.ndarray, cutoff: np.ndarray):
    """(xi, density) on the modes the 2/3 rule keeps, where the density is
    sum_j |(cutoff d_j f)^hat|^2, each product truncated after forming it."""
    keep = np.abs(np.rint(lat.xi / lat.step)) <= lat.n // 3
    mask = np.ones(f.shape, dtype=bool)
    axis = lat.xi.copy()
    axis[lat.n // 2] = 0.0
    fhat = np.fft.fftn(f, norm="ortho")
    dens = np.zeros(f.shape)
    for j in range(lat.d):
        mask = mask & lat.along(j, keep)
        grad = np.fft.ifftn(1j * lat.along(j, axis) * fhat, norm="ortho")
        dens += np.abs(np.fft.fftn(cutoff * grad, norm="ortho")) ** 2
    pts = np.stack(np.meshgrid(*[lat.xi] * lat.d, indexing="ij"))[:, mask]
    return pts, dens[mask]


def averaged_decay(lat: Lattice, pts, dens, k, lam: float, quad_s: int, quad_eta: int) -> float:
    """A(lam): trapezoid in s over [lam, 2 lam], uniform in angle, of
    sum_zeta sum_xi density / max(|p_zeta|, s dxi/2) h^d."""
    xi_sq = np.sum(pts ** 2, axis=0)
    weights = np.full(quad_s, lam / (quad_s - 1))
    weights[[0, -1]] *= 0.5
    angles = 2.0 * np.pi * np.arange(quad_eta) / quad_eta
    total = 0.0
    for s, ws in zip(np.linspace(lam, 2.0 * lam, quad_s), weights):
        zetas = np.array([zeta for theta in angles for zeta in zeta_pair(k, s, theta)])
        pabs = np.hypot(xi_sq + 2.0 * (zetas.imag @ pts), 2.0 * (zetas.real @ pts))
        total += ws * (2.0 * np.pi / quad_eta) * np.sum(dens / np.maximum(pabs, 0.5 * s * lat.step))
    return float(total * lat.measure)


def gaussian_kernel_l1(lat: Lattice) -> float:
    """Lattice L1 norm of exp(-|xi|^2) over the (2n-1)^d difference lattice,
    as the d-th power of the one-axis sum."""
    axis = lat.step * np.arange(-(lat.n - 1), lat.n)
    return float((np.exp(-axis ** 2).sum() * lat.step) ** lat.d)
