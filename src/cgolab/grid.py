"""Periodic grid, unitary transforms, and spectral calculus.

Conventions, fixed once for the whole package:

* The physical domain is the torus [0, L)^d sampled at x = h*(i_1..i_d)
  with h = L/n.  Physical quadratures carry the cell measure h^d.
* The frequency lattice is xi = (2*pi/L)*m with integer m_j in
  {-n/2, ..., n/2 - 1}, stored in FFT order.
* Spectral values are the unitary DFT of the physical values (numpy
  norm="ortho"), so plain vector sums satisfy Parseval.  The same h^d
  measure is applied to weighted spectral sums, which makes physical and
  spectral L2 norms coincide exactly.
* Spectral differentiation zeroes the asymmetric Nyquist row m_j = -n/2.
* Real fields -- gamma, g, log g, q, the cutoff, each derivative of a
  real field -- are float64 arrays.  They take the real transform pair
  real_forward / real_inverse on the half spectrum: the last axis keeps
  m_d = 0..n/2 (numpy rfftn order, shape (n, ..., n/2 + 1)), the others
  the full FFT order.  The modes it omits follow from X(-m) = conj X(m),
  and spectrum_at reads them, with the held ones, at any given modes (an
  even real array, such as a density |X|^2, is read the same way).  An
  array on the half lattice is the [..., :n//2 + 1] slice of its
  full-lattice form.
* The transforms run axis by axis in numpy's order, with its bits, each
  pass in place in one array (the real pair's rfft / irfft make the new
  one, or fill out=).  real_inverse consumes its argument; callers pass a
  temporary, so two buffers, half and real, can carry a chain of them.
* Compactly supported data is expected to live in the ball of radius
  L/4 around the torus centre (L/2, ..., L/2), keeping periodization
  error at spectral accuracy.

A Field is the read-only record of one function's values on the grid's
points (gamma, q, the cutoff, a remainder psi).  Spectra are plain
complex arrays, on the full lattice in FFT order or on the half
spectrum; the transforms take and return arrays (cube_transform and
real_inverse work in place on the caller's).  A Field's values and a
grid's cached lattice arrays are only read once built, so all of this is
safe to call from concurrent workers.  recovery._solve_pair does: it runs
the two solves of a zeta pair on one grid at once, after building the
cached arrays they read: the 1-d frequency and mode axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform periodic grid on [0, L)^d together with its dual lattice.

    Parameters
    ----------
    d : spatial dimension (>= 2; main experiments use d = 3)
    n : points per axis (even, >= 8)
    L : physical period per axis
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("grid dimension d must be >= 2")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError("points per axis n must be even and >= 8")
        if not 0 < self.L < np.inf:
            raise ValueError("period L must be positive and finite")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def measure(self) -> float:
        """Quadrature cell measure h^d, shared by physical and spectral sums."""
        return self.h ** self.d

    @property
    def freq_step(self) -> float:
        """Spacing of the frequency lattice, 2*pi/L."""
        return 2.0 * np.pi / self.L

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n ** self.d

    @cached_property
    def x_axis(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Frequencies of one axis in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def mode_axis(self) -> np.ndarray:
        """Integer lattice indices of one axis in FFT order."""
        return np.rint(self.xi_axis / self.freq_step).astype(int)

    def _along(self, j: int, arr: np.ndarray) -> np.ndarray:
        """Reshape a per-axis 1-d array for broadcasting along axis j."""
        shape = [1] * self.d
        shape[j] = self.n
        return arr.reshape(shape)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the full lattice (FFT order)."""
        out = np.zeros(self.shape)
        for j in range(self.d):
            out = out + self._along(j, self.xi_axis) ** 2
        return out

    @cached_property
    def half_deriv_multipliers(self) -> tuple:
        """i*xi_j per axis with the Nyquist row zeroed, on the half lattice
        (last axis m = 0..n/2), each shaped to broadcast along its axis."""
        axis = self.xi_axis.copy()
        axis[self.n // 2] = 0.0
        mult = [1j * self._along(j, axis) for j in range(self.d)]
        mult[-1] = mult[-1][..., : self.n // 2 + 1]
        return tuple(mult)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep modes with |m_j| <= n//3 on every axis."""
        keep1d = np.abs(self.mode_axis) <= self.n // 3
        out = np.ones(self.shape, dtype=bool)
        for j in range(self.d):
            out = out & self._along(j, keep1d)
        return out

    @property
    def radius_from_center(self) -> np.ndarray:
        """Minimum-image distance from the torus centre per grid point,
        formed on each read: the grid does not hold it."""
        delta = np.abs(self.x_axis - self.L / 2.0)
        delta = np.minimum(delta, self.L - delta)
        r = reduce(np.add.outer, [delta ** 2] * self.d)
        return np.sqrt(r, out=r)

    def mode_index(self, k) -> tuple:
        """FFT-order index of the lattice frequency k; validates k on-lattice."""
        k = np.asarray(k, dtype=float)
        if k.shape != (self.d,):
            raise ValueError(f"frequency must have shape ({self.d},)")
        m = np.rint(k / self.freq_step).astype(int)
        if not np.allclose(k, m * self.freq_step, atol=1e-9 * self.freq_step):
            raise ValueError(f"frequency {k} is not on the lattice")
        if np.any(m < -self.n // 2) or np.any(m >= self.n // 2):
            raise ValueError(f"frequency {k} exceeds the lattice range")
        return tuple(int(v) % self.n for v in m)

    def lattice_frequency(self, mode) -> np.ndarray:
        """Frequency vector (2*pi/L)*m for an integer mode vector m."""
        m = np.asarray(mode, dtype=int)
        if m.shape != (self.d,):
            raise ValueError(f"mode must have shape ({self.d},)")
        return m * self.freq_step


@dataclass(frozen=True)
class Field:
    """A function on the grid's points: float64 values for real data, else
    complex128 (cast, and copied, only if the dtype differs), read only."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def plane_wave(grid: FrequencyGrid, k) -> np.ndarray:
    """e^{i x . k} as a new array; k must lie on the frequency lattice.

    Formed as the product of the d one-axis waves e^{i x_j k_j}, so only
    d*n exponentials are evaluated."""
    grid.mode_index(k)  # validates
    k = np.asarray(k, dtype=float)
    wave = 1.0
    for j in range(grid.d):
        wave = wave * grid._along(j, np.exp(1j * k[j] * grid.x_axis))
    return wave


def real_forward(values: np.ndarray, norm: str = "ortho", cube: bool = False, out=None) -> np.ndarray:
    """Unitary DFT of a real lattice array, on the half spectrum (numpy
    rfftn, with its bits): rfft along the last axis into one complex
    array (out, if given), then the other axes in place, last first.  With
    cube, from n=32, the lines whose output cannot fall in the 2/3 cube are
    skipped as in cube_transform's forward, and the modes off the cube hold
    partial sums.  norm is numpy's."""
    d = values.ndim
    pruned = (lambda axis: range(axis + 1, d)) if cube else (lambda axis: ())
    return _transform_lines(np.fft.rfft(values, norm=norm, out=out), np.fft.fftn, reversed(range(d - 1)), pruned, norm)


def real_inverse(grid: FrequencyGrid, half: np.ndarray, norm: str = "ortho", out=None) -> np.ndarray:
    """The real lattice array whose real_forward is the half spectrum
    (numpy irfftn, with its bits), in out if given.  It consumes half: the
    other axes are inverted in place, first to last, then irfft the last."""
    _transform_lines(half, np.fft.ifftn, range(grid.d - 1), lambda axis: (), norm)
    return np.fft.irfft(half, n=grid.n, norm=norm, out=out)


def hermitian_planes(grid: FrequencyGrid, spec: np.ndarray) -> np.ndarray:
    """Replace each self-mirrored plane m_d = 0, n/2 of a half spectrum,
    in place, by the mean of itself and its conjugate mirror: the half
    transform leaves them Hermitian only to rounding."""
    neg = (-np.arange(grid.n)) % grid.n  # FFT-order index of -m
    for plane in (0, grid.n // 2):
        face = spec[..., plane]
        face[...] = 0.5 * (face + np.conj(face[np.ix_(*[neg] * (grid.d - 1))]))
    return spec


def spectrum_at(grid: FrequencyGrid, half: np.ndarray, index) -> np.ndarray:
    """The full FFT-order spectrum X of a real field at index, from its
    half spectrum with Hermitian planes (hermitian_planes): index is d
    FFT-order ints or broadcasting arrays (np.ix_); X(m) = conj X(-m) for
    m_d > n/2."""
    upper = np.asarray(index[-1]) > grid.n // 2
    vals = np.asarray(half[tuple(np.where(upper, -np.asarray(i) % grid.n, i) for i in index)])
    return np.conjugate(vals, out=vals, where=upper)


def cube_transform(grid: FrequencyGrid, values: np.ndarray, direction: str) -> np.ndarray:
    """Unitary DFT, in place, of a lattice array when only the 2/3 cube of
    its spectrum matters.

    One-axis transforms run last axis first, in numpy's fftn/ifftn order,
    on only the lines that can carry data.  The inverse expects a
    spectrum that vanishes off the cube and skips the lines still zero;
    the forward skips the lines whose output falls off the cube, so the
    modes off the cube are left holding partial sums.  What the caller
    keeps -- the whole inverse, the cube of the forward -- is
    bit-identical to ifftn/fftn of the full array.  At n=64 each
    direction does 71% of their work, below n=32 all of it.
    """
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
    if direction == "inverse":
        fn, pruned = np.fft.ifftn, lambda axis: range(axis)
    elif direction == "forward":
        fn, pruned = np.fft.fftn, lambda axis: range(axis + 1, grid.d)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return _transform_lines(values, fn, reversed(range(grid.d)), pruned)


def _transform_lines(values: np.ndarray, fn, axes, pruned, norm: str = "ortho") -> np.ndarray:
    """The one-axis transform fn, in place, along each of axes in turn; on
    each, only the lines whose indices on the axes pruned(axis) lie in the
    2/3 cube |m| <= n//3 (m >= 0 only on a half-spectrum last axis), from
    n = 32 up.  Below, one call of fn takes all axes: a 3-d forward took
    0.07-0.12 ms whole against 0.14-0.24 ms pruned at n=16, and tied at
    n=32 (numpy's pocketfft, one thread on a shared 2-core Xeon)."""
    n = values.shape[0]
    if n < 32:  # fn runs the axes it is given last first
        return fn(values, axes=tuple(axes)[::-1], norm=norm, out=values)
    cube = (slice(0, n // 3 + 1), slice(n - n // 3, n))  # |m| <= n//3 in FFT order
    for axis in axes:
        kept = pruned(axis)
        for blocks in itertools.product(*(cube if values.shape[ax] == n else cube[:1] for ax in kept)):
            index = [slice(None)] * values.ndim
            for ax, block in zip(kept, blocks):
                index[ax] = block
            view = values[tuple(index)]
            fn(view, axes=(axis,), norm=norm, out=view)
    return values
