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
  and complete_spectrum restores them where a full FFT-order spectrum is
  needed (spectrum_at reads it at given modes).  Multipliers on the half
  lattice are the [..., :n//2 + 1] slices of the full ones.
* The transforms run axis by axis in numpy's order, with its bits, each
  pass in place in one array (the real pair's rfft / irfft make the new
  one).  real_inverse consumes its argument; callers pass a temporary.
* Compactly supported data is expected to live in the ball of radius
  L/4 around the torus centre (L/2, ..., L/2), keeping periodization
  error at spectral accuracy.

Fields are immutable after construction; every operation returns a new
Field (cube_transform works in place on the caller's own array), and a
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

from .errors import RepresentationError

PHYSICAL = "physical"
SPECTRAL = "spectral"


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
        """Quadrature cell measure h^d, shared by both representations."""
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
    def deriv_multipliers(self) -> tuple:
        """i*xi_j per axis with the Nyquist row zeroed."""
        mult = []
        axis = self.xi_axis.copy()
        axis[self.n // 2] = 0.0
        for j in range(self.d):
            mult.append(1j * self._along(j, axis))
        return tuple(mult)

    @property
    def half_deriv_multipliers(self) -> tuple:
        """deriv_multipliers on the half lattice (views, last axis m = 0..n/2)."""
        return tuple(m[..., : self.n // 2 + 1] for m in self.deriv_multipliers)

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
    """A scalar function on the grid, physical or spectral: float64 for real
    physical values, else complex128 (cast, and copied, only if the dtype differs)."""

    grid: FrequencyGrid
    representation: str
    values: np.ndarray

    def __post_init__(self):
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.representation!r}")
        real = self.representation == PHYSICAL and not np.iscomplexobj(self.values)
        vals = np.ascontiguousarray(self.values, dtype=float if real else complex)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def is_physical(self) -> bool:
        return self.representation == PHYSICAL

    @property
    def is_spectral(self) -> bool:
        return self.representation == SPECTRAL

    def __mul__(self, scalar) -> "Field":
        if isinstance(scalar, Field):
            raise TypeError("use grid.multiply() for pointwise field products")
        return Field(self.grid, self.representation, self.values * scalar)

    __rmul__ = __mul__


def physical_field(grid: FrequencyGrid, values) -> Field:
    return Field(grid, PHYSICAL, values)


def spectral_field(grid: FrequencyGrid, values) -> Field:
    return Field(grid, SPECTRAL, values)


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


def exp_ik_field(grid: FrequencyGrid, k) -> Field:
    """The plane wave e^{i x . k} as a physical Field (plane_wave)."""
    return Field(grid, PHYSICAL, plane_wave(grid, k))


def transform(f: Field, direction: str) -> Field:
    """Unitary DFT (forward: physical -> spectral) or its inverse.

    Requesting a direction the field already has is a usage bug and
    raises RepresentationError.
    """
    if direction == "forward":
        if f.is_spectral:
            raise RepresentationError("forward transform of a spectral field")
        fn, representation = np.fft.fftn, SPECTRAL
    elif direction == "inverse":
        if f.is_physical:
            raise RepresentationError("inverse transform of a physical field")
        fn, representation = np.fft.ifftn, PHYSICAL
    else:
        raise ValueError(f"unknown direction {direction!r}")
    # one complex output for all axes; without out= numpy allocates one per axis
    out = fn(f.values, norm="ortho", out=np.empty(f.grid.shape, dtype=complex))
    return Field(f.grid, representation, out)


def real_forward(values: np.ndarray, norm: str = "ortho", cube: bool = False) -> np.ndarray:
    """Unitary DFT of a real lattice array, on the half spectrum (numpy
    rfftn, with its bits): rfft along the last axis into one complex
    array, then the other axes in place, last first.  With cube, each
    axis after the first transforms only the lines whose output can fall
    in the 2/3 cube, as cube_transform's forward does: the cube block is
    exact and the modes off it hold partial sums.  norm is numpy's."""
    d = values.ndim
    pruned = (lambda axis: range(axis + 1, d)) if cube else (lambda axis: ())
    return _transform_lines(np.fft.rfft(values, norm=norm), np.fft.fftn, reversed(range(d - 1)), pruned, norm)


def real_inverse(grid: FrequencyGrid, half: np.ndarray, norm: str = "ortho") -> np.ndarray:
    """The real lattice array whose real_forward is the half spectrum
    (numpy irfftn, with its bits).  It consumes half: the axes before the
    last are inverted in place, first to last, then irfft along the last."""
    _transform_lines(half, np.fft.ifftn, range(grid.d - 1), lambda axis: (), norm)
    return np.fft.irfft(half, n=grid.n, norm=norm)


def hermitian_planes(grid: FrequencyGrid, spec: np.ndarray) -> np.ndarray:
    """Replace each self-mirrored plane m_d = 0, n/2 of a half (or full)
    spectrum, in place, by the mean of itself and its conjugate mirror:
    the half transform leaves them Hermitian only to rounding."""
    neg = (-np.arange(grid.n)) % grid.n  # FFT-order index of -m
    for plane in (0, grid.n // 2):
        face = spec[..., plane]
        face[...] = 0.5 * (face + np.conj(face[np.ix_(*[neg] * (grid.d - 1))]))
    return spec


def complete_spectrum(grid: FrequencyGrid, half: np.ndarray) -> np.ndarray:
    """The full FFT-order spectrum X of a real field from its half
    spectrum, with X(-m) = conj X(m) exactly: the self-mirrored planes are
    made Hermitian (hermitian_planes), the rest mirrored.  A real half
    array (an even density) is completed the same way.
    """
    n, half_n = grid.n, grid.n // 2
    neg = (-np.arange(n)) % n  # FFT-order index of -m
    out = np.empty(grid.shape, dtype=half.dtype)
    out[..., : half_n + 1] = half
    hermitian_planes(grid, out)
    # m_d = n/2 + 1 .. n - 1 mirror m_d = n/2 - 1 .. 1 on the half lattice
    mirror = np.ix_(*[neg] * (grid.d - 1), np.arange(half_n - 1, 0, -1))
    out[..., half_n + 1 :] = np.conj(half[mirror])
    return out


def spectrum_at(grid: FrequencyGrid, half: np.ndarray, index) -> np.ndarray:
    """complete_spectrum(grid, half)[index] for a half spectrum with
    Hermitian planes (hermitian_planes): index is d FFT-order ints or
    broadcasting arrays (np.ix_); X(m) = conj X(-m) for m_d > n/2."""
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
    direction does 71% of their work.
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
    2/3 cube |m| <= n//3 (m >= 0 only on a half-spectrum last axis)."""
    n = values.shape[0]
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


def to_physical(f: Field) -> Field:
    return f if f.is_physical else transform(f, "inverse")


def to_spectral(f: Field) -> Field:
    return f if f.is_spectral else transform(f, "forward")


def spectral_gradient(f: Field) -> tuple:
    """Per-axis derivative fields (spectral representation).

    Component j carries the multiplier i*xi_j with the Nyquist row set
    to zero.  A physical input is transformed automatically.
    """
    fs = to_spectral(f)
    return tuple(
        Field(f.grid, SPECTRAL, fs.values * f.grid.deriv_multipliers[j])
        for j in range(f.grid.d)
    )


def multiply(f: Field, g: Field) -> Field:
    """Pointwise product formed in physical space."""
    fp, gp = to_physical(f), to_physical(g)
    return Field(f.grid, PHYSICAL, fp.values * gp.values)


def dealias_23(f: Field) -> Field:
    """Zero all modes outside the 2/3 cube; preserves representation."""
    fs = to_spectral(f)
    out = Field(f.grid, SPECTRAL, fs.values * f.grid.dealias_mask)
    return out if f.is_spectral else to_physical(out)


def l2_norm(f: Field) -> float:
    """L2 norm with the h^d measure; representation-independent (Parseval)."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.measure))


def weighted_l2(f: Field, w: np.ndarray) -> float:
    """(sum_xi w(xi) |fhat(xi)|^2 * h^d)^{1/2}.

    w is a nonnegative weight on the full frequency lattice in FFT
    order.  With w == 1 this is exactly the physical L2 norm.
    """
    w = np.asarray(w)
    if w.shape != f.grid.shape:
        raise ValueError("weight shape does not match the frequency lattice")
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative")
    fs = to_spectral(f)
    return float(np.sqrt(np.sum(w * np.abs(fs.values) ** 2) * f.grid.measure))
