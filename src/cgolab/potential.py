"""Conductivities, their potentials, the duality bilinear form, cutoffs
and mollification.

A conductivity is a strictly positive real field gamma with gamma = 1
outside a declared support ball (radius <= L/4, centred at the torus
centre).  With g = gamma^{1/2} the associated potential is q = (Lap g)/g
computed spectrally.  The weak "multiplication by q" form is

    <m_q(u), v> = - integral grad(g) . grad(g^{-1} u v) dx,

which depends on u, v only through the pointwise product w = uv.  On the
lattice it is evaluated as sum q w h^d, and this is exact, not an
approximation: the spectral gradient (Nyquist row zeroed) is
skew-adjoint under the bilinear pairing, and the spectral Laplacian is
exactly its composition with itself, so

    - sum grad(g) . grad(w/g) h^d = sum (Lap g) (w/g) h^d = sum q w h^d

up to rounding.  The Alessandrini pairing (recovery.pairing_weight) and
the operator norm of the form (estimates.mq_operator_ratio) both read q.

Shipped profile families (amplitude a, centred at the torus centre):

* "gaussian"  gamma = 1 + a exp(-r^2/sigma^2)            -- smooth
* "c1_cap"    gamma = 1 + a (1 - 3t^2 + 2t^3), t = r/R   -- C1, not C2
* "cone"      gamma = 1 + a max(0, 1 - r/R)              -- Lipschitz
* "uniform"   gamma = 1 (the q = 0 degenerate path)

Non-smooth profiles ("c1_cap", "cone") are pre-mollified at width 2h
before any spectral differentiation; the width is recorded on the
Conductivity.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import (
    Field,
    FrequencyGrid,
    complete_spectrum,
    physical_field,
    real_forward,
    real_inverse,
    spectral_field,
    to_physical,
    to_spectral,
)
from .spaces import smooth_bridge

_SUPPORT_TOL = 1e-12
SMOOTHNESS_CLASSES = ("lipschitz", "c1", "smooth")


@dataclass(frozen=True, eq=False)
class Conductivity:
    """Strictly positive gamma with gamma = 1 outside the support ball."""

    gamma: Field
    support_radius: float
    lower_bound: float
    smoothness_class: str
    mollification_width: float = 0.0

    @property
    def grid(self) -> FrequencyGrid:
        return self.gamma.grid

    @cached_property
    def lipschitz_seminorm(self) -> float:
        """sup |grad log gamma| with the spectral gradient."""
        return _grad_log_sup(self.grid, self.gamma.values.real)

    @cached_property
    def g(self) -> Field:
        """gamma^{1/2}, physical representation."""
        return physical_field(self.grid, np.sqrt(self.gamma.values.real))

    @cached_property
    def log_g(self) -> Field:
        return physical_field(self.grid, 0.5 * np.log(self.gamma.values.real))

    @cached_property
    def q(self) -> Field:
        """q = (Lap g)/g with the spectral Laplacian; real, ball-supported.
        The Laplacian multiplier is -sum_j xi_j^2 with Nyquist rows zeroed,
        applied on the half spectrum of g."""
        g = self.g.values.real
        half = real_forward(g)
        half *= -sum(mult.imag ** 2 for mult in self.grid.half_deriv_multipliers)
        return physical_field(self.grid, real_inverse(self.grid, half) / g)

    @cached_property
    def q_hat(self) -> Field:
        """q in the spectral representation: transformed once on the half
        spectrum and completed to the full lattice."""
        half = real_forward(self.q.values.real)
        return spectral_field(self.grid, complete_spectrum(self.grid, half))


def _validate_gamma(grid: FrequencyGrid, values: np.ndarray, support_radius: float):
    if np.max(np.abs(values.imag)) > 1e-13 * max(1.0, np.max(np.abs(values.real))):
        raise DomainError("conductivity must be real")
    vals = values.real
    if np.min(vals) <= 0:
        raise DomainError("conductivity must be strictly positive")
    if support_radius > grid.L / 4.0 + 1e-12:
        raise DomainError(
            f"support radius {support_radius:.6g} exceeds L/4 = {grid.L / 4:.6g}"
        )
    outside = grid.radius_from_center > support_radius
    if outside.any():
        dev = float(np.max(np.abs(vals[outside] - 1.0)))
        if dev > _SUPPORT_TOL:
            raise DomainError(
                f"gamma deviates from 1 by {dev:.3e} outside radius {support_radius:.6g}"
            )


def _grad_log_sup(grid: FrequencyGrid, gamma_vals: np.ndarray) -> float:
    half = real_forward(np.log(gamma_vals))
    grads = [real_inverse(grid, half * mult) for mult in grid.half_deriv_multipliers]
    return float(np.max(np.sqrt(sum(g * g for g in grads))))


def conductivity_from_array(
    grid: FrequencyGrid,
    values,
    support_radius: float,
    smoothness_class: str = "smooth",
    premollify: bool = False,
) -> Conductivity:
    """Build and validate a conductivity from raw grid values."""
    if smoothness_class not in SMOOTHNESS_CLASSES:
        raise DomainError(f"unknown smoothness class {smoothness_class!r}")
    vals = np.asarray(values, dtype=complex)
    width = 0.0
    field = physical_field(grid, vals)
    if premollify:
        width = 2.0 * grid.h
        field = mollify(field, width)
        # a complex input is convolved by complex transforms, which leave
        # rounding-level imaginary dust
        field = physical_field(grid, field.values.real)
        support_radius = support_radius + width
        vals = field.values
    _validate_gamma(grid, vals, support_radius)
    return Conductivity(
        gamma=field,
        support_radius=float(support_radius),
        lower_bound=float(np.min(vals.real)),
        smoothness_class=smoothness_class,
        mollification_width=width,
    )


def make_conductivity(grid: FrequencyGrid, profile: dict) -> Conductivity:
    """Profile loader: {"kind": ..., parameters...}; see module docstring."""
    spec = dict(profile)
    kind = spec.pop("kind", None)
    r = grid.radius_from_center
    if kind == "uniform":
        spec.pop("amplitude", None)
        _reject_extra(kind, spec)
        return conductivity_from_array(grid, np.ones(grid.shape), grid.L / 4.0, "smooth")
    if kind == "gaussian":
        a = float(spec.pop("amplitude"))
        sigma = float(spec.pop("width"))
        _reject_extra(kind, spec)
        # tail must be below the support tolerance at L/4
        radius = grid.L / 4.0
        if abs(a) * np.exp(-((radius / sigma) ** 2)) > _SUPPORT_TOL:
            raise DomainError(
                f"gaussian width {sigma:.6g} leaves a tail above 1e-12 at L/4"
            )
        vals = 1.0 + a * np.exp(-((r / sigma) ** 2))
        return conductivity_from_array(grid, vals, radius, "smooth")
    if kind == "c1_cap":
        a = float(spec.pop("amplitude"))
        radius = float(spec.pop("radius"))
        _reject_extra(kind, spec)
        t = np.minimum(r / radius, 1.0)
        vals = 1.0 + a * (1.0 - 3.0 * t * t + 2.0 * t ** 3)
        return conductivity_from_array(grid, vals, radius, "c1", premollify=True)
    if kind == "cone":
        a = float(spec.pop("amplitude"))
        radius = float(spec.pop("radius"))
        _reject_extra(kind, spec)
        vals = 1.0 + a * np.maximum(0.0, 1.0 - r / radius)
        return conductivity_from_array(grid, vals, radius, "lipschitz", premollify=True)
    raise DomainError(f"unknown conductivity profile kind {kind!r}")


def _reject_extra(kind, leftovers: dict):
    leftovers.pop("center", None)  # centre is fixed at the torus centre
    if leftovers:
        raise DomainError(f"unknown parameters for profile {kind!r}: {sorted(leftovers)}")


def potential_q(cond: Conductivity) -> Field:
    """q = (Lap g)/g with the spectral Laplacian; real, ball-supported.
    Computed once per conductivity (Conductivity.q)."""
    return cond.q


def mollifier_bump(grid: FrequencyGrid, eps: float) -> Field:
    """Unit-mass smooth bump of width eps, centred at the origin (for
    circular convolution); normalized exactly on the grid."""
    r = np.zeros(grid.shape)
    for j in range(grid.d):
        delta = np.minimum(grid.x_axis, grid.L - grid.x_axis)
        r = r + grid._along(j, delta) ** 2
    rho_sq = r / (eps * eps)
    vals = np.zeros(grid.shape)
    inside = rho_sq < 1.0
    vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho_sq[inside]))
    total = vals.sum() * grid.measure
    if total <= 0:
        raise DomainError(f"mollifier width {eps:.3g} is below grid resolution")
    return physical_field(grid, vals / total)


def mollify(f: Field, eps: float) -> Field:
    """Convolve with the unit-mass bump of width eps (spectrally).

    Below the grid scale (eps < 2h) mollification is a documented no-op
    and emits a warning.  The mean of f is preserved exactly.  A field
    with real physical values is convolved through the real transforms
    and stays exactly real.
    """
    grid = f.grid
    if eps < 2.0 * grid.h:
        warnings.warn(
            f"mollification width {eps:.3g} < 2h = {2 * grid.h:.3g}; no-op",
            stacklevel=2,
        )
        return f
    bump = mollifier_bump(grid, eps).values.real
    fp = to_physical(f).values
    if fp.imag.any():
        conv = np.fft.ifftn(np.fft.fftn(fp) * np.fft.fftn(bump))
    else:  # a real field: the real pair, on the half spectrum
        axes = tuple(range(grid.d))
        conv = np.fft.irfftn(np.fft.rfftn(fp.real) * np.fft.rfftn(bump), s=grid.shape, axes=axes)
    out = physical_field(grid, conv * grid.measure)
    return out if f.is_physical else to_spectral(out)


@dataclass(frozen=True, eq=False)
class CutoffField:
    """Smooth radial cutoff: 1 on the support ball, 0 outside twice it."""

    field: Field
    inner_radius: float


def make_cutoff(cond: Conductivity) -> CutoffField:
    grid = cond.grid
    radius = cond.support_radius
    if radius > grid.L / 4.0 + 1e-12:
        raise DomainError("cutoff needs support radius <= L/4")
    vals = smooth_bridge(grid.radius_from_center / radius)
    return CutoffField(physical_field(grid, vals), radius)


# -- raw grid file format ---------------------------------------------------
#
# Little-endian binary layout:
#   uint32 d, uint32 n, float64 L, then n^d float64 gamma values in
#   row-major (C) order.

_HEADER = struct.Struct("<IId")


def write_gamma_file(path, cond: Conductivity):
    grid = cond.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(grid.d, grid.n, grid.L))
        cond.gamma.values.real.astype("<f8").tofile(fh)


def read_gamma_file(path, smoothness_class: str = "smooth", premollify: bool = False) -> Conductivity:
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DomainError(f"{path}: truncated header")
        d, n, L = _HEADER.unpack(header)
        grid = FrequencyGrid(d=int(d), n=int(n), L=float(L))
        data = np.fromfile(fh, dtype="<f8", count=grid.size)
    if data.size != grid.size:
        raise DomainError(f"{path}: expected {grid.size} samples, found {data.size}")
    vals = data.reshape(grid.shape)
    # derive the smallest admissible support radius from the data
    dev = np.abs(vals - 1.0) > _SUPPORT_TOL
    if dev.any():
        radius = float(np.max(grid.radius_from_center[dev]))
    else:
        radius = 0.0
    if radius > grid.L / 4.0:
        raise DomainError(f"{path}: support radius {radius:.6g} exceeds L/4")
    return conductivity_from_array(grid, vals, radius, smoothness_class, premollify)

