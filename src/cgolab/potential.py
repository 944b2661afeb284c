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

up to rounding.  The Leibniz rule splits the same form into
    - integral (grad g . grad g^{-1}) uv dx
    - integral grad(log g) . grad(uv) dx,
whose lattice evaluation is a genuinely different discretization; it is
kept as mq_bilinear_split, an independent diagnostic.

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
    integral,
    laplacian,
    multiply,
    physical_field,
    spectral_gradient,
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
        """q = (Lap g)/g with the spectral Laplacian; real, ball-supported."""
        lap = to_physical(laplacian(self.g))
        return physical_field(self.grid, lap.values.real / self.g.values.real)

    @cached_property
    def q_hat(self) -> Field:
        """q in the spectral representation, transformed once."""
        return to_spectral(self.q)


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
    logg = physical_field(grid, np.log(gamma_vals))
    grads = [to_physical(gj).values.real for gj in spectral_gradient(logg)]
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
        # circular convolution leaves rounding-level imaginary dust
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


def mq_bilinear(
    u: Field,
    v: Field,
    cond: Conductivity,
    dealias: bool = False,
    check_split: bool = False,
    check_tol: float = 1e-9,
) -> complex:
    """<m_q(u), v> = - sum grad(g) . grad(g^{-1} u v) h^d  (duality form),
    evaluated as the equal sum q u v h^d (see the module docstring).

    The product u*v is formed in physical space (2/3-truncated when
    dealias=True).  With check_split=True the Leibniz-split form is
    evaluated too and must agree to check_tol relative error; this holds
    for well-resolved data and is exercised by the tests.
    """
    w = multiply(u, v, dealias=dealias)
    value = _mq_of_product(w, cond)
    if check_split:
        other = _mq_split_of_product(w, cond)
        scale = max(abs(value), abs(other))
        if scale > 0 and abs(value - other) > check_tol * scale:
            raise DomainError(
                f"duality and Leibniz-split forms disagree: {value} vs {other}"
            )
    return value


def mq_bilinear_split(u: Field, v: Field, cond: Conductivity, dealias: bool = False) -> complex:
    """Leibniz-split evaluation of the same bilinear form."""
    w = multiply(u, v, dealias=dealias)
    return _mq_split_of_product(w, cond)


def _mq_of_product(w: Field, cond: Conductivity) -> complex:
    """The duality form of the product w, as sum q w h^d."""
    return complex(np.sum(cond.q.values.real * to_physical(w).values) * cond.grid.measure)


def _mq_split_of_product(w: Field, cond: Conductivity) -> complex:
    grid = cond.grid
    g = cond.g
    ginv = physical_field(grid, 1.0 / g.values.real)
    grads_g = [to_physical(f).values.real for f in spectral_gradient(g)]
    grads_ginv = [to_physical(f).values.real for f in spectral_gradient(ginv)]
    grads_logg = [to_physical(f).values.real for f in spectral_gradient(cond.log_g)]
    grads_w = [to_physical(f).values for f in spectral_gradient(w)]
    cross = sum(np.sum(a * b * w.values) for a, b in zip(grads_g, grads_ginv))
    trans = sum(np.sum(a * b) for a, b in zip(grads_logg, grads_w))
    return complex(-(cross + trans) * grid.measure)


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
    and emits a warning.  The mean of f is preserved exactly.
    """
    grid = f.grid
    if eps < 2.0 * grid.h:
        warnings.warn(
            f"mollification width {eps:.3g} < 2h = {2 * grid.h:.3g}; no-op",
            stacklevel=2,
        )
        return f
    bump = mollifier_bump(grid, eps)
    fp = to_physical(f)
    conv = np.fft.ifftn(np.fft.fftn(fp.values) * np.fft.fftn(bump.values)) * grid.measure
    out = physical_field(grid, conv)
    return out if f.is_physical else to_spectral(out)


@dataclass(frozen=True, eq=False)
class CutoffField:
    """Smooth radial cutoff: 1 on the support ball, 0 outside twice it."""

    field: Field
    inner_radius: float

    @property
    def outer_radius(self) -> float:
        return 2.0 * self.inner_radius


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


def potential_mean_identity(cond: Conductivity) -> tuple[float, float]:
    """Both sides of  integral q dx = integral g^{-2} |grad g|^2 dx  (>= 0)."""
    q = potential_q(cond)
    lhs = integral(q).real
    g = cond.g
    grads = [to_physical(f).values.real for f in spectral_gradient(g)]
    dens = sum(gj * gj for gj in grads) / (g.values.real ** 2)
    rhs = float(dens.sum() * cond.grid.measure)
    return lhs, rhs
