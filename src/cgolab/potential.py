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

up to rounding.  The Alessandrini pairing (recovery.recover_modes) and
the operator norm of the form (estimates.mq_operator_ratio) both read q.

Shipped profile families (amplitude a, centred at the torus centre):

* "gaussian"  gamma = 1 + a exp(-r^2/sigma^2)            -- smooth
* "c1_cap"    gamma = 1 + a (1 - 3t^2 + 2t^3), t = r/R   -- C1, not C2
* "cone"      gamma = 1 + a max(0, 1 - r/R)              -- Lipschitz
* "uniform"   gamma = 1 (the q = 0 degenerate path)

A profile key outside its family's parameters, "center" among them,
raises DomainError.  Non-smooth profiles ("c1_cap", "cone") are
pre-mollified at width 2h before any spectral differentiation, which
widens the support radius by 2h.  A profile is formed in place in one
radius array (c1_cap adds one for t^3), operation by operation as its
formula reads, and the support check reuses one more.  gamma, g, log g, q,
mollified fields and the cutoff are float64 Fields; q_hat, the spectrum
of q, is a complex array on the half spectrum.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .grid import Field, FrequencyGrid, hermitian_planes, real_forward, real_inverse
from .spaces import bridge

_SUPPORT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Conductivity:
    """Strictly positive gamma with gamma = 1 outside the support ball."""

    gamma: Field
    support_radius: float

    @property
    def grid(self) -> FrequencyGrid:
        return self.gamma.grid

    @cached_property
    def lipschitz_seminorm(self) -> float:
        """sup |grad log gamma| with the spectral gradient."""
        return _grad_log_sup(self.grid, self.gamma.values)

    @property
    def g(self) -> Field:
        """gamma^{1/2} (formed on each read)."""
        return Field(self.grid, np.sqrt(self.gamma.values))

    @cached_property
    def log_g(self) -> Field:
        return Field(self.grid, 0.5 * np.log(self.gamma.values))

    @cached_property
    def q(self) -> Field:
        """q = (Lap g)/g with the spectral Laplacian; real, ball-supported.
        The Laplacian multiplier is -sum_j xi_j^2 with Nyquist rows zeroed,
        applied on the half spectrum of g."""
        g = self.g.values
        half = real_forward(g)
        half *= -sum(mult.imag ** 2 for mult in self.grid.half_deriv_multipliers)
        return Field(self.grid, real_inverse(self.grid, half) / g)

    @cached_property
    def q_hat(self) -> np.ndarray:
        """q on the half spectrum, its planes m_d = 0, n/2 made Hermitian
        (grid.hermitian_planes) and read only; half the full one's size."""
        half = hermitian_planes(self.grid, real_forward(self.q.values))
        half.flags.writeable = False
        return half


def _validate_gamma(grid: FrequencyGrid, vals: np.ndarray, support_radius: float):
    if np.min(vals) <= 0:
        raise DomainError("conductivity must be strictly positive")
    if support_radius > grid.L / 4.0 + 1e-12:
        raise DomainError(
            f"support radius {support_radius:.6g} exceeds L/4 = {grid.L / 4:.6g}"
        )
    dev = grid.radius_from_center  # then |gamma - 1|, its max taken outside the support
    outside = dev > support_radius
    dev = float(np.max(np.abs(np.subtract(vals, 1.0, out=dev), out=dev), where=outside, initial=0.0))
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
    premollify: bool = False,
) -> Conductivity:
    """Build and validate a conductivity from a copy of raw grid values: a
    complex input must be real to 1e-13 relative, and every value finite."""
    vals = np.asarray(values)
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-13 * max(1.0, np.max(np.abs(vals.real))):
            raise DomainError("conductivity must be real")
        vals = vals.real
    return _from_owned(grid, np.array(vals, dtype=float), support_radius, premollify)


def _from_owned(grid: FrequencyGrid, vals: np.ndarray, support_radius: float, premollify: bool = False) -> Conductivity:
    """conductivity_from_array on a float64 array that it takes over and freezes."""
    bad = vals.size - np.count_nonzero(np.isfinite(vals))
    if bad:
        raise DomainError(f"conductivity has {bad} non-finite values")
    if premollify:
        width = 2.0 * grid.h
        vals = mollify(Field(grid, vals), width).values
        support_radius = support_radius + width
    _validate_gamma(grid, vals, support_radius)
    return Conductivity(gamma=Field(grid, vals), support_radius=float(support_radius))


def make_conductivity(grid: FrequencyGrid, profile: dict) -> Conductivity:
    """Profile loader: {"kind": ..., parameters...}; see module docstring."""
    spec = dict(profile)
    kind = spec.pop("kind", None)
    if kind == "uniform":
        spec.pop("amplitude", None)
        _reject_extra(kind, spec)
        return _from_owned(grid, np.ones(grid.shape), grid.L / 4.0)
    if kind not in ("gaussian", "c1_cap", "cone"):
        raise DomainError(f"unknown conductivity profile kind {kind!r}")
    a = float(spec.pop("amplitude"))
    scale = float(spec.pop("width" if kind == "gaussian" else "radius"))
    _reject_extra(kind, spec)
    radius = grid.L / 4.0 if kind == "gaussian" else scale
    if kind == "gaussian" and abs(a) * np.exp(-((radius / scale) ** 2)) > _SUPPORT_TOL:  # tail at L/4
        raise DomainError(f"gaussian width {scale:.6g} leaves a tail above 1e-12 at L/4")
    vals = grid.radius_from_center  # then 1 + a shape(r / scale) in place
    vals /= scale
    if kind == "gaussian":  # exp(-t^2)
        np.exp(np.negative(np.square(vals, out=vals), out=vals), out=vals)
    elif kind == "cone":  # max(0, 1 - t)
        np.maximum(np.subtract(1.0, vals, out=vals), 0.0, out=vals)
    else:  # 1 - 3t^2 + 2t^3 with t = min(t, 1): a second array, for t^3
        np.minimum(vals, 1.0, out=vals)
        poly = 1.0 - 3.0 * vals * vals
        poly += 2.0 * vals ** 3
        vals = poly
    vals *= a
    vals += 1.0
    return _from_owned(grid, vals, radius, premollify=kind != "gaussian")


def _reject_extra(kind, leftovers: dict):
    if leftovers:
        raise DomainError(f"unknown parameters for profile {kind!r}: {sorted(leftovers)}")


def potential_q(cond: Conductivity) -> Field:
    """q = (Lap g)/g with the spectral Laplacian; real, ball-supported.
    Computed once per conductivity (Conductivity.q)."""
    return cond.q


def _bump_spectrum(grid: FrequencyGrid, eps: float) -> np.ndarray:
    """Unnormalized DFT, on the half spectrum, of the unit-mass
    smooth bump B of width eps at the origin, normalized exactly on the
    grid.  B lives on offsets -R..R per axis, R = ceil(eps / h), clipped to
    one period -n/2..n/2 - 1.  Being even per coordinate, its DFT is
    sum_o B(o) prod_j cos(2 pi m_j o_j / n) (sin(pi m_j) = 0 covers the
    unmirrored -n/2): one contraction per axis with a cosine table."""
    radius = int(np.ceil(eps / grid.h))
    offsets = np.arange(max(-radius, -grid.n // 2), min(radius, grid.n // 2 - 1) + 1)
    x = grid.x_axis[offsets % grid.n]
    rho_sq = reduce(np.add.outer, [np.minimum(x, grid.L - x) ** 2] * grid.d) / (eps * eps)
    spec = np.zeros(rho_sq.shape)
    inside = rho_sq < 1.0
    spec[inside] = np.exp(1.0 - 1.0 / (1.0 - rho_sq[inside]))
    total = spec.sum() * grid.measure
    if total <= 0:
        raise DomainError(f"mollifier width {eps:.3g} is below grid resolution")
    spec /= total
    table = np.cos((2.0 * np.pi / grid.n) * (np.outer(grid.mode_axis, offsets) % grid.n))
    for j in range(grid.d):
        rows = table[: grid.n // 2 + 1] if j == grid.d - 1 else table
        spec = np.tensordot(spec, rows, axes=([0], [1]))  # mode axes collect at the end
    return spec


def mollify(f: Field, eps: float) -> Field:
    """Convolve a real field (ValueError otherwise) with the unit-mass
    bump of width eps, spectrally through the real transforms.

    Below the grid scale (eps < 2h) mollification is a documented no-op
    and emits a warning.  The mean of f is preserved exactly.  The bump's
    spectrum comes from its support clipped to one period (exact at any
    width); no full-grid bump is formed.
    """
    grid = f.grid
    if eps < 2.0 * grid.h:
        warnings.warn(
            f"mollification width {eps:.3g} < 2h = {2 * grid.h:.3g}; no-op",
            stacklevel=2,
        )
        return f
    if np.iscomplexobj(f.values):
        raise ValueError("mollify takes a real field")
    # numpy's unnormalised pair: the bump spectrum is an unnormalised DFT
    half = real_forward(f.values, norm="backward")
    half *= _bump_spectrum(grid, eps)
    conv = real_inverse(grid, half, norm="backward")
    conv *= grid.measure
    return Field(grid, conv)


def make_cutoff(cond: Conductivity) -> Field:
    """Smooth radial cutoff: 1 on the support ball, 0 outside twice it;
    smooth_bridge(|x - centre| / radius) in one array, bridged on the shell."""
    grid = cond.grid
    radius = cond.support_radius
    if radius > grid.L / 4.0 + 1e-12:
        raise DomainError("cutoff needs support radius <= L/4")
    rho = grid.radius_from_center / radius
    shell = (rho > 1.0) & (rho < 2.0)
    values = bridge(rho[shell])
    np.subtract(1.0, np.greater_equal(rho, 2.0, out=rho), out=rho)
    rho[shell] = values
    return Field(grid, rho)


# -- raw grid file format ---------------------------------------------------
#
# Little-endian binary layout:
#   uint32 d, uint32 n, float64 L, then n^d float64 gamma values in
#   row-major (C) order.

_HEADER = struct.Struct("<IId")


def read_gamma_file(path) -> Conductivity:
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read gamma file {path}: {exc.strerror or exc}") from exc
    with fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DomainError(f"{path}: truncated header")
        d, n, L = _HEADER.unpack(header)
        try:
            grid = FrequencyGrid(d=int(d), n=int(n), L=float(L))
        except ValueError as exc:
            raise DomainError(f"{path}: header names no valid grid: {exc}") from exc
        # the whole payload, so data past the last sample is not silently dropped
        payload = fh.read()
    if len(payload) != 8 * grid.size:
        raise DomainError(
            f"{path}: expected {grid.size} samples ({8 * grid.size} bytes), found {len(payload)} bytes"
        )
    vals = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    # derive the smallest admissible support radius from the data
    dev = np.abs(vals - 1.0) > _SUPPORT_TOL
    if dev.any():
        radius = float(np.max(grid.radius_from_center[dev]))
    else:
        radius = 0.0
    if radius > grid.L / 4.0:
        raise DomainError(f"{path}: support radius {radius:.6g} exceeds L/4")
    return conductivity_from_array(grid, vals, radius)

