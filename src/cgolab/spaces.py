"""Symbol-weighted norms, high/low projections, and the right inverse of
the conjugated Laplacian as a spectral multiplier.

Norms.  The homogeneous norm weighs |fhat(xi)| by |p(xi)|^b and the
inhomogeneous one by (|zeta| + |p(xi)|)^b with |zeta| = sqrt(2)*s.  Only
b in {-1/2, 0, 1/2} is exercised by the experiments.

Clamping.  On a lattice the zero set of the symbol always contains
xi = 0 exactly (and occasionally other points), so |p|^{-1/2} and 1/p
need a surrogate for the integrable continuum singularity.  Modes with
|p| < clamp_eps * s are "clamped"; two policies are offered:

* "floor"  -- |p| is floored at clamp_eps*s before exponentiation, and
  the inverse divides by p rescaled to that magnitude (phase kept,
  phase 1 where p = 0 exactly).  This is the default.
* "drop"   -- clamped modes are excluded (weight zero / inverse zero).
  The fixed-point solver uses this: flooring at the default eps
  amplifies an exact-zero mode by 1/(eps*s), which injects a spurious
  constant into the solution; dropping reproduces the continuum
  compatibility instead.  The dropped defect is always reported.

Every clamped-mode count and mass is observable so experiments can
re-run at clamp_eps/10 and confirm insensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularModeError
from .grid import Field, FrequencyGrid, SPECTRAL, to_spectral, weighted_l2
from .symbol import Zeta, lattice_symbol, symbol_lattice

DEFAULT_CLAMP_EPS = 1e-6

_POLICIES = ("floor", "drop")


def smooth_bridge(rho):
    """Fixed smooth cutoff profile: 1 for |rho| <= 1, 0 for |rho| >= 2,
    with the standard smooth-bump exponential bridge in between
    (infinitely flat at both ends; monotone)."""
    arr = np.abs(np.asarray(rho, dtype=float))
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.ones_like(arr)
    out[arr >= 2.0] = 0.0
    mid = (arr > 1.0) & (arr < 2.0)
    t = arr[mid]
    a = np.exp(-1.0 / (2.0 - t))
    b = np.exp(-1.0 / (t - 1.0))
    out[mid] = a / (a + b)
    return float(out[0]) if scalar else out


def clamped_mask(zeta: Zeta, grid: FrequencyGrid, clamp_eps: float) -> np.ndarray:
    """Modes whose symbol magnitude falls under the clamp floor
    (read-only, held by the zeta's LatticeSymbol)."""
    sym = lattice_symbol(zeta, grid)

    def build():
        if clamp_eps > 0:
            return sym.pabs < clamp_eps * zeta.s
        return sym.pabs == 0.0

    return sym.derived(("mask", clamp_eps), build)


@dataclass(frozen=True, eq=False)
class SymbolWeight:
    """Weight |p|^b (homogeneous) or (|zeta| + |p|)^b (inhomogeneous).

    clamp_eps is a relative floor in units of s; the clamped-mode count
    is exposed through clamped_mask/clamped_count.  Multipliers are
    computed once per (grid, kind, b, clamp_eps, policy) and held
    read-only by the zeta's LatticeSymbol (see symbol.lattice_symbol).
    """

    zeta: Zeta
    kind: str
    b: float
    clamp_eps: float = DEFAULT_CLAMP_EPS

    def __post_init__(self):
        if self.kind not in ("homogeneous", "inhomogeneous"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.clamp_eps < 0:
            raise ValueError("clamp_eps must be >= 0")

    def multiplier(self, grid: FrequencyGrid, policy: str = "floor") -> np.ndarray:
        """Amplitude multiplier applied to |fhat|; squared by the norms."""
        if policy not in _POLICIES:
            raise ValueError(f"unknown clamp policy {policy!r}")
        sym = lattice_symbol(self.zeta, grid)
        key = ("weight", self.kind, self.b, self.clamp_eps, policy)
        return sym.derived(key, lambda: self._build(sym.pabs, policy))

    def _build(self, pabs: np.ndarray, policy: str) -> np.ndarray:
        if self.kind == "inhomogeneous":
            return (self.zeta.magnitude + pabs) ** self.b
        floor = self.clamp_eps * self.zeta.s
        if floor > 0:
            mask = pabs < floor
            if policy == "floor":
                return np.maximum(pabs, floor) ** self.b
            out = np.where(mask, 1.0, np.maximum(pabs, floor)) ** self.b
            out[mask] = 0.0
            return out
        # clamp_eps == 0: exact zeros contribute nothing; caller must have
        # verified there is no spectral mass there (see xdot_norm).
        mask = pabs == 0.0
        out = np.where(mask, 1.0, pabs) ** self.b
        out[mask] = 0.0
        return out

    def clamped_count(self, grid: FrequencyGrid) -> int:
        return int(np.count_nonzero(clamped_mask(self.zeta, grid, self.clamp_eps)))


def _guard_singular(u: Field, mask: np.ndarray):
    if mask.any():
        dens = np.abs(to_spectral(u).values) ** 2
        _guard_zero_modes(dens.reshape(1, -1), mask.reshape(1, -1))


def xdot_norm(
    u: Field,
    zeta: Zeta,
    b: float,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
    policy: str = "floor",
) -> float:
    """Homogeneous symbol-weighted norm || |p|^b uhat ||_{L2}."""
    if b < 0 and clamp_eps == 0:
        _guard_singular(u, clamped_mask(zeta, u.grid, 0.0))
    w = SymbolWeight(zeta, "homogeneous", b, clamp_eps).multiplier(u.grid, policy)
    return weighted_l2(u, w * w)


def x_norm(u: Field, zeta: Zeta, b: float) -> float:
    """Inhomogeneous norm || (|zeta| + |p|)^b uhat ||_{L2}; never singular."""
    w = SymbolWeight(zeta, "inhomogeneous", b).multiplier(u.grid)
    return weighted_l2(u, w * w)


def inverse_symbol_sums(
    dens,
    zetas,
    grid: FrequencyGrid,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
    policy: str = "floor",
) -> np.ndarray:
    """S[i, z] = sum_xi dens_i(xi) / |p_z(xi)| for density rows dens_i on
    the lattice and a list of zetas, clamped as in SymbolWeight: under
    "floor" |p_z| is floored at clamp_eps * s_z, under "drop" modes with
    |p_z| < clamp_eps * s_z contribute nothing.  With dens = |uhat|^2,
    S * h^d is the squared homogeneous -1/2-norm of u at zeta_z.

    Only the tensor sub-lattice of the per-axis indices where some row is
    nonzero is summed.  |p| comes from real arithmetic on it, one zeta at
    a time: -Re p = sum_j xi_j (xi_j + 2 Im zeta_j) and
    Im p = sum_j 2 Re zeta_j xi_j, broadcast from per-axis 1-d arrays
    (clamping compares |p|^2 with the squared floor); no per-zeta symbol
    data is built or cached.  With clamp_eps = 0 exact zeros of p are
    dropped, and density on one raises SingularModeError (as xdot_norm
    does).
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown clamp policy {policy!r}")
    if clamp_eps < 0:
        raise ValueError("clamp_eps must be >= 0")
    rows = np.asarray(dens, dtype=float).reshape(-1, grid.size)
    if np.any(rows < 0):
        raise ValueError("density must be nonnegative")
    if any(z.d != grid.d for z in zetas):
        raise ValueError("zeta dimension does not match the grid")

    support = np.any(rows != 0, axis=0).reshape(grid.shape)
    index = [
        np.flatnonzero(support.any(axis=tuple(a for a in range(grid.d) if a != j)))
        for j in range(grid.d)
    ]
    if any(ix.size < grid.n for ix in index):
        sub = rows.reshape((len(rows),) + grid.shape)[(slice(None),) + np.ix_(*index)]
        rows = sub.reshape(len(rows), -1)
    xi = [grid.xi_axis[ix] for ix in index]

    def along(j, arr):
        shape = [1] * grid.d
        shape[j] = arr.size
        return arr.reshape(shape)

    out = np.empty((len(rows), len(zetas)))
    for col, zeta in enumerate(zetas):
        neg_re, im_p = 0.0, 0.0
        for j, (x, z) in enumerate(zip(xi, zeta.value)):
            neg_re = neg_re + along(j, x * (x + 2.0 * z.imag))
            im_p = im_p + along(j, 2.0 * z.real * x)
        # |p|^2 in place in the two sub-lattice arrays just built
        psq, im_sq = neg_re.reshape(-1), im_p.reshape(-1)
        psq *= psq
        im_sq *= im_sq
        psq += im_sq
        del im_p, im_sq
        dropped = None
        if clamp_eps == 0:
            dropped = psq == 0.0
            _guard_zero_modes(rows, dropped[None, :])
        else:
            floor_sq = (clamp_eps * zeta.s) ** 2
            if policy == "drop":
                dropped = psq < floor_sq
            np.maximum(psq, floor_sq, out=psq)
        with np.errstate(divide="ignore"):
            weight = np.reciprocal(np.sqrt(psq, out=psq), out=psq)
        if dropped is not None:
            weight[dropped] = 0.0
        out[:, col] = rows @ weight
    return out


def _guard_zero_modes(rows: np.ndarray, zero: np.ndarray):
    """Raise if a density row |uhat|^2 exceeds (1e-13 max(1, max |uhat|))^2
    on a column where some row of zero is set (an exact zero of p)."""
    hit = zero.any(axis=0)
    if hit.any():
        peak = rows[:, hit].max(axis=1)
        if np.any(peak > 1e-26 * np.maximum(1.0, rows.max(axis=1))):
            raise SingularModeError(
                "spectral mass on a zero-symbol mode with clamp_eps = 0"
            )


def clamped_mass_fraction(u: Field, zeta: Zeta, clamp_eps: float = DEFAULT_CLAMP_EPS) -> float:
    """Fraction of the spectral L2 mass sitting on clamped modes."""
    uhat = to_spectral(u).values
    total = float(np.sqrt(np.sum(np.abs(uhat) ** 2)))
    if total == 0.0:
        return 0.0
    mask = clamped_mask(zeta, u.grid, clamp_eps)
    part = float(np.sqrt(np.sum(np.abs(uhat[mask]) ** 2)))
    return part / total


def project(u: Field, zeta: Zeta, part: str) -> Field:
    """Low/high frequency projection with multiplier chi(|xi|/(8s)).

    chi is smooth_bridge: low + high = identity exactly, the low part is
    band-limited to |xi| < 16s, and the high part vanishes for
    |xi| <= 8s.
    """
    us = to_spectral(u)
    grid = u.grid
    chi = lattice_symbol(zeta, grid).derived(
        ("low_pass",), lambda: smooth_bridge(np.sqrt(grid.xi_sq) / (8.0 * zeta.s))
    )
    if part == "low":
        return Field(u.grid, SPECTRAL, us.values * chi)
    if part == "high":
        return Field(u.grid, SPECTRAL, us.values * (1.0 - chi))
    raise ValueError(f"unknown part {part!r}")


@dataclass(frozen=True)
class InversionInfo:
    """Diagnostics of one multiplier inversion."""

    clamped_count: int
    clamped_mass: float  # L2 mass (with measure) of the input on clamped modes


def apply_delta_zeta(f: Field, zeta: Zeta) -> Field:
    """Forward multiplier p(xi); the conjugated Laplacian."""
    fs = to_spectral(f)
    return Field(f.grid, SPECTRAL, fs.values * symbol_lattice(zeta, f.grid))


def inverse_delta_zeta(
    f: Field,
    zeta: Zeta,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
    policy: str = "floor",
) -> tuple[Field, InversionInfo]:
    """Right inverse: divide fhat by p off clamped modes.

    On clamped modes the "floor" policy divides by p rescaled to
    magnitude clamp_eps*s (phase kept; phase 1 where p = 0), while
    "drop" zeroes them.  Returns the clamped-mode residual mass of the
    input as a diagnostic.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown clamp policy {policy!r}")
    grid = f.grid
    mask = clamped_mask(zeta, grid, clamp_eps)
    if clamp_eps == 0:
        _guard_singular(f, mask)
    fs = to_spectral(f)
    mass = float(np.sqrt(np.sum(np.abs(fs.values[mask]) ** 2) * grid.measure))

    p = symbol_lattice(zeta, grid)
    # clamped modes (p = 0 among them) are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        out = fs.values / p
    if clamp_eps > 0 and policy == "floor":
        pabs = np.abs(p[mask])
        safe = np.where(pabs > 0, pabs, 1.0)
        phase = np.where(pabs > 0, p[mask] / safe, 1.0 + 0.0j)
        out[mask] = fs.values[mask] / (phase * (clamp_eps * zeta.s))
    else:
        out[mask] = 0.0
    return Field(grid, SPECTRAL, out), InversionInfo(int(mask.sum()), mass)
