"""The smooth cutoff profile, the clamp rule for the zeros of the symbol,
and the batched sums of the inverse symbol behind the zeta-band averages.

Pair sums.  The zeta-band averages take the squared -1/2-norm
(sum |uhat|^2 / |p| h^d) at both zetas of many pairs zeta1 + zeta2 = ik
(pair_inverse_symbol_sums).  For such a pair p_2(xi) = p_1(-xi - k)
exactly, so only zeta1's symbol is evaluated, against each density row
and its mirror image.

Clamping.  On a lattice the zero set of the symbol always contains
xi = 0 exactly (and occasionally other points), so |p|^{-1} needs a
surrogate for the integrable continuum singularity.  Modes with
|p| < clamp_eps * s are "clamped" (clamp_rule); clamp_eps must be
positive, since q = (Lap g)/g has nonzero mean, hence mass on xi = 0,
for every non-constant conductivity.  The pair sums offer two policies:

* "floor"  -- |p| is floored at clamp_eps*s before inversion.
  This is the default.
* "drop"   -- clamped modes get weight zero, as they are dropped by the
  fixed-point solver (cgo.solve_psi), which reports their mass.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .grid import FrequencyGrid

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
    out[mid] = bridge(arr[mid])
    return float(out[0]) if scalar else out


def bridge(t: np.ndarray) -> np.ndarray:
    """smooth_bridge on 1 < t < 2, a / (a + b) with a = e^{-1/(2-t)} and
    b = e^{-1/(t-1)}, formed in t's place."""
    a = np.subtract(2.0, t)
    np.exp(np.divide(-1.0, a, out=a), out=a)
    np.exp(np.divide(-1.0, np.subtract(t, 1.0, out=t), out=t), out=t)  # b
    return np.divide(a, np.add(t, a, out=t), out=t)


def clamp_rule(pabs: np.ndarray, clamp_eps: float, s: float) -> np.ndarray:
    """The clamped modes of |p| = pabs at a zeta of magnitude parameter s:
    |p| < clamp_eps * s."""
    return pabs < clamp_eps * s


# the pair kernel evaluates zeta1's weight in axis-0 slabs of about this
# many box points, so each slab's temporaries stay in cache
SLAB_POINTS = 2 ** 15


def pair_inverse_symbol_sums(
    dens,
    pairs,
    grid: FrequencyGrid,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
    policy: str = "floor",
) -> np.ndarray:
    """S[i, j, l] = sum_xi dens_i(xi) / |p(xi)| at zeta1 (l = 0) and zeta2
    (l = 1) of pair j, for density rows dens_i on the lattice and pairs
    sharing one k, clamped as clamp_rule defines: under "floor" |p| is
    floored at clamp_eps * s, under "drop" modes with |p| < clamp_eps * s
    contribute nothing (both zetas of a pair have the same s).  With
    dens = |uhat|^2, S * h^d is the squared homogeneous -1/2-norm of u.

    Only zeta1's symbol is evaluated: for eta1, eta2 orthogonal to k,
    p_2(xi) = p_1(-xi - k), so the zeta2 sum is the zeta1 sum of the
    mirrored row dens_i(-x - k).  Rows are summed on the box of integer
    modes spanned by the support's per-axis range and its mirror about
    -k/2 (so the mirror of a Nyquist plane is in it); the mirror reverses
    the box along every axis.  Each weight is summed against all 2R rows
    by one BLAS product per axis-0 slab of about SLAB_POINTS points, with
    -Re p = sum_j x_j (x_j + 2 Im zeta_j) and Im p = sum_j 2 Re zeta_j x_j.
    p_1(-k) = p_2(0) = 0, but off the coordinate axes rounding leaves
    ~1e-16 at x = -k, so |p_1|^2 is set to 0 there.  No full-lattice
    symbol is built.
    """
    if policy not in _POLICIES:
        raise ValueError(f"unknown clamp policy {policy!r}")
    if not clamp_eps > 0:
        raise ValueError("clamp_eps must be positive")
    rows = np.asarray(dens, dtype=float).reshape(-1, grid.size)
    if np.any(rows < 0):
        raise ValueError("density must be nonnegative")
    pairs = list(pairs)
    if any(pair.zeta1.d != grid.d for pair in pairs):
        raise ValueError("zeta dimension does not match the grid")
    out = np.zeros((len(rows), len(pairs), 2))
    if not pairs:
        return out
    k = pairs[0].k
    if any(not np.array_equal(pair.k, k) for pair in pairs):
        raise ValueError("pairs must share one k")
    grid.mode_index(k)  # k must be on the frequency lattice
    support = np.any(rows != 0, axis=0).reshape(grid.shape)
    if not support.any():
        return out
    k_mode = np.rint(k / grid.freq_step).astype(int)

    # the box [lo, -lo - k] of integer modes per axis, symmetric about -k/2
    ranges, lo = [], []
    for j in range(grid.d):
        other = tuple(a for a in range(grid.d) if a != j)
        m = grid.mode_axis[support.any(axis=other)]
        ranges.append(np.arange(m.min(), m.max() + 1))
        lo.append(min(m.min(), -m.max() - k_mode[j]))
    del support
    lo = np.array(lo)
    shape = tuple(-2 * lo - k_mode + 1)
    n_rows = len(rows)
    placed = np.zeros((2 * n_rows,) + shape)
    sub = rows.reshape((n_rows,) + grid.shape)[(slice(None),) + np.ix_(*(r % grid.n for r in ranges))]
    placed[(slice(0, n_rows),) + tuple(slice(r[0] - a, r[-1] - a + 1) for r, a in zip(ranges, lo))] = sub
    del sub
    placed[n_rows:] = placed[(slice(0, n_rows),) + (slice(None, None, -1),) * grid.d]
    x = [grid.freq_step * np.arange(a, a + size) for a, size in zip(lo, shape)]
    at = -k_mode - lo  # box index of x = -k
    zero_at = int(np.ravel_multi_index(at, shape)) if np.all((at >= 0) & (at < shape)) else -1

    # per pair: -Re p_1 and Im p_1 along axis 0 and on the plane of the others
    terms = []
    for pair in pairs:
        z = pair.zeta1.value
        re = [xj * (xj + 2.0 * zj.imag) for xj, zj in zip(x, z)]
        im = [2.0 * zj.real * xj for xj, zj in zip(x, z)]
        terms.append((re[0], im[0], reduce(np.add.outer, re[1:]).ravel(),
                      reduce(np.add.outer, im[1:]).ravel(), pair.zeta1.s))

    plane = terms[0][2].size
    step = max(1, SLAB_POINTS // plane)
    psq_buf, im_buf = np.empty(step * plane), np.empty(step * plane)

    for a in range(0, shape[0], step):
        b = min(a + step, shape[0])
        block = placed[:, a:b].reshape(2 * n_rows, -1)
        psq = psq_buf[: block.shape[1]].reshape(b - a, plane)
        im_sq = im_buf[: block.shape[1]].reshape(b - a, plane)
        flat = psq.reshape(-1)
        for j, (re0, im0, re_plane, im_plane, s) in enumerate(terms):
            np.add(re0[a:b, None], re_plane, out=psq)
            psq *= psq
            np.add(im0[a:b, None], im_plane, out=im_sq)
            im_sq *= im_sq
            psq += im_sq
            if a * plane <= zero_at < b * plane:
                flat[zero_at - a * plane] = 0.0
            floor_sq = (clamp_eps * s) ** 2
            if policy == "drop":
                # a dropped mode gets |p|^2 = inf, so weight 0
                flat[flat < floor_sq] = np.inf
            else:
                np.maximum(flat, floor_sq, out=flat)
            weight = np.reciprocal(np.sqrt(flat, out=flat), out=flat)
            out[:, j, :] += (block @ weight).reshape(2, n_rows).T
    return out
