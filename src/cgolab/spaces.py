"""The smooth cutoff profile, the clamp rule for the zeros of the symbol,
and the batched sums of the inverse symbol behind the zeta-band averages.

Pair sums.  The zeta-band averages take the squared -1/2-norm
(sum |uhat|^2 / |p| h^d) at both zetas of many pairs zeta1 + zeta2 = ik
(pair_inverse_symbol_sums), from even densities |uhat|^2 of real fields
given on the half lattice.  For such a pair p_2(xi) = p_1(-xi - k)
exactly, so only zeta1's symbol is evaluated, against each density row
and its mirror image.

Clamping.  On a lattice the zero set of the symbol always contains
xi = 0 exactly (and occasionally other points), so |p|^{-1} needs a
surrogate for the integrable continuum singularity.  Modes with
|p| < clamp_eps * s are "clamped" (clamp_rule); clamp_eps must be
positive, since q = (Lap g)/g has nonzero mean, hence mass on xi = 0,
for every non-constant conductivity.  The pair sums offer two policies:

* "floor"  -- |p| is floored at clamp_eps*s before inversion
  (averaged_decay).
* "drop"   -- clamped modes get weight zero, as they are dropped by the
  fixed-point solver (cgo.solve_psi), which reports their mass.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .grid import FrequencyGrid, spectrum_at

DEFAULT_CLAMP_EPS = 1e-6


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


# the pair kernel places and sums its box in axis-0 slabs of about this
# many box points, so each slab's temporaries stay in cache
SLAB_POINTS = 2 ** 15


def pair_inverse_symbol_sums(
    half_dens,
    pairs,
    grid: FrequencyGrid,
    clamp_eps: float,
    policy: str,
) -> np.ndarray:
    """S[i, j, l] = sum_xi dens_i(xi) / |p(xi)| at zeta1 (l = 0) and zeta2
    (l = 1) of pair j, for nonnegative density rows dens_i on the half
    lattice and pairs sharing one k, clamped as clamp_rule defines: under
    "floor" |p| is floored at clamp_eps * s, under "drop" modes with
    |p| < clamp_eps * s contribute nothing (both zetas of a pair have the
    same s).  With dens = |uhat|^2, S * h^d is the squared homogeneous
    -1/2-norm of u.  Each row must be even, dens_i(-xi) = dens_i(xi)
    exactly, as |uhat|^2 of a half spectrum with Hermitian planes is (not
    checked): the modes off the half lattice are read as mirrors
    (grid.spectrum_at).

    Only zeta1's symbol is evaluated: p_2(xi) = p_1(-xi - k), so the zeta2
    sum is the zeta1 sum of dens_i(-x - k).  Each row is placed once on the
    box of integer modes spanned by its support's per-axis range and the
    mirror of that about -k/2; the box reversed along every axis holds
    dens_i(-x - k).  Per axis-0 slab of about SLAB_POINTS points, the slabs
    of the boxes and of their reversals are copied into one block, and each
    weight is summed against its 2R rows by one BLAS product, with
    -Re p = sum_j x_j (x_j + 2 Im zeta_j) and Im p = sum_j 2 Re zeta_j x_j.
    p_1(-k) = 0, but off the coordinate axes rounding leaves ~1e-16 at
    x = -k, so |p_1|^2 is set to 0 there.  Only per-axis terms grow with
    the number of pairs.
    """
    if policy not in ("floor", "drop"):
        raise ValueError(f"unknown clamp policy {policy!r}")
    if not clamp_eps > 0:
        raise ValueError("clamp_eps must be positive")
    half_shape = grid.shape[:-1] + (grid.n // 2 + 1,)
    rows = [np.asarray(row, dtype=float) for row in half_dens]
    if any(row.shape != half_shape for row in rows):
        raise ValueError(f"density rows must have the half-lattice shape {half_shape}")
    if any(np.any(row < 0) for row in rows):
        raise ValueError("density must be nonnegative")
    pairs = list(pairs)
    out = np.zeros((len(rows), len(pairs), 2))
    if not pairs:
        return out
    k = pairs[0].k
    if any(not np.array_equal(pair.k, k) for pair in pairs):
        raise ValueError("pairs must share one k")
    grid.mode_index(k)  # k must be a lattice frequency of the grid's dimension
    support = np.any([row != 0 for row in rows], axis=0)
    if not support.any():
        return out
    k_mode = np.rint(k / grid.freq_step).astype(int)

    # the box [lo, -lo - k] of integer modes per axis, symmetric about -k/2,
    # around the range of the support's modes m and their mirrors -m
    ranges, lo = [], []
    for j in range(grid.d):
        other = tuple(a for a in range(grid.d) if a != j)
        held = np.flatnonzero(support.any(axis=other))
        m = grid.mode_axis[np.concatenate([held, -held % grid.n])]
        ranges.append(np.arange(m.min(), m.max() + 1))
        lo.append(min(m.min(), -m.max() - k_mode[j]))
    del support
    lo = np.array(lo)
    shape = tuple(-2 * lo - k_mode + 1)
    plane = int(np.prod(shape[1:]))
    step = max(1, SLAB_POINTS // plane)
    n_rows = len(rows)
    box = np.zeros((n_rows,) + shape)
    index = [r % grid.n for r in ranges]
    first = ranges[0][0] - lo[0]
    region = tuple(slice(r[0] - a, r[-1] - a + 1) for r, a in zip(ranges[1:], lo[1:]))
    for a in range(0, len(ranges[0]), step):  # slab by slab, no full-box temporary
        read = np.ix_(index[0][a : a + step], *index[1:])
        dest = (slice(first + a, first + a + len(read[0])),) + region
        for placed, row in zip(box, rows):
            placed[dest] = spectrum_at(grid, row, read)
    at = -k_mode - lo  # box index of x = -k
    zero_at = int(np.ravel_multi_index(at, shape)) if np.all((at >= 0) & (at < shape)) else -1

    # per axis, pair and term: -Re p_1 (term 0) and Im p_1 (term 1) on the box
    z = np.array([pair.zeta1.value for pair in pairs])
    x = [grid.freq_step * np.arange(a, a + size) for a, size in zip(lo, shape)]
    terms = [np.stack([xj * (xj + 2.0 * zj.imag[:, None]), 2.0 * zj.real[:, None] * xj], axis=1)
             for xj, zj in zip(x, z.T)]
    outer = lambda u, v: (u[..., :, None] + v[..., None, :]).reshape(u.shape[:-1] + (-1,))
    heads = reduce(outer, terms[1:-1]) if grid.d > 2 else np.zeros((len(pairs), 2, 1))
    floors = [(clamp_eps * pair.zeta1.s) ** 2 for pair in pairs]
    # a pair's two planes, the outer sums head + last over the axes after the
    # first (head 0 at d = 2), are [head, 1] @ [1; last]: both products are
    # exact, so each entry is rounded once, as by an add
    left, right = np.ones((2, heads.shape[-1], 2)), np.ones((2, 2, shape[-1]))
    planes = np.empty((2, heads.shape[-1], shape[-1]))

    flip = (slice(None),) + (slice(None, None, -1),) * grid.d
    block_buf = np.empty(2 * n_rows * step * plane)
    psq_buf, im_buf = np.empty(step * plane), np.empty(step * plane)
    for a in range(0, shape[0], step):
        b = min(a + step, shape[0])
        size = (b - a) * plane
        block = block_buf[: 2 * size * n_rows].reshape((2, n_rows, b - a) + shape[1:])
        block[0], block[1] = box[:, a:b], box[:, shape[0] - b : shape[0] - a][flip]  # rows, mirrors
        block = block.reshape(2 * n_rows, size)
        psq = psq_buf[:size].reshape(b - a, plane)
        im_sq = im_buf[:size].reshape(b - a, plane)
        flat = psq.reshape(-1)
        for j, floor_sq in enumerate(floors):
            left[:, :, 0], right[:, 1] = heads[j], terms[-1][j]
            re_plane, im_plane = np.matmul(left, right, out=planes).reshape(2, -1)
            np.add(terms[0][j, 0, a:b, None], re_plane, out=psq)
            psq *= psq
            np.add(terms[0][j, 1, a:b, None], im_plane, out=im_sq)
            im_sq *= im_sq
            psq += im_sq
            if a * plane <= zero_at < b * plane:
                flat[zero_at - a * plane] = 0.0
            if policy == "drop":
                # a dropped mode gets |p|^2 = inf, so weight 0
                flat[flat < floor_sq] = np.inf
            else:
                np.maximum(flat, floor_sq, out=flat)
            weight = np.reciprocal(np.sqrt(flat, out=flat), out=flat)
            out[:, j, :] += (block @ weight).reshape(2, n_rows).T
    return out
