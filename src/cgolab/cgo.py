"""Fixed-point construction of CGO remainders and selection of zeta
sequences along which the potential norm decays.

The remainder psi solves  (Lap + 2 zeta . grad) psi = q (1 + psi).  The
plain fixed-point iteration

    psi_0 = 0,   psi_{n+1} = InvDelta_zeta( q (1 + psi_n) )

is used deliberately unaccelerated: the per-step increment ratio in the
homogeneous 1/2-norm is itself a quantity of interest (it certifies the
contraction numerically).  psihat is carried as one vector over the kept
modes K -- the 2/3 cube minus the clamped modes -- since it vanishes
everywhere else.  The first step divides q_hat on K by p; every later one
scatters psihat into one lattice buffer, forms the product in physical
space in place and gathers K back; both transforms skip the lines the
cube cannot reach (grid.cube_transform).  A full transform of the fresh
product q (1 + psi), formed in the same buffer, re-verifies the residual;
psi is then formed there again by the same pruned inverse, with the same
bits, and returned, so the pairing transforms nothing.

A solve holds that one lattice buffer and five K-length vectors: K, p,
|p| h^d, psihat and a spare for the previous iterate and the increment.
Every step works in place (|v|^2 for the norms in the buffer while it is
free).  p is evaluated on the cube only, and off it once, on three boxes,
for the defect.  So the two solves of a pair fit side by side
(recovery._solve_pair).

The exponential factor e^{x . zeta} is never materialized: it is not
torus-periodic and overflows for large s.  Downstream pairings rely on
the algebraic cancellation of the two exponentials instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InfeasibleGeometryError, NotContractiveError
from .grid import Field, cube_transform, spectrum_at
from .potential import Conductivity
from .spaces import DEFAULT_CLAMP_EPS, SLAB_POINTS, clamp_rule, pair_inverse_symbol_sums
from .symbol import Zeta, ZetaPair, check_band, lattice_symbol, orthonormal_plane, zeta_pair_from_angle


@dataclass
class IterationReport:
    """Diagnostics of one fixed-point solve.

    psi_norm_xdot is the homogeneous 1/2-norm of the returned psi,
    (sum over kept xi of |p(xi)| |psihat(xi)|^2 h^d)^{1/2}; psihat is
    zero off the kept modes K.  residual_xdot, dealias_defect and
    clamped_mass all come from one transform w of the fresh product
    q (1 + psi) at the returned psi (see solve_psi).  clamped_mass is the
    L2 mass of w on the clamped modes of the posed band, the 2/3 cube;
    clamped_count counts the clamped modes |p| < clamp_eps * s on the
    whole lattice, off the cube too.
    """

    iterations: int
    residual_xdot: float
    psi_norm_xdot: float
    contraction_estimates: list
    clamped_mass: float
    converged: bool
    clamped_count: int = 0
    final_increment: float = float("nan")
    dealias_defect: float = 0.0

    def require_converged(self):
        """NotContractiveError, carrying the last contraction ratio (NaN
        after one step), unless the solve met tol before it hit max_iter."""
        if not self.converged:
            ratios = self.contraction_estimates
            raise NotContractiveError(ratios[-1] if ratios else float("nan"),
                                      f"no convergence within {self.iterations} iterations")


def solve_psi(
    cond: Conductivity,
    zeta: Zeta,
    tol: float = 1e-10,
    max_iter: int = 400,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
) -> tuple[tuple[np.ndarray, np.ndarray], IterationReport, Field]:
    """Iterate the fixed point until the weighted increment falls under
    tol * max(1, ||psi||), or raise NotContractiveError after five
    consecutive non-contracting steps.  Returns (psihat on K, K), the
    report and psi in physical space (formed for the residual check); K
    is given as increasing flat indices of the lattice (FFT order).

    Increments and psi_norm_xdot use the homogeneous 1/2-norm
    (sum over kept xi of |p(xi)| |psihat(xi)|^2 h^d)^{1/2}, where
    p(xi) = -|xi|^2 + 2i zeta . xi and h^d is the grid's cell measure.
    The kept modes K are the 2/3 cube, the posed band, minus the clamped
    modes |p| < clamp_eps * s; psihat is zero off K.  clamp_eps must be
    positive: the lattice symbol vanishes at xi = 0, where q has its mean.

    The returned psi is re-checked against the equation posed on the
    lattice with a fresh product w = FFT(q (1 + psi)): residual_xdot^2
    = sum over K of |p psihat - w|^2 / |p| h^d (both terms vanish off
    the posed band; clamped modes are dropped).  From the same w,
    dealias_defect is the -1/2-norm of w on the unclamped modes off the
    cube, and clamped_mass its L2 mass on the clamped modes of the cube.

    The symbol is formed for this call only: on the posed band for K, and
    off the cube on the boxes cube^j x off x lattice^(d-j-1), j < d.  The
    one lattice buffer holds psi, then w, then psi formed again.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not clamp_eps > 0:
        raise ValueError("clamp_eps must be positive")
    grid = cond.grid
    xi = grid.xi_axis
    # p on the 2/3 cube, gathered on K; index maps each cube point to the lattice
    band = np.flatnonzero(np.abs(grid.mode_axis) <= grid.n // 3)
    p = lattice_symbol(zeta, [xi[band]] * grid.d)
    mask = clamp_rule(np.abs(p), clamp_eps, zeta.s)
    index = reduce(lambda flat, m: np.add.outer(flat * grid.n, m), [band] * grid.d)
    kept, clamped, p_k = index[~mask], index[mask], p[~mask]
    del p, index
    buf = np.empty(grid.shape, dtype=complex)  # before the K vectors, whose memory the pairing reuses
    weight_k = np.abs(p_k) * grid.measure
    # psi_0 = 0, so the first right-hand side is the transform of q itself
    psi = spectrum_at(grid, cond.q_hat, np.ix_(*[band] * grid.d))[~mask] / p_k
    spare = np.zeros_like(psi)  # the previous iterate, then the increment
    flat = buf.reshape(-1)
    dens = flat.view(float)[: len(kept)]  # buf is free from a gather to the next scatter

    def sq_abs(v, out):
        """out <- |v|^2 as re^2 + im^2; overwrites v's imaginary part."""
        return np.add(np.multiply(v.real, v.real, out=out), np.multiply(v.imag, v.imag, out=v.imag), out=out)

    def scatter_inverse(psi):
        """buf <- psi in physical space."""
        buf.fill(0.0)
        flat[kept] = psi
        cube_transform(grid, buf, "inverse")

    ratios: list = []
    prev_inc, bad_streak, converged = None, 0, False
    iterations, inc, psi_norm = 0, float("nan"), 0.0

    for iterations in range(1, max_iter + 1):
        if iterations > 1:
            scatter_inverse(psi)
            buf += 1.0
            buf *= cond.q.values
            cube_transform(grid, buf, "forward")
            np.take(flat, kept, out=spare, mode="clip")
            spare /= p_k
            psi, spare = spare, psi
        inc = float(np.sqrt(weight_k @ sq_abs(np.subtract(psi, spare, out=spare), dens)))
        if prev_inc is not None and prev_inc > 0:
            ratio = inc / prev_inc
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 5:
                raise NotContractiveError(ratio)
        np.copyto(spare, psi)
        psi_norm = float(np.sqrt(weight_k @ sq_abs(spare, dens)))
        if inc <= tol * max(1.0, psi_norm):
            converged = True
            break
        prev_inc = inc

    # the final stage in buf: w = FFT(q (1 + psi)), its residual, clamped mass and defect; psi again
    scatter_inverse(psi)
    buf += 1.0
    buf *= cond.q.values
    np.fft.fftn(buf, norm="ortho", out=buf)
    res = np.take(flat, kept, out=spare, mode="clip")
    pabs_k = np.abs(p_k, out=weight_k)
    res -= np.multiply(p_k, psi, out=p_k)  # w - p psihat
    del p_k
    res_dens = sq_abs(res, np.empty(len(kept)))
    res_dens /= pabs_k
    residual_xdot = float(np.sqrt(np.sum(res_dens) * grid.measure))
    del res, res_dens, pabs_k, spare, weight_k
    w_clamped = np.abs(flat[clamped])
    clamped_mass = float(np.sqrt(np.sum(w_clamped * w_clamped) * grid.measure))
    clamped_count, defect = len(clamped), 0.0
    # off the cube: cube^j x off x lattice^(d-j-1), j < d, in slices (two per cube axis) and slabs
    n, n3 = grid.n, grid.n // 3
    cube, off = (slice(0, n3 + 1), slice(n - n3, n)), slice(n3 + 1, n - n3)
    for j in range(grid.d):
        for head in np.ndindex(*(2,) * j):
            box = [cube[i] for i in head] + [off] + [slice(0, n)] * (grid.d - j - 1)
            rows = max(1, SLAB_POINTS // int(np.prod([b.stop - b.start for b in box[1:]])))
            for a in range(box[0].start, box[0].stop, rows):
                slab = (slice(a, min(a + rows, box[0].stop)), *box[1:])
                pabs = np.abs(lattice_symbol(zeta, [xi[b] for b in slab]))
                hit = clamp_rule(pabs, clamp_eps, zeta.s)
                clamped_count += int(np.count_nonzero(hit))
                pabs[hit] = np.inf  # a clamped mode adds nothing
                w_off = np.abs(buf[slab])
                defect += np.sum(w_off * w_off / pabs)
    scatter_inverse(psi)

    report = IterationReport(
        iterations=iterations, residual_xdot=residual_xdot, psi_norm_xdot=psi_norm,
        contraction_estimates=ratios, clamped_mass=clamped_mass, converged=converged,
        clamped_count=clamped_count, final_increment=float(inc),
        dealias_defect=float(np.sqrt(defect * grid.measure)),
    )
    return (psi, kept), report, Field(grid, buf)


@dataclass
class BandSelection:
    """Winner of one dyadic band [lam, 2 lam] with its sample table."""

    lam: float
    pair: ZetaPair
    objective: float
    samples: list = field(default_factory=list)  # rows (s, angle, objective)


def select_zeta_sequence(
    conds,
    k,
    bands,
    samples_per_band: int,
    seed: int,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
) -> list[BandSelection]:
    """Per dyadic band, draw (s, eta1) uniformly and keep the pair that
    minimizes  D = sum_{i,j} || q_i ||  in the homogeneous -1/2-norm at
    zeta_j, with clamped modes dropped as in the solver.  Fixed seed =>
    identical selection (ties broken on (s, angle)).

    Every band's pairs are drawn first, in band order, and all of them go
    through one pair_inverse_symbol_sums call with one |qhat_i|^2 row per
    conductivity, on the half lattice, so no per-sample symbol data is
    built and only zeta1's symbol is evaluated; each norm is (S h^d)^{1/2}.
    """
    conds = list(conds)
    if not conds:
        raise ValueError("need at least one conductivity")
    bands = [float(b) for b in bands]
    if not bands or any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
        raise InfeasibleGeometryError("bands must be a nonempty increasing list")
    if samples_per_band < 1:
        raise InfeasibleGeometryError("samples_per_band must be >= 1")
    k = np.asarray(k, dtype=float)
    check_band(k, min(bands))
    grid = conds[0].grid
    grid.mode_index(k)  # k must be on the frequency lattice

    plane = orthonormal_plane(k)
    rng = np.random.default_rng(seed)
    draws, pairs = [], []
    for lam in bands:
        s_draws = rng.uniform(lam, 2.0 * lam, size=samples_per_band)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=samples_per_band)
        draws.append((s_draws, angles))
        pairs += [
            zeta_pair_from_angle(k, float(s), float(theta), plane)
            for s, theta in zip(s_draws, angles)
        ]
    sums = pair_inverse_symbol_sums([np.abs(c.q_hat) ** 2 for c in conds], pairs, grid, clamp_eps, "drop")
    # norms[i, j, l]: conductivity i at zeta_l of pair j
    norms = np.sqrt(sums * grid.measure)
    out = []
    for b, (lam, (s_draws, angles)) in enumerate(zip(bands, draws)):
        band = slice(b * samples_per_band, (b + 1) * samples_per_band)
        rows = [
            (float(s), float(theta), float(d_val))
            for s, theta, d_val in zip(s_draws, angles, norms[:, band].sum(axis=(0, 2)))
        ]
        best = min(range(len(rows)), key=lambda i: (rows[i][2], rows[i][0], rows[i][1]))
        out.append(
            BandSelection(lam=lam, pair=pairs[band][best], objective=rows[best][2], samples=rows)
        )
    return out
