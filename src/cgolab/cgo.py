"""Fixed-point construction of CGO remainders and selection of zeta
sequences along which the potential norm decays.

The remainder psi solves  (Lap + 2 zeta . grad) psi = q (1 + psi).  The
plain fixed-point iteration

    psi_0 = 0,   psi_{n+1} = InvDelta_zeta( q (1 + psi_n) )

is used deliberately unaccelerated: the per-step increment ratio in the
homogeneous 1/2-norm is itself a quantity of interest (it certifies the
contraction numerically).  psihat is carried as one vector over the kept
modes K -- the 2/3 cube minus the clamped modes -- since it vanishes
everywhere else.  The first step divides the transform of q itself by p;
every later one scatters psihat into one reused buffer, forms the product
in physical space in place and gathers K back; with the 2/3 rule on, both
transforms skip the lines the cube cannot reach (grid.cube_transform).
One full transform of the fresh product q (1 + psi) at the returned psi
re-verifies the residual on K, and the physical psi it was formed from
is returned next to psihat, so the pairing transforms nothing.

Each solve evaluates the symbol once (symbol.lattice_symbol): p is
dropped once gathered on K, and only |p| stays, for the defect off the
cube.  The final stage runs in memory order -- the fresh product w, then
|w|^2 in its place, then psihat -- so no full-lattice symbol is held at
the solve's peak, and the two solves of a pair fit side by side
(recovery._solve_pair).

The exponential factor e^{x . zeta} is never materialized: it is not
torus-periodic and overflows for large s.  Downstream pairings rely on
the algebraic cancellation of the two exponentials instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleGeometryError, NotContractiveError
from .grid import PHYSICAL, SPECTRAL, Field, cube_transform
from .potential import Conductivity
from .spaces import DEFAULT_CLAMP_EPS, clamp_rule, pair_inverse_symbol_sums
from .symbol import Zeta, ZetaPair, lattice_symbol, orthonormal_plane, zeta_pair_from_angle


@dataclass
class IterationReport:
    """Diagnostics of one fixed-point solve.

    psi_norm_xdot is the homogeneous 1/2-norm of the returned psi,
    (sum over kept xi of |p(xi)| |psihat(xi)|^2 h^d)^{1/2}; psihat is
    zero off the kept modes K.  residual_xdot, dealias_defect and
    clamped_mass all come from one transform w of the fresh product
    q (1 + psi) at the returned psi (see solve_psi).
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


def solve_psi(
    cond: Conductivity,
    zeta: Zeta,
    tol: float = 1e-10,
    max_iter: int = 400,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
    dealias: bool = True,
) -> tuple[Field, IterationReport, Field]:
    """Iterate the fixed point until the weighted increment falls under
    tol * max(1, ||psi||), or raise NotContractiveError after five
    consecutive non-contracting steps.  Returns psihat, the report and
    psi in physical space (formed for the residual check).

    Increments and psi_norm_xdot use the homogeneous 1/2-norm
    (sum over kept xi of |p(xi)| |psihat(xi)|^2 h^d)^{1/2}, where
    p(xi) = -|xi|^2 + 2i zeta . xi and h^d is the grid's cell measure.
    The kept modes K are the 2/3 cube (the whole lattice when
    dealias=False) minus the clamped modes |p| < clamp_eps * s; psihat
    is zero off K.  clamp_eps must be positive: the lattice symbol
    vanishes at xi = 0, where q has its mean.

    The returned psi is re-checked against the equation posed on the
    lattice with a fresh product w = FFT(q (1 + psi)): residual_xdot^2
    = sum over K of |p psihat - w|^2 / |p| h^d (both terms vanish off
    the posed band; clamped modes are dropped).  From the same w,
    dealias_defect is the -1/2-norm of w on the unclamped modes off the
    cube (0 when dealias=False), and clamped_mass its L2 mass on the
    clamped modes of the posed band.

    The symbol is formed for this call only, and the final stage holds one
    full-lattice array at a time besides the returned psi and |p|: w, then
    |w|^2, then psihat.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not clamp_eps > 0:
        raise ValueError("clamp_eps must be positive")
    grid = cond.grid
    # p goes once gathered on K; |p| stays for the off-cube defect
    p = lattice_symbol(zeta, grid)
    pabs = np.abs(p)
    mask = clamp_rule(pabs, clamp_eps, zeta.s)
    kept = np.flatnonzero(~mask & grid.dealias_mask if dealias else ~mask)
    p_k = p.reshape(-1)[kept]
    del p
    pabs_k = pabs.reshape(-1)[kept]
    weight_k = pabs_k * grid.measure

    def xdot(v):
        return float(np.sqrt(weight_k @ (v.real * v.real + v.imag * v.imag)))

    def step(rhs):
        return rhs.reshape(-1)[kept] / p_k

    buf = np.empty(grid.shape, dtype=complex)
    flat = buf.reshape(-1)

    def scatter_inverse(psi):
        """buf <- psi in physical space."""
        buf.fill(0.0)
        flat[kept] = psi
        if dealias:
            cube_transform(grid, buf, "inverse")
        else:
            np.fft.ifftn(buf, norm="ortho", out=buf)

    # psi_0 = 0, so the first right-hand side is the transform of q itself
    psi = step(cond.q_hat.values)
    ratios: list = []
    prev_inc = None
    bad_streak = 0
    converged = False
    iterations = 0
    inc = float("nan")
    psi_norm = 0.0
    old = np.zeros_like(psi)

    for iterations in range(1, max_iter + 1):
        if iterations > 1:
            scatter_inverse(psi)
            buf += 1.0
            buf *= cond.q.values
            if dealias:
                cube_transform(grid, buf, "forward")
            else:
                np.fft.fftn(buf, norm="ortho", out=buf)
            old, psi = psi, step(buf)
        inc = xdot(psi - old)
        if prev_inc is not None and prev_inc > 0:
            ratio = inc / prev_inc
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 5:
                raise NotContractiveError(ratio)
        psi_norm = xdot(psi)
        if inc <= tol * max(1.0, psi_norm):
            converged = True
            break
        prev_inc = inc

    # the final stage in memory order: w, then |w|^2 in its place, then psihat
    scatter_inverse(psi)
    # fresh product at the returned psi, transformed on the whole lattice
    w = np.add(buf, 1.0)
    w *= cond.q.values
    np.fft.fftn(w, norm="ortho", out=w)
    res = p_k * psi - w.reshape(-1)[kept]
    w_sq = np.abs(w)
    del w
    w_sq *= w_sq

    res_dens = res.real * res.real + res.imag * res.imag
    w_clamped = w_sq[mask & grid.dealias_mask if dealias else mask]
    residual_xdot = float(np.sqrt(np.sum(res_dens / pabs_k) * grid.measure))
    clamped_mass = float(np.sqrt(np.sum(w_clamped) * grid.measure))
    dealias_defect = 0.0
    if dealias:
        off = ~grid.dealias_mask & ~mask
        np.divide(w_sq, pabs, out=w_sq, where=off)
        dealias_defect = float(np.sqrt(np.sum(w_sq[off]) * grid.measure))
    del w_sq, pabs
    psihat = np.zeros(grid.shape, dtype=complex)
    psihat.reshape(-1)[kept] = psi

    report = IterationReport(
        iterations=iterations,
        residual_xdot=residual_xdot,
        psi_norm_xdot=psi_norm,
        contraction_estimates=ratios,
        clamped_mass=clamped_mass,
        converged=converged,
        clamped_count=int(mask.sum()),
        final_increment=float(inc),
        dealias_defect=dealias_defect,
    )
    return Field(grid, SPECTRAL, psihat), report, Field(grid, PHYSICAL, buf)


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
    conductivity, so no per-sample symbol data is built and only zeta1's
    symbol is evaluated; each norm is (S h^d)^{1/2}.
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
    if np.linalg.norm(k) >= 2.0 * min(bands):
        raise InfeasibleGeometryError(
            f"|k| = {np.linalg.norm(k):.6g} infeasible for smallest band {min(bands):.6g}"
        )
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
    dens = np.stack([np.abs(c.q_hat.values) ** 2 for c in conds])
    sums = pair_inverse_symbol_sums(dens, pairs, grid, clamp_eps, "drop")
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
