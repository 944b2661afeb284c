"""Fixed-point construction of CGO remainders and selection of zeta
sequences along which the potential norm decays.

The remainder psi solves  (Lap + 2 zeta . grad) psi = q (1 + psi).  The
plain fixed-point iteration

    psi_0 = 0,   psi_{n+1} = InvDelta_zeta( q (1 + psi_n) )

is used deliberately unaccelerated: the per-step increment ratio in the
homogeneous 1/2-norm is itself a quantity of interest (it certifies the
contraction numerically).  Products are formed in physical space,
transformed once and 2/3-truncated in spectral space, which takes two
transforms per step; the converged solution's residual is re-verified against
the original equation with the forward multiplier and a plain
(non-truncated) product.

The exponential factor e^{x . zeta} is never materialized: it is not
torus-periodic and overflows for large s.  Downstream pairings rely on
the algebraic cancellation of the two exponentials instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleGeometryError, NotContractiveError
from .grid import Field, dealias_23, physical_field, to_physical, to_spectral, zeros_field, SPECTRAL
from .potential import Conductivity, potential_q
from .spaces import (
    DEFAULT_CLAMP_EPS,
    apply_delta_zeta,
    clamped_mask,
    inverse_delta_zeta,
    inverse_symbol_sums,
    xdot_norm,
)
from .symbol import Zeta, ZetaPair, orthonormal_plane, zeta_pair_from_angle

SOLVER_CLAMP_POLICY = "drop"


@dataclass
class IterationReport:
    """Diagnostics of one fixed-point solve.

    psi_norm_xdot is the homogeneous 1/2-norm of the returned psi,
    (sum over unclamped xi of |p(xi)| |psihat(xi)|^2 h^d)^{1/2}, under the
    solver's "drop" clamp policy (see solve_psi).
    """

    iterations: int
    residual_xdot: float
    psi_norm_xdot: float
    contraction_estimates: list
    clamped_mass: float
    converged: bool
    clamped_count: int = 0
    final_increment: float = float("nan")
    tol: float = float("nan")
    clamp_eps: float = float("nan")
    dealias_defect: float = 0.0


def solve_psi(
    cond: Conductivity,
    zeta: Zeta,
    tol: float = 1e-10,
    max_iter: int = 400,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
    clamp_policy: str = SOLVER_CLAMP_POLICY,
    dealias: bool = True,
) -> tuple[Field, IterationReport]:
    """Iterate the fixed point until the weighted increment falls under
    tol * max(1, ||psi||), or raise NotContractiveError after five
    consecutive non-contracting steps.

    Increments and psi_norm_xdot use the homogeneous 1/2-norm
    (sum over unclamped xi of |p(xi)| |psihat(xi)|^2 h^d)^{1/2}, where
    p(xi) = -|xi|^2 + 2i zeta . xi, h^d is the grid's cell measure and
    modes with |p| < clamp_eps * s are clamped.  Under the default
    clamp_policy "drop" clamped modes carry no weight and psihat is zero
    there; under "floor" they are weighed by clamp_eps * s instead.

    residual_xdot is the homogeneous -1/2-norm, off clamped modes, of
    the residual of the equation actually posed on the lattice (same
    product convention as the iteration), re-evaluated independently
    with the forward multiplier and a fresh product.  The defect on
    clamped modes is reported as clamped_mass, and the 2/3-truncation
    defect (when dealias=True) as dealias_defect.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    grid = cond.grid
    q = potential_q(cond)
    qvals = q.values.real

    psi = zeros_field(grid, SPECTRAL)
    ratios: list = []
    prev_inc = None
    bad_streak = 0
    converged = False
    iterations = 0
    inc = float("nan")
    psi_norm = 0.0

    for iterations in range(1, max_iter + 1):
        psi_phys = to_physical(psi)
        rhs = to_spectral(physical_field(grid, qvals * (1.0 + psi_phys.values)))
        if dealias:
            rhs = dealias_23(rhs)
        new_psi, _ = inverse_delta_zeta(rhs, zeta, clamp_eps, clamp_policy)
        inc = xdot_norm(new_psi - psi, zeta, 0.5, clamp_eps, clamp_policy)
        if prev_inc is not None and prev_inc > 0:
            ratio = inc / prev_inc
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio >= 1.0 else 0
            if bad_streak >= 5:
                raise NotContractiveError(ratio)
        psi = new_psi
        psi_norm = xdot_norm(psi, zeta, 0.5, clamp_eps, clamp_policy)
        if inc <= tol * max(1.0, psi_norm):
            converged = True
            break
        prev_inc = inc

    # independent residual: forward multiplier against a fresh product,
    # clamped modes excluded from the norm
    psi_phys = to_physical(psi)
    w_plain = to_spectral(physical_field(grid, qvals * (1.0 + psi_phys.values)))
    w_posed = dealias_23(w_plain) if dealias else w_plain
    forward = apply_delta_zeta(psi, zeta)
    residual_xdot = xdot_norm(forward - w_posed, zeta, -0.5, clamp_eps, "drop")
    dealias_defect = (
        xdot_norm(w_plain - w_posed, zeta, -0.5, clamp_eps, "drop") if dealias else 0.0
    )
    mask = clamped_mask(zeta, grid, clamp_eps)
    clamped_mass = float(np.sqrt(np.sum(np.abs(w_posed.values[mask]) ** 2) * grid.measure))

    report = IterationReport(
        iterations=iterations,
        residual_xdot=residual_xdot,
        psi_norm_xdot=psi_norm,
        contraction_estimates=ratios,
        clamped_mass=clamped_mass,
        converged=converged,
        clamped_count=int(mask.sum()),
        final_increment=float(inc),
        tol=tol,
        clamp_eps=clamp_eps,
        dealias_defect=dealias_defect,
    )
    return psi, report


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
    clamp_policy: str = SOLVER_CLAMP_POLICY,
) -> list[BandSelection]:
    """Per dyadic band, draw (s, eta1) uniformly and keep the pair that
    minimizes  D = sum_{i,j} || q_i ||  in the homogeneous -1/2-norm at
    zeta_j.  Fixed seed => identical selection (ties broken on (s, angle)).

    All of a band's sample zetas go through one inverse_symbol_sums call
    with one |qhat_i|^2 row per conductivity, so no per-sample symbol
    data is built; each norm is (S h^d)^{1/2}.
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

    dens = np.stack([np.abs(c.q_hat.values) ** 2 for c in conds])
    plane = orthonormal_plane(k)
    rng = np.random.default_rng(seed)
    out = []
    for lam in bands:
        s_draws = rng.uniform(lam, 2.0 * lam, size=samples_per_band)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=samples_per_band)
        pairs = [
            zeta_pair_from_angle(k, float(s), float(theta), plane)
            for s, theta in zip(s_draws, angles)
        ]
        zetas = [z for pair in pairs for z in (pair.zeta1, pair.zeta2)]
        sums = inverse_symbol_sums(dens, zetas, grid, clamp_eps, clamp_policy)
        # norms[i, j, l]: conductivity i at zeta_l of sample j
        norms = np.sqrt(sums * grid.measure).reshape(len(conds), samples_per_band, 2)
        rows = [
            (float(s), float(theta), float(d_val))
            for s, theta, d_val in zip(s_draws, angles, norms.sum(axis=(0, 2)))
        ]
        best = min(range(len(rows)), key=lambda i: (rows[i][2], rows[i][0], rows[i][1]))
        out.append(
            BandSelection(lam=lam, pair=pairs[best], objective=rows[best][2], samples=rows)
        )
    return out
