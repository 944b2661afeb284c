"""Fourier-mode recovery of the potential through the Alessandrini
pairing and its three-term decomposition.

With CGO remainders psi_1, psi_2 at a pair zeta_1 + zeta_2 = i k, the
pairing of the two localized solutions splits as

    total = <q, e^{ix.k}>                                   (term_main)
          + <m_q  phi e^{ix.k}, psi_1 + psi_2>              (term_linear)
          + <m_q  phi e^{ixk/2} psi_1, phi e^{ixk/2} psi_2> (term_bilinear)

where phi = 1 on the supports.  The exponentials e^{x.zeta_i} are never
materialized; only the periodic e^{ix.k} (and e^{ixk/2} when k/2 is on
the lattice) appear.

On the lattice every term is evaluated through the bilinear form
mq_bilinear with the full cutoff pair in place (the slots carry
phi e^{ixk/2} * factor, or phi^2 e^{ix.k} * factor when k/2 is
off-lattice -- algebraically the same product since the form depends
only on u*v).  mq_bilinear evaluates the duality form
-sum grad g . grad(w/g) h^d as the equal sum q w h^d: the spectral
gradient is skew-adjoint and the spectral Laplacian is its exact
composition, so the two agree to rounding (see potential).  This makes
the three-term additivity exact linear algebra.  term_main is
sum q phi^2 e^{ix.k} h^d, verified against the direct transform of q,
sum q e^{ix.k} h^d; the gap between the two is the lattice tail of q
where phi^2 < 1, so that gate fails on under-resolved q.  Dropping the
extra cutoff power, as one may in the continuum where phi = 1 on the
support of q, would re-introduce spectral-ringing slack.

recover_fourier_mode returns total as the CGO-side estimate of the
k-mode of q; |term_linear| + |term_bilinear| is its error bar.  All
products here are left untruncated so the identities hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cgo import BandSelection, IterationReport, select_zeta_sequence, solve_psi
from .errors import CgolabError, FrameError
from .grid import Field, exp_ik_field, multiply, pairing, physical_field, to_physical, to_spectral, spectral_gradient
from .potential import Conductivity, CutoffField, make_cutoff, mq_bilinear, potential_q
from .spaces import DEFAULT_CLAMP_EPS
from .symbol import ZetaPair

_ADDITIVITY_TOL = 1e-10
_MAIN_ORACLE_TOL = 1e-10


@dataclass
class PairingBreakdown:
    k: np.ndarray
    zeta_pair: ZetaPair
    term_main: complex
    term_linear: complex
    term_bilinear: complex
    total: complex
    bilinear_route: str = "half_mode"  # or "squared_cutoff" when k/2 off-lattice
    main_oracle: complex = 0j  # direct transform of q at k (independent)


def fourier_mode(q: Field, k) -> complex:
    """<q, e^{ix.k}> = integral q e^{ix.k} dx -- the recovery target."""
    grid = q.grid
    grid.mode_index(k)
    return pairing(q, exp_ik_field(grid, k))


def _fourier_mode_spectral(q: Field, k) -> complex:
    """Same pairing read off the unitary transform at the -k mode."""
    grid = q.grid
    idx = grid.mode_index(-np.asarray(k, dtype=float))
    qhat = to_spectral(q).values[idx]
    return complex(qhat * grid.n ** (grid.d / 2.0) * grid.measure)


def _half_mode_on_lattice(grid, k) -> bool:
    m = np.rint(np.asarray(k, dtype=float) / grid.freq_step).astype(int)
    return bool(np.all(m % 2 == 0))


def alessandrini_terms(
    cond: Conductivity,
    k,
    zeta_pair: ZetaPair,
    psi1: Field,
    psi2: Field,
    phi: CutoffField,
) -> PairingBreakdown:
    """Three-term decomposition of the pairing at frequency k."""
    grid = cond.grid
    k = np.asarray(k, dtype=float)
    grid.mode_index(k)
    if np.max(np.abs(zeta_pair.k - k)) > 1e-9 * max(1.0, zeta_pair.s):
        raise FrameError("zeta pair was built for a different frequency k")
    for psi in (psi1, psi2):
        if psi.grid != grid:
            raise FrameError("psi provenance mismatch: wrong grid")

    q = potential_q(cond)
    e_k = exp_ik_field(grid, k)
    phi_f = phi.field
    psi1_p, psi2_p = to_physical(psi1), to_physical(psi2)

    if _half_mode_on_lattice(grid, k):
        route = "half_mode"
        e_half = exp_ik_field(grid, 0.5 * k)
        slot1 = multiply(phi_f, e_half)
        slot2 = slot1
    else:
        route = "squared_cutoff"
        slot1 = multiply(multiply(phi_f, phi_f), e_k)
        slot2 = physical_field(grid, np.ones(grid.shape))

    base = multiply(slot1, slot2)  # = phi^2 e^{ix.k}
    psi_sum = physical_field(grid, psi1_p.values + psi2_p.values)
    psi_prod = physical_field(grid, psi1_p.values * psi2_p.values)

    term_main = mq_bilinear(slot1, slot2, cond)
    term_linear = mq_bilinear(base, psi_sum, cond)
    term_bilinear = mq_bilinear(base, psi_prod, cond)
    total = mq_bilinear(
        multiply(slot1, physical_field(grid, 1.0 + psi1_p.values)),
        multiply(slot2, physical_field(grid, 1.0 + psi2_p.values)),
        cond,
    )

    main_oracle = pairing(q, e_k)  # fourier_mode(q, k), with the plane wave at hand
    main_oracle_spectral = _fourier_mode_spectral(cond.q_hat, k)
    # |qhat(k)| can cross zero, so both oracle gates are relativized by
    # the L1 majorant of every Fourier coefficient of q
    q_l1 = float(np.sum(np.abs(q.values)) * grid.measure)
    scale = max(abs(main_oracle), abs(main_oracle_spectral), q_l1, 1e-300)
    if abs(main_oracle - main_oracle_spectral) > 1e-12 * scale:
        raise CgolabError("direct-transform routes disagree on the main term")
    scale = max(abs(term_main), abs(main_oracle), q_l1, 1e-300)
    if abs(term_main - main_oracle) > _MAIN_ORACLE_TOL * scale:
        raise CgolabError(
            f"main-term transform oracle mismatch: {term_main} vs {main_oracle}"
        )

    parts = term_main + term_linear + term_bilinear
    scale = max(abs(total), abs(parts), 1e-300)
    if abs(total - parts) > _ADDITIVITY_TOL * scale:
        raise CgolabError(
            f"three-term additivity violated: total {total} vs parts {parts}"
        )
    return PairingBreakdown(
        k=k,
        zeta_pair=zeta_pair,
        term_main=term_main,
        term_linear=term_linear,
        term_bilinear=term_bilinear,
        total=total,
        bilinear_route=route,
        main_oracle=main_oracle,
    )


@dataclass
class RecoveryDiagnostics:
    breakdown: PairingBreakdown
    selection: BandSelection
    report1: IterationReport
    report2: IterationReport
    oracle: complex
    error_bar: float
    clamped_mass: float


def recover_fourier_mode(
    cond: Conductivity,
    k,
    band: float,
    samples_per_band: int = 12,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 600,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
) -> tuple[complex, RecoveryDiagnostics]:
    """CGO-side estimate of the k-mode of q at one dyadic band.

    Selects the band-optimal zeta pair (conductivity duplicated in the
    selection objective), solves both remainders, and returns the full
    pairing with |term_linear| + |term_bilinear| as the error bar.
    """
    selection = select_zeta_sequence(
        [cond, cond], k, [band], samples_per_band, seed, clamp_eps
    )[0]
    pair = selection.pair
    psi1, rep1 = solve_psi(cond, pair.zeta1, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
    psi2, rep2 = solve_psi(cond, pair.zeta2, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
    phi = make_cutoff(cond)
    breakdown = alessandrini_terms(cond, k, pair, psi1, psi2, phi)
    error_bar = abs(breakdown.term_linear) + abs(breakdown.term_bilinear)
    diag = RecoveryDiagnostics(
        breakdown=breakdown,
        selection=selection,
        report1=rep1,
        report2=rep2,
        oracle=breakdown.main_oracle,
        error_bar=error_bar,
        clamped_mass=max(rep1.clamped_mass, rep2.clamped_mass),
    )
    return breakdown.total, diag


@dataclass
class GapRow:
    k: np.ndarray
    band: float
    pairing1: complex
    pairing2: complex
    gap: float
    qhat1: complex
    qhat2: complex
    qhat_gap: float
    error_bar: float


def uniqueness_gap(
    cond1: Conductivity,
    cond2: Conductivity,
    k_set,
    band: float,
    samples_per_band: int = 12,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 600,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
) -> list[GapRow]:
    """Per k: the two full pairings side by side with the direct
    transform gap.  The zeta selection is shared between the two
    conductivities, which makes the table exactly symmetric under
    swapping them."""
    if abs(cond1.support_radius - cond2.support_radius) > 1e-9 * cond1.grid.L:
        raise FrameError("conductivities must share support geometry")
    rows = []
    for k in k_set:
        k = np.asarray(k, dtype=float)
        selection = select_zeta_sequence(
            [cond1, cond2], k, [band], samples_per_band, seed, clamp_eps
        )[0]
        pair = selection.pair
        totals = []
        errors = []
        qhats = []
        for cond in (cond1, cond2):
            psi1, _ = solve_psi(cond, pair.zeta1, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
            psi2, _ = solve_psi(cond, pair.zeta2, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
            phi = make_cutoff(cond)
            bd = alessandrini_terms(cond, k, pair, psi1, psi2, phi)
            totals.append(bd.total)
            errors.append(abs(bd.term_linear) + abs(bd.term_bilinear))
            qhats.append(bd.main_oracle)
        rows.append(
            GapRow(
                k=k,
                band=float(band),
                pairing1=totals[0],
                pairing2=totals[1],
                gap=abs(totals[0] - totals[1]),
                qhat1=qhats[0],
                qhat2=qhats[1],
                qhat_gap=abs(qhats[0] - qhats[1]),
                error_bar=errors[0] + errors[1],
            )
        )
    return rows


def log_gradient_identity(cond1, cond2) -> float:
    """Quadratic form  integral g1 g2 |grad(log g1 - log g2)|^2 dx.

    Accepts Conductivity objects or raw positive physical Fields (the
    g_i themselves); zero iff g1 = g2 up to gradient on the connected
    torus."""
    g1 = cond1.g if isinstance(cond1, Conductivity) else cond1
    g2 = cond2.g if isinstance(cond2, Conductivity) else cond2
    if g1.grid != g2.grid:
        raise FrameError("fields live on different grids")
    grid = g1.grid
    v1, v2 = g1.values.real, g2.values.real
    if np.min(v1) <= 0 or np.min(v2) <= 0:
        raise CgolabError("g factors must be strictly positive")
    psi = physical_field(grid, np.log(v1) - np.log(v2))
    grads = [to_physical(f).values.real for f in spectral_gradient(psi)]
    dens = sum(gj * gj for gj in grads)
    return float(np.sum(v1 * v2 * dens) * grid.measure)
