"""Fourier-mode recovery of the potential through the Alessandrini
pairing and its three-term decomposition.

With CGO remainders psi_1, psi_2 at a pair zeta_1 + zeta_2 = i k, the
pairing of the two localized solutions splits as

    total = <q, e^{ix.k}>                                   (term_main)
          + <m_q  phi e^{ix.k}, psi_1 + psi_2>              (term_linear)
          + <m_q  phi e^{ixk/2} psi_1, phi e^{ixk/2} psi_2> (term_bilinear)

where phi = 1 on the supports.  The exponentials e^{x.zeta_i} are never
materialized; only the periodic e^{ix.k} appears.

On the lattice the m_q form of a product u v is sum q u v h^d (see
potential), so every term depends on the slots only through their
product and all four are sums of the one weight

    w = q phi^2 e^{ix.k} h^d:

    term_main     = sum w
    term_linear   = sum w (psi_1 + psi_2)
    term_bilinear = sum w psi_1 psi_2
    total         = sum w (1 + psi_1)(1 + psi_2)

with psi_i in physical space, which makes the three-term additivity
exact linear algebra.  term_main is verified against the direct
transform of q, sum q e^{ix.k} h^d; the gap between the two is the
lattice tail of q where phi^2 < 1, so that gate fails on under-resolved
q.  Dropping the extra cutoff power, as one may in the continuum where
phi = 1 on the support of q, would re-introduce spectral-ringing slack.
pairing_weight forms w and evaluates these gates, so recover_fourier_mode
and uniqueness_gap fail on them before any zeta selection or solve.

recover_fourier_mode returns total as the CGO-side estimate of the
k-mode of q; |term_linear| + |term_bilinear| is its error bar.  All
products here are left untruncated so the identities hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgo import BandSelection, IterationReport, select_zeta_sequence, solve_psi
from .errors import CgolabError, FrameError
from .grid import Field, FrequencyGrid, exp_ik_field, pairing, to_physical, to_spectral
from .potential import Conductivity, CutoffField, make_cutoff
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


@dataclass(frozen=True, eq=False)
class PairingWeight:
    """w = q phi^2 e^{ix.k} h^d of one conductivity at one k, with the
    main term sum w and the direct transform of q it was checked against."""

    grid: FrequencyGrid
    k: np.ndarray
    values: np.ndarray
    term_main: complex
    main_oracle: complex


def pairing_weight(cond: Conductivity, k, phi: CutoffField) -> PairingWeight:
    """Form w and check the main term: the two direct-transform routes to
    the k-mode of q must agree to 1e-12, and sum w must match them to
    _MAIN_ORACLE_TOL, both relative to the L1 majorant of q.  Raises
    CgolabError otherwise."""
    grid = cond.grid
    k = np.asarray(k, dtype=float)
    q = cond.q
    e_k = exp_ik_field(grid, k)  # validates k on the lattice
    phi_vals = phi.field.values.real
    w = e_k.values * (q.values.real * phi_vals * phi_vals * grid.measure)
    term_main = complex(np.sum(w))

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
    return PairingWeight(grid, k, w, term_main, main_oracle)


def alessandrini_terms(
    weight: PairingWeight,
    zeta_pair: ZetaPair,
    psi1: Field,
    psi2: Field,
) -> PairingBreakdown:
    """Three-term decomposition of the pairing at the weight's frequency
    k, as sums of the weight w (see the module docstring)."""
    k = weight.k
    if np.max(np.abs(zeta_pair.k - k)) > 1e-9 * max(1.0, zeta_pair.s):
        raise FrameError("zeta pair was built for a different frequency k")
    for psi in (psi1, psi2):
        if psi.grid != weight.grid:
            raise FrameError("psi provenance mismatch: wrong grid")

    w = weight.values
    psi1_p, psi2_p = to_physical(psi1).values, to_physical(psi2).values
    # one product buffer, rewritten for each sum
    buf = np.multiply(w, psi1_p)
    linear1 = np.sum(buf)
    term_bilinear = complex(np.sum(np.multiply(buf, psi2_p, out=buf)))
    term_linear = complex(linear1 + np.sum(np.multiply(w, psi2_p, out=buf)))
    np.add(psi1_p, 1.0, out=buf)
    buf *= w  # w (1 + psi1)
    total_head = np.sum(buf)
    total = complex(total_head + np.sum(np.multiply(buf, psi2_p, out=buf)))

    term_main = weight.term_main
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
        main_oracle=weight.main_oracle,
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
    weight: PairingWeight | None = None,
) -> tuple[complex, RecoveryDiagnostics]:
    """CGO-side estimate of the k-mode of q at one dyadic band.

    Checks the main term first (pairing_weight, unless its result is
    given as weight), then selects the band-optimal zeta pair
    (conductivity duplicated in the selection objective), solves both
    remainders, and returns the full pairing with
    |term_linear| + |term_bilinear| as the error bar.
    """
    if weight is None:
        weight = pairing_weight(cond, k, make_cutoff(cond))
    selection = select_zeta_sequence(
        [cond, cond], k, [band], samples_per_band, seed, clamp_eps
    )[0]
    pair = selection.pair
    psi1, rep1 = solve_psi(cond, pair.zeta1, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
    psi2, rep2 = solve_psi(cond, pair.zeta2, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
    breakdown = alessandrini_terms(weight, pair, psi1, psi2)
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
    swapping them.  Every main term is checked before any selection or
    solve."""
    if abs(cond1.support_radius - cond2.support_radius) > 1e-9 * cond1.grid.L:
        raise FrameError("conductivities must share support geometry")
    conds = (cond1, cond2)
    phis = [make_cutoff(cond) for cond in conds]
    weights = [[pairing_weight(cond, k, phi) for cond, phi in zip(conds, phis)] for k in k_set]
    rows = []
    for k_weights in weights:
        k = k_weights[0].k
        selection = select_zeta_sequence(
            [cond1, cond2], k, [band], samples_per_band, seed, clamp_eps
        )[0]
        pair = selection.pair
        totals = []
        errors = []
        qhats = []
        for cond, weight in zip(conds, k_weights):
            psi1, _ = solve_psi(cond, pair.zeta1, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
            psi2, _ = solve_psi(cond, pair.zeta2, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
            bd = alessandrini_terms(weight, pair, psi1, psi2)
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
