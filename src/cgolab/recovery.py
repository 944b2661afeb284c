"""Fourier-mode recovery of the potential through the Alessandrini
pairing and its three-term decomposition.

With CGO remainders psi_1, psi_2 at a pair zeta_1 + zeta_2 = i k, the
pairing of the two localized solutions splits as

    total = <q, e^{ix.k}>                                   (term_main)
          + <m_q  phi e^{ix.k}, psi_1 + psi_2>              (term_linear)
          + <m_q  phi e^{ixk/2} psi_1, phi e^{ixk/2} psi_2> (term_bilinear)

where phi = 1 on the supports.  The exponentials e^{x.zeta_i} are never
materialized; only the periodic e^{ix.k} appears.

On the lattice the m_q form of a product u v is sum q u v h^d, so every
term depends on the slots only through their product and all four are
sums of the one weight

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
pairing_weight forms w and evaluates these gates.

recover_modes is the one entry point, for one conductivity (recover) or
several (uniqueness-gap; equal boundary data give equal modes).  In
order it checks the shared support geometry and |k| < 2 band for every
k, gates every main term (pairing_weight) before any selection, selects
per k one zeta pair over all conductivities, and solves that pair on
each conductivity.  Each ModeRecovery holds total, the CGO-side estimate
of the k-mode of q, with |term_linear| + |term_bilinear| as its error
bar.  All products here are left untruncated so the identities hold to
rounding.

The two remainders of a pair are independent fixed points, so they are
solved at once (_solve_pair): zeta_2 in one worker thread while zeta_1
runs in the calling thread.  Their transforms and full-lattice ufuncs
release the GIL, so the two overlap on two cores.  The calling thread
takes one of the solves because a second worker would bring its own
malloc arena and raise the peak memory.  The conductivity's q and q_hat
and the grid's 2/3 mask (with the axes it is built from) are built
before the worker starts, so no cached array is first built in two
threads.  Each solve holds K-length vectors and two lattice arrays
(cgo.solve_psi), and is the sequential one, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgo import BandSelection, IterationReport, select_zeta_sequence, solve_psi
from .errors import CgolabError, FrameError
from .grid import Field, FrequencyGrid, exp_ik_field, pairing, to_physical, to_spectral
from .potential import Conductivity, make_cutoff
from .spaces import DEFAULT_CLAMP_EPS
from .symbol import ZetaPair, check_band

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


def pairing_weight(cond: Conductivity, k, phi: Field) -> PairingWeight:
    """Form w and check the main term: the two direct-transform routes to
    the k-mode of q must agree to 1e-12, and sum w must match them to
    _MAIN_ORACLE_TOL, both relative to the L1 majorant of q.  Raises
    CgolabError otherwise."""
    grid = cond.grid
    k = np.asarray(k, dtype=float)
    q = cond.q
    e_k = exp_ik_field(grid, k)  # validates k on the lattice
    w = e_k.values * (q.values * phi.values * phi.values * grid.measure)
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
    k, as sums of the weight w (see the module docstring).  psi1 and psi2
    are read in physical space (the third value of solve_psi); a
    spectral psi is transformed first."""
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


def _solve_pair(cond: Conductivity, pair: ZetaPair, **solver_kwargs):
    """solve_psi at zeta_1 in this thread and at zeta_2 in one worker,
    returned as the two ((psihat on K, K), report, psi) triples.  An
    error of the zeta_1 solve is raised after the worker has finished;
    one of zeta_2 alone is raised by its result()."""
    # imported on first use: at module load it would add 8-10 ms to the CLI import
    from concurrent.futures import ThreadPoolExecutor

    cond.q, cond.q_hat, cond.grid.dealias_mask  # built here, not in both threads
    with ThreadPoolExecutor(max_workers=1) as worker:
        second = worker.submit(solve_psi, cond, pair.zeta2, **solver_kwargs)
        first = solve_psi(cond, pair.zeta1, **solver_kwargs)
    return first, second.result()


@dataclass
class ModeRecovery:
    """One conductivity's recovery of one k-mode: the pairing's terms, the
    band selection shared by every conductivity, and the two solves."""

    breakdown: PairingBreakdown
    selection: BandSelection
    report1: IterationReport
    report2: IterationReport

    @property
    def error_bar(self) -> float:
        return abs(self.breakdown.term_linear) + abs(self.breakdown.term_bilinear)


def _recover(cond, weight, selection, **solver_kwargs) -> ModeRecovery:
    """Solve the selected pair on one conductivity and pair the remainders;
    the remainders die with this call, before the next pair is solved."""
    pair = selection.pair
    (_, rep1, psi1), (_, rep2, psi2) = _solve_pair(cond, pair, **solver_kwargs)
    return ModeRecovery(alessandrini_terms(weight, pair, psi1, psi2), selection, rep1, rep2)


def recover_modes(
    conds,
    k_set,
    band: float,
    samples_per_band: int = 12,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 600,
    clamp_eps: float = DEFAULT_CLAMP_EPS,
) -> list[list[ModeRecovery]]:
    """Per k of k_set, one ModeRecovery per conductivity, in the order of
    the module docstring: FrameError unless the supports agree,
    InfeasibleGeometryError unless |k| < 2 band, every main-term gate,
    then per k one shared selection (so two conductivities' records are
    exactly symmetric under a swap) and the pair solves.  The cutoffs are
    dropped once the weights exist."""
    conds = list(conds)
    if any(abs(c.support_radius - conds[0].support_radius) > 1e-9 * c.grid.L for c in conds):
        raise FrameError("conductivities must share support geometry")
    for k in k_set:
        check_band(k, band)
    phis = [make_cutoff(cond) for cond in conds]
    weights = [[pairing_weight(cond, k, phi) for cond, phi in zip(conds, phis)] for k in k_set]
    del phis  # each weight holds phi^2; the solves need no cutoff
    out = []
    for k_weights in weights:
        selection = select_zeta_sequence(conds, k_weights[0].k, [band], samples_per_band, seed, clamp_eps)[0]
        out.append([
            _recover(cond, weight, selection, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
            for cond, weight in zip(conds, k_weights)
        ])
    return out
