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

    w = e^{ix.k} (q phi^2 h^d):

    term_main     = sum w
    term_linear   = sum w (psi_1 + psi_2)
    term_bilinear = sum w psi_1 psi_2
    total         = sum w (1 + psi_1)(1 + psi_2)

with psi_i in physical space, which makes the three-term additivity
exact linear algebra.  term_main is verified against the direct
transform of q, main_oracle = sum q e^{ix.k} h^d; the gap between the
two is the lattice tail of q where phi^2 < 1, so that gate fails on
under-resolved q.  Dropping the extra cutoff power, as one may in the
continuum where phi = 1 on the support of q, would re-introduce
spectral-ringing slack.

recover_modes is the one entry point, for one conductivity (recover) or
several (uniqueness-gap; equal boundary data give equal modes).  In
order it checks the shared support geometry and |k| < 2 band for every
k, gates every main term before any selection, selects per k one zeta
pair over all conductivities, and solves that pair on each
conductivity; a solve that does not converge within max_iter raises
NotContractiveError.  Between the steps it holds one real lattice array
per conductivity, q phi^2 h^d: w is formed from it for the gate and
again, with the same bits and in the array of e^{ix.k}, once the pair is
solved; the pairing sums run over axis-0 slabs, so w and the remainders
are its only lattice arrays, and all die before the next solve.  Each
(k, conductivity) gives one ModeRecovery: the four sums and main_oracle,
the shared selection and both solves' reports.  total is the CGO-side
estimate of the k-mode of q, with |term_linear| + |term_bilinear| as its
error bar.  All products here are left untruncated so the identities
hold to rounding.

The two remainders of a pair are independent fixed points, so they are
solved at once (_solve_pair): zeta_2 in one worker thread while zeta_1
runs in the calling thread.  Their transforms and full-lattice ufuncs
release the GIL, so the two overlap on two cores.  The calling thread
takes one of the solves because a second worker would bring its own
malloc arena and raise the peak memory.  The conductivity's q and q_hat
and the grid's frequency axes are built before the worker starts, so no
cached array is first built in two threads.  Each solve holds one
lattice array (cgo.solve_psi), and is the sequential one, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cgo import BandSelection, IterationReport, select_zeta_sequence, solve_psi
from .errors import CgolabError, FrameError
from .grid import Field, plane_wave, spectrum_at
from .potential import Conductivity, make_cutoff
from .spaces import DEFAULT_CLAMP_EPS, SLAB_POINTS
from .symbol import ZetaPair, check_band

_ADDITIVITY_TOL = 1e-10
_MAIN_ORACLE_TOL = 1e-10


@dataclass
class ModeRecovery:
    """One conductivity's recovery of one k-mode: the four sums of w, the
    direct transform of q at k that term_main was gated against, the band
    selection shared by every conductivity (its pair is the one solved),
    and the two solves."""

    k: np.ndarray
    selection: BandSelection
    term_main: complex
    term_linear: complex
    term_bilinear: complex
    total: complex
    main_oracle: complex
    report1: IterationReport
    report2: IterationReport

    @property
    def error_bar(self) -> float:
        return abs(self.term_linear) + abs(self.term_bilinear)


def _main_term(cond: Conductivity, k: np.ndarray, qphi2: np.ndarray) -> tuple[complex, complex]:
    """term_main = sum w for w = e^{ix.k} qphi2, and main_oracle.  The two
    direct-transform routes to the k-mode of q (the pairing with e^{ix.k},
    q_hat at -k) must agree to 1e-12, and term_main must match them to
    _MAIN_ORACLE_TOL, both relative to the L1 majorant of q.  Raises
    CgolabError otherwise."""
    grid = cond.grid
    # each product is formed in its own wave's array; plane_wave validates k
    term_main = complex(np.sum(plane_wave(grid, k) * qphi2))
    main_oracle = complex(np.sum(plane_wave(grid, k) * cond.q.values) * grid.measure)  # <q, e^{ix.k}>
    qhat = spectrum_at(grid, cond.q_hat, grid.mode_index(-k))
    main_oracle_spectral = complex(qhat * grid.n ** (grid.d / 2.0) * grid.measure)
    # |qhat(k)| can cross zero, so both oracle gates are relativized by
    # the L1 majorant of every Fourier coefficient of q
    q_l1 = float(np.sum(np.abs(cond.q.values)) * grid.measure)
    scale = max(abs(main_oracle), abs(main_oracle_spectral), q_l1, 1e-300)
    if abs(main_oracle - main_oracle_spectral) > 1e-12 * scale:
        raise CgolabError("direct-transform routes disagree on the main term")
    scale = max(abs(term_main), abs(main_oracle), q_l1, 1e-300)
    if abs(term_main - main_oracle) > _MAIN_ORACLE_TOL * scale:
        raise CgolabError(
            f"main-term transform oracle mismatch: {term_main} vs {main_oracle}"
        )
    return term_main, main_oracle


def alessandrini_terms(
    w: np.ndarray, term_main: complex, psi1: Field, psi2: Field
) -> tuple[complex, complex, complex]:
    """term_linear, term_bilinear and total as sums of the weight w (see the
    module docstring), with psi1 and psi2 read in physical space (the third
    value of solve_psi).  Raises CgolabError unless total equals
    term_main + term_linear + term_bilinear to _ADDITIVITY_TOL."""
    # w psi1, w psi1 psi2, w psi2, w (1 + psi1), w (1 + psi1) psi2, summed
    # per axis-0 slab of about SLAB_POINTS points in one product buffer
    rows = max(1, SLAB_POINTS // (w.size // len(w)))
    sums = np.zeros(5, dtype=complex)
    for a in range(0, len(w), rows):
        ws, p1, p2 = (arr[a : a + rows] for arr in (w, psi1.values, psi2.values))
        buf = ws * p1
        sums += [np.sum(buf), np.sum(np.multiply(buf, p2, out=buf)), np.sum(np.multiply(ws, p2, out=buf)),
                 np.sum(np.multiply(np.add(p1, 1.0, out=buf), ws, out=buf)),
                 np.sum(np.multiply(buf, p2, out=buf))]
    term_linear, term_bilinear = complex(sums[0] + sums[2]), complex(sums[1])
    total = complex(sums[3] + sums[4])

    parts = term_main + term_linear + term_bilinear
    scale = max(abs(total), abs(parts), 1e-300)
    if abs(total - parts) > _ADDITIVITY_TOL * scale:
        raise CgolabError(
            f"three-term additivity violated: total {total} vs parts {parts}"
        )
    return term_linear, term_bilinear, total


def _solve_pair(cond: Conductivity, pair: ZetaPair, **solver_kwargs):
    """solve_psi at zeta_1 in this thread and at zeta_2 in one worker,
    returned as the two ((psihat on K, K), report, psi) triples.  An
    error of the zeta_1 solve is raised after the worker has finished;
    one of zeta_2 alone is raised by its result()."""
    # imported on first use: at module load it would add 8-10 ms to the CLI import
    from concurrent.futures import ThreadPoolExecutor

    cond.q, cond.q_hat, cond.grid.mode_axis  # built here, not in both threads
    with ThreadPoolExecutor(max_workers=1) as worker:
        second = worker.submit(solve_psi, cond, pair.zeta2, **solver_kwargs)
        first = solve_psi(cond, pair.zeta1, **solver_kwargs)
    return first, second.result()


def _recover(cond, k, qphi2, gate, selection, **solver_kwargs) -> ModeRecovery:
    """Solve the selected pair on one conductivity and pair the remainders
    with w = e^{ix.k} qphi2; the remainders and w die with this call,
    before the next pair is solved."""
    (rep1, psi1), (rep2, psi2) = [solve[1:] for solve in _solve_pair(cond, selection.pair, **solver_kwargs)]
    rep1.require_converged()
    rep2.require_converged()
    term_main, main_oracle = gate
    w = plane_wave(cond.grid, k) * qphi2  # formed in the wave's array
    terms = alessandrini_terms(w, term_main, psi1, psi2)
    return ModeRecovery(k, selection, term_main, *terms, main_oracle, rep1, rep2)


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
    exactly symmetric under a swap) and the pair solves, each raising
    NotContractiveError unless both remainders converged.  The cutoffs
    are dropped once each qphi2 = q phi^2 h^d exists."""
    conds = list(conds)
    if any(abs(c.support_radius - conds[0].support_radius) > 1e-9 * c.grid.L for c in conds):
        raise FrameError("conductivities must share support geometry")
    k_set = [np.asarray(k, dtype=float) for k in k_set]
    for k in k_set:
        check_band(k, band)
    phis = [make_cutoff(cond) for cond in conds]
    qphi2s = [c.q.values * phi.values * phi.values * c.grid.measure for c, phi in zip(conds, phis)]
    del phis  # the solves need no cutoff
    gates = [[_main_term(cond, k, qphi2) for cond, qphi2 in zip(conds, qphi2s)] for k in k_set]
    out = []
    for k, k_gates in zip(k_set, gates):
        # the |q_hat|^2 rows live only through the selection, not the solves
        rows = (np.abs(c.q_hat) ** 2 for c in conds)
        selection = select_zeta_sequence(rows, conds[0].grid, k, [band], samples_per_band, seed, clamp_eps)[0]
        out.append([
            _recover(cond, k, qphi2, gate, selection, tol=tol, max_iter=max_iter, clamp_eps=clamp_eps)
            for cond, qphi2, gate in zip(conds, qphi2s, k_gates)
        ])
    return out
