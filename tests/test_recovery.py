"""Fourier-mode recovery against the closed-form q of the gaussian bump
and against its steps run one by one, and the two-thread solve of a zeta
pair against sequential solves."""

import dataclasses
import threading
import weakref

import numpy as np
import pytest

import cgolab as cg
import cgolab.cli
import cgolab.recovery
from cgolab.config import config_from_dict
from cgolab.errors import CgolabError, FrameError, NotContractiveError
from cgolab.grid import plane_wave
from cgolab.recovery import _main_term, _solve_pair, alessandrini_terms
from cgolab.spaces import smooth_bridge

from conftest import BUMP_AMPLITUDE, BUMP_WIDTH, _oracle_gaussian_q, _oracle_lattice, full_psihat, q_rows

BAND, SAMPLES, SEED = 64.0, 4, 0


def exact_mode(n, k):
    """sum q e^{ix.k} h^3 for the closed-form q on the n^3 lattice of [0, 2pi)^3."""
    q = _oracle_gaussian_q(n, spectral=False)
    x = (2.0 * np.pi / n) * np.arange(n)
    _, modes = _oracle_lattice(n)
    phase = sum(kj * x.reshape(m.shape) for kj, m in zip(k, modes))
    return complex(np.sum(q * np.exp(1j * phase)) * (2.0 * np.pi / n) ** 3)


def stepwise_terms(cond, k, psi1, psi2):
    """The four sums and main_oracle of one solved pair, step by step:
    qphi2 = q phi^2 h^d, the main-term gate, then alessandrini_terms on
    w = e^{ix.k} qphi2."""
    phi = cg.make_cutoff(cond).values
    qphi2 = cond.q.values * phi * phi * cond.grid.measure
    term_main, main_oracle = _main_term(cond, k, qphi2)
    w = plane_wave(cond.grid, k) * qphi2
    term_linear, term_bilinear, total = alessandrini_terms(w, term_main, psi1, psi2)
    return {"term_main": term_main, "term_linear": term_linear, "term_bilinear": term_bilinear,
            "total": total, "main_oracle": main_oracle}


def test_main_term_gate_before_selection(bump32, monkeypatch):
    # at n=32 the cutoff tail of q is 7e-6 ||q||_L1 at k = e_z
    def forbidden(*args, **kwargs):
        raise AssertionError("selected past the main-term gate")

    monkeypatch.setattr(cgolab.recovery, "select_zeta_sequence", forbidden)
    with pytest.raises(CgolabError, match="main-term transform oracle mismatch"):
        cg.recover_modes([bump32], [np.array([0.0, 0.0, 1.0])], 32.0)


# k/2 off the lattice, and on it
@pytest.mark.parametrize("k", [(1.0, 2.0, 0.0), (2.0, 0.0, 0.0)])
def test_recovered_mode_within_error_bar(bump64, k):
    k = np.array(k)
    ((rec,),) = cg.recover_modes([bump64], [k], BAND, samples_per_band=SAMPLES, seed=SEED)
    np.testing.assert_array_equal(rec.k, k)
    exact = exact_mode(64, k)
    # measured: |recovered - exact| / |exact| = 2.9e-4 and 6.8e-4, equal to the error bar
    assert abs(rec.total - exact) <= rec.error_bar + 1e-5 * abs(exact)
    assert rec.error_bar == abs(rec.term_linear) + abs(rec.term_bilinear)
    assert abs(rec.main_oracle - exact) <= 1e-5 * abs(exact)
    # main_oracle is the lattice sum of the package's q against e^{ix.k}, here in plain numpy
    q = bump64.q.values
    x = bump64.grid.x_axis
    wave = np.exp(1j * (k[0] * x[:, None, None] + k[1] * x[None, :, None] + k[2] * x[None, None, :]))
    plain = complex(np.sum(q * wave) * bump64.grid.measure)
    assert abs(rec.main_oracle - plain) <= 1e-12 * float(np.sum(np.abs(q)) * bump64.grid.measure)
    parts = rec.term_main + rec.term_linear + rec.term_bilinear
    assert abs(rec.total - parts) <= 1e-12 * abs(rec.total)


@pytest.mark.parametrize("k", [(1.0, 2.0, 0.0), (2.0, 0.0, 0.0)])
def test_terms_match_plain_four_term_sum(bump64, k):
    """The four sums of the one weight against the slot products of the
    pairing written out in plain numpy: phi^2 e^{ix.k} in one slot when
    k/2 is off the lattice, phi e^{ixk/2} in both when it is on it."""
    k = np.array(k)
    pair = cg.zeta_pair_from_angle(k, 64.0, 0.7)
    modes1, _, psi1 = cg.solve_psi(bump64, pair.zeta1)
    modes2, _, psi2 = cg.solve_psi(bump64, pair.zeta2)
    psihat1, psihat2 = (full_psihat(bump64.grid, modes) for modes in (modes1, modes2))
    terms = stepwise_terms(bump64, k, psi1, psi2)

    q = _oracle_gaussian_q(64, spectral=True)
    deltas, _ = _oracle_lattice(64)
    phi = smooth_bridge(np.sqrt(sum(dl * dl for dl in deltas)) / (np.pi / 2.0))
    x = (2.0 * np.pi / 64) * np.arange(64)
    axes = [x.reshape(sh) for sh in ((64, 1, 1), (1, 64, 1), (1, 1, 64))]

    def wave(freq):
        return np.exp(1j * sum(f * a for f, a in zip(freq, axes)))

    if np.all(k % 2 == 0):
        slot1 = slot2 = phi * wave(k / 2)
    else:
        slot1, slot2 = phi * phi * wave(k), np.ones(q.shape)
    # the slots in physical space from psihat, apart from the psi the solver hands over
    u1 = np.fft.ifftn(psihat1, norm="ortho")
    u2 = np.fft.ifftn(psihat2, norm="ortho")

    def form(u, v):
        return complex(np.sum(q * u * v) * (2.0 * np.pi / 64) ** 3)

    base = slot1 * slot2
    expected = {
        "term_main": form(slot1, slot2),
        "term_linear": form(base, u1 + u2),
        "term_bilinear": form(base, u1 * u2),
        "total": form(slot1 * (1.0 + u1), slot2 * (1.0 + u2)),
    }
    for name, value in expected.items():
        assert abs(terms[name] - value) <= 1e-13 * abs(value), name


BUMP = {"kind": "gaussian", "amplitude": BUMP_AMPLITUDE, "width": BUMP_WIDTH}
OTHER = {"kind": "gaussian", "amplitude": 0.08, "width": 0.3}


def gap_rows(profiles, k_modes):
    """The report rows of uniqueness-gap on the n=64 grid of bump64."""
    cfg = config_from_dict({
        "grid": {"n": 64}, "profiles": profiles, "k_modes": k_modes,
        "bands": [BAND], "samples_per_band": SAMPLES, "seed": SEED,
    })
    result, _ = cgolab.cli._run_uniqueness_gap(cfg)
    return result["rows"]


def test_uniqueness_gap_symmetric_under_swap():
    # two gaussians of one width: the shared selection makes the table
    # exactly symmetric under swapping the conductivities
    (row,) = gap_rows([BUMP, OTHER], [[1, 2, 0]])
    (swapped,) = gap_rows([OTHER, BUMP], [[1, 2, 0]])
    assert (swapped["pairing1"], swapped["pairing2"]) == (row["pairing2"], row["pairing1"])
    assert (swapped["qhat1"], swapped["qhat2"]) == (row["qhat2"], row["qhat1"])
    for name in ("gap", "qhat_gap", "error_bar"):
        assert swapped[name] == row[name], name
    for name in ("solver_iterations", "clamped_mass"):
        assert (swapped[name + "1"], swapped[name + "2"]) == (row[name + "2"], row[name + "1"])
    assert row["gap"] == abs(row["pairing1"] - row["pairing2"])
    assert row["pairing1"] != row["pairing2"]


# -- the pair on two threads ---------------------------------------------------

CONE = {"kind": "cone", "amplitude": 0.5, "radius": 1.1}


@pytest.mark.parametrize("profile", ["gaussian", "cone"])
@pytest.mark.parametrize("n", [32, 64])
def test_pair_solve_equals_sequential_solves(profile, n, bump32, bump64):
    cond = {32: bump32, 64: bump64}[n]
    if profile == "cone":
        cond = cg.make_conductivity(cond.grid, CONE)
    pair = cg.zeta_pair_from_angle(np.array([1.0, 2.0, 0.0]), 16.0, 0.3)
    threaded = _solve_pair(cond, pair, tol=1e-10)
    for zeta, (modes, rep, psi) in zip((pair.zeta1, pair.zeta2), threaded):
        modes_seq, rep_seq, psi_seq = cg.solve_psi(cond, zeta, tol=1e-10)
        for got, want in zip(modes, modes_seq):  # psihat on K, then K
            np.testing.assert_array_equal(got, want)
        psihat, psihat_seq = (full_psihat(cond.grid, m) for m in (modes, modes_seq))
        np.testing.assert_array_equal(psihat, psihat_seq)
        np.testing.assert_array_equal(psi.values, psi_seq.values)
        assert dataclasses.asdict(rep) == dataclasses.asdict(rep_seq)
        assert rep.converged


def test_pair_solves_zeta2_in_a_worker_thread(bump32, monkeypatch):
    solve = cgolab.recovery.solve_psi
    threads = {}

    def recorded(cond, zeta, **kwargs):
        threads[id(zeta)] = threading.current_thread()
        return solve(cond, zeta, **kwargs)

    monkeypatch.setattr(cgolab.recovery, "solve_psi", recorded)
    pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3)
    _solve_pair(bump32, pair)
    assert threads[id(pair.zeta1)] is threading.current_thread()
    assert threads[id(pair.zeta2)] is not threading.current_thread()


def _half_turn_e_z(psi):
    # (x, y, z) -> (-x, -y, z) about the torus centre: index i -> -i mod n on axes 0, 1
    return np.roll(np.flip(psi, (0, 1)), 1, (0, 1))


def _half_turn_110(psi):
    # (x, y, z) -> (y, x, -z) about the torus centre
    return np.roll(np.flip(np.swapaxes(psi, 0, 1), 2), 1, 2)


@pytest.mark.parametrize("k, turn", [((0.0, 0.0, 1.0), _half_turn_e_z), ((1.0, 1.0, 0.0), _half_turn_110)])
@pytest.mark.parametrize("profile", [
    {"kind": "gaussian", "amplitude": BUMP_AMPLITUDE, "width": BUMP_WIDTH},
    {"kind": "c1_cap", "amplitude": 0.4, "radius": 1.1},
    {"kind": "cone", "amplitude": 4.0, "radius": 1.1},
])
@pytest.mark.parametrize("angle", [0.0, 0.7])
def test_pair_remainders_are_a_half_turn_apart(grid32, k, turn, profile, angle):
    # the half turn about k maps (eta1, eta2) to (-eta1, -eta2), so zeta_1
    # to zeta_2, and fixes a radial conductivity: psi_2 = psi_1 turned
    cond = cg.make_conductivity(grid32, profile)
    pair = cg.zeta_pair_from_angle(np.array(k), 16.0, angle)
    (_, rep1, psi1), (_, rep2, psi2) = _solve_pair(cond, pair)
    assert rep1.converged and rep2.converged
    err = np.max(np.abs(turn(psi1.values) - psi2.values)) / np.max(np.abs(psi2.values))
    assert err <= 1e-12


@pytest.fixture(scope="module")
def strong_pairs(grid32):
    """The strong cone of test_cgo (amplitude 30) with the zetas of three
    pairs at k = e_z: s = 4 at angle pi/8 converges; s = 4 and s = 6 at
    angle 0 stop contracting, at different ratios."""
    strong = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 30.0, "radius": 1.1})
    k = np.array([0.0, 0.0, 1.0])
    good = cg.zeta_pair_from_angle(k, 4.0, np.pi / 8)
    bad4 = cg.zeta_pair_from_angle(k, 4.0, 0.0)
    bad6 = cg.zeta_pair_from_angle(k, 6.0, 0.0)
    return strong, good, bad4, bad6


def _ratio(cond, zeta):
    with pytest.raises(NotContractiveError) as err:
        cg.solve_psi(cond, zeta, tol=1e-10, max_iter=80)
    return err.value.ratio


@pytest.mark.parametrize("second", ["good", "bad6"])
def test_pair_raises_the_zeta1_error_after_the_worker(strong_pairs, second, monkeypatch):
    strong, good, bad4, bad6 = strong_pairs
    pair = dataclasses.replace(bad4, zeta2={"good": good, "bad6": bad6}[second].zeta2)
    expected = _ratio(strong, pair.zeta1)
    assert expected != _ratio(strong, bad6.zeta2)
    solve = cgolab.recovery.solve_psi
    finished = []

    def logged(cond, zeta, **kwargs):
        try:
            return solve(cond, zeta, **kwargs)
        finally:
            finished.append(zeta)

    monkeypatch.setattr(cgolab.recovery, "solve_psi", logged)
    with pytest.raises(NotContractiveError) as err:
        _solve_pair(strong, pair, tol=1e-10, max_iter=80)
    assert err.value.ratio == expected
    # the worker's solve had ended before the error left the pair
    assert any(zeta is pair.zeta2 for zeta in finished)


def test_pair_surfaces_an_error_of_zeta2_alone(strong_pairs):
    strong, good, _, bad6 = strong_pairs
    pair = dataclasses.replace(good, zeta2=bad6.zeta2)
    cg.solve_psi(strong, pair.zeta1, tol=1e-10, max_iter=80)  # converges
    with pytest.raises(NotContractiveError) as err:
        _solve_pair(strong, pair, tol=1e-10, max_iter=80)
    assert err.value.ratio == _ratio(strong, pair.zeta2)


def test_solve_forbidden_in_the_worker_fails_recovery(bump64, monkeypatch):
    # a gate test that forbids recovery.solve_psi still sees a solve run
    # in the worker thread: its error surfaces in the caller
    solve = cgolab.recovery.solve_psi

    def forbidden_in_worker(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise AssertionError("solved in the worker thread")
        return solve(*args, **kwargs)

    monkeypatch.setattr(cgolab.recovery, "solve_psi", forbidden_in_worker)
    with pytest.raises(AssertionError, match="worker thread"):
        cg.recover_modes([bump64], [np.array([0.0, 0.0, 1.0])], 32.0, samples_per_band=2)


def test_uniqueness_gap_rows_equal_sequential_recomputation(bump64):
    other = cg.make_conductivity(bump64.grid, OTHER)
    k_modes = [[1, 2, 0], [0, 0, 1]]
    rows = gap_rows([BUMP, OTHER], k_modes)
    assert len(rows) == len(k_modes)
    for row, mode in zip(rows, k_modes):
        k = np.array(mode, dtype=float)
        pair = cg.select_zeta_sequence(q_rows(bump64, other), bump64.grid, k, [BAND], SAMPLES, SEED)[0].pair
        steps, reports = [], []
        for cond in (bump64, other):
            solves = [cg.solve_psi(cond, zeta) for zeta in (pair.zeta1, pair.zeta2)]
            steps.append(stepwise_terms(cond, k, *(psi for _, _, psi in solves)))
            reports.append([rep for _, rep, _ in solves])
        t1, t2 = steps
        np.testing.assert_array_equal(row["k"], k)
        assert row["band"] == BAND
        assert (row["pairing1"], row["pairing2"]) == (t1["total"], t2["total"])
        assert (row["qhat1"], row["qhat2"]) == (t1["main_oracle"], t2["main_oracle"])
        assert row["gap"] == abs(t1["total"] - t2["total"])
        assert row["qhat_gap"] == abs(t1["main_oracle"] - t2["main_oracle"])
        assert row["error_bar"] == sum(abs(t["term_linear"]) + abs(t["term_bilinear"]) for t in steps)
        for i, reps in enumerate(reports, 1):
            assert row[f"solver_iterations{i}"] == [rep.iterations for rep in reps]
            assert row[f"clamped_mass{i}"] == max(rep.clamped_mass for rep in reps)


def test_uniqueness_gap_frees_the_cutoffs_before_solving(bump64, monkeypatch):
    # only qphi2 = q phi^2 h^d reads a cutoff (2 MiB at n=64): no cutoff
    # may live through the pair solves
    make_cutoff, cutoffs, alive = cgolab.recovery.make_cutoff, [], []

    def tracked(cond):
        phi = make_cutoff(cond)
        cutoffs.append(weakref.ref(phi))
        return phi

    class Stop(Exception):
        pass

    def first_solve(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in cutoffs))
        raise Stop

    monkeypatch.setattr(cgolab.recovery, "make_cutoff", tracked)
    monkeypatch.setattr(cgolab.recovery, "solve_psi", first_solve)
    other = cg.make_conductivity(bump64.grid, OTHER)
    with pytest.raises(Stop):
        cg.recover_modes([bump64, other], [np.array([0.0, 0.0, 1.0])], BAND, samples_per_band=2)
    assert len(cutoffs) == 2
    assert alive == [0, 0]


def test_no_remainder_outlives_its_pair_solve(bump64, monkeypatch):
    # each psi and each w is a lattice array (4 MiB at n=64): those of an
    # earlier (k, conductivity) must be freed before the next pair solve
    solve_pair, terms = cgolab.recovery._solve_pair, cgolab.recovery.alessandrini_terms
    arrays, alive = [], []

    def tracked_solve(cond, pair, **kwargs):
        alive.append(sum(ref() is not None for ref in arrays))
        solves = solve_pair(cond, pair, **kwargs)
        arrays.extend(weakref.ref(psi.values) for _, _, psi in solves)
        return solves

    def tracked_terms(w, *args):
        arrays.append(weakref.ref(w))
        return terms(w, *args)

    monkeypatch.setattr(cgolab.recovery, "_solve_pair", tracked_solve)
    monkeypatch.setattr(cgolab.recovery, "alessandrini_terms", tracked_terms)
    other = cg.make_conductivity(bump64.grid, OTHER)
    k_set = [np.array([1.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    recs = cg.recover_modes([bump64, other], k_set, BAND, samples_per_band=2)
    assert [len(per_k) for per_k in recs] == [2, 2]
    assert len(arrays) == 4 * 3
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in arrays)


def test_one_conductivity_equals_its_steps(bump64):
    # per mode: selection on the one conductivity, the pair solve, then the pairing
    k_set = [np.array([1.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0])]
    recs = cg.recover_modes([bump64], k_set, BAND, samples_per_band=SAMPLES, seed=SEED)
    assert len(recs) == len(k_set)
    for (rec,), k in zip(recs, k_set):
        selection = cg.select_zeta_sequence(q_rows(bump64), bump64.grid, k, [BAND], SAMPLES, SEED)[0]
        (_, rep1, psi1), (_, rep2, psi2) = _solve_pair(bump64, selection.pair, tol=1e-10, max_iter=600)
        terms = stepwise_terms(bump64, k, psi1, psi2)
        assert (rec.selection.lam, rec.selection.objective) == (selection.lam, selection.objective)
        assert rec.selection.samples == selection.samples
        assert rec.selection.pair.s == selection.pair.s
        np.testing.assert_array_equal(rec.k, k)
        for name, value in terms.items():
            assert getattr(rec, name) == value, name
        assert dataclasses.asdict(rec.report1) == dataclasses.asdict(rep1)
        assert dataclasses.asdict(rec.report2) == dataclasses.asdict(rep2)
        assert rec.error_bar == abs(terms["term_linear"]) + abs(terms["term_bilinear"])


def test_support_geometry_must_agree(bump64, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("built a cutoff before checking the support geometry")

    monkeypatch.setattr(cgolab.recovery, "make_cutoff", forbidden)
    cone = cg.make_conductivity(bump64.grid, CONE)
    assert cone.support_radius != bump64.support_radius
    with pytest.raises(FrameError, match="support geometry"):
        cg.recover_modes([bump64, cone], [np.array([0.0, 0.0, 1.0])], BAND)
