import numpy as np
import pytest

import cgolab as cg
from cgolab.errors import InfeasibleGeometryError, NotContractiveError
from cgolab.spaces import clamp_rule
from cgolab.symbol import lattice_symbol

from conftest import TWO_PI, _oracle_gaussian_q, _oracle_lattice, full_psihat, q_rows


@pytest.fixture(scope="module")
def pair32():
    return cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3)


# Plain-numpy oracle for the solver on the gaussian bump (see conftest), with
# 2/3 dealiasing and clamped modes dropped.


def _oracle_psi(q, zeta, steps=10):
    """psihat after `steps` steps from 0 of psihat = mask * FFT(q (1 + psi)) / p,
    with mask the unclamped modes (|p| >= 1e-6 s) of the 2/3 cube, and the
    symbol p.  The solver's step ratio on the bump is ~1e-3, so 10 steps
    reach rounding level."""
    n = q.shape[0]
    _, modes = _oracle_lattice(n)
    p = -sum(m * m for m in modes) + 2j * sum(z * m for z, m in zip(zeta, modes))
    keep = np.abs(p) >= 1e-6 * np.linalg.norm(zeta.real)
    for m in modes:
        keep = keep & (np.abs(m) <= n // 3)
    psihat = np.zeros(q.shape, dtype=complex)
    for _ in range(steps):
        rhs = np.fft.fftn(q * (1.0 + np.fft.ifftn(psihat, norm="ortho")), norm="ortho")
        psihat = np.where(keep, rhs / np.where(keep, p, 1.0), 0.0)
    return psihat, p


def _oracle_psi_norm(q, zeta):
    """(sum |p| |psihat|^2 h^3)^{1/2} at the oracle fixed point."""
    psihat, p = _oracle_psi(q, zeta)
    n = q.shape[0]
    return float(np.sqrt(np.sum(np.abs(p) * np.abs(psihat) ** 2) * (TWO_PI / n) ** 3))


class TestSolvePsi:
    def test_uniform_gamma_trivial_path(self, uniform32, pair32):
        modes, rep, _ = cg.solve_psi(uniform32, pair32.zeta1)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.residual_xdot == 0.0
        assert rep.psi_norm_xdot == 0.0
        assert np.max(np.abs(full_psihat(uniform32.grid, modes))) == 0.0

    def test_smooth_bump_converges(self, bump32, pair32):
        psi, rep, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        assert rep.converged
        assert rep.contraction_estimates
        assert rep.contraction_estimates[-1] < 1.0
        assert rep.residual_xdot <= 1e-10
        assert rep.psi_norm_xdot > 0

    def test_regression_baseline(self, bump32, bump64, pair32):
        # oracles: plain-numpy fixed point with spectral q, with analytic q, and at n=64
        zeta = pair32.zeta1.value
        _, rep, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        # same discretization: measured gap 1.6e-13
        same = _oracle_psi_norm(_oracle_gaussian_q(32, spectral=True), zeta)
        assert rep.psi_norm_xdot == pytest.approx(same, rel=1e-9)
        # analytic q is off spectral q by 6.5e-3 (sup, relative) at n=32,
        # where sigma/h = 1.5; measured gap 1.3e-4
        analytic = _oracle_psi_norm(_oracle_gaussian_q(32, spectral=False), zeta)
        assert rep.psi_norm_xdot == pytest.approx(analytic, rel=1e-3)
        assert rep.iterations == 4
        # refinement: at n=64 the analytic-q gap falls to 4e-12
        _, rep64, _ = cg.solve_psi(bump64, pair32.zeta1, tol=1e-10)
        analytic64 = _oracle_psi_norm(_oracle_gaussian_q(64, spectral=False), zeta)
        assert rep64.psi_norm_xdot == pytest.approx(analytic64, rel=1e-9)

    def test_residual_independent_of_solver_bookkeeping(self, bump32, pair32):
        # re-derive the residual from scratch at the returned psi, with the
        # forward multiplier p psihat, the 2/3 mask and the weighted norm.
        # At tol=1e-10 the residual (1.2e-14) is rounding of terms of size
        # psi_norm_xdot, which SIMD and scalar loops round differently
        # (measured gap 1.2e-7 relative, 8e-20 of psi_norm_xdot); at
        # tol=1e-4 the solve stops after 2 steps with a residual of ~1e-8
        # (measured gap 2.5e-13)
        grid = bump32.grid
        p = lattice_symbol(pair32.zeta1, [grid.xi_axis] * 3)
        pabs = np.abs(p)
        # the -1/2-norm, with the clamped modes |p| < 1e-6 s dropped
        kept = ~clamp_rule(pabs, 1e-6, pair32.zeta1.s)
        inv = np.divide(1.0, pabs, out=np.zeros_like(pabs), where=kept)

        def minus_half(spec):
            return np.sqrt(np.sum(inv * np.abs(spec) ** 2) * grid.measure)

        for tol in (1e-10, 1e-4):
            modes, rep, physical = cg.solve_psi(bump32, pair32.zeta1, tol=tol)
            psi = full_psihat(grid, modes)
            assert np.array_equal(physical.values, np.fft.ifftn(psi, norm="ortho"))
            q = cg.potential_q(bump32)
            w = np.fft.fftn(q.values * (1.0 + physical.values), norm="ortho")
            posed = w * grid.dealias_mask
            val = minus_half(p * psi - posed)
            assert abs(val - rep.residual_xdot) <= 1e-15 * rep.psi_norm_xdot
            defect = minus_half(w - posed)
            assert defect == pytest.approx(rep.dealias_defect, rel=1e-12, abs=0)
        assert rep.iterations == 2 and rep.residual_xdot > 1e-9
        assert val == pytest.approx(rep.residual_xdot, rel=1e-9, abs=0)

    def test_clamp_sensitivity_reevaluation(self, bump32, pair32):
        psi, rep, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, clamp_eps=1e-6)
        psi2, rep2, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, clamp_eps=1e-7)
        assert rep2.residual_xdot <= 2 * max(rep.residual_xdot, 1e-14)

    def test_divergence_raises_with_ratio(self, grid32):
        strong = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 30.0, "radius": 1.1})
        pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 4.0, 0.0)
        with pytest.raises(NotContractiveError) as err:
            cg.solve_psi(strong, pair.zeta1, tol=1e-10, max_iter=80)
        assert err.value.ratio >= 1.0

    def test_divergence_depends_on_frame_angle(self, grid32):
        # the contraction threshold is direction-dependent: some eta1
        # samples diverge while others converge
        strong = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 30.0, "radius": 1.1})
        outcomes = []
        for theta in np.linspace(0.0, np.pi, 4):
            pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 4.0, float(theta))
            try:
                _, rep, _ = cg.solve_psi(strong, pair.zeta1, tol=1e-10, max_iter=80)
                outcomes.append(rep.converged)
            except NotContractiveError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_contraction_consistent_with_operator_estimate(self, bump32, pair32):
        _, rep, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        rows, _ = cg.mq_operator_ratio(bump32, pair32, seed=2, s_values=[pair32.s])
        bound = rows[0]["operator_norm"]
        assert rep.contraction_estimates[-1] <= 2.0 * bound

    @pytest.mark.parametrize("clamp_eps", [1e-6, 1e-2])
    def test_psihat_zero_off_kept_modes(self, bump32, pair32, clamp_eps):
        modes, rep, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, clamp_eps=clamp_eps)
        psi = full_psihat(bump32.grid, modes)
        pabs = np.abs(lattice_symbol(pair32.zeta1, [bump32.grid.xi_axis] * 3))
        clamped = clamp_rule(pabs, clamp_eps, pair32.zeta1.s)
        kept = ~clamped & bump32.grid.dealias_mask
        assert rep.clamped_count == clamped.sum() > 0
        assert np.all(psi[~kept] == 0.0)
        assert np.all(psi[kept] != 0.0)
        # K is handed over as the increasing flat indices of the kept modes
        np.testing.assert_array_equal(modes[1], np.flatnonzero(kept))

    # on the lattice-aligned zeta the zero set |xi - 13 e_y| = 13, xi_x = 0
    # holds four lattice modes off the cube: (0, 8, +-12) and (0, 13, +-13)
    @pytest.mark.parametrize("aligned", [False, True])
    @pytest.mark.parametrize("slab_points", [None, 3 * 32 * 32])
    def test_off_cube_slabs_match_full_lattice_oracle(self, bump32, pair32, aligned, slab_points,
                                                      monkeypatch):
        # dealias_defect and clamped_count against plain numpy on the whole
        # lattice: |p| from the integer modes, the 2/3 cube and the fresh
        # product w = FFT(q (1 + psi)) at the returned psi; the solver's
        # slabs of 3 planes leave a short last slab
        if slab_points:
            monkeypatch.setattr(cg.cgo, "SLAB_POINTS", slab_points)
        zeta = pair32.zeta1
        if aligned:
            zeta = cg.Zeta(13.0 * np.array([1.0, 0, 0]) - 13.0j * np.array([0, 1.0, 0]))
        _, rep, psi = cg.solve_psi(bump32, zeta, tol=1e-10)
        _, modes = _oracle_lattice(32)
        pabs = np.abs(-sum(m * m for m in modes) + 2j * sum(z * m for z, m in zip(zeta.value, modes)))
        clamped = pabs < 1e-6 * np.linalg.norm(zeta.value.real)
        cube = (np.abs(modes[0]) <= 10) & (np.abs(modes[1]) <= 10) & (np.abs(modes[2]) <= 10)
        assert (clamped & ~cube).sum() == (4 if aligned else 0)
        assert rep.clamped_count == clamped.sum()
        w = np.fft.fftn(bump32.q.values * (1.0 + psi.values), norm="ortho")
        off = ~cube & ~clamped
        defect = np.sqrt(np.sum(np.abs(w[off]) ** 2 / pabs[off]) * (TWO_PI / 32) ** 3)
        assert rep.dealias_defect == pytest.approx(defect, rel=1e-13, abs=0)

    def test_matches_plain_fixed_point_step_for_step(self, bump32, pair32):
        # the same iteration in plain numpy, with full transforms and the
        # 2/3 mask, for as many steps as the solver took (measured gap
        # 2.3e-16 relative in psihat, 1.9e-16 in the norm).  It starts from
        # the solver's own q: the conftest q differs from it by 6e-14
        # (relative sup), which 1/p amplifies to 4e-13 in psihat
        modes, rep, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        psi = full_psihat(bump32.grid, modes)
        q = bump32.q.values.real
        expected, p = _oracle_psi(q, pair32.zeta1.value, rep.iterations)
        assert np.max(np.abs(psi - expected)) <= 1e-12 * np.max(np.abs(expected))
        norm = np.sqrt(np.sum(np.abs(p) * np.abs(expected) ** 2) * (TWO_PI / 32) ** 3)
        assert rep.psi_norm_xdot == pytest.approx(norm, rel=1e-12)

    def test_nonpositive_clamp_rejected(self, bump32, uniform32, pair32, monkeypatch):
        # p(0) = 0 for every zeta, and q has mass there unless gamma is
        # constant: clamp_eps > 0 is checked before the symbol is formed
        def forbidden(*args, **kwargs):
            raise AssertionError("computed before checking clamp_eps")

        monkeypatch.setattr(cg.cgo, "lattice_symbol", forbidden)
        for cond in (bump32, uniform32):
            for clamp_eps in (0.0, -1e-6, float("nan")):
                with pytest.raises(ValueError, match="clamp_eps"):
                    cg.solve_psi(cond, pair32.zeta1, clamp_eps=clamp_eps)

    def test_invalid_tolerance(self, bump32, pair32):
        with pytest.raises(ValueError):
            cg.solve_psi(bump32, pair32.zeta1, tol=0.0)


class TestSelectZeta:
    K = np.array([0.0, 0.0, 1.0])

    def test_uniform_conductivity_returns_first_sample(self, uniform32):
        sels = cg.select_zeta_sequence(q_rows(uniform32), uniform32.grid, self.K, [8.0], 5, seed=3)
        sel = sels[0]
        assert sel.objective == 0.0
        assert all(row[2] == 0.0 for row in sel.samples)
        # ties broken lexicographically on (s, angle)
        expected = min(sel.samples, key=lambda r: (r[2], r[0], r[1]))
        assert sel.pair.s == expected[0]

    def test_objective_decreases_across_bands(self, bump32):
        sels = cg.select_zeta_sequence(q_rows(bump32), bump32.grid, self.K, [8.0, 16.0, 32.0], 8, seed=5)
        objs = [s.objective for s in sels]
        assert objs[0] > objs[1] > objs[2]

    def test_min_not_above_mean(self, bump32):
        sel = cg.select_zeta_sequence(q_rows(bump32), bump32.grid, self.K, [8.0], 8, seed=6)[0]
        values = [row[2] for row in sel.samples]
        assert sel.objective <= np.mean(values)

    def test_deterministic_under_seed(self, bump32):
        a = cg.select_zeta_sequence(q_rows(bump32), bump32.grid, self.K, [8.0, 16.0], 6, seed=11)
        b = cg.select_zeta_sequence(q_rows(bump32), bump32.grid, self.K, [8.0, 16.0], 6, seed=11)
        assert [s.pair.s for s in a] == [s.pair.s for s in b]
        assert [s.objective for s in a] == [s.objective for s in b]

    def test_infeasible_k(self, bump32):
        with pytest.raises(InfeasibleGeometryError):
            cg.select_zeta_sequence(q_rows(bump32), bump32.grid, np.array([0.0, 0.0, 20.0]), [8.0], 4, seed=0)

    def test_bad_bands_rejected(self, bump32):
        with pytest.raises(InfeasibleGeometryError):
            cg.select_zeta_sequence(q_rows(bump32), bump32.grid, self.K, [16.0, 8.0], 4, seed=0)
        with pytest.raises(InfeasibleGeometryError):
            cg.select_zeta_sequence(q_rows(bump32), bump32.grid, self.K, [8.0], 0, seed=0)

    def test_off_lattice_k_rejected(self, bump32):
        with pytest.raises(ValueError):
            cg.select_zeta_sequence(q_rows(bump32), bump32.grid, np.array([0.0, 0.0, 0.5]), [8.0], 4, seed=0)

    def test_rows_of_another_shape_or_negative_rejected(self, bump32):
        (row,) = q_rows(bump32)
        full = np.abs(np.fft.fftn(bump32.q.values, norm="ortho")) ** 2
        negative = row.copy()
        negative[1, 2, 3] = -1e-30
        for rows, match in (([full], "half-lattice shape"), ([row[:16]], "half-lattice shape"),
                            ([row, row[..., :-1]], "half-lattice shape"), ([negative], "nonnegative"),
                            ([], "at least one")):
            with pytest.raises(ValueError, match=match):
                cg.select_zeta_sequence(rows, bump32.grid, self.K, [8.0], 4, seed=0)
