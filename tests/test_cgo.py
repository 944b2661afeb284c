import numpy as np
import pytest

import cgolab as cg
from cgolab.errors import InfeasibleGeometryError, NotContractiveError, SingularModeError
from conftest import TWO_PI, _oracle_gaussian_q, _oracle_lattice


@pytest.fixture(scope="module")
def pair32():
    return cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3)


# Plain-numpy oracle for the solver on the gaussian bump (see conftest), with
# 2/3 dealiasing and clamped modes dropped.


def _oracle_psi(q, zeta, steps=10, dealias=True):
    """psihat after `steps` steps from 0 of psihat = mask * FFT(q (1 + psi)) / p,
    with mask the unclamped modes (|p| >= 1e-6 s), on the 2/3 cube when
    dealias, and the symbol p.  The solver's step ratio on the bump is ~1e-3,
    so 10 steps reach rounding level."""
    n = q.shape[0]
    _, modes = _oracle_lattice(n)
    p = -sum(m * m for m in modes) + 2j * sum(z * m for z, m in zip(zeta, modes))
    keep = np.abs(p) >= 1e-6 * np.linalg.norm(zeta.real)
    if dealias:
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
        psi, rep = cg.solve_psi(uniform32, pair32.zeta1)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.residual_xdot == 0.0
        assert rep.psi_norm_xdot == 0.0
        assert np.max(np.abs(psi.values)) == 0.0

    def test_smooth_bump_converges(self, bump32, pair32):
        psi, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        assert rep.converged
        assert rep.contraction_estimates
        assert rep.contraction_estimates[-1] < 1.0
        assert rep.residual_xdot <= 1e-10
        assert rep.psi_norm_xdot > 0

    def test_regression_baseline(self, bump32, bump64, pair32):
        # oracles: plain-numpy fixed point with spectral q, with analytic q, and at n=64
        zeta = pair32.zeta1.value
        _, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        # same discretization: measured gap 1.6e-13
        same = _oracle_psi_norm(_oracle_gaussian_q(32, spectral=True), zeta)
        assert rep.psi_norm_xdot == pytest.approx(same, rel=1e-9)
        # analytic q is off spectral q by 6.5e-3 (sup, relative) at n=32,
        # where sigma/h = 1.5; measured gap 1.3e-4
        analytic = _oracle_psi_norm(_oracle_gaussian_q(32, spectral=False), zeta)
        assert rep.psi_norm_xdot == pytest.approx(analytic, rel=1e-3)
        assert rep.iterations == 4
        # refinement: at n=64 the analytic-q gap falls to 4e-12
        _, rep64 = cg.solve_psi(bump64, pair32.zeta1, tol=1e-10)
        analytic64 = _oracle_psi_norm(_oracle_gaussian_q(64, spectral=False), zeta)
        assert rep64.psi_norm_xdot == pytest.approx(analytic64, rel=1e-9)

    def test_residual_independent_of_solver_bookkeeping(self, bump32, pair32):
        # re-derive the residual from scratch at the returned psi
        psi, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        q = cg.potential_q(bump32)
        w = cg.physical_field(bump32.grid, q.values * (1.0 + cg.to_physical(psi).values))
        posed = cg.dealias_23(cg.to_spectral(w))
        res = cg.apply_delta_zeta(psi, pair32.zeta1) - posed
        val = cg.xdot_norm(res, pair32.zeta1, -0.5, 1e-6, "drop")
        assert val == pytest.approx(rep.residual_xdot, rel=1e-9)

    def test_clamp_sensitivity_reevaluation(self, bump32, pair32):
        psi, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, clamp_eps=1e-6)
        psi2, rep2 = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, clamp_eps=1e-7)
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
                _, rep = cg.solve_psi(strong, pair.zeta1, tol=1e-10, max_iter=80)
                outcomes.append(rep.converged)
            except NotContractiveError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_contraction_consistent_with_operator_estimate(self, bump32, pair32):
        _, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        est = cg.mq_operator_ratio(bump32, pair32, seed=2, s_values=[pair32.s])
        bound = est.samples[0].lhs
        assert rep.contraction_estimates[-1] <= 2.0 * bound

    @pytest.mark.parametrize("clamp_eps", [1e-6, 1e-2])
    def test_psihat_zero_off_kept_modes(self, bump32, pair32, clamp_eps):
        psi, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, clamp_eps=clamp_eps)
        clamped = cg.clamped_mask(pair32.zeta1, bump32.grid, clamp_eps)
        kept = ~clamped & bump32.grid.dealias_mask
        assert rep.clamped_count == clamped.sum() > 0
        assert np.all(psi.values[~kept] == 0.0)
        assert np.all(psi.values[kept] != 0.0)

    def test_full_lattice_matches_plain_fixed_point(self, bump32, pair32):
        # dealias=False: the same iteration with no 2/3 mask, step for step.
        # It starts from the solver's own q: the conftest q differs from it
        # by 6e-14 (relative sup), which 1/p amplifies to 4e-13 in psihat
        psi, rep = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10, dealias=False)
        q = bump32.q.values.real
        expected, p = _oracle_psi(q, pair32.zeta1.value, rep.iterations, dealias=False)
        assert rep.dealias_defect == 0.0
        assert np.max(np.abs(psi.values - expected)) <= 1e-12 * np.max(np.abs(expected))
        norm = np.sqrt(np.sum(np.abs(p) * np.abs(expected) ** 2) * (TWO_PI / 32) ** 3)
        assert rep.psi_norm_xdot == pytest.approx(norm, rel=1e-12)
        # the 2/3 mask changes the answer, so the check above can see it
        dealiased, _ = cg.solve_psi(bump32, pair32.zeta1, tol=1e-10)
        assert np.max(np.abs(dealiased.values - expected)) > 1e-6 * np.max(np.abs(expected))

    def test_zero_clamp_rejects_mass_on_zero_mode(self, bump32, uniform32, pair32, monkeypatch):
        # p(0) = 0 for every zeta, and the mean of q is positive: the first
        # step, which divides q_hat and transforms nothing, raises
        bump32.q_hat

        def forbidden(*args, **kwargs):
            raise AssertionError("transformed past the first step")

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "ifftn", forbidden)
            with pytest.raises(SingularModeError):
                cg.solve_psi(bump32, pair32.zeta1, clamp_eps=0.0)
        _, rep = cg.solve_psi(uniform32, pair32.zeta1, clamp_eps=0.0)
        assert rep.converged

    def test_invalid_tolerance(self, bump32, pair32):
        with pytest.raises(ValueError):
            cg.solve_psi(bump32, pair32.zeta1, tol=0.0)


class TestSelectZeta:
    K = np.array([0.0, 0.0, 1.0])

    def test_uniform_conductivity_returns_first_sample(self, uniform32):
        sels = cg.select_zeta_sequence([uniform32], self.K, [8.0], 5, seed=3)
        sel = sels[0]
        assert sel.objective == 0.0
        assert all(row[2] == 0.0 for row in sel.samples)
        # ties broken lexicographically on (s, angle)
        expected = min(sel.samples, key=lambda r: (r[2], r[0], r[1]))
        assert sel.pair.s == expected[0]

    def test_objective_decreases_across_bands(self, bump32):
        sels = cg.select_zeta_sequence([bump32], self.K, [8.0, 16.0, 32.0], 8, seed=5)
        objs = [s.objective for s in sels]
        assert objs[0] > objs[1] > objs[2]

    def test_min_not_above_mean(self, bump32):
        sel = cg.select_zeta_sequence([bump32], self.K, [8.0], 8, seed=6)[0]
        values = [row[2] for row in sel.samples]
        assert sel.objective <= np.mean(values)

    def test_deterministic_under_seed(self, bump32):
        a = cg.select_zeta_sequence([bump32], self.K, [8.0, 16.0], 6, seed=11)
        b = cg.select_zeta_sequence([bump32], self.K, [8.0, 16.0], 6, seed=11)
        assert [s.pair.s for s in a] == [s.pair.s for s in b]
        assert [s.objective for s in a] == [s.objective for s in b]

    def test_infeasible_k(self, bump32):
        with pytest.raises(InfeasibleGeometryError):
            cg.select_zeta_sequence([bump32], np.array([0.0, 0.0, 20.0]), [8.0], 4, seed=0)

    def test_bad_bands_rejected(self, bump32):
        with pytest.raises(InfeasibleGeometryError):
            cg.select_zeta_sequence([bump32], self.K, [16.0, 8.0], 4, seed=0)
        with pytest.raises(InfeasibleGeometryError):
            cg.select_zeta_sequence([bump32], self.K, [8.0], 0, seed=0)

    def test_off_lattice_k_rejected(self, bump32):
        with pytest.raises(ValueError):
            cg.select_zeta_sequence([bump32], np.array([0.0, 0.0, 0.5]), [8.0], 4, seed=0)
