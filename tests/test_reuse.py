"""Work that must be done only once: transforms per solver step, per
pairing, per averaged decay and per harness sample, the harness's symbol
evaluations, and the singular-integral quadrature's one slab pass per
zeta for all its etas."""

import json
import tracemalloc

import numpy as np
import pytest

import cgolab as cg
from cgolab import cli
from cgolab.potential import _grad_log_sup
from cgolab.recovery import _solve_pair
from cgolab.symbol import lattice_symbol

from conftest import BUMP_AMPLITUDE, BUMP_WIDTH

CONE = {"kind": "cone", "amplitude": 0.5, "radius": 1.1}


class _Calls(list):
    """Names of the transforms made, in order.  work holds one
    (name, axes, points) per call: the axes passed (None for all; a
    one-axis fft/ifft/rfft/irfft records its axis) and the points
    transformed, the size of the call's complex side (the output of a real
    forward, else the input) times the number of axes."""

    def __init__(self):
        super().__init__()
        self.work = []

    def clear(self):
        super().clear()
        self.work.clear()


ONE_AXIS = ("fft", "ifft", "rfft", "irfft")
# a real transform of a 3-d array, axis by axis in numpy's rfftn/irfftn order
REAL_FORWARD = ["rfft", "fftn", "fftn"]
REAL_INVERSE = ["ifftn", "ifftn", "irfft"]


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts every numpy.fft.fftn / ifftn / rfftn / irfftn and one-axis
    fft / ifft / rfft / irfft call made while the test runs."""
    calls = _Calls()
    for name in ("fftn", "ifftn", "rfftn", "irfftn") + ONE_AXIS:
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            out = _original(*args, **kwargs)
            calls.append(_name)
            data = out if _name.startswith("rfft") else np.asarray(args[0])
            if _name in ONE_AXIS:
                axes = (kwargs.get("axis", -1) % data.ndim,)
            else:
                axes = None if kwargs.get("axes") is None else tuple(kwargs["axes"])
            calls.work.append((_name, axes, data.size * (data.ndim if axes is None else len(axes))))
            return out

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def zeta16():
    return cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3).zeta1


class TestTransformCounts:
    def test_solver_steps_transform_only_the_cube(self, bump32, bump64, zeta16, fft_calls):
        # none for the first step (it divides q_hat); per later step a
        # one-axis inverse on the 4 axis-2 blocks, the 2 axis-1 slabs and
        # all of axis 0, then the mirrored forward; after the loop one
        # such inverse, one full forward of the fresh product in the same
        # buffer, and the inverse again to return psi
        inverse = ["ifftn"] * 7
        forward = ["fftn"] * 7
        axes = [(2,)] * 4 + [(1,)] * 2 + [(0,)] + [(2,)] + [(1,)] * 2 + [(0,)] * 4
        for cond in (bump32, bump64):
            cond.q_hat
            fft_calls.clear()
            _, rep, _ = cg.solve_psi(cond, zeta16, tol=1e-10)
            assert rep.iterations >= 3
            assert fft_calls == (inverse + forward) * (rep.iterations - 1) + inverse + ["fftn"] + inverse
            assert [entry[1] for entry in fft_calls.work[:14]] == axes
            full = 3 * cond.grid.size
            assert fft_calls.work[-8] == ("fftn", None, full)
            assert fft_calls.work[-7:] == fft_calls.work[:7]
            inverse_points = sum(entry[2] for entry in fft_calls.work[:7])
            forward_points = sum(entry[2] for entry in fft_calls.work[7:14])
            # 69.6% of a full transform at n=32, 70.8% at n=64
            assert inverse_points == forward_points <= 0.71 * full

    def test_recovery_transforms_nothing_after_its_solves(self, bump64, fft_calls, monkeypatch):
        solve = cg.recovery.solve_psi

        def marked(*args, **kwargs):
            out = solve(*args, **kwargs)
            fft_calls.append("solved")
            return out

        monkeypatch.setattr(cg.recovery, "solve_psi", marked)
        cg.recover_modes([bump64], [np.array([0.0, 0.0, 1.0])], 32.0, samples_per_band=2)
        # the pairing reads the physical psi each solve hands over
        assert fft_calls.count("solved") == 2
        assert fft_calls[-1] == "solved"

    def test_averaged_decay_transforms_f_once(self, bump32, fft_calls):
        phi = cg.make_cutoff(bump32)
        k = np.array([0.0, 0.0, 1.0])
        fft_calls.clear()
        f_half = cg.grid.real_forward(bump32.log_g.values)
        assert fft_calls == REAL_FORWARD
        full = sum(entry[2] for entry in fft_calls.work)
        fft_calls.clear()
        cg.averaged_decay(f_half, k, [8.0], 8, 8, phi)
        # f once, by the caller; averaged_decay then makes, per gradient
        # component, one real inverse and one pruned real forward of the
        # product, all on the half spectrum: the forward runs only on the
        # lines that reach the 2/3 cube, one axis-1 block and two axis-0 blocks
        density_forward = ["rfft", "fftn", "fftn", "fftn"]
        assert fft_calls == (REAL_INVERSE + density_forward) * 3
        for start in (3, 10, 17):
            # 69.1% of a full real forward at n=32
            assert sum(entry[2] for entry in fft_calls.work[start : start + 4]) <= 0.71 * full

    def test_cone_with_q_hat_takes_only_real_transforms(self, grid32, fft_calls):
        cone = cg.make_conductivity(grid32, {"kind": "cone", "amplitude": 0.5, "radius": 1.1})
        cone.q_hat
        # mollify: gamma forward, the product with the bump spectrum back
        # (the bump is not transformed); q: g forward, Lap g back; q_hat:
        # q forward
        assert fft_calls == (REAL_FORWARD + REAL_INVERSE) * 2 + REAL_FORWARD
        # every call is one axis on a half spectrum, none on a full one
        assert all(points == 32 * 32 * 17 for _, _, points in fft_calls.work)


    def test_harness_transforms_only_the_cube(self, grid32, fft_calls):
        # per sample a pruned inverse of the draw and a pruned forward of
        # phi_B u, each one axis at a time; 6 full transforms per sample
        # when the norms were taken through physical fields.  n=32: below
        # it cube_transform prunes nothing
        cond = cg.make_conductivity(grid32, {"kind": "gaussian", "amplitude": BUMP_AMPLITUDE,
                                             "width": BUMP_WIDTH})
        phi = cg.make_cutoff(cond)
        pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 2.0, 0.3)
        fft_calls.clear()
        for direction in ("inverse", "forward"):
            cg.grid.cube_transform(grid32, np.zeros(grid32.shape, dtype=complex), direction)
        per_sample = sum(points for _, _, points in fft_calls.work)
        for call, samples in ((lambda: cg.localization_ratios(4, pair.zeta1, phi, seed=0), 4),
                              (lambda: cg.bilinear_ratio(pair, phi, seed=0), 2)):
            fft_calls.clear()
            call()
            assert fft_calls and all(axes is not None and len(axes) == 1 for _, axes, _ in fft_calls.work)
            assert sum(points for _, _, points in fft_calls.work) <= samples * per_sample


    def test_mq_norm_transforms_and_evaluates_only_the_cube(self, fft_calls, monkeypatch):
        # each apply and each adjoint is a pruned inverse and a pruned
        # forward on one lattice buffer, and p is evaluated on the cube
        # only (cgo.kept_modes), once per zeta; a fresh grid shows that
        # the dealias mask is never built.  Before, each was a full ifftn
        # pair or fftn pair on full-lattice vectors, with |p| formed on the
        # whole lattice
        grid = cg.FrequencyGrid(3, 32, 2.0 * np.pi)
        cond = cg.make_conductivity(grid, {"kind": "gaussian", "amplitude": BUMP_AMPLITUDE,
                                           "width": BUMP_WIDTH})
        cond.q
        lengths = []

        def counted(zeta, axes):
            lengths.append([len(x) for x in axes])
            return lattice_symbol(zeta, axes)

        monkeypatch.setattr(cg.cgo, "lattice_symbol", counted)
        monkeypatch.setattr(cg.estimates, "lattice_symbol", counted)
        assert "dealias_mask" not in grid.__dict__
        fft_calls.clear()
        pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3)
        rows, _ = cg.mq_operator_ratio(cond, pair, seed=0)
        chain = ["ifftn"] * 7 + ["fftn"] * 7
        assert len(fft_calls) >= 2 * len(chain) and len(fft_calls) % len(chain) == 0
        assert fft_calls == chain * (len(fft_calls) // len(chain))
        assert all(axes is not None and len(axes) == 1 for _, axes, _ in fft_calls.work)
        assert lengths == [[21] * 3] * (2 * len(rows))
        assert "dealias_mask" not in grid.__dict__


class TestKeptModes:
    @pytest.mark.parametrize("clamp_eps", [cg.spaces.DEFAULT_CLAMP_EPS, 0.05])
    def test_matches_full_lattice_oracle_at_zeta_and_its_mirror(self, grid32, zeta16, clamp_eps):
        # the 2/3 cube minus |p| < clamp_eps s, read from the whole lattice
        neg = (-np.arange(32)) % 32  # FFT-order index of -m
        found = {}
        for sign in (1.0, -1.0):
            zeta = cg.Zeta(sign * zeta16.value)
            kept, clamped, p_k = cg.cgo.kept_modes(grid32, zeta, clamp_eps)
            p = lattice_symbol(zeta, [grid32.xi_axis] * 3)
            hit = np.abs(p) < clamp_eps * zeta16.s
            np.testing.assert_array_equal(kept, np.flatnonzero(grid32.dealias_mask & ~hit))
            np.testing.assert_array_equal(clamped, np.flatnonzero(grid32.dealias_mask & hit))
            np.testing.assert_array_equal(p_k, p.reshape(-1)[kept])
            found[sign] = kept, clamped, p_k
        assert len(found[1.0][1]) > 0
        # K(-zeta) is the mirror -K(zeta), with |p| the same bit for bit
        mirror = np.ravel_multi_index([neg[i] for i in np.unravel_index(found[1.0][0], grid32.shape)],
                                      grid32.shape)
        order = np.argsort(mirror)
        np.testing.assert_array_equal(mirror[order], found[-1.0][0])
        np.testing.assert_array_equal(np.abs(found[1.0][2])[order], np.abs(found[-1.0][2]))


class TestLipschitzSeminorm:
    def test_built_on_first_read(self, grid32, fft_calls):
        cond = cg.make_conductivity(grid32, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        assert fft_calls == []
        value = cond.lipschitz_seminorm
        # log gamma forward, three gradients back
        assert fft_calls == REAL_FORWARD + REAL_INVERSE * 3
        assert value == _grad_log_sup(grid32, cond.gamma.values.real)
        assert cond.lipschitz_seminorm is value


class TestSolverMemory:
    PAIR = cg.zeta_pair_from_angle(np.array([1.0, 2.0, 0.0]), 64.0, 0.7)

    @staticmethod
    def peak(call, cond):
        # the conductivity's and the grid's cached arrays are not the call's memory
        cond.q, cond.q_hat, cond.grid.dealias_mask
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_n64_solve_peaks_under_10_mib(self, bump64):
        # measured 9.06 MiB for both profiles: K-length vectors and the one
        # lattice buffer that w shares with the returned psi; 12.9 MiB with
        # a second buffer for w and per-step K temporaries, 18.9 MiB when
        # the solve held p, |p| and its mask on the whole lattice
        for cond in (bump64, cg.make_conductivity(bump64.grid, CONE)):
            assert self.peak(lambda: cg.solve_psi(cond, self.PAIR.zeta1), cond) <= 10 * 2 ** 20

    def test_one_n64_pair_peaks_under_20_mib(self, bump64):
        # both threads' allocations count, so the peak depends on how the
        # two solves interleave: measured 18.0-18.6 MiB, about twice one
        # solve; 22.7-26.4 MiB with two lattice buffers per solve
        assert self.peak(lambda: _solve_pair(bump64, self.PAIR), bump64) <= 20 * 2 ** 20

    def test_one_n64_recovery_peaks_under_26_mib(self, bump64):
        # the whole recover_modes call from a fresh conductivity: q, the
        # cutoff, the main-term gate, the selection, the pair and the
        # pairing; measured 22.5-25.3 MiB (the pair solve on top of q, q_hat
        # and q phi^2 h^d), 32.7-33.9 MiB with two lattice arrays per solve,
        # the full q_hat and a lattice product buffer in the pairing
        cond = cg.make_conductivity(bump64.grid, {"kind": "gaussian", "amplitude": BUMP_AMPLITUDE,
                                                  "width": BUMP_WIDTH})
        k = np.array([1.0, 2.0, 0.0])
        tracemalloc.start()
        try:
            cg.recover_modes([cond], [k], 64.0, samples_per_band=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 26 * 2 ** 20


    def test_one_n32_mq_norm_peaks_under_2_5_mib(self, bump32):
        # K-length Lanczos vectors and one lattice buffer: measured 2.05 MiB;
        # 4.79 MiB with full-lattice weights, vectors and transforms
        pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 16.0, 0.3)

        def call():
            return cg.estimates._mq_operator_norm(bump32, pair, np.random.default_rng(0))

        call()  # numpy's transform plans
        assert self.peak(call, bump32) <= 2.5 * 2 ** 20


class TestSweepMemory:
    """The sweep's operations at n=64 hold only what their kernels read."""

    K = np.array([1.0, 2.0, 0.0])

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("profile", [{"kind": "gaussian", "amplitude": BUMP_AMPLITUDE, "width": BUMP_WIDTH},
                                         CONE])
    def test_n64_averaged_decay_peaks_under_5_mib(self, bump64, profile):
        # f's half spectrum and the cutoff are the caller's: measured 4.58
        # MiB, the density's two buffers and its cube-sized sum; 8.44-8.69
        # MiB when it took f and made a half spectrum and a real array per
        # gradient component
        cond = cg.make_conductivity(bump64.grid, profile)
        phi = cg.make_cutoff(cond)
        f_half = cg.grid.real_forward(cond.log_g.values)
        del cond

        def call():
            return cg.averaged_decay(f_half, self.K, [8.0, 16.0, 32.0, 64.0], 8, 8, phi)

        expected = call()  # the grid's cached arrays and numpy's transform plans
        assert self.peak(call) <= 5 * 2 ** 20
        assert call() == expected

    @pytest.mark.parametrize("subcommand, config", [
        ("select-zeta", {"samples_per_band": 4}),
        ("averaged-decay", {"bands": [64.0]}),
    ])
    def test_n64_sweep_subcommand_peaks_under_9_5_mib(self, tmp_path, subcommand, config):
        # the benchmark's n=64 cone configs, on a second run: measured 8.08
        # (select-zeta, in the conductivity's q) and 8.65 MiB
        # (averaged-decay, in its density); 10.24 and 14.70 MiB when each
        # held its conductivity while its band kernel ran
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"n": 64}, "profiles": [CONE], "seed": 3,
                                    "out_dir": str(tmp_path / "out"), **config}))
        assert cli.main([subcommand, "--config", str(path)]) == 0  # warms lazy imports and plans
        peak = self.peak(lambda: cli.main([subcommand, "--config", str(path)]))
        assert peak <= 9.5 * 2 ** 20

    @pytest.mark.parametrize("profile", [{"kind": "gaussian", "amplitude": BUMP_AMPLITUDE, "width": BUMP_WIDTH},
                                         CONE, {"kind": "c1_cap", "amplitude": 0.5, "radius": 1.1}])
    def test_n64_profile_build_peaks_under_6_5_mib(self, bump64, profile):
        # gamma is formed in one radius array, and the support check reuses
        # a second: measured 4.25 MiB (gaussian) and 6.25 MiB (cone, c1_cap:
        # gamma before and after pre-mollifying, and the check); 8.0, 8.1
        # and 10.1 MiB with a copy of gamma and gathered deviations
        cg.make_conductivity(bump64.grid, profile)
        assert self.peak(lambda: cg.make_conductivity(bump64.grid, profile)) <= 6.5 * 2 ** 20


class TestConductivityMemory:
    def test_n64_conductivity_with_q_q_hat_and_cutoff_holds_8_5_mib(self, bump64):
        # float64 gamma, q and cutoff (2 MiB each) and q_hat on the half
        # spectrum (2.06 MiB) hold 8.07 MiB; 10.0 MiB with the full complex
        # q_hat, 20.0 MiB when every real field was held complex and g was cached
        grid = bump64.grid
        grid.radius_from_center, grid.half_deriv_multipliers  # the grid's cached arrays
        profile = {"kind": "gaussian", "amplitude": BUMP_AMPLITUDE, "width": BUMP_WIDTH}
        tracemalloc.start()
        try:
            cond = cg.make_conductivity(grid, profile)
            cond.q, cond.q_hat
            phi = cg.make_cutoff(cond)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert phi.values.size == cond.q.values.size == grid.size
        assert held <= 8.5 * 2 ** 20


class TestSymbolData:
    def test_symbol_is_exact(self, grid32, zeta16):
        p = lattice_symbol(zeta16, [grid32.xi_axis] * 3)
        # -|xi|^2 + 2i zeta . xi, accumulated axis by axis from the lattice
        xi = [grid32.xi_axis.reshape(shape) for shape in ((32, 1, 1), (1, 32, 1), (1, 1, 32))]
        sq, dot = np.zeros(grid32.shape), np.zeros(grid32.shape, dtype=complex)
        for z, x in zip(zeta16.value, xi):
            sq = sq + x ** 2
            dot = dot + z * x
        np.testing.assert_array_equal(p, -sq + 2j * dot)

    def test_harness_evaluates_the_symbol_once_per_zeta_and_draw(self, grid16, monkeypatch):
        # localization_ratios: once for its weights, once per
        # near-characteristic draw (3 of every 4); bilinear_ratio: once per
        # zeta for its two draws, then once per zeta for the weights
        calls = []

        def counted(zeta, axes):
            calls.append(zeta)
            return lattice_symbol(zeta, axes)

        monkeypatch.setattr(cg.estimates, "lattice_symbol", counted)
        cond = cg.make_conductivity(grid16, {"kind": "gaussian", "amplitude": 0.05, "width": 0.3})
        phi = cg.make_cutoff(cond)
        pair = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 2.0, 0.3)
        cg.localization_ratios(8, pair.zeta1, phi, seed=0)
        assert len(calls) == 1 + 6
        calls.clear()
        cg.bilinear_ratio(pair, phi, seed=0)
        assert calls == [pair.zeta1, pair.zeta2, pair.zeta1, pair.zeta2]


class TestSingbound:
    def test_batch_matches_single_eta_calls(self, grid32, zeta16):
        etas = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [4.0, 0.0, 2.5]])
        for M in (6, 7):
            batch = cg.singbound_quadrature(zeta16, etas, M, grid32)
            assert batch.shape == (3,)
            for eta, value in zip(etas, batch):
                assert cg.singbound_quadrature(zeta16, eta[None], M, grid32)[0] == value

    def test_one_call_peaks_below_half_a_lattice_array(self):
        grid = cg.FrequencyGrid(3, 64, 2.0 * np.pi)
        zeta = cg.zeta_pair_from_angle(np.array([0.0, 0.0, 1.0]), 32.0, 0.3).zeta1
        etas = np.random.default_rng(0).normal(size=(4, 3)) * 32.0
        grid.xi_axis  # the grid's own cached axis is not the call's memory
        tracemalloc.start()
        try:
            cg.singbound_quadrature(zeta, etas, 6, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * grid.size * 8
