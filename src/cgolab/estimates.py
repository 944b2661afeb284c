"""Numerical verification harness for the package's inequalities.

"Bounded by an implicit constant" claims are tested as empirical
constant stability across parameter sweeps, never as absolute bounds;
the only falsifiable lattice content of a uniform estimate is its
uniformity.  All samplers are seeded and deterministic.

Estimate identifiers (semantic, stable across the CSV/JSON schema):

  cutoff_neg_half   ||phi_B u||  homogeneous -1/2  vs inhomogeneous -1/2
  cutoff_pos_half   ||phi_B u||  inhomogeneous 1/2 vs homogeneous 1/2
  cutoff_l2         ||phi_B u||_L2              vs s^{-1/2} homogeneous 1/2
  cutoff_high_grad  ||grad(H phi_B u)||_L2      vs homogeneous 1/2
  cutoff_high_l2    ||H phi_B u||_L2            vs s^{-1}  homogeneous 1/2
  bilinear_linf     s |int f u_B v_B| / (||f||_inf ||u|| ||v||)
  mq_decay          max |<m_q u, v>| over normalized trials, per s
  singbound         lattice integral of <xi-eta>^{-M} / dist(xi, Sigma)
  avg_decay         band quadrature of || phi_B grad f ||^2 (hom. -1/2)

Integrability-sensitive quadratures floor the symbol magnitude at the
frequency-cell scale s*dxi/2 (the lattice surrogate of averaging |p|
over one cell); the adversarial sampler uses the same floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InfeasibleGeometryError
from .grid import (
    Field,
    FrequencyGrid,
    l2_norm,
    multiply,
    spectral_field,
    spectral_gradient,
    sup_norm,
    to_physical,
    to_spectral,
)
from .potential import Conductivity, CutoffField, mq_bilinear, mq_bilinear_split, potential_q
from .spaces import inverse_symbol_sums, project, x_norm, xdot_norm
from .symbol import Zeta, ZetaPair, char_distance_lattice, lattice_symbol, make_zeta_pair, orthonormal_plane, zeta_pair_from_angle

HARNESS_CLAMP_POLICY = "drop"


def cell_floor(grid: FrequencyGrid, s: float) -> float:
    """Symbol-magnitude floor at the frequency-cell scale, s * dxi / 2."""
    return 0.5 * s * grid.freq_step


@dataclass
class EstimateSample:
    params: dict
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs


@dataclass
class EstimateReport:
    estimate_id: str
    samples: list = field(default_factory=list)
    trend: Optional[float] = None

    @property
    def max_ratio(self) -> float:
        return max((s.ratio for s in self.samples), default=0.0)

    def add(self, params: dict, lhs: float, rhs: float):
        self.samples.append(EstimateSample(dict(params), float(lhs), float(rhs)))


# -- adversarial sampler -----------------------------------------------------

SAMPLER_KINDS = ("near_char_0", "near_char_1", "near_char_2", "white")


def draw_colored_field(
    grid: FrequencyGrid,
    rng: np.random.Generator,
    zeta: Optional[Zeta] = None,
    kind: str = "white",
) -> Field:
    """Random spectral field, band-limited to the 2/3 cube.

    near_char_alpha kinds use the density
        max(|p|, cell floor)^{-1/2} * <xi>^{-alpha},
    concentrating mass near the characteristic set where the estimates
    are tight; "white" is flat noise.
    """
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if kind != "white":
        if zeta is None:
            raise ValueError("near-characteristic sampling needs a zeta")
        alpha = float(kind.rsplit("_", 1)[1])
        pabs = lattice_symbol(zeta, grid).pabs
        dens = np.maximum(pabs, cell_floor(grid, zeta.s)) ** (-0.5)
        dens = dens * (1.0 + grid.xi_sq) ** (-alpha / 2.0)
        coef = coef * dens
    coef = coef * grid.dealias_mask
    return spectral_field(grid, coef)


# -- Schur-type kernel bound -------------------------------------------------


@dataclass(frozen=True)
class SchurBound:
    value: float
    operator_norm: float
    phi_l1: float


def _difference_kernel(grid: FrequencyGrid, phi) -> np.ndarray:
    """phi sampled on the (2n-1)^d difference lattice, ascending order."""
    n = grid.n
    diff_axis = grid.freq_step * np.arange(-(n - 1), n)
    grids = np.meshgrid(*([diff_axis] * grid.d), indexing="ij")
    pts = np.stack(grids, axis=-1)
    return np.asarray(phi(pts), dtype=complex)


def schur_bound(phi, v, w, grid: FrequencyGrid, seed: int = 0, power_iters: int = 60) -> SchurBound:
    """Kernel bound for the convolution f -> phi * f from L2_v to L2_w.

    With J(xi, eta) = |phi(xi - eta)| w(xi) / v(eta), returns

        value = ||phi||_{L1}^{1/2} * min( sup_xi (int J deta)^{1/2},
                                          sup_eta (int J dxi)^{1/2} )

    (lattice quadrature with the frequency-cell measure; for v = w = 1
    this collapses to ||phi||_{L1}).  A directly estimated operator norm
    via seeded power iteration is returned too and verified to sit
    below value * 1.05.

    Every lattice convolution is a circulant one of size N = 2n per
    axis: the difference index m of the kernel goes to slot m mod N,
    and the input is zero-padded from n to N.  The slots of
    |m| <= n - 1 are distinct, so the first n outputs per axis equal the
    linear convolution exactly.  The kernel and its modulus are
    transformed once; adjoints and correlations use their conjugates.

    power_iters is a fixed step count, with two seeded restarts.  At
    v = w = 1 the iteration does not settle to 1e-13 relative within 60
    steps (at n = 16 it gives 5.43016 at seed 0 and 5.43063 at seed 5),
    so a convergence stop would not end it sooner.
    """
    axis = np.sort(grid.xi_axis)
    grids = np.meshgrid(*([axis] * grid.d), indexing="ij")
    pts = np.stack(grids, axis=-1)
    v_arr = np.asarray(v(pts), dtype=float)
    w_arr = np.asarray(w(pts), dtype=float)
    if np.any(v_arr <= 0) or np.any(w_arr <= 0):
        raise ValueError("weights must be strictly positive on the lattice")

    kern = _difference_kernel(grid, phi)
    cell = grid.freq_step ** grid.d
    phi_l1 = float(np.abs(kern).sum() * cell)

    # circulant embedding: a zero slot for m = -n in front, then m -> m mod 2n
    circ = np.fft.ifftshift(np.pad(kern, [(1, 0)] * grid.d))
    kern_hat = np.fft.fftn(circ)
    abs_hat = np.fft.fftn(np.abs(circ))
    full = (2 * grid.n,) * grid.d
    axes = tuple(range(grid.d))
    crop = (slice(0, grid.n),) * grid.d

    def convolve(kernel_hat, x):
        return np.fft.ifftn(kernel_hat * np.fft.fftn(x, s=full, axes=axes), axes=axes)[crop]

    # int J(xi, .) deta = w(xi) * (|phi| conv 1/v)(xi); adjoint likewise
    conv_inv_v = convolve(abs_hat, 1.0 / v_arr).real
    sup_xi = float(np.max(w_arr * conv_inv_v) * cell)
    conv_w = convolve(np.conj(abs_hat), w_arr).real
    sup_eta = float(np.max(conv_w / v_arr) * cell)
    value = float(np.sqrt(phi_l1) * min(np.sqrt(sup_xi), np.sqrt(sup_eta)))

    # power iteration on S*S with S = sqrt(w) conv_phi (1/sqrt(v))
    rng = np.random.default_rng(seed)
    sqrt_w, sqrt_v = np.sqrt(w_arr), np.sqrt(v_arr)
    kern_hat_adj = np.conj(kern_hat)

    def s_apply(x):
        return sqrt_w * convolve(kern_hat, x / sqrt_v) * cell

    def s_adjoint(y):
        return convolve(kern_hat_adj, y * sqrt_w) * cell / sqrt_v

    op_norm = 0.0
    for _ in range(2):
        x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        x /= np.linalg.norm(x)
        est = 0.0
        for _ in range(power_iters):
            y = s_adjoint(s_apply(x))
            norm = np.linalg.norm(y)
            if norm == 0.0:
                break
            est = np.sqrt(norm)
            x = y / norm
        op_norm = max(op_norm, float(est))
    if op_norm > value * 1.05:
        raise ValueError(
            f"power-iteration norm {op_norm:.6g} exceeds kernel bound {value:.6g}"
        )
    return SchurBound(value=value, operator_norm=op_norm, phi_l1=phi_l1)


# -- localization ratios -----------------------------------------------------

LOCALIZATION_IDS = (
    "cutoff_neg_half",
    "cutoff_pos_half",
    "cutoff_l2",
    "cutoff_high_grad",
    "cutoff_high_l2",
)


def localization_ratios(
    u_samples: int,
    zeta: Zeta,
    phi_B: CutoffField,
    seed: int,
    dealias: bool = True,
) -> list[EstimateReport]:
    """Empirical constants of the five cutoff-localization estimates.

    Samples cycle through the near-characteristic densities (alpha in
    {0, 1, 2}) and white noise.  Norm clamping floors at the cell scale
    with the "drop" policy for the lattice-exact zeros.
    """
    grid = phi_B.field.grid
    s = zeta.s
    eps_cell = cell_floor(grid, s) / s  # relative floor, units of s
    rng = np.random.default_rng(seed)
    reports = {eid: EstimateReport(eid) for eid in LOCALIZATION_IDS}
    for i in range(u_samples):
        kind = SAMPLER_KINDS[i % len(SAMPLER_KINDS)]
        u = draw_colored_field(grid, rng, zeta, kind)
        u_b = multiply(phi_B.field, u, dealias=dealias)
        params = {"sample": i, "kind": kind}

        rhs_dot_half = xdot_norm(u, zeta, 0.5, eps_cell, HARNESS_CLAMP_POLICY)
        reports["cutoff_neg_half"].add(
            params,
            xdot_norm(u_b, zeta, -0.5, eps_cell, HARNESS_CLAMP_POLICY),
            x_norm(u, zeta, -0.5),
        )
        reports["cutoff_pos_half"].add(
            params, x_norm(u_b, zeta, 0.5), rhs_dot_half
        )
        reports["cutoff_l2"].add(
            params, l2_norm(u_b), rhs_dot_half / np.sqrt(s)
        )
        high = project(u_b, zeta, "high")
        grad_high = np.sqrt(
            sum(l2_norm(gj) ** 2 for gj in spectral_gradient(high))
        )
        reports["cutoff_high_grad"].add(params, grad_high, rhs_dot_half)
        reports["cutoff_high_l2"].add(params, l2_norm(high), rhs_dot_half / s)
    return [reports[eid] for eid in LOCALIZATION_IDS]


def bilinear_ratio(
    f: Field,
    zeta_pair: ZetaPair,
    u: Field,
    v: Field,
    phi_B: CutoffField,
    dealias: bool = True,
) -> float:
    """Empirical constant  s |int f u_B v_B| / (||f||_inf ||u|| ||v||)
    with the homogeneous 1/2-norms of u, v at the two zetas."""
    z1, z2 = zeta_pair.zeta1, zeta_pair.zeta2
    if abs(z1.magnitude - z2.magnitude) > 1e-9 * z1.magnitude:
        raise InfeasibleGeometryError("paired zetas must share |zeta|")
    grid = f.grid
    s = zeta_pair.s
    eps_cell = cell_floor(grid, s) / s
    u_b = multiply(phi_B.field, u, dealias=dealias)
    v_b = multiply(phi_B.field, v, dealias=dealias)
    prod = to_physical(f).values * to_physical(u_b).values * to_physical(v_b).values
    lhs = abs(complex(prod.sum() * grid.measure))
    denom = (
        sup_norm(f)
        * xdot_norm(u, z1, 0.5, eps_cell, HARNESS_CLAMP_POLICY)
        * xdot_norm(v, z2, 0.5, eps_cell, HARNESS_CLAMP_POLICY)
    )
    if denom == 0.0:
        return 0.0
    return float(lhs * s / denom)


# -- singular integral over the characteristic set ---------------------------


def singbound_quadrature(
    zeta: Zeta,
    eta,
    M: int,
    grid: FrequencyGrid,
    dist_floor: Optional[float] = None,
) -> float:
    """Lattice quadrature of  <xi - eta>^{-M} / dist(xi, Sigma)  with the
    distance floored at the frequency-cell scale (default dxi).  The
    floored distance is computed once per (zeta, floor) and held by the
    zeta's LatticeSymbol."""
    if M < grid.d + 2:
        raise ValueError(f"decay order M must be >= d + 2 = {grid.d + 2}")
    eta = np.asarray(eta, dtype=float)
    floor = grid.freq_step if dist_floor is None else float(dist_floor)
    dist = lattice_symbol(zeta, grid).derived(
        ("char_distance", floor), lambda: np.maximum(char_distance_lattice(zeta, grid), floor)
    )
    shift_sq = np.zeros(grid.shape)
    for j in range(grid.d):
        shift_sq = shift_sq + (grid._along(j, grid.xi_axis) - eta[j]) ** 2
    bracket = (1.0 + shift_sq) ** (-M / 2.0)
    return float(np.sum(bracket / dist) * grid.freq_step ** grid.d)


# -- operator decay of the bilinear form -------------------------------------


def mq_operator_ratio(
    cond: Conductivity,
    zeta_pair: ZetaPair,
    trials: int,
    seed: int,
    s_values=(8.0, 16.0, 32.0, 64.0),
    dealias: bool = True,
    split_check_tol: Optional[float] = None,
    mode: str = "sample",
) -> EstimateReport:
    """Size of the bilinear form over normalized u, v, swept over s (the
    pair's k and frame are kept fixed).  trend is the fitted exponent of
    the per-s value against s.

    mode="sample": max of |<m_q u, v>| over seeded adversarial trials.
    mode="power":  direct operator-norm estimate by alternating
    maximization over the normalized slots (strictly more adversarial
    than sampling; `trials` then counts restarts).

    split_check_tol, when set (sample mode), also evaluates the
    Leibniz-split form per trial and records the worst relative
    disagreement (aliasing-floor diagnostics; tight agreement needs
    well-resolved conductivities).
    """
    grid = cond.grid
    k, eta1, eta2 = zeta_pair.k, zeta_pair.eta1, zeta_pair.eta2
    rng = np.random.default_rng(seed)
    report = EstimateReport("mq_decay")
    per_s_max = []
    worst_split = 0.0
    for s in s_values:
        pair = make_zeta_pair(k, float(s), eta1, eta2)
        eps_cell = cell_floor(grid, pair.s) / pair.s
        best = 0.0
        if mode == "power":
            best = _mq_power_norm(cond, pair, restarts=max(1, trials // 8), rng=rng)
            report.add({"s": float(s), "mode": "power"}, best, 1.0)
        elif mode == "sample":
            for t in range(trials):
                kind = SAMPLER_KINDS[t % len(SAMPLER_KINDS)]
                u = draw_colored_field(grid, rng, pair.zeta1, kind)
                v = draw_colored_field(grid, rng, pair.zeta2, kind)
                nu = xdot_norm(u, pair.zeta1, 0.5, eps_cell, HARNESS_CLAMP_POLICY)
                nv = xdot_norm(v, pair.zeta2, 0.5, eps_cell, HARNESS_CLAMP_POLICY)
                if nu == 0.0 or nv == 0.0:
                    continue
                u = u * (1.0 / nu)
                v = v * (1.0 / nv)
                up, vp = to_physical(u), to_physical(v)
                val = abs(mq_bilinear(up, vp, cond, dealias=dealias))
                if split_check_tol is not None:
                    other = abs(mq_bilinear_split(up, vp, cond, dealias=dealias))
                    scale = max(val, other, 1e-300)
                    worst_split = max(worst_split, abs(val - other) / scale)
                report.add({"s": float(s), "trial": t, "kind": kind}, val, 1.0)
                best = max(best, val)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        per_s_max.append(best)
    logs = np.log(np.asarray(s_values, dtype=float))
    vals = np.asarray(per_s_max)
    if np.all(vals > 0) and len(vals) >= 2:
        report.trend = float(np.polyfit(logs, np.log(vals), 1)[0])
    if split_check_tol is not None:
        report.samples.append(
            EstimateSample({"check": "split_disagreement"}, worst_split, split_check_tol)
        )
    return report


def _mq_power_norm(cond: Conductivity, pair: ZetaPair, restarts: int, rng) -> float:
    """Top singular value of the bilinear form between the two weighted
    slots (dealias band, cell-floored weights, exact zeros dropped).

    The kernel is q: on the lattice the duality form of mq_bilinear is
    exactly sum q u v h^d, so both modes of mq_operator_ratio estimate
    the same operator."""
    grid = cond.grid
    kernel = potential_q(cond).values.real
    axes = tuple(range(grid.d))
    weights, keeps = [], []
    for z in (pair.zeta1, pair.zeta2):
        pabs = lattice_symbol(z, grid).pabs
        weights.append(np.sqrt(np.maximum(pabs, cell_floor(grid, z.s))))
        keeps.append(grid.dealias_mask & ~(pabs < 1e-6 * z.s))

    def normalize(c, w, keep):
        c = np.where(keep, c, 0)
        nrm = np.sqrt(np.sum(np.abs(w * c) ** 2) * grid.measure)
        return c / nrm if nrm > 0 else c

    def reverse(a):
        return np.roll(a[tuple(slice(None, None, -1) for _ in axes)], 1, axis=axes)

    best = 0.0
    for _ in range(restarts):
        u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u = normalize(u, weights[0], keeps[0])
        val = 0.0
        for _ in range(25):
            up = np.fft.ifftn(u, norm="ortho")
            phi = np.fft.fftn(kernel * up, norm="ortho")
            v = normalize(np.conj(reverse(phi)) / weights[1] ** 2, weights[1], keeps[1])
            vp = np.fft.ifftn(v, norm="ortho")
            val = abs(np.sum(kernel * up * vp) * grid.measure)
            phi2 = np.fft.fftn(kernel * vp, norm="ortho")
            u = normalize(np.conj(reverse(phi2)) / weights[0] ** 2, weights[0], keeps[0])
        best = max(best, val)
    return best


# -- averaged decay over (s, eta1) bands -------------------------------------


def h_theta_norm(f: Field, theta: float) -> float:
    """Sobolev norm || <xi>^theta fhat ||_{L2} (spectral, h^d measure)."""
    grid = f.grid
    w = (1.0 + grid.xi_sq) ** theta
    fs = to_spectral(f)
    return float(np.sqrt(np.sum(w * np.abs(fs.values) ** 2) * grid.measure))


def averaged_decay(
    f: Field,
    k,
    bands,
    quad_s: int,
    quad_eta: int,
    phi_B: CutoffField,
    dealias: bool = True,
) -> EstimateReport:
    """Band quadrature  A(lam) = int_{S^1} int_lam^{2 lam}
    sum_i || phi_B grad f ||^2  ds d(eta1)  in the homogeneous -1/2-norm
    at both paired zetas (trapezoid in s, uniform in angle), with |p|
    floored at the cell scale.

    The density sum_j |(phi_B d_j f)^hat|^2 does not depend on zeta; with
    dealias=True each product spectrum is cut by the 2/3 rule, so the
    density vanishes outside that cube.  A band's (s, angle) nodes go
    through one inverse_symbol_sums call, and A is the quadrature
    weights dotted with its sums.  f is transformed once.

    Per band the report carries A, A/lam, and A normalized against
    lam^{1-theta} ||f||_{H^theta}^2 for theta in {0, 1/2, 1}.
    """
    if quad_s < 8 or quad_eta < 8:
        raise ValueError("quadrature resolutions must be >= 8")
    bands = [float(b) for b in bands]
    if not bands or any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
        raise InfeasibleGeometryError("bands must be a nonempty increasing list")
    k = np.asarray(k, dtype=float)
    if np.linalg.norm(k) >= 2.0 * min(bands):
        raise InfeasibleGeometryError("k infeasible for the smallest band")
    grid = f.grid
    grid.mode_index(k)

    # the (s, eta)-independent spectral density sum_j |(phi_B d_j f)^hat|^2
    fs = to_spectral(f)
    dens = np.zeros(grid.shape)
    for gj in spectral_gradient(fs):
        dens += np.abs(to_spectral(multiply(phi_B.field, gj)).values) ** 2
    if dealias:
        dens *= grid.dealias_mask

    plane = orthonormal_plane(k)
    h_norms = {theta: h_theta_norm(fs, theta) for theta in (0.0, 0.5, 1.0)}
    report = EstimateReport("avg_decay")
    a_over_lam = []
    for lam in bands:
        s_nodes = np.linspace(lam, 2.0 * lam, quad_s)
        s_weights = np.full(quad_s, lam / (quad_s - 1))
        s_weights[0] *= 0.5
        s_weights[-1] *= 0.5
        angles = 2.0 * np.pi * np.arange(quad_eta) / quad_eta
        a_weight = 2.0 * np.pi / quad_eta
        zetas, weights = [], []
        for s, ws in zip(s_nodes, s_weights):
            for theta in angles:
                pair = zeta_pair_from_angle(k, float(s), float(theta), plane)
                zetas += [pair.zeta1, pair.zeta2]
                weights += [ws * a_weight] * 2
        # the floor cell_floor(grid, s) is clamp_eps * s with clamp_eps = dxi / 2
        sums = inverse_symbol_sums(dens, zetas, grid, cell_floor(grid, 1.0), "floor")[0]
        total = float(np.dot(weights, sums) * grid.measure)
        row = {
            "lambda": lam,
            "A": total,
            "A_over_lambda": total / lam,
        }
        for theta, hn in h_norms.items():
            denom = lam ** (1.0 - theta) * hn ** 2
            row[f"normalized_theta_{theta:g}"] = total / denom if denom > 0 else 0.0
        report.add(row, total / lam, 1.0)
        a_over_lam.append(total / lam)
    vals = np.asarray(a_over_lam)
    if np.all(vals > 0) and len(vals) >= 2:
        report.trend = float(np.polyfit(np.log(bands), np.log(vals), 1)[0])
    return report
