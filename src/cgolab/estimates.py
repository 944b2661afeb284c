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
  mq_decay          operator norm of <m_q u, v> on the weighted slots, per s
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
    complete_spectrum,
    l2_norm,
    multiply,
    real_forward,
    real_inverse,
    spectral_field,
    spectral_gradient,
    sup_norm,
    to_physical,
    weighted_l2,
)
from .potential import Conductivity, CutoffField, potential_q
from .spaces import pair_inverse_symbol_sums, project, x_norm, xdot_norm
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


# -- top singular value ------------------------------------------------------

LANCZOS_RTOL = 1e-12
LANCZOS_MAX_STEPS = 200


def top_singular_value(apply, adjoint, x0: np.ndarray) -> float:
    """Largest singular value of the linear map `apply` (with adjoint
    `adjoint`), by Lanczos on adjoint(apply(.)) started from x0.

    The iteration stops when the top Ritz value theta changes by at most
    LANCZOS_RTOL relative, or when the next Lanczos coefficient beta
    vanishes to that tolerance (the Krylov space is invariant, and theta
    is exact), or after LANCZOS_MAX_STEPS steps.  sqrt(theta) is
    returned; it is a lower bound on the true value up to rounding.

    Only the last two Lanczos vectors are kept.  In floating point the
    vectors lose orthogonality only along Ritz vectors that have
    converged (Paige), so the top Ritz value is not disturbed before the
    stop; reorthogonalizing against a stored basis gave the same values
    and step counts on every operator here, at k vectors of memory.
    """
    shape = x0.shape
    q_prev, q = 0.0, x0.ravel() / np.linalg.norm(x0)
    alphas, betas = [], []
    beta = theta = 0.0
    for _ in range(LANCZOS_MAX_STEPS):
        w = np.array(adjoint(apply(q.reshape(shape))), dtype=complex).ravel()
        alphas.append(np.vdot(q, w).real)
        w -= alphas[-1] * q + beta * q_prev
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        prev, theta = theta, float(np.linalg.eigvalsh(tri)[-1])
        if beta <= LANCZOS_RTOL * theta or abs(theta - prev) <= LANCZOS_RTOL * theta:
            break
        q_prev, q = q, w / beta
        betas.append(beta)
    return float(np.sqrt(max(theta, 0.0)))


# -- Schur-type kernel bound -------------------------------------------------


@dataclass(frozen=True)
class SchurBound:
    value: float
    operator_norm: float
    phi_l1: float


def _difference_kernel(grid: FrequencyGrid, phi) -> np.ndarray:
    """phi sampled on the (2n-1)^d difference lattice, ascending order.
    phi is called on one slab of the first axis at a time, so no
    (2n-1)^d x d array of points is formed."""
    d = grid.d
    diff_axis = grid.freq_step * np.arange(-(grid.n - 1), grid.n)
    slab = np.empty((diff_axis.size,) * (d - 1) + (d,))
    slab[..., 1:] = np.stack(np.meshgrid(*([diff_axis] * (d - 1)), indexing="ij"), axis=-1)
    out = np.empty((diff_axis.size,) * d, dtype=complex)
    for i, first in enumerate(diff_axis):
        slab[..., 0] = first
        out[i] = phi(slab)
    return out


def schur_bound(phi, v, w, grid: FrequencyGrid, seed: int = 0) -> SchurBound:
    """Kernel bound for the convolution f -> phi * f from L2_v to L2_w.

    With J(xi, eta) = |phi(xi - eta)| w(xi) / v(eta), returns

        value = ||phi||_{L1}^{1/2} * min( sup_xi (int J deta)^{1/2},
                                          sup_eta (int J dxi)^{1/2} )

    (lattice quadrature with the frequency-cell measure; for v = w = 1
    this collapses to ||phi||_{L1}).  The operator norm is estimated too,
    by top_singular_value from a seeded start: it stops once the top
    Ritz value moves by at most LANCZOS_RTOL relative, is a lower bound
    on the true norm up to rounding, and is verified to sit below
    value * 1.05.

    Every lattice convolution is a circulant one of size N = 2n per
    axis: the difference index m of the kernel goes to slot m mod N,
    and the input is zero-padded from n to N.  The slots of
    |m| <= n - 1 are distinct, so the first n outputs per axis equal the
    linear convolution exactly.  The kernel and its modulus are
    transformed once; adjoints and correlations use their conjugates.
    The input is padded and transformed one axis at a time, and each
    axis is cropped right after its inverse, so no transform runs over
    a line that is all zeros or all discarded.
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

    # circulant embedding: m -> slot m mod 2n, and slot n (m = -n) stays
    # zero; the kernel and its modulus are then transformed in place
    n, axes = grid.n, tuple(range(grid.d))
    kern_hat = np.zeros((2 * n,) * grid.d, dtype=complex)
    kern_hat[np.ix_(*[np.arange(1 - n, n) % (2 * n)] * grid.d)] = kern
    del kern
    abs_hat = np.abs(kern_hat).astype(complex)
    np.fft.fftn(abs_hat, out=abs_hat)
    np.fft.fftn(kern_hat, out=kern_hat)

    def convolve(kernel_hat, x, adjoint=False):
        for ax in axes:
            x = np.fft.fftn(x, s=(2 * n,), axes=(ax,))
        # in place; the adjoint uses conj(K) X = conj(K conj(X))
        if adjoint:
            np.conj(x, out=x)
        x *= kernel_hat
        if adjoint:
            np.conj(x, out=x)
        for ax in axes:
            x = np.fft.ifftn(x, axes=(ax,), out=x)[(slice(None),) * ax + (slice(0, n),)]
        return x

    # int J(xi, .) deta = w(xi) * (|phi| conv 1/v)(xi); adjoint likewise
    sup_xi = float(np.max(w_arr * convolve(abs_hat, 1.0 / v_arr).real) * cell)
    sup_eta = float(np.max(convolve(abs_hat, w_arr, adjoint=True).real / v_arr) * cell)
    value = float(np.sqrt(phi_l1) * min(np.sqrt(sup_xi), np.sqrt(sup_eta)))
    del abs_hat

    # S = sqrt(w) conv_phi (1/sqrt(v)) and its adjoint
    sqrt_w, sqrt_v = np.sqrt(w_arr), np.sqrt(v_arr)

    def s_apply(x):
        return sqrt_w * convolve(kern_hat, x / sqrt_v) * cell

    def s_adjoint(y):
        return convolve(kern_hat, y * sqrt_w, adjoint=True) * cell / sqrt_v

    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    op_norm = top_singular_value(s_apply, s_adjoint, x0)
    if op_norm > value * 1.05:
        raise ValueError(
            f"estimated operator norm {op_norm:.6g} exceeds kernel bound {value:.6g}"
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
    inverse floored distance is computed once per (zeta, floor) and held
    by the zeta's LatticeSymbol; <xi - eta>^M is a product of M // 2
    factors 1 + |xi - eta|^2 (times one square root for odd M)."""
    if M < grid.d + 2:
        raise ValueError(f"decay order M must be >= d + 2 = {grid.d + 2}")
    eta = np.asarray(eta, dtype=float)
    floor = grid.freq_step if dist_floor is None else float(dist_floor)
    inv_dist = lattice_symbol(zeta, grid).derived(
        ("inv_char_distance", floor),
        lambda: 1.0 / np.maximum(char_distance_lattice(zeta, grid), floor),
    )
    base = 1.0
    for j in range(grid.d):
        base = base + grid._along(j, (grid.xi_axis - eta[j]) ** 2)
    bracket = base.copy()
    for _ in range(M // 2 - 1):
        bracket *= base
    if M % 2:
        bracket *= np.sqrt(base, out=base)
    np.reciprocal(bracket, out=bracket)
    return float(bracket.reshape(-1) @ inv_dist.reshape(-1) * grid.freq_step ** grid.d)


# -- operator decay of the bilinear form -------------------------------------


def mq_operator_ratio(
    cond: Conductivity,
    zeta_pair: ZetaPair,
    seed: int,
    s_values=(8.0, 16.0, 32.0, 64.0),
    dealias: bool = True,
) -> EstimateReport:
    """Operator norm of the bilinear form <m_q u, v> between the two
    weighted slots, one row per s (the pair's k and frame are kept
    fixed).  trend is the fitted exponent of the norm against s."""
    grid = cond.grid
    k, eta1, eta2 = zeta_pair.k, zeta_pair.eta1, zeta_pair.eta2
    rng = np.random.default_rng(seed)
    report = EstimateReport("mq_decay")
    norms = []
    for s in s_values:
        pair = make_zeta_pair(k, float(s), eta1, eta2)
        norms.append(_mq_operator_norm(cond, pair, rng, dealias))
        report.add({"s": float(s)}, norms[-1], 1.0)
    logs = np.log(np.asarray(s_values, dtype=float))
    vals = np.asarray(norms)
    if np.all(vals > 0) and len(vals) >= 2:
        report.trend = float(np.polyfit(logs, np.log(vals), 1)[0])
    return report


def _mq_operator_norm(cond: Conductivity, pair: ZetaPair, rng, dealias: bool = True) -> float:
    """Top singular value of the bilinear form between the two weighted
    slots (cell-floored weights, exact zeros dropped, and the 2/3 band
    when dealiased).

    The kernel is q: on the lattice the duality form
    -sum grad(g) . grad(g^{-1} u v) h^d is exactly sum q u v h^d (see
    potential).  With a = sqrt(|p_1|) u and b = sqrt(|p_2|) v in
    unitary spectral coordinates the form is b . M a, where
    M a = ifft(q ifft(a / sqrt|p_1|)) / sqrt|p_2| (the unitary DFT is
    symmetric), and its norm is that of M."""
    grid = cond.grid
    kernel = potential_q(cond).values.real
    band = grid.dealias_mask if dealias else np.ones(grid.shape, dtype=bool)
    scales = []
    for z in (pair.zeta1, pair.zeta2):
        pabs = lattice_symbol(z, grid).pabs
        keep = band & ~(pabs < 1e-6 * z.s)
        scales.append(np.where(keep, 1.0 / np.sqrt(np.maximum(pabs, cell_floor(grid, z.s))), 0.0))
    inv_w1, inv_w2 = scales

    def apply(a):
        return inv_w2 * np.fft.ifftn(kernel * np.fft.ifftn(inv_w1 * a, norm="ortho"), norm="ortho")

    def adjoint(b):
        return inv_w1 * np.fft.fftn(kernel * np.fft.fftn(inv_w2 * b, norm="ortho"), norm="ortho")

    x0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return top_singular_value(apply, adjoint, x0)


# -- averaged decay over (s, eta1) bands -------------------------------------


def h_theta_norm(f: Field, theta: float) -> float:
    """Sobolev norm || <xi>^theta fhat ||_{L2} (spectral, h^d measure)."""
    return weighted_l2(f, (1.0 + f.grid.xi_sq) ** theta)


def _decay_density(
    grid: FrequencyGrid, f_half: np.ndarray, phi_B: CutoffField, dealias: bool
) -> np.ndarray:
    """The (s, eta)-independent density sum_j |(phi_B d_j f)^hat|^2 on the
    full lattice, from the half spectrum of a real f.  Each d_j f and its
    product with phi_B is real, so one derivative at a time goes back and
    forth through the real pair; the even density is completed once."""
    phi = phi_B.field.values.real
    half_dens = np.zeros(f_half.shape)
    for mult in grid.half_deriv_multipliers:
        prod = real_inverse(grid, f_half * mult)
        prod *= phi
        half_dens += np.abs(real_forward(prod)) ** 2
    if dealias:
        half_dens *= grid.dealias_mask[..., : grid.n // 2 + 1]
    return complete_spectrum(grid, half_dens)


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

    f must be real (ValueError otherwise).  The density
    sum_j |(phi_B d_j f)^hat|^2 does not depend on zeta and is built one
    derivative at a time on the half spectrum (_decay_density); with
    dealias=True each product spectrum is cut by the 2/3 rule, so the
    density vanishes outside that cube.  A band's (s, angle) pairs go
    through one pair_inverse_symbol_sums call, which evaluates only
    zeta1's symbol, and A is the quadrature weights dotted with its sums
    at both zetas.  f is transformed once.

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

    fp = to_physical(f).values
    if np.max(np.abs(fp.imag)) > 1e-13 * max(1.0, np.max(np.abs(fp.real))):
        raise ValueError("averaged_decay needs a real field f")
    f_half = real_forward(fp.real)
    dens = _decay_density(grid, f_half, phi_B, dealias)
    fs = spectral_field(grid, complete_spectrum(grid, f_half))

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
        pairs, weights = [], []
        for s, ws in zip(s_nodes, s_weights):
            for theta in angles:
                pairs.append(zeta_pair_from_angle(k, float(s), float(theta), plane))
                weights += [ws * a_weight] * 2
        # the floor cell_floor(grid, s) is clamp_eps * s with clamp_eps = dxi / 2
        sums = pair_inverse_symbol_sums(dens, pairs, grid, cell_floor(grid, 1.0), "floor")[0]
        total = float(np.dot(weights, sums.reshape(-1)) * grid.measure)
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
