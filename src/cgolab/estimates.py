"""Numerical verification harness for the package's inequalities.

"Bounded by an implicit constant" claims are tested as empirical
constant stability across parameter sweeps, never as absolute bounds;
the only falsifiable lattice content of a uniform estimate is its
uniformity.  All samplers are seeded and deterministic.

Each cutoff-localization estimate is one block of sample records
(params, lhs, rhs, ratio) and its max_ratio; its identifier is stable
across the CSV/JSON schema:

  cutoff_neg_half   ||phi_B u||  homogeneous -1/2  vs inhomogeneous -1/2
  cutoff_pos_half   ||phi_B u||  inhomogeneous 1/2 vs homogeneous 1/2
  cutoff_l2         ||phi_B u||_L2              vs s^{-1/2} homogeneous 1/2
  cutoff_high_grad  ||grad(H phi_B u)||_L2      vs homogeneous 1/2
  cutoff_high_l2    ||H phi_B u||_L2            vs s^{-1}  homogeneous 1/2

The other estimates have records of their own:

  mq_decay          operator norm of <m_q u, v> on the weighted slots, one
                    row per s, and its fitted exponent in s
  bilinear_linf     s |int u_B v_B| / (||u|| ||v||), one number
  schur             Schur kernel bound and operator norm of a convolution
  singbound         lattice integral of <xi-eta>^{-M} / dist(xi, Sigma)
  avg_decay         band quadrature of || phi_B grad f ||^2 (hom. -1/2)

The symbol magnitude is cut at the frequency-cell scale s*dxi/2 (the
lattice surrogate of averaging |p| over one cell).  The homogeneous
norms of the cutoff and bilinear estimates drop the modes under that
floor; the adversarial sampler, mq_decay and avg_decay floor |p| there.
Each norm is one weighted spectral sum (sum w |uhat|^2 h^d)^{1/2}, the
weighted L2 norm by Parseval, with a weight that _norm_weights builds
once per call from one evaluation of |p|.  The draws live on the 2/3
cube, so each product phi_B u takes two pruned transforms (_localize).

singbound takes all etas of a zeta in one slab pass; avg_decay's Sobolev
norms use the half spectrum, and its density transforms each product
forward only as far as the 2/3 cube it keeps (real_forward with cube).
"""

from __future__ import annotations

from functools import reduce
from typing import Optional

import numpy as np

from .errors import InfeasibleGeometryError
from .grid import Field, FrequencyGrid, cube_transform, hermitian_planes, real_forward, real_inverse
from .potential import Conductivity, potential_q
from .spaces import DEFAULT_CLAMP_EPS, SLAB_POINTS, clamp_rule, pair_inverse_symbol_sums, smooth_bridge
from .symbol import Zeta, ZetaPair, char_distance, check_band, lattice_symbol, make_zeta_pair, orthonormal_plane, zeta_pair_from_angle


def cell_floor(grid: FrequencyGrid, s: float) -> float:
    """Symbol-magnitude floor at the frequency-cell scale, s * dxi / 2."""
    return 0.5 * s * grid.freq_step


def _ratio(lhs: float, rhs: float) -> float:
    """lhs / rhs, with 0/0 = 0 and lhs/0 = inf."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else float("inf")
    return lhs / rhs


def _trend(x, y) -> Optional[float]:
    """The fitted exponent of y against x (log-log least squares); None for
    one point or a nonpositive y."""
    y = np.asarray(y, dtype=float)
    if len(y) < 2 or not np.all(y > 0):
        return None
    return float(np.polyfit(np.log(np.asarray(x, dtype=float)), np.log(y), 1)[0])


# -- adversarial sampler -----------------------------------------------------

SAMPLER_KINDS = ("near_char_0", "near_char_1", "near_char_2", "white")


def draw_colored_field(grid: FrequencyGrid, rng: np.random.Generator, zeta: Zeta, kind: str) -> np.ndarray:
    """Random spectrum on the full lattice (FFT order), zero off the 2/3 cube.

    near_char_alpha kinds use the density
        max(|p|, cell floor)^{-1/2} * <xi>^{-alpha},
    concentrating mass near the characteristic set where the estimates
    are tight; "white" is flat noise and does not read zeta.
    """
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if kind != "white":
        alpha = float(kind.rsplit("_", 1)[1])
        pabs = np.abs(lattice_symbol(zeta, [grid.xi_axis] * grid.d))
        dens = np.maximum(pabs, cell_floor(grid, zeta.s)) ** (-0.5)
        dens = dens * (1.0 + grid.xi_sq) ** (-alpha / 2.0)
        coef = coef * dens
    return coef * grid.dealias_mask


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


def schur_bound(phi, v, w, grid: FrequencyGrid, seed: int = 0) -> dict:
    """Kernel bound for the convolution f -> phi * f from L2_v to L2_w.

    With J(xi, eta) = |phi(xi - eta)| w(xi) / v(eta), returns

        value = ||phi||_{L1}^{1/2} * min( sup_xi (int J deta)^{1/2},
                                          sup_eta (int J dxi)^{1/2} )

    (lattice quadrature with the frequency-cell measure; for v = w = 1
    this collapses to ||phi||_{L1}), as {"value", "operator_norm"}.  The
    operator norm is estimated by top_singular_value from a seeded start:
    it stops once the top Ritz value moves by at most LANCZOS_RTOL
    relative, is a lower bound on the true norm up to rounding, and is
    verified to sit below value * 1.05.

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
    return {"value": value, "operator_norm": op_norm}


# -- localization ratios -----------------------------------------------------

LOCALIZATION_IDS = (
    "cutoff_neg_half",
    "cutoff_pos_half",
    "cutoff_l2",
    "cutoff_high_grad",
    "cutoff_high_l2",
)


def _norm_weights(zeta: Zeta, grid: FrequencyGrid) -> tuple:
    """The weights of the harness norms at zeta, all from one |p|: dicts
    over b = 1/2, -1/2 of the squared homogeneous weight |p|^{2b}, zero on
    the modes under the cell floor (they are dropped, not floored), and of
    the squared inhomogeneous weight (|zeta| + |p|)^{2b}; and the
    high-pass amplitude 1 - chi(|xi| / 8s), chi = smooth_bridge, which
    vanishes for |xi| <= 8s and is 1 for |xi| >= 16s."""
    s = zeta.s
    eps_cell = cell_floor(grid, s) / s  # relative floor, units of s
    pabs = np.abs(lattice_symbol(zeta, [grid.xi_axis] * grid.d))
    dropped = clamp_rule(pabs, eps_cell, s)
    hom, inh = {}, {}
    for b in (0.5, -0.5):
        w = np.where(dropped, 1.0, pabs) ** b
        w[dropped] = 0.0
        hom[b] = w * w
        w = (zeta.magnitude + pabs) ** b
        inh[b] = w * w
    return hom, inh, 1.0 - smooth_bridge(np.sqrt(grid.xi_sq) / (8.0 * s))


def _norm(grid: FrequencyGrid, spec: np.ndarray, weight=1.0) -> float:
    """(sum weight |spec|^2 h^d)^{1/2} over a unitary spectrum."""
    return float(np.sqrt(np.sum(weight * np.abs(spec) ** 2) * grid.measure))


def _localize(phi_B: Field, uhat: np.ndarray) -> np.ndarray:
    """The spectrum of phi_B u cut to the 2/3 cube, for the spectrum uhat
    of u (zero off the cube): a pruned inverse, the product with phi_B and
    a pruned forward (cube_transform), then the cube mask."""
    grid = phi_B.grid
    buf = cube_transform(grid, uhat.copy(), "inverse")
    buf *= phi_B.values
    cube_transform(grid, buf, "forward")
    buf *= grid.dealias_mask
    return buf


def localization_ratios(
    u_samples: int,
    zeta: Zeta,
    phi_B: Field,
    seed: int,
) -> list[dict]:
    """Empirical constants of the five cutoff-localization estimates, one
    block {estimate_id, max_ratio, samples} per LOCALIZATION_IDS entry, each
    sample {params, lhs, rhs, ratio}.

    Samples cycle through the near-characteristic densities (alpha in
    {0, 1, 2}) and white noise; each product phi_B u is cut to the 2/3
    cube.  The homogeneous norms drop the modes whose |p| lies under the
    cell floor (the lattice-exact zeros among them); the weights are
    built once per call (_norm_weights).  The gradient norm has the
    weight |xi|^2, which on the cube (no Nyquist row) is sum_j xi_j^2 of
    the Nyquist-zeroed derivative.
    """
    grid = phi_B.grid
    s = zeta.s
    hom, inh, high_pass = _norm_weights(zeta, grid)
    rng = np.random.default_rng(seed)
    samples = {eid: [] for eid in LOCALIZATION_IDS}
    for i in range(u_samples):
        kind = SAMPLER_KINDS[i % len(SAMPLER_KINDS)]
        uhat = draw_colored_field(grid, rng, zeta, kind)
        u_b = _localize(phi_B, uhat)
        high = u_b * high_pass
        rhs_dot_half = _norm(grid, uhat, hom[0.5])
        sides = {
            "cutoff_neg_half": (_norm(grid, u_b, hom[-0.5]), _norm(grid, uhat, inh[-0.5])),
            "cutoff_pos_half": (_norm(grid, u_b, inh[0.5]), rhs_dot_half),
            "cutoff_l2": (_norm(grid, u_b), rhs_dot_half / np.sqrt(s)),
            "cutoff_high_grad": (_norm(grid, high, grid.xi_sq), rhs_dot_half),
            "cutoff_high_l2": (_norm(grid, high), rhs_dot_half / s),
        }
        for eid, (lhs, rhs) in sides.items():
            lhs, rhs = float(lhs), float(rhs)
            samples[eid].append({"params": {"sample": i, "kind": kind},
                                 "lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)})
    return [
        {"estimate_id": eid, "max_ratio": max((x["ratio"] for x in samples[eid]), default=0.0),
         "samples": samples[eid]}
        for eid in LOCALIZATION_IDS
    ]


def bilinear_ratio(zeta_pair: ZetaPair, phi_B: Field, seed: int) -> float:
    """Empirical constant  s |int u_B v_B| / (||u|| ||v||)  of the bilinear
    L^inf estimate at f = 1, with the homogeneous 1/2-norms of u, v at the
    two zetas (the modes under the cell floor dropped, and u_B = phi_B u
    cut to the 2/3 cube, as in localization_ratios).  u and v are the
    near_char_1 draws of default_rng(seed), u at zeta1 and then v at zeta2.
    The integral is the spectral sum of uhat_B(m) vhat_B(-m) h^d (unitary
    DFT), which stays on the cube: it is closed under m -> -m."""
    z1, z2 = zeta_pair.zeta1, zeta_pair.zeta2
    if abs(z1.magnitude - z2.magnitude) > 1e-9 * z1.magnitude:
        raise InfeasibleGeometryError("paired zetas must share |zeta|")
    grid = phi_B.grid
    rng = np.random.default_rng(seed)
    uhat = draw_colored_field(grid, rng, z1, "near_char_1")
    vhat = draw_colored_field(grid, rng, z2, "near_char_1")
    neg = (-np.arange(grid.n)) % grid.n  # FFT-order index of -m
    mirrored = _localize(phi_B, vhat)[np.ix_(*[neg] * grid.d)]
    lhs = abs(complex(np.sum(_localize(phi_B, uhat) * mirrored) * grid.measure))
    denom = _norm(grid, uhat, _norm_weights(z1, grid)[0][0.5]) * _norm(grid, vhat, _norm_weights(z2, grid)[0][0.5])
    if denom == 0.0:
        return 0.0
    return float(lhs * zeta_pair.s / denom)


# -- singular integral over the characteristic set ---------------------------


def singbound_quadrature(
    zeta: Zeta,
    eta,
    M: int,
    grid: FrequencyGrid,
) -> np.ndarray:
    """Lattice quadrature of  <xi - eta>^{-M} / dist(xi, Sigma), one value
    per row of the (T, d) array eta, with dist floored at the
    frequency-cell scale dxi.

    One pass over axis-0 slabs of about SLAB_POINTS points in three reused
    buffers: per slab the inverse floored distance (char_distance) is dotted
    with each eta's <xi - eta>^{-M}, a product of M // 2 factors
    1 + |xi - eta|^2 (times one square root for odd M).  A value does not
    depend on the other rows; nothing is cached on the zeta.
    """
    if M < grid.d + 2:
        raise ValueError(f"decay order M must be >= d + 2 = {grid.d + 2}")
    etas = np.asarray(eta, dtype=float)
    if etas.ndim != 2 or etas.shape[1] != grid.d:
        raise ValueError(f"eta must be a (T, {grid.d}) array")
    x, plane = grid.xi_axis, grid.size // grid.n
    step = max(1, SLAB_POINTS // plane)
    # 1 + |xi - eta|^2 per eta: the axis-0 term, then those of the plane
    terms = [[1.0 + (x - e[0]) ** 2] + [(x - ej) ** 2 for ej in e[1:]] for e in etas]
    bufs = np.empty((3, step * plane))
    out = np.zeros(len(etas))
    for a in range(0, grid.n, step):
        b = min(a + step, grid.n)
        inv, base, bracket = (buf[: (b - a) * plane].reshape(b - a, plane) for buf in bufs)
        char_distance(zeta, [x[a:b]] + [x] * (grid.d - 1), inv, base)
        np.reciprocal(np.maximum(inv, grid.freq_step, out=inv), out=inv)
        for i, (axis_term, *others) in enumerate(terms):
            # the plane is rebuilt per slab, so memory does not grow with T
            np.add(axis_term[a:b, None], reduce(np.add.outer, others).reshape(-1), out=base)
            np.copyto(bracket, base)
            for _ in range(M // 2 - 1):
                bracket *= base
            if M % 2:
                bracket *= np.sqrt(base, out=base)
            out[i] += np.reciprocal(bracket, out=bracket).reshape(-1) @ inv.reshape(-1)
    return out * grid.freq_step ** grid.d


# -- operator decay of the bilinear form -------------------------------------


def mq_operator_ratio(
    cond: Conductivity,
    zeta_pair: ZetaPair,
    seed: int,
    s_values=(8.0, 16.0, 32.0, 64.0),
) -> tuple[list, Optional[float]]:
    """Operator norm of the bilinear form <m_q u, v> between the two
    weighted slots, one row {s, operator_norm} per s (the pair's k and
    frame are kept fixed), and the trend: the fitted exponent of the norm
    against s (None for one s or a nonpositive norm)."""
    k, eta1, eta2 = zeta_pair.k, zeta_pair.eta1, zeta_pair.eta2
    rng = np.random.default_rng(seed)
    rows = [
        {"s": float(s), "operator_norm": _mq_operator_norm(cond, make_zeta_pair(k, float(s), eta1, eta2), rng)}
        for s in s_values
    ]
    return rows, _trend(s_values, [row["operator_norm"] for row in rows])


def _mq_operator_norm(cond: Conductivity, pair: ZetaPair, rng) -> float:
    """Top singular value of the bilinear form between the two weighted
    slots (cell-floored weights, exact zeros dropped, on the 2/3 cube).

    The kernel is q: on the lattice the duality form
    -sum grad(g) . grad(g^{-1} u v) h^d is exactly sum q u v h^d (see
    potential).  With a = sqrt(|p_1|) u and b = sqrt(|p_2|) v in
    unitary spectral coordinates the form is b . M a, where
    M a = ifft(q ifft(a / sqrt|p_1|)) / sqrt|p_2| (the unitary DFT is
    symmetric), and its norm is that of M."""
    grid = cond.grid
    kernel = potential_q(cond).values
    scales = []
    for z in (pair.zeta1, pair.zeta2):
        pabs = np.abs(lattice_symbol(z, [grid.xi_axis] * grid.d))
        keep = grid.dealias_mask & ~clamp_rule(pabs, DEFAULT_CLAMP_EPS, z.s)
        scales.append(np.where(keep, 1.0 / np.sqrt(np.maximum(pabs, cell_floor(grid, z.s))), 0.0))
    inv_w1, inv_w2 = scales

    def apply(a):
        return inv_w2 * np.fft.ifftn(kernel * np.fft.ifftn(inv_w1 * a, norm="ortho"), norm="ortho")

    def adjoint(b):
        return inv_w1 * np.fft.fftn(kernel * np.fft.fftn(inv_w2 * b, norm="ortho"), norm="ortho")

    x0 = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return top_singular_value(apply, adjoint, x0)


# -- averaged decay over (s, eta1) bands -------------------------------------


def _decay_density(grid: FrequencyGrid, f_half: np.ndarray, phi_B: Field) -> np.ndarray:
    """The (s, eta)-independent density sum_j |(phi_B d_j f)^hat|^2 on the
    half lattice, cut to the 2/3 cube, from the half spectrum of a real f.
    Each d_j f and its product with phi_B is real, so one derivative at a
    time goes back through the real pair, and forward only as far as the
    cube (real_forward with cube); the density is summed on the cube's
    block of the half lattice and made exactly even (hermitian_planes)."""
    phi, cube = phi_B.values, grid.dealias_mask[..., : grid.n // 2 + 1]
    block = 0.0
    for mult in grid.half_deriv_multipliers:
        prod = real_inverse(grid, f_half * mult)
        prod *= phi
        block = block + np.abs(real_forward(prod, cube=True)[cube]) ** 2
    half_dens = np.zeros(f_half.shape)
    half_dens[cube] = block
    return hermitian_planes(grid, half_dens)


def averaged_decay(
    f: Field,
    k,
    bands,
    quad_s: int,
    quad_eta: int,
    phi_B: Field,
) -> tuple[list, Optional[float]]:
    """Band quadrature  A(lam) = int_{S^1} int_lam^{2 lam}
    sum_i || phi_B grad f ||^2  ds d(eta1)  in the homogeneous -1/2-norm
    at both paired zetas (trapezoid in s, uniform in angle), with |p|
    floored at the cell scale.

    The angles are theta_j = 2 pi j / quad_eta.  The pair at theta + pi
    is the pair at theta with zeta1 and zeta2 swapped, and A weighs both
    zetas equally, so for even quad_eta only theta_j < pi is built, at
    twice the angle weight; an odd quad_eta keeps every angle.

    f must be a real field (ValueError otherwise).  The density
    sum_j |(phi_B d_j f)^hat|^2 does not depend on zeta and is built one
    derivative at a time on the half spectrum (_decay_density); each
    product spectrum is cut by the 2/3 rule, so the density vanishes
    outside that cube.  A band's (s, angle) pairs go through one
    pair_inverse_symbol_sums call, which evaluates only zeta1's symbol,
    and A is the quadrature weights dotted with its sums at both zetas.
    f is transformed once, and its half spectrum is dropped before the
    bands.

    Returns one record per band, with lambda, A, A/lam, and A normalized
    against lam^{1-theta} ||f||_{H^theta}^2 for theta in {0, 1/2, 1}, and
    the trend: the fitted exponent of A/lam against lam (None for one band
    or a nonpositive A).
    """
    if quad_s < 8 or quad_eta < 8:
        raise ValueError("quadrature resolutions must be >= 8")
    bands = [float(b) for b in bands]
    if not bands or any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
        raise InfeasibleGeometryError("bands must be a nonempty increasing list")
    k = np.asarray(k, dtype=float)
    check_band(k, min(bands))
    grid = f.grid
    grid.mode_index(k)

    if np.iscomplexobj(f.values):
        raise ValueError("averaged_decay needs a real field f")
    f_half = real_forward(f.values)
    # ||f||_{H^theta}^2 on the half spectrum; planes 0 < m_d < n/2 count twice
    f_sq = np.abs(f_half) ** 2
    f_sq[..., 1 : grid.n // 2] *= 2.0
    axes = [grid.xi_axis] * (grid.d - 1) + [grid.xi_axis[: grid.n // 2 + 1]]
    bracket_sq = 1.0 + reduce(np.add.outer, [x ** 2 for x in axes])
    h_sq = {theta: float(np.sum(f_sq * bracket_sq ** theta) * grid.measure) for theta in (0.0, 0.5, 1.0)}
    del f_sq, bracket_sq
    dens = _decay_density(grid, f_half, phi_B)
    del f_half

    plane = orthonormal_plane(k)
    n_angles = quad_eta // 2 if quad_eta % 2 == 0 else quad_eta  # theta < pi for even quad_eta
    angles, a_weight = 2.0 * np.pi * np.arange(n_angles) / quad_eta, 2.0 * np.pi / n_angles
    records = []
    for lam in bands:
        s_nodes = np.linspace(lam, 2.0 * lam, quad_s)
        s_weights = np.full(quad_s, lam / (quad_s - 1))
        s_weights[0] *= 0.5
        s_weights[-1] *= 0.5
        pairs, weights = [], []
        for s, ws in zip(s_nodes, s_weights):
            for theta in angles:
                pairs.append(zeta_pair_from_angle(k, float(s), float(theta), plane))
                weights += [ws * a_weight] * 2
        # the floor cell_floor(grid, s) is clamp_eps * s with clamp_eps = dxi / 2
        sums = pair_inverse_symbol_sums([dens], pairs, grid, cell_floor(grid, 1.0), "floor")[0]
        total = float(np.dot(weights, sums.reshape(-1)) * grid.measure)
        row = {
            "lambda": lam,
            "A": total,
            "A_over_lambda": total / lam,
        }
        for theta, norm_sq in h_sq.items():
            denom = lam ** (1.0 - theta) * norm_sq
            row[f"normalized_theta_{theta:g}"] = total / denom if denom > 0 else 0.0
        records.append(row)
    return records, _trend(bands, [row["A_over_lambda"] for row in records])
