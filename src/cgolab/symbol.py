"""Complex frequencies zeta, the symbol of the conjugated Laplacian, and
the geometry of its characteristic set.

A valid zeta is a complex d-vector with zeta . zeta = 0 (unconjugated
dot product).  Writing zeta = s(e1 - i e2) with orthonormal real e1, e2
and s = |Re zeta| gives the adapted frame used everywhere below.  The
symbol is

    p(xi) = -|xi|^2 + 2i zeta . xi
          = (s^2 - |xi - s e2|^2) + 2is (xi . e1)      (adapted form)

whose zero set Sigma is the codimension-2 sphere |xi - s e2| = s cut by
the hyperplane xi . e1 = 0.  The comparable distance proxy

    dist(xi, Sigma) = | s - |xi - s e2| | + |xi . e1|

is adopted here as the definition (closed form, cheap, and equivalent
to the Euclidean distance in the regime that matters).

lattice_symbol evaluates p, and char_distance the distance, on a product
of 1-d frequency arrays -- the lattice, its 2/3 cube or one slab of
either -- on every call; a Zeta holds no lattice data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import FrameError, InfeasibleGeometryError

_FRAME_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Zeta:
    """A complex frequency with zeta . zeta = 0."""

    value: np.ndarray

    def __post_init__(self):
        val = np.ascontiguousarray(self.value, dtype=complex)
        if val.ndim != 1 or val.shape[0] < 2:
            raise ValueError("zeta must be a d-vector, d >= 2")
        val.flags.writeable = False
        object.__setattr__(self, "value", val)
        re, im = val.real, val.imag
        s = np.linalg.norm(re)
        if s == 0.0:
            raise FrameError("zeta must be nonzero with |Re zeta| = |Im zeta|")
        if abs(np.linalg.norm(im) - s) > 1e-12 * s * 10:
            raise FrameError("|Re zeta| != |Im zeta|")
        zz = np.sum(val * val)
        if abs(zz) > 1e-12 * s * s * 10:
            raise FrameError(f"zeta . zeta = {zz} is not zero")

    @property
    def d(self) -> int:
        return self.value.shape[0]

    @cached_property
    def s(self) -> float:
        return float(np.linalg.norm(self.value.real))

    @cached_property
    def e1(self) -> np.ndarray:
        return self.value.real / self.s

    @cached_property
    def e2(self) -> np.ndarray:
        return -self.value.imag / self.s

    @property
    def magnitude(self) -> float:
        """|zeta| = sqrt(2) * s."""
        return float(np.sqrt(2.0) * self.s)


@dataclass(frozen=True, eq=False)
class ZetaPair:
    """A pair (zeta1, zeta2) with zeta1 + zeta2 = i*k.

    Built from the target frequency k, the magnitude parameter s and an
    orthonormal pair (eta1, eta2) spanning a plane orthogonal to k:

        zeta1 =  s eta1 + i (k/2 + r eta2)
        zeta2 = -s eta1 + i (k/2 - r eta2),   r = sqrt(s^2 - |k|^2/4).
    """

    zeta1: Zeta
    zeta2: Zeta
    k: np.ndarray
    s: float
    r: float
    eta1: np.ndarray
    eta2: np.ndarray


def make_zeta_pair(k, s: float, eta1, eta2) -> ZetaPair:
    k = np.asarray(k, dtype=float)
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    d = k.shape[0]
    if eta1.shape != (d,) or eta2.shape != (d,):
        raise FrameError("k, eta1, eta2 must share one dimension")
    if not s > 0:
        raise InfeasibleGeometryError("s must be positive")
    knorm = np.linalg.norm(k)
    if knorm >= 2.0 * s:
        raise InfeasibleGeometryError(f"|k| = {knorm:.6g} >= 2s = {2 * s:.6g}")
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if abs(np.linalg.norm(eta) - 1.0) > _FRAME_TOL:
            raise FrameError(f"{name} is not a unit vector")
        if abs(np.dot(k, eta)) > _FRAME_TOL * max(knorm, 1.0):
            raise FrameError(f"{name} is not orthogonal to k")
    if abs(np.dot(eta1, eta2)) > _FRAME_TOL:
        raise FrameError("eta1 and eta2 are not orthogonal")

    r = float(np.sqrt(s * s - 0.25 * knorm * knorm))
    z1 = Zeta(s * eta1 + 1j * (0.5 * k + r * eta2))
    z2 = Zeta(-s * eta1 + 1j * (0.5 * k - r * eta2))
    total = z1.value + z2.value - 1j * k
    if np.max(np.abs(total)) > 1e-12 * s * 10:
        raise FrameError("constructed pair violates zeta1 + zeta2 = ik")
    return ZetaPair(z1, z2, k, float(s), r, eta1, eta2)


def check_band(k, lam: float):
    """InfeasibleGeometryError unless |k| < 2 lam: the band [lam, 2 lam]
    has pairs zeta1 + zeta2 = ik only where s > |k| / 2 (make_zeta_pair)."""
    knorm = float(np.linalg.norm(k))
    if knorm >= 2.0 * lam:
        raise InfeasibleGeometryError(f"|k| = {knorm:.6g} infeasible for band {lam:.6g}: needs |k| < 2 band")


def orthonormal_plane(k) -> tuple:
    """A deterministic orthonormal pair spanning a plane orthogonal to k.

    For k = 0 returns the first two coordinate axes.  Requires d >= 3
    for nonzero k (otherwise no two-plane exists).
    """
    k = np.asarray(k, dtype=float)
    d = k.shape[0]
    if np.linalg.norm(k) == 0.0:
        p1 = np.zeros(d)
        p1[0] = 1.0
        p2 = np.zeros(d)
        p2[1] = 1.0
        return p1, p2
    if d < 3:
        raise InfeasibleGeometryError("a plane orthogonal to k needs d >= 3")
    khat = k / np.linalg.norm(k)
    vecs = []
    # take the coordinate axes least aligned with k, Gram-Schmidt in order
    order = np.argsort(np.abs(khat), kind="stable")
    for idx in order:
        cand = np.zeros(d)
        cand[idx] = 1.0
        cand = cand - np.dot(cand, khat) * khat
        for v in vecs:
            cand = cand - np.dot(cand, v) * v
        norm = np.linalg.norm(cand)
        if norm > 1e-8:
            vecs.append(cand / norm)
        if len(vecs) == 2:
            return vecs[0], vecs[1]
    raise InfeasibleGeometryError("failed to build a plane orthogonal to k")


def zeta_pair_from_angle(k, s: float, theta: float, plane=None) -> ZetaPair:
    """Pair with eta1 at angle theta inside the plane orthogonal to k;
    eta2 is eta1 rotated by +pi/2 within that plane."""
    p1, p2 = orthonormal_plane(k) if plane is None else plane
    c, t = np.cos(theta), np.sin(theta)
    eta1 = c * p1 + t * p2
    eta2 = -t * p1 + c * p2
    return make_zeta_pair(k, s, eta1, eta2)


def lattice_symbol(zeta: Zeta, axes) -> np.ndarray:
    """p(xi) = -|xi|^2 + 2i zeta . xi on the product of the 1-d frequency
    arrays axes (the lattice, its 2/3 cube or an axis-0 slab), summed axis 0
    first, so a point has one value on any product; formed in the sums' place."""
    if zeta.d != len(axes):
        raise ValueError("zeta dimension does not match the grid")
    sq = dot = 0.0
    for x, z in zip(np.ix_(*axes), zeta.value):
        sq = sq + x ** 2
        dot = dot + z * x
    return np.add(np.negative(sq, out=sq), np.multiply(2j, dot, out=dot), out=dot)


def char_distance(zeta: Zeta, axes, out=None, work=None) -> np.ndarray:
    """Comparable distance | s - |xi - s e2| | + |xi . e1| to the zero set
    on the product of the 1-d frequency arrays axes (the lattice or an
    axis-0 slab), from per-axis terms of |xi - s e2|^2 - s^2 and xi . e1.
    out receives it, work (as many points) holds |xi . e1|; both default new."""
    s = zeta.s
    out, work = (np.empty([x.size for x in axes]) if a is None else a for a in (out, work))
    for arr, terms in ((out, [x * (x - 2.0 * s * c) for x, c in zip(axes, zeta.e2)]),
                       (work, [c * x for x, c in zip(axes, zeta.e1)])):
        # axis-0 term + the plane of the others: numpy buffers short last axes
        plane = reduce(np.add.outer, terms[1:]).reshape(-1)
        np.add(terms[0][:, None], plane, out=arr.reshape(axes[0].size, -1))
    out += s * s
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    np.abs(np.subtract(s, out, out=out), out=out)
    out += np.abs(work, out=work)
    return out
