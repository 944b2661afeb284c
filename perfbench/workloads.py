"""The benchmark's workloads and the oracle check of each operation.

One operation is one call of a cgolab CLI subcommand on a config.  The
workload seed goes into every config's ``seed``.  A check takes the
``config`` and ``result`` blocks of the operation's report.json and returns
(label, relative error, tolerance) triples; the operation misses its oracle
when an error exceeds its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
from oracles import Lattice, rel_err

GAUSSIAN = {"kind": "gaussian", "amplitude": 0.05, "width": 0.3}
CONE = {"kind": "cone", "amplitude": 0.5, "radius": 1.1}

# The CGO side of a recovered mode differs from the true mode by the linear
# and bilinear pairing terms, ~1e-3 of the mode at band 64; a broken solve or
# pairing is off by O(1).
RECOVERY_TOL = 5e-2
# spectral q against analytic q: 1e-7 at n = 64
TRANSFORM_TOL = 1e-5
# the same formula evaluated in another order
REDERIVED_TOL = 1e-9
# zeta samples per band (the CLI default is 16): a pass of each workload
# takes a few seconds, so one run measures several passes
SAMPLES_PER_BAND = 4


@dataclass(frozen=True)
class Operation:
    subcommand: str
    config: dict
    check: Callable[[dict, dict], list]


def _complex(value) -> complex:
    return complex(value["re"], value["im"])


def _lattice(config) -> Lattice:
    grid = config["grid"]
    return Lattice(grid["n"], grid["L"], grid["d"])


def _k(lat: Lattice, mode) -> np.ndarray:
    return lat.step * np.asarray(mode, dtype=float)


def _profile_q(lat: Lattice, profile: dict) -> np.ndarray:
    if profile["kind"] == "gaussian":
        return oracles.gaussian_q(lat, profile["amplitude"], profile["width"])
    if profile["kind"] == "cone":
        gamma = oracles.cone_gamma(lat, profile["amplitude"], profile["radius"])
        return oracles.potential_from_gamma(lat, gamma)
    raise ValueError(f"no oracle for profile kind {profile['kind']!r}")


def check_recover(config, result):
    lat = _lattice(config)
    q = _profile_q(lat, config["profiles"][0])
    checks = []
    for mode in result["modes"]:
        exact = lat.fourier_mode(q, mode["k"])
        label = f"k={mode['k_mode']}"
        checks.append((f"recovered {label}", rel_err(_complex(mode["recovered"]), exact), RECOVERY_TOL))
        checks.append((f"transform {label}", rel_err(_complex(mode["oracle"]), exact), TRANSFORM_TOL))
    return checks


def check_select_zeta(config, result):
    """Each band's winner is its table's minimum, and its objective
    re-derived from q matches the reported one."""
    lat = _lattice(config)
    qs = [_profile_q(lat, p) for p in config["profiles"]]
    k = _k(lat, config["k_mode"])
    checks = []
    for band in result["bands"]:
        best = min(band["samples"], key=lambda r: (r["objective"], r["s"], r["angle"]))
        label = f"band {band['lambda']:g}"
        checks.append((f"winner {label}", float(best["s"] != band["s"]), 0.0))
        exact = oracles.selection_objective(lat, qs, k, best["s"], best["angle"], config["clamp_eps"])
        checks.append((f"objective {label}", rel_err(band["objective"], exact), REDERIVED_TOL))
    return checks


def check_averaged_decay(config, result):
    """A(lam) of every band, re-derived for the cone profile."""
    lat = _lattice(config)
    profile = config["profiles"][0]
    # the cone is mollified at width 2h, which widens its support by 2h
    cutoff = oracles.smooth_bridge(lat.radius() / (profile["radius"] + 2.0 * lat.h))
    log_g = 0.5 * np.log(oracles.cone_gamma(lat, profile["amplitude"], profile["radius"]))
    pts, dens = oracles.decay_density(lat, log_g, cutoff)
    k = _k(lat, config["k_mode"])
    checks = []
    for band in result["bands"]:
        exact = oracles.averaged_decay(lat, pts, dens, k, band["lambda"],
                                       config["quad_s"], config["quad_eta"])
        checks.append((f"A band {band['lambda']:g}", rel_err(band["A"], exact), REDERIVED_TOL))
    return checks


def check_singbound(config, result):
    lat = _lattice(config)
    k = _k(lat, config["k_mode"])
    checks = []
    for row in result["rows"]:
        zeta1, _ = oracles.zeta_pair(k, row["s"], config["angle"])
        eta = [row[f"eta_{j}"] for j in range(lat.d)]
        exact = oracles.singbound(lat, zeta1, eta, row["M"])
        checks.append((f"s={row['s']:g} trial {row['trial']}", rel_err(row["value"], exact), REDERIVED_TOL))
    return checks


def check_verify_estimates(config, result):
    """For phi = exp(-|xi|^2) and v = w = 1 the Schur bound is ||phi||_L1,
    and the power-iteration norm cannot exceed it."""
    schur = result["schur"]
    exact = oracles.gaussian_kernel_l1(_lattice(config))
    excess = max(0.0, schur["operator_norm"] - schur["value"]) / schur["value"]
    return [
        ("schur value", rel_err(schur["value"], exact), REDERIVED_TOL),
        ("schur operator_norm <= value", excess, 0.0),
    ]


def _recover(seed):
    """The paper's full path: zeta selection, two fixed-point solves and the
    m_q pairings; selection, solver, pairing and FFTs each carry much of it."""
    return [
        Operation("recover", {"grid": {"n": 64}, "profiles": [GAUSSIAN], "k_modes": [[1, 2, 0]],
                              "samples_per_band": SAMPLES_PER_BAND, "seed": seed}, check_recover),
        # the default config; fails the main-term transform gate at n = 32
        Operation("recover", {"seed": seed}, check_recover),
    ]


def _sweep(seed):
    """The average over zeta with no solve and no pairing: each zeta is used
    once, so a per-zeta cache gets no hits here, and batching over zeta
    shows its memory cost."""
    return [
        Operation("select-zeta", {"grid": {"n": 64}, "profiles": [CONE],
                                  "samples_per_band": SAMPLES_PER_BAND, "seed": seed}, check_select_zeta),
        Operation("averaged-decay", {"grid": {"n": 64}, "profiles": [CONE], "bands": [64.0],
                                     "seed": seed}, check_averaged_decay),
        Operation("singbound", {"grid": {"n": 64}, "seed": seed}, check_singbound),
    ]


def _estimates(seed):
    """schur_bound, which runs nowhere else, plus the localization norms and
    m_q trials that share the norm and pairing code of recover."""
    return [Operation("verify-estimates", {"grid": {"n": 16}, "seed": seed}, check_verify_estimates)]


# workload name -> its operations for a seed
WORKLOADS = {"recover": _recover, "sweep": _sweep, "estimates": _estimates}
