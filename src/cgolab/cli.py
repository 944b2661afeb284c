"""Reproducible experiment driver.

Subcommands: solve-cgo, select-zeta, verify-estimates, averaged-decay,
singbound, recover, uniqueness-gap.

Every run writes a JSON report (full diagnostics) and CSV tables into
<out>/<subcommand>_<confighash>/; numeric CSV cells are printed with 15
significant digits, so identical config + seed reproduces the CSV bytes
on the same platform.  Outputs are written only after the computation
finishes; a failed run leaves no partial output directory.

Exit codes: 0 ok, 1 other package error, 2 config error, 3 infeasible
geometry (incl. frame and domain errors), 4 divergence / non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cgo import select_zeta_sequence, solve_psi
from .config import (
    ExperimentConfig,
    config_from_file,
    config_hash,
    config_to_dict,
)
from .errors import (
    CgolabError,
    ConfigError,
    DomainError,
    FrameError,
    InfeasibleGeometryError,
    NotContractiveError,
)
from .estimates import (
    averaged_decay,
    bilinear_ratio,
    draw_colored_field,
    localization_ratios,
    mq_operator_ratio,
    schur_bound,
    singbound_quadrature,
)
from .grid import FrequencyGrid, physical_field
from .potential import make_conductivity, make_cutoff, read_gamma_file
from .recovery import pairing_weight, recover_fourier_mode, uniqueness_gap
from .symbol import zeta_pair_from_angle

SUBCOMMANDS = (
    "solve-cgo",
    "select-zeta",
    "verify-estimates",
    "averaged-decay",
    "singbound",
    "recover",
    "uniqueness-gap",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_DIVERGENCE = 4


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".15g")
    if isinstance(x, complex):
        return f"{x.real:.15g}{x.imag:+.15g}j"
    return str(x)


def _grid(cfg: ExperimentConfig) -> FrequencyGrid:
    return FrequencyGrid(cfg.grid.d, cfg.grid.n, cfg.grid.L)


def _conductivity(grid, prof):
    if prof.kind == "file":
        cond = read_gamma_file(prof.path)
        if cond.grid != grid:
            raise ConfigError(f"gamma file {prof.path} grid does not match the config grid")
        return cond
    return make_conductivity(grid, prof.as_profile())


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# -- runners ------------------------------------------------------------------


def _run_solve_cgo(cfg: ExperimentConfig):
    grid = _grid(cfg)
    cond = _conductivity(grid, cfg.profiles[0])
    k = grid.lattice_frequency(cfg.k_mode)
    pair = zeta_pair_from_angle(k, cfg.s, cfg.angle)
    _, rep, psi = solve_psi(
        cond, pair.zeta1, tol=cfg.tol, max_iter=cfg.max_iter,
        clamp_eps=cfg.clamp_eps, dealias=cfg.dealias,
    )
    if not rep.converged:
        raise NotContractiveError(
            rep.contraction_estimates[-1] if rep.contraction_estimates else float("nan"),
            f"no convergence within {cfg.max_iter} iterations",
        )
    payload = {
        "s": cfg.s,
        "angle": cfg.angle,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "residual_xdot": rep.residual_xdot,
        "psi_norm_xdot": rep.psi_norm_xdot,
        "final_increment": rep.final_increment,
        "clamped_count": rep.clamped_count,
        "clamped_mass": rep.clamped_mass,
        "dealias_defect": rep.dealias_defect,
        "contraction_estimates": rep.contraction_estimates,
        "psi_sup": float(np.max(np.abs(psi.values))),
    }
    header = [
        "iterations", "converged", "residual_xdot", "psi_norm_xdot",
        "final_increment", "clamped_mass", "final_ratio",
    ]
    final_ratio = rep.contraction_estimates[-1] if rep.contraction_estimates else float("nan")
    rows = [[rep.iterations, rep.converged, rep.residual_xdot, rep.psi_norm_xdot,
             rep.final_increment, rep.clamped_mass, final_ratio]]
    return payload, {"solve": (header, rows)}


def _run_select_zeta(cfg: ExperimentConfig):
    grid = _grid(cfg)
    conds = [_conductivity(grid, p) for p in cfg.profiles]
    k = grid.lattice_frequency(cfg.k_mode)
    sels = select_zeta_sequence(
        conds, k, cfg.bands, cfg.samples_per_band, cfg.seed, cfg.clamp_eps
    )
    payload = {"bands": []}
    rows = []
    for sel in sels:
        payload["bands"].append(
            {
                "lambda": sel.lam,
                "objective": sel.objective,
                "s": sel.pair.s,
                "samples": [
                    {"s": s, "angle": a, "objective": d} for (s, a, d) in sel.samples
                ],
            }
        )
        for (s, a, d) in sel.samples:
            rows.append([sel.lam, s, a, d, int(s == sel.pair.s and d == sel.objective)])
    header = ["band", "s", "angle", "objective", "selected"]
    return payload, {"samples": (header, rows)}


def _run_verify_estimates(cfg: ExperimentConfig):
    grid = _grid(cfg)
    cond = _conductivity(grid, cfg.profiles[0])
    k = grid.lattice_frequency(cfg.k_mode)
    pair = zeta_pair_from_angle(k, cfg.s, cfg.angle)
    phi = make_cutoff(cond)
    rng = np.random.default_rng(cfg.seed)

    reports = localization_ratios(cfg.u_samples, pair.zeta1, phi, cfg.seed, cfg.dealias)
    mq_rep = mq_operator_ratio(cond, pair, cfg.seed, s_values=cfg.s_values, dealias=cfg.dealias)
    u = draw_colored_field(grid, rng, pair.zeta1, "near_char_1")
    v = draw_colored_field(grid, rng, pair.zeta2, "near_char_1")
    f_one = physical_field(grid, np.ones(grid.shape))
    bil = bilinear_ratio(f_one, pair, u, v, phi, dealias=cfg.dealias)

    sb = schur_bound(
        lambda pts: np.exp(-np.sum(pts * pts, axis=-1)),
        lambda pts: np.ones(pts.shape[:-1]),
        lambda pts: np.ones(pts.shape[:-1]),
        grid,
        seed=cfg.seed,
    )

    rows = []
    payload = {"estimates": [], "bilinear_linf": bil,
               "schur": {"value": sb.value, "operator_norm": sb.operator_norm}}
    for rep in reports + [mq_rep]:
        payload["estimates"].append(
            {
                "estimate_id": rep.estimate_id,
                "max_ratio": rep.max_ratio,
                "trend": rep.trend,
                "samples": [
                    {"params": s.params, "lhs": s.lhs, "rhs": s.rhs, "ratio": s.ratio}
                    for s in rep.samples
                ],
            }
        )
        for s in rep.samples:
            rows.append(
                [rep.estimate_id, json.dumps(s.params, sort_keys=True), s.lhs, s.rhs, s.ratio]
            )
    header = ["estimate_id", "params", "lhs", "rhs", "ratio"]
    summary = [
        [rep.estimate_id, rep.max_ratio, "" if rep.trend is None else rep.trend]
        for rep in reports + [mq_rep]
    ]
    return payload, {
        "samples": (header, rows),
        "summary": (["estimate_id", "max_ratio", "trend"], summary),
    }


def _run_averaged_decay(cfg: ExperimentConfig):
    grid = _grid(cfg)
    cond = _conductivity(grid, cfg.profiles[0])
    k = grid.lattice_frequency(cfg.k_mode)
    phi = make_cutoff(cond)
    rep = averaged_decay(
        cond.log_g, k, cfg.bands, cfg.quad_s, cfg.quad_eta, phi, dealias=cfg.dealias
    )
    rows = [
        [
            s.params["lambda"],
            s.params["A"],
            s.params["A_over_lambda"],
            s.params["normalized_theta_0"],
            s.params["normalized_theta_0.5"],
            s.params["normalized_theta_1"],
        ]
        for s in rep.samples
    ]
    header = ["lambda", "A", "A_over_lambda", "normalized_theta_0",
              "normalized_theta_0.5", "normalized_theta_1"]
    payload = {"trend": rep.trend, "bands": [dict(s.params) for s in rep.samples]}
    return payload, {"bands": (header, rows)}


def _run_singbound(cfg: ExperimentConfig):
    grid = _grid(cfg)
    k = grid.lattice_frequency(cfg.k_mode)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    # exactly cfg.trials rows: the first trials % len(s_values) values of s take one more
    per_s, extra = divmod(cfg.trials, len(cfg.s_values))
    for i, s in enumerate(cfg.s_values):
        pair = zeta_pair_from_angle(k, float(s), cfg.angle)
        etas = rng.normal(size=(per_s + (i < extra), grid.d)) * s
        values = singbound_quadrature(pair.zeta1, etas, cfg.singbound_m, grid)
        for trial, (eta, val) in enumerate(zip(etas, values)):
            rows.append([float(s), trial, cfg.singbound_m, *(float(e) for e in eta), float(val)])
    header = ["s", "trial", "M", *[f"eta_{j}" for j in range(grid.d)], "value"]
    payload = {"rows": [dict(zip(header, r)) for r in rows]}
    return payload, {"singbound": (header, rows)}


def _run_recover(cfg: ExperimentConfig):
    grid = _grid(cfg)
    cond = _conductivity(grid, cfg.profiles[0])
    band = float(cfg.bands[-1])
    k_modes = cfg.k_modes or [cfg.k_mode]
    ks = [grid.lattice_frequency(mode) for mode in k_modes]
    # every mode's main-term gate runs before any mode is solved
    phi = make_cutoff(cond)
    weights = [pairing_weight(cond, k, phi) for k in ks]
    rows = []
    payload = {"modes": []}
    for mode, k, weight in zip(k_modes, ks, weights):
        recovered, diag = recover_fourier_mode(
            cond, k, band,
            samples_per_band=cfg.samples_per_band, seed=cfg.seed,
            tol=cfg.tol, max_iter=cfg.max_iter, clamp_eps=cfg.clamp_eps,
            weight=weight, dealias=cfg.dealias,
        )
        bd = diag.breakdown
        rows.append(
            [
                ";".join(_fmt(x) for x in k),
                band,
                recovered.real,
                recovered.imag,
                diag.oracle.real,
                diag.oracle.imag,
                abs(bd.term_linear),
                abs(bd.term_bilinear),
                diag.clamped_mass,
            ]
        )
        payload["modes"].append(
            {
                "k_mode": list(mode),
                "k": list(k),
                "recovered": recovered,
                "oracle": diag.oracle,
                "term_main": bd.term_main,
                "term_linear": bd.term_linear,
                "term_bilinear": bd.term_bilinear,
                "error_bar": diag.error_bar,
                "selected_s": bd.zeta_pair.s,
                "solver_iterations": [diag.report1.iterations, diag.report2.iterations],
                "clamped_mass": diag.clamped_mass,
            }
        )
    header = [
        "k", "band", "recovered_re", "recovered_im", "oracle_re", "oracle_im",
        "err_linear", "err_bilinear", "clamped_mass",
    ]
    return payload, {"recover": (header, rows)}


def _run_uniqueness_gap(cfg: ExperimentConfig):
    grid = _grid(cfg)
    if len(cfg.profiles) < 2:
        raise ConfigError("uniqueness-gap needs two profiles")
    cond1 = _conductivity(grid, cfg.profiles[0])
    cond2 = _conductivity(grid, cfg.profiles[1])
    band = float(cfg.bands[-1])
    k_modes = cfg.k_modes or [cfg.k_mode]
    k_set = [grid.lattice_frequency(m) for m in k_modes]
    table = uniqueness_gap(
        cond1, cond2, k_set, band,
        samples_per_band=cfg.samples_per_band, seed=cfg.seed,
        tol=cfg.tol, max_iter=cfg.max_iter, clamp_eps=cfg.clamp_eps,
        dealias=cfg.dealias,
    )
    rows = []
    payload = {"rows": []}
    for r in table:
        rows.append(
            [
                ";".join(_fmt(x) for x in r.k),
                r.band,
                r.pairing1.real, r.pairing1.imag,
                r.pairing2.real, r.pairing2.imag,
                r.gap, r.qhat_gap, r.error_bar,
            ]
        )
        payload["rows"].append(
            {
                "k": list(r.k), "band": r.band,
                "pairing1": r.pairing1, "pairing2": r.pairing2,
                "gap": r.gap, "qhat1": r.qhat1, "qhat2": r.qhat2,
                "qhat_gap": r.qhat_gap, "error_bar": r.error_bar,
            }
        )
    header = [
        "k", "band", "pairing1_re", "pairing1_im", "pairing2_re", "pairing2_im",
        "gap", "qhat_gap", "error_bar",
    ]
    return payload, {"gap": (header, rows)}


_RUNNERS = {
    "solve-cgo": _run_solve_cgo,
    "select-zeta": _run_select_zeta,
    "verify-estimates": _run_verify_estimates,
    "averaged-decay": _run_averaged_decay,
    "singbound": _run_singbound,
    "recover": _run_recover,
    "uniqueness-gap": _run_uniqueness_gap,
}


def _write_outputs(cfg, subcommand, payload, tables, elapsed):
    out_root = Path(os.environ.get("CGOLAB_OUT", cfg.out_dir))
    chash = config_hash(cfg)
    run_dir = out_root / f"{subcommand.replace('-', '_')}_{chash}"
    run_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if cfg.out_format in ("json", "both"):
        report = {
            "subcommand": subcommand,
            "version": __version__,
            "config_hash": chash,
            "config": config_to_dict(cfg),
            "seed": cfg.seed,
            "wall_time_s": elapsed,
            "result": payload,
        }
        path = run_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, default=_json_default, sort_keys=True))
        written.append(path)
    if cfg.out_format in ("csv", "both"):
        for name, (header, rows) in tables.items():
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow([f"# config_hash={chash}", f"version={__version__}"])
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
            path = run_dir / f"{name}.csv"
            path.write_text(buf.getvalue())
            written.append(path)
    return run_dir, written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgolab",
        description="spectral laboratory experiments on periodic grids",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--format", choices=("json", "csv", "both"), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_file(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.format is not None:
            cfg.out_format = args.format
        cfg.validate()
        started = time.perf_counter()
        payload, tables = _RUNNERS[args.subcommand](cfg)
        elapsed = time.perf_counter() - started
        run_dir, written = _write_outputs(cfg, args.subcommand, payload, tables, elapsed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleGeometryError, FrameError, DomainError) as exc:
        print(f"infeasible geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except NotContractiveError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except CgolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
