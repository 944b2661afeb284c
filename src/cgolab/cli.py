"""Reproducible experiment driver.

Subcommands: solve-cgo, select-zeta, verify-estimates, averaged-decay,
singbound, recover, uniqueness-gap.  The last two share one path,
recovery.recover_modes at the last band, on one conductivity and on two:
a recover mode is one ModeRecovery, and a gap row sets the two records of
its k side by side, with their summed error bar.  Every subcommand pairs
each k it reads with a plane orthogonal to it, so a nonzero k at d < 3
exits 3 before any grid or conductivity is built.

The 2/3 cube is the only posed band: the solver keeps its modes there
and reports what the cut loses (dealias_defect), and the estimates cut
their products phi_B u, the m_q form and the averaged-decay density to
it.  Norms of given data, such as select-zeta's objective, and the
singbound quadrature range over the whole lattice.

Every run writes a JSON report (full diagnostics) and CSV tables into
<out>/<subcommand>_<confighash>/.  One record per row: each CSV table is
a column view of records in the report's "result" block, naming the
fields it shows in column order.  The sample tables of select-zeta and
verify-estimates take the inner sample records with their parent's key
merged in (band, estimate_id); select-zeta's "selected" marks the sample
whose s and objective are its band's.  verify-estimates writes the five
cutoff estimates' samples and maxima (samples.csv, summary.csv) and the
m_q operator norm per s (mq_decay.csv, the rows of result.mq_decay, whose
fitted trend is in the report only).  A complex field becomes two columns
<name>_re and <name>_im, a list (a k vector) one cell joined with ";", a
dict one cell of sorted-key JSON, and None an empty cell.  Numeric CSV
cells are printed with 15 significant digits, so identical config + seed
reproduces the CSV bytes on the same platform.  Outputs are written only
after the computation finishes; a failed run leaves no partial output
directory.

Exit codes: 0 ok, 1 other package error, 2 config error, 3 infeasible
geometry (incl. frame and domain errors), 4 divergence / non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
    localization_ratios,
    mq_operator_ratio,
    schur_bound,
    singbound_quadrature,
)
from .grid import FrequencyGrid
from .potential import make_conductivity, make_cutoff, read_gamma_file
from .recovery import recover_modes
from .symbol import check_band, zeta_pair_from_angle

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
    return str(x)


def _cells(record, columns):
    """The CSV cells of one record as (column, cell) pairs, in column order."""
    cells = []
    for name in columns:
        value = record[name]
        if isinstance(value, complex):
            cells += [(f"{name}_re", _fmt(value.real)), (f"{name}_im", _fmt(value.imag))]
        elif isinstance(value, list):
            cells.append((name, ";".join(_fmt(x) for x in value)))
        elif isinstance(value, dict):
            cells.append((name, json.dumps(value, sort_keys=True)))
        else:
            cells.append((name, "" if value is None else _fmt(value)))
    return cells


def _check_plane(cfg: ExperimentConfig, subcommand: str):
    """InfeasibleGeometryError unless every k the subcommand reads has a
    plane orthogonal to it: a nonzero k needs d >= 3 (symbol.orthonormal_plane)."""
    modes = [cfg.k_mode]
    if subcommand in ("recover", "uniqueness-gap"):
        modes = cfg.k_modes or modes
    nonzero = [mode for mode in modes if any(mode)]
    if cfg.grid.d < 3 and nonzero:
        raise InfeasibleGeometryError(
            f"k = {nonzero[0]} at d = {cfg.grid.d}: a plane orthogonal to a nonzero k needs d >= 3"
        )


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
# Each runner returns (result, tables): result is the report's "result"
# block, and tables maps a CSV name to (columns, records), the records being
# dicts whose named fields are that table's cells.


def _run_solve_cgo(cfg: ExperimentConfig):
    grid = _grid(cfg)
    k = grid.lattice_frequency(cfg.k_mode)
    pair = zeta_pair_from_angle(k, cfg.s, cfg.angle)  # |k| < 2s before any conductivity
    cond = _conductivity(grid, cfg.profiles[0])
    _, rep, psi = solve_psi(
        cond, pair.zeta1, tol=cfg.tol, max_iter=cfg.max_iter, clamp_eps=cfg.clamp_eps,
    )
    rep.require_converged()
    ratios = rep.contraction_estimates
    result = {
        "s": cfg.s, "angle": cfg.angle, **dataclasses.asdict(rep),
        # a one-step solve has no ratio: null in the report, an empty CSV cell
        "final_ratio": ratios[-1] if ratios else None, "psi_sup": float(np.max(np.abs(psi.values))),
    }
    columns = ["iterations", "converged", "residual_xdot", "psi_norm_xdot",
               "final_increment", "clamped_mass", "final_ratio"]
    return result, {"solve": (columns, [result])}


def _run_select_zeta(cfg: ExperimentConfig):
    grid = _grid(cfg)
    k = grid.lattice_frequency(cfg.k_mode)
    check_band(k, min(cfg.bands))
    conds = [_conductivity(grid, p) for p in cfg.profiles]
    sels = select_zeta_sequence(
        conds, k, cfg.bands, cfg.samples_per_band, cfg.seed, cfg.clamp_eps
    )
    bands = [
        {"lambda": sel.lam, "objective": sel.objective, "s": sel.pair.s,
         "samples": [{"s": s, "angle": a, "objective": d} for (s, a, d) in sel.samples]}
        for sel in sels
    ]
    samples = [
        {**x, "band": b["lambda"], "selected": int(x["s"] == b["s"] and x["objective"] == b["objective"])}
        for b in bands for x in b["samples"]
    ]
    return {"bands": bands}, {"samples": (["band", "s", "angle", "objective", "selected"], samples)}


def _run_verify_estimates(cfg: ExperimentConfig):
    grid = _grid(cfg)
    k = grid.lattice_frequency(cfg.k_mode)
    pair = zeta_pair_from_angle(k, cfg.s, cfg.angle)  # |k| < 2s before any conductivity
    for s in cfg.s_values:  # and at every s of the m_q decay
        zeta_pair_from_angle(k, float(s), cfg.angle)
    cond = _conductivity(grid, cfg.profiles[0])
    phi = make_cutoff(cond)
    estimates = localization_ratios(cfg.u_samples, pair.zeta1, phi, cfg.seed)
    mq_rows, mq_trend = mq_operator_ratio(cond, pair, cfg.seed, s_values=cfg.s_values)
    result = {
        "estimates": estimates,
        "mq_decay": {"trend": mq_trend, "rows": mq_rows},
        "bilinear_linf": bilinear_ratio(pair, phi, cfg.seed),
        "schur": schur_bound(
            lambda pts: np.exp(-np.sum(pts * pts, axis=-1)),
            lambda pts: np.ones(pts.shape[:-1]),
            lambda pts: np.ones(pts.shape[:-1]),
            grid,
            seed=cfg.seed,
        ),
    }
    samples = [{**x, "estimate_id": e["estimate_id"]} for e in estimates for x in e["samples"]]
    return result, {
        "samples": (["estimate_id", "params", "lhs", "rhs", "ratio"], samples),
        "summary": (["estimate_id", "max_ratio"], estimates),
        "mq_decay": (["s", "operator_norm"], mq_rows),
    }


def _run_averaged_decay(cfg: ExperimentConfig):
    grid = _grid(cfg)
    k = grid.lattice_frequency(cfg.k_mode)
    check_band(k, min(cfg.bands))
    cond = _conductivity(grid, cfg.profiles[0])
    phi = make_cutoff(cond)
    bands, trend = averaged_decay(cond.log_g, k, cfg.bands, cfg.quad_s, cfg.quad_eta, phi)
    columns = ["lambda", "A", "A_over_lambda", "normalized_theta_0",
               "normalized_theta_0.5", "normalized_theta_1"]
    return {"trend": trend, "bands": bands}, {"bands": (columns, bands)}


def _run_singbound(cfg: ExperimentConfig):
    grid = _grid(cfg)
    k = grid.lattice_frequency(cfg.k_mode)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    # exactly cfg.trials rows: the first trials % len(s_values) values of s take one more
    per_s, extra = divmod(cfg.trials, len(cfg.s_values))
    # every s is checked (|k| < 2s) before the first quadrature
    pairs = [zeta_pair_from_angle(k, float(s), cfg.angle) for s in cfg.s_values]
    for i, (s, pair) in enumerate(zip(cfg.s_values, pairs)):
        etas = rng.normal(size=(per_s + (i < extra), grid.d)) * s
        values = singbound_quadrature(pair.zeta1, etas, cfg.singbound_m, grid)
        rows += [
            {"s": float(s), "trial": trial, "M": cfg.singbound_m,
             **{f"eta_{j}": float(e) for j, e in enumerate(eta)}, "value": float(val)}
            for trial, (eta, val) in enumerate(zip(etas, values))
        ]
    columns = ["s", "trial", "M", *[f"eta_{j}" for j in range(grid.d)], "value"]
    return {"rows": rows}, {"singbound": (columns, rows)}


def _recover_modes(cfg: ExperimentConfig, profiles):
    """Per configured mode, its k_mode and one ModeRecovery per profile;
    |k| < 2 bands[-1] is checked before any conductivity is built."""
    grid = _grid(cfg)
    k_modes = cfg.k_modes or [cfg.k_mode]
    ks = [grid.lattice_frequency(mode) for mode in k_modes]
    for k in ks:
        check_band(k, cfg.bands[-1])
    conds = [_conductivity(grid, p) for p in profiles]
    recs = recover_modes(conds, ks, float(cfg.bands[-1]), cfg.samples_per_band,
                         cfg.seed, cfg.tol, cfg.max_iter, cfg.clamp_eps)
    return zip(k_modes, recs)


def _solver_fields(rec, suffix=""):
    """The two solves' diagnostics of one record, as report fields."""
    return {f"solver_iterations{suffix}": [rec.report1.iterations, rec.report2.iterations],
            f"clamped_mass{suffix}": max(rec.report1.clamped_mass, rec.report2.clamped_mass)}


def _run_recover(cfg: ExperimentConfig):
    modes = []
    for mode, (rec,) in _recover_modes(cfg, cfg.profiles[:1]):
        modes.append({
            "k_mode": list(mode), "k": list(rec.k), "band": rec.selection.lam,
            "recovered": rec.total, "oracle": rec.main_oracle,
            "term_main": rec.term_main, "term_linear": rec.term_linear, "term_bilinear": rec.term_bilinear,
            "err_linear": abs(rec.term_linear), "err_bilinear": abs(rec.term_bilinear),
            "error_bar": rec.error_bar, "selected_s": rec.selection.pair.s, **_solver_fields(rec),
        })
    columns = ["k", "band", "recovered", "oracle", "err_linear", "err_bilinear", "clamped_mass"]
    return {"modes": modes}, {"recover": (columns, modes)}


def _run_uniqueness_gap(cfg: ExperimentConfig):
    if len(cfg.profiles) != 2:
        raise ConfigError(f"uniqueness-gap needs exactly two profiles, got {len(cfg.profiles)}")
    rows = []
    for _, (rec1, rec2) in _recover_modes(cfg, cfg.profiles):
        rows.append({
            "k": list(rec1.k), "band": rec1.selection.lam,
            "pairing1": rec1.total, "pairing2": rec2.total, "gap": abs(rec1.total - rec2.total),
            "qhat1": rec1.main_oracle, "qhat2": rec2.main_oracle,
            "qhat_gap": abs(rec1.main_oracle - rec2.main_oracle),
            "error_bar": rec1.error_bar + rec2.error_bar,
            **_solver_fields(rec1, "1"), **_solver_fields(rec2, "2"),
        })
    columns = ["k", "band", "pairing1", "pairing2", "gap", "qhat_gap", "error_bar"]
    return {"rows": rows}, {"gap": (columns, rows)}


_RUNNERS = {
    "solve-cgo": _run_solve_cgo,
    "select-zeta": _run_select_zeta,
    "verify-estimates": _run_verify_estimates,
    "averaged-decay": _run_averaged_decay,
    "singbound": _run_singbound,
    "recover": _run_recover,
    "uniqueness-gap": _run_uniqueness_gap,
}


def _write_outputs(cfg, subcommand, result, tables, elapsed):
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
            "result": result,
        }
        path = run_dir / "report.json"
        path.write_text(json.dumps(report, indent=2, default=_json_default, sort_keys=True))
        written.append(path)
    if cfg.out_format in ("csv", "both"):
        for name, (columns, records) in tables.items():
            # every table has a row: validation makes each list it spans nonempty
            rows = [_cells(record, columns) for record in records]
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow([f"# config_hash={chash}", f"version={__version__}"])
            writer.writerow([column for column, _ in rows[0]])
            writer.writerows([cell for _, cell in row] for row in rows)
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
        _check_plane(cfg, args.subcommand)
        started = time.perf_counter()
        result, tables = _RUNNERS[args.subcommand](cfg)
        elapsed = time.perf_counter() - started
        run_dir, written = _write_outputs(cfg, args.subcommand, result, tables, elapsed)
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
