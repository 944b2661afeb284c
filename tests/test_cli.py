import csv
import dataclasses
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cgolab.cli
import cgolab.errors
import cgolab.recovery
from cgolab.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_GEOMETRY, SUBCOMMANDS, build_parser, main
from cgolab.config import ExperimentConfig, GridConfig, ProfileConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cgolab.cli; "
        "assert 'scipy' not in sys.modules, 'cgolab.cli imports scipy'"
    )
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)


def test_cli_import_and_config_read_leave_hashlib_unloaded(tmp_path):
    # hashlib is imported when a run takes its config hash, not at start-up
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n": 16}}))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cgolab.cli; "
        "from cgolab.config import config_from_file; config_from_file(sys.argv[2]); "
        "assert 'hashlib' not in sys.modules, 'hashlib is loaded before a config hash'"
    )
    subprocess.run([sys.executable, "-c", code, str(SRC), str(path)], check=True)


def test_threads_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify-estimates", "--config", "c.json", "--threads", "2"])
    assert exc.value.code == 2


def test_config_with_threads_exits_before_computing(tmp_path, capsys):
    # retired fields: threads, and dealias (the 2/3 cube is the only posed band)
    for field, value in (("threads", 2), ("dealias", False)):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({field: value, "out_dir": str(tmp_path / "out")}))
        assert main(["verify-estimates", "--config", str(path)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand, field, value",
    [
        ("select-zeta", "samples_per_band", "a"),
        ("averaged-decay", "quad_s", 2),
        ("singbound", "singbound_m", 4),
        ("select-zeta", "bands", [64, 8]),
        ("singbound", "trials", 3),
    ],
)
def test_bad_sweep_field_exits_before_computing(subcommand, field, value, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({field: value, "out_dir": str(tmp_path / "out")}))
    assert main([subcommand, "--config", str(path)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _wrong_typed_fields():
    """(name in the error, config): one wrong-typed value for every field of
    the config tree, plus values that once ran or crashed."""
    wrong = {"int": 16.0, "float": "a", "str": 5, "list": 5, "GridConfig": 5}
    cases = [(f.name, {f.name: wrong[f.type]}) for f in dataclasses.fields(ExperimentConfig)]
    cases += [
        (f"grid.{f.name}", {"grid": {f.name: wrong[f.type]}}) for f in dataclasses.fields(GridConfig)
    ]
    cases += [
        (f"profiles[0].{f.name}", {"profiles": [{f.name: wrong[f.type]}]})
        for f in dataclasses.fields(ProfileConfig)
    ]
    cases += [
        ("k_mode", {"k_mode": [0, 0, 0.5]}),
        ("k_modes", {"k_modes": [[0, 0, 1], [0, True, 1]]}),
        ("grid.n", {"grid": {"n": "a"}}),
        ("seed", {"seed": True}),
        ("profiles[1]", {"profiles": [{"kind": "gaussian"}, 5]}),
    ]
    return [pytest.param(name, config, id=json.dumps(config)) for name, config in cases]


@pytest.mark.parametrize("field, config", _wrong_typed_fields())
def test_wrong_typed_field_exits_before_computing(field, config, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["solve-cgo", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["solve-cgo", "verify-estimates"])
@pytest.mark.parametrize(
    "field, config",
    [
        ("angle", {"angle": float("nan")}),
        ("angle", {"angle": float("inf")}),
        ("s", {"s": -float("inf")}),
        ("tol", {"tol": float("inf")}),
        ("grid.L", {"grid": {"L": float("inf")}}),
        ("profiles[0].amplitude", {"profiles": [{"amplitude": float("nan")}]}),
        ("profiles[0].radius", {"profiles": [{"kind": "cone", "radius": float("nan")}]}),
        ("bands", {"bands": [8.0, float("inf")]}),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_non_finite_number_exits_before_computing(subcommand, field, config, tmp_path, capsys, monkeypatch):
    # json parses NaN and Infinity, and NaN compares false with every bound
    def forbidden(*args, **kwargs):
        raise AssertionError("computed on a non-finite number")

    monkeypatch.setattr(cgolab.cli, "_grid", forbidden)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n": 16}, **config}))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()


def _write_gamma(path, d, n, values=None, L=2.0 * np.pi):
    """A raw gamma file: uint32 d, uint32 n, float64 L, then the values."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IId", d, n, L))
        if values is not None:
            np.asarray(values, dtype="<f8").tofile(fh)


@pytest.mark.parametrize("subcommand", ["select-zeta", "solve-cgo"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_gamma_file_exits_before_computing(subcommand, bad, tmp_path, capsys):
    # NaN compares false with every bound; inf is positive
    gamma = np.ones((16,) * 3)
    gamma[8, 8, 8] = bad
    path = tmp_path / "gamma.bin"
    _write_gamma(path, 3, 16, gamma)
    config = {"grid": {"n": 16}, "profiles": [{"kind": "file", "path": str(path)}]}
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(tmp_path / "c.json"), "--out", str(out)]) == EXIT_GEOMETRY
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "header, code, message",
    [(None, EXIT_CONFIG, "missing.bin"), ((3, 15, 1.0, 0), EXIT_GEOMETRY, "n must be even"),
     ((1, 16, 1.0, 0), EXIT_GEOMETRY, "dimension d"), ((3, 16, np.inf, 0), EXIT_GEOMETRY, "period L"),
     ((3, 16, 1.0, 5), EXIT_GEOMETRY, "expected 4096 samples (32768 bytes), found 32808 bytes")],
    ids=["missing", "odd-n", "d1", "infinite-L", "trailing"],
)
def test_bad_gamma_file_exits_without_traceback(header, code, message, tmp_path, capsys):
    # header: d, n, L and the number of values written past the n^d samples
    path = tmp_path / "missing.bin"
    if header is not None:
        d, n, L, extra = header
        _write_gamma(path, d, n, np.ones(n ** d + extra), L)
    config = {"grid": {"n": 16}, "profiles": [{"kind": "file", "path": str(path)}]}
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["select-zeta", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert message in err and str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["select-zeta", "recover", "solve-cgo"])
@pytest.mark.parametrize(
    "field, config",
    [
        ("k_mode", {"grid": {"n": 16}, "k_mode": [0, 0, 9]}),
        ("k_modes", {"grid": {"n": 16}, "k_modes": [[0, 0, 1], [-9, 0, 0]]}),
    ],
)
def test_mode_outside_lattice_exits_before_computing(subcommand, field, config, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert field in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("subcommand", ["solve-cgo", "select-zeta", "recover", "uniqueness-gap"])
@pytest.mark.parametrize("clamp_eps", [0.0, -1e-6])
def test_nonpositive_clamp_exits_before_computing(subcommand, clamp_eps, tmp_path, capsys, monkeypatch):
    # p(0) = 0 for every zeta and q has mass there: an unclamped run has no
    # finite -1/2-norm, so clamp_eps > 0 is checked with the config
    def forbidden(*args, **kwargs):
        raise AssertionError("computed before checking clamp_eps")

    monkeypatch.setattr(cgolab.cli, "_grid", forbidden)
    path = tmp_path / "c.json"
    config = {"profiles": [{"kind": "gaussian"}] * 2, "clamp_eps": clamp_eps}
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "clamp_eps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [1, 3])
def test_uniqueness_gap_needs_exactly_two_profiles(count, tmp_path, capsys, monkeypatch):
    # a third profile was once dropped without a word
    def forbidden(*args, **kwargs):
        raise AssertionError("built a conductivity before checking the profile count")

    monkeypatch.setattr(cgolab.cli, "_conductivity", forbidden)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"profiles": [{"kind": "gaussian"}] * count}))
    out = tmp_path / "out"
    assert main(["uniqueness-gap", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "profiles" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, config",
    [("recover", {}), ("uniqueness-gap", {"profiles": [{"kind": "gaussian"}] * 2})],
)
def test_main_term_gate_fails_before_any_solve(subcommand, config, tmp_path, capsys, monkeypatch):
    # the default n=32 gaussian leaves a cutoff tail of 7e-6 ||q||_L1 at k = e_z
    def forbidden(*args, **kwargs):
        raise AssertionError("computed past the main-term gate")

    monkeypatch.setattr(cgolab.recovery, "select_zeta_sequence", forbidden)
    monkeypatch.setattr(cgolab.recovery, "solve_psi", forbidden)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
    assert main([subcommand, "--config", str(path)]) == 1
    assert "main-term transform oracle mismatch" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_recover_gates_every_mode_before_the_first_solve(tmp_path, capsys, monkeypatch):
    # n=64: the gaussian passes the gate at e_z; the second mode is made to fail
    gate = cgolab.recovery._main_term

    def failing_on_second(cond, k, qphi2):
        if k[2] > 1.5:
            raise cgolab.errors.CgolabError("main-term transform oracle mismatch: second mode")
        return gate(cond, k, qphi2)

    def forbidden(*args, **kwargs):
        raise AssertionError("computed past the main-term gate")

    monkeypatch.setattr(cgolab.recovery, "_main_term", failing_on_second)
    monkeypatch.setattr(cgolab.recovery, "select_zeta_sequence", forbidden)
    path = tmp_path / "c.json"
    config = {"grid": {"n": 64}, "k_modes": [[0, 0, 1], [0, 0, 2]], "out_dir": str(tmp_path / "out")}
    path.write_text(json.dumps(config))
    assert main(["recover", "--config", str(path)]) == 1
    assert "second mode" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["recover", "uniqueness-gap"])
@pytest.mark.parametrize("n", [32, 64])
def test_infeasible_band_exits_before_any_gate(subcommand, n, tmp_path, capsys, monkeypatch):
    # |k| = 1 >= 2 * 0.25: the band, not the main term, is what fails
    def forbidden(*args, **kwargs):
        raise AssertionError("gated an infeasible band")

    monkeypatch.setattr(cgolab.recovery, "make_cutoff", forbidden)
    monkeypatch.setattr(cgolab.recovery, "_main_term", forbidden)
    path = tmp_path / "c.json"
    config = {"grid": {"n": n}, "bands": [0.25], "profiles": [{"kind": "gaussian"}] * 2}
    if subcommand == "recover":
        config["profiles"] = config["profiles"][:1]
    path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
    assert main([subcommand, "--config", str(path)]) == EXIT_GEOMETRY
    err = capsys.readouterr().err
    assert "|k| = 1 " in err and "band 0.25" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subcommand", ["select-zeta", "averaged-decay"])
def test_sweep_infeasible_band_exits_before_building_a_conductivity(subcommand, tmp_path, capsys, monkeypatch):
    # |k| = 1 >= 2 * 0.25 at k = e_z: decided by the config alone
    def forbidden(*args, **kwargs):
        raise AssertionError("built a conductivity for an infeasible band")

    monkeypatch.setattr(cgolab.cli, "make_conductivity", forbidden)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n": 16}, "bands": [0.25, 1.0], "out_dir": str(tmp_path / "out")}))
    assert main([subcommand, "--config", str(path)]) == EXIT_GEOMETRY
    err = capsys.readouterr().err
    assert "|k| = 1 " in err and "band 0.25" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand, config, named",
    [
        ("recover", {"bands": [0.25]}, "band 0.25"),
        ("uniqueness-gap", {"bands": [0.25], "profiles": [{"kind": "gaussian"}] * 2}, "band 0.25"),
        ("solve-cgo", {"s": 0.4}, "2s = 0.8"),
        ("verify-estimates", {"s": 0.25}, "2s = 0.5"),
        ("verify-estimates", {"s_values": [8.0, 0.25]}, "2s = 0.5"),
        ("singbound", {"s_values": [8.0, 0.4]}, "2s = 0.8"),
    ],
)
def test_infeasible_s_or_band_exits_before_building_a_conductivity(
    subcommand, config, named, tmp_path, capsys, monkeypatch
):
    # |k| = 1 at k = e_z needs 2s > 1 (2 band > 1 at the last band): decided
    # by the config alone, before a conductivity or a singbound quadrature
    def forbidden(*args, **kwargs):
        raise AssertionError("computed for an infeasible s or band")

    monkeypatch.setattr(cgolab.cli, "make_conductivity", forbidden)
    monkeypatch.setattr(cgolab.cli, "singbound_quadrature", forbidden)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n": 16}, **config, "out_dir": str(tmp_path / "out")}))
    assert main([subcommand, "--config", str(path)]) == EXIT_GEOMETRY
    captured = capsys.readouterr()
    assert "|k| = 1 " in captured.err and named in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_uniqueness_gap_needs_one_support_geometry(tmp_path, capsys, monkeypatch):
    # the gaussian is supported in L/4, the cone in its radius plus the mollifier
    def forbidden(*args, **kwargs):
        raise AssertionError("built a cutoff before checking the support geometry")

    monkeypatch.setattr(cgolab.recovery, "make_cutoff", forbidden)
    path = tmp_path / "c.json"
    profiles = [{"kind": "gaussian"}, {"kind": "cone", "amplitude": 0.5}]
    path.write_text(json.dumps({"profiles": profiles, "out_dir": str(tmp_path / "out")}))
    assert main(["uniqueness-gap", "--config", str(path)]) == EXIT_GEOMETRY
    assert "support geometry" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand, k_mode, k_modes, named",
    [(sub, [0, 1], [[0, 1]], "k = [0, 1]") for sub in SUBCOMMANDS]
    + [(sub, [0, 0], [[0, 0], [1, 0]], "k = [1, 0]") for sub in ("recover", "uniqueness-gap")],
)
def test_nonzero_k_at_d2_exits_before_building_a_conductivity(
    subcommand, k_mode, k_modes, named, tmp_path, capsys, monkeypatch
):
    # no plane is orthogonal to a nonzero k at d = 2: decided by the config
    # alone, for the k the subcommand reads (k_modes in recover and uniqueness-gap)
    def forbidden(*args, **kwargs):
        raise AssertionError("computed for a k with no orthogonal plane")

    monkeypatch.setattr(cgolab.cli, "_grid", forbidden)
    monkeypatch.setattr(cgolab.cli, "make_conductivity", forbidden)
    path = tmp_path / "c.json"
    config = {"grid": {"d": 2, "n": 16}, "k_mode": k_mode, "k_modes": k_modes,
              "profiles": [{"kind": "gaussian"}] * 2}
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == EXIT_GEOMETRY
    err = capsys.readouterr().err
    assert f"{named} at d = 2" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["recover", "uniqueness-gap"])
def test_unconverged_solve_exits_without_a_mode(subcommand, tmp_path, capsys):
    # one step at n=64 cannot meet tol: a mode paired from it was once
    # written with solver_iterations [1, 1], where solve-cgo exits 4
    profiles = [{"kind": "gaussian"}, {"kind": "gaussian", "amplitude": 0.08}]
    config = {"grid": {"n": 64}, "k_mode": [1, 2, 0], "max_iter": 1, "samples_per_band": 2,
              "profiles": profiles[: 1 if subcommand == "recover" else 2]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == EXIT_DIVERGENCE
    assert "no convergence within 1 iterations" in capsys.readouterr().err
    assert not out.exists()


SMOKE_CONFIG = {
    "grid": {"n": 16},
    "profiles": [{"kind": "gaussian", "amplitude": 0.05, "width": 0.3}],
    "samples_per_band": 2,
    "u_samples": 4,
    "trials": 4,
    "bands": [8.0, 16.0],
    "s_values": [8.0, 16.0],
}


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(SMOKE_CONFIG))
    return path


@pytest.mark.parametrize(
    "subcommand",
    ["solve-cgo", "select-zeta", "verify-estimates", "averaged-decay", "singbound"],
)
def test_subcommand_runs_on_small_config(subcommand, smoke_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(smoke_config), "--out", str(out)]) == 0
    reports = list(out.glob("*/report.json"))
    assert len(reports) == 1
    assert json.loads(reports[0].read_text())["subcommand"] == subcommand
    assert str(reports[0]) in capsys.readouterr().out.split()


def test_select_zeta_csv_reproducible(smoke_config, tmp_path):
    out = tmp_path / "out"
    args = ["select-zeta", "--config", str(smoke_config), "--out", str(out), "--seed", "7"]
    tables = []
    for _ in range(2):
        assert main(args) == 0
        (table,) = out.glob("*/samples.csv")
        tables.append(table.read_bytes())
    assert tables[0] == tables[1]


def test_select_zeta_csv_independent_of_out_dir(smoke_config, tmp_path):
    # the config hash heads every CSV; where and how a run is written is
    # not hashed
    tables = []
    for name, fmt in (("a", "both"), ("b", "csv")):
        out = tmp_path / name
        args = ["select-zeta", "--config", str(smoke_config), "--out", str(out), "--format", fmt]
        assert main(args) == 0
        (table,) = out.glob("*/samples.csv")
        tables.append(table.read_bytes())
    assert tables[0] == tables[1]


def test_verify_estimates_reports_mq_operator_norm(smoke_config, tmp_path):
    out = tmp_path / "out"
    assert main(["verify-estimates", "--config", str(smoke_config), "--out", str(out)]) == 0
    (report,) = out.glob("*/report.json")
    result = json.loads(report.read_text())["result"]
    rows = result["mq_decay"]["rows"]
    assert [row["s"] for row in rows] == SMOKE_CONFIG["s_values"]
    # two values of s: the trend is the slope of the log norm against log s
    norms = [row["operator_norm"] for row in rows]
    assert result["mq_decay"]["trend"] == pytest.approx(np.log2(norms[1] / norms[0]), rel=1e-10)
    assert result["schur"]["operator_norm"] <= result["schur"]["value"]


@pytest.mark.parametrize("trials, per_s", [(10, [3, 3, 2, 2]), (5, [2, 1, 1, 1]), (16, [4, 4, 4, 4])])
def test_singbound_writes_exactly_trials_rows(trials, per_s, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n": 16}, "trials": trials, "seed": 5}))
    out = tmp_path / "out"
    assert main(["singbound", "--config", str(path), "--out", str(out)]) == 0
    (report,) = out.glob("*/report.json")
    rows = json.loads(report.read_text())["result"]["rows"]
    s_values = ExperimentConfig().s_values
    assert len(rows) == trials
    assert [(r["s"], r["trial"]) for r in rows] == [
        (s, t) for s, count in zip(s_values, per_s) for t in range(count)
    ]
    # the etas come from one seeded stream, drawn per s in s order, so the
    # default (16 trials, 4 values of s) draws what it always drew
    rng = np.random.default_rng(5)
    etas = np.concatenate([rng.normal(size=(count, 3)) * s for s, count in zip(s_values, per_s)])
    np.testing.assert_array_equal([[r[f"eta_{j}"] for j in range(3)] for r in rows], etas)


# The records each CSV table shows, read back from the report's result block.
# select-zeta marks the sample its band selected; the report keeps that as
# the band's own s and objective.
REPORT_VIEWS = {
    "solve-cgo": lambda r: {"solve": [r]},
    "select-zeta": lambda r: {"samples": [
        {**x, "band": b["lambda"], "selected": int(x["s"] == b["s"] and x["objective"] == b["objective"])}
        for b in r["bands"] for x in b["samples"]
    ]},
    "verify-estimates": lambda r: {
        "samples": [{**x, "estimate_id": e["estimate_id"]} for e in r["estimates"] for x in e["samples"]],
        "summary": r["estimates"],
        "mq_decay": r["mq_decay"]["rows"],
    },
    "averaged-decay": lambda r: {"bands": r["bands"]},
    "singbound": lambda r: {"singbound": r["rows"]},
    "recover": lambda r: {"recover": r["modes"]},
    "uniqueness-gap": lambda r: {"gap": r["rows"]},
}

# two modes on an n=64 grid, where a gaussian passes the main-term gate at both
PAIR_CONFIG = {"grid": {"n": 64}, "samples_per_band": 2, "k_modes": [[0, 0, 1], [1, 2, 0]]}


def _expected_cell(record, column):
    """The CSV cell a report record gives for one column."""
    if column in record:
        value = record[column]
    else:
        name, _, part = column.rpartition("_")
        assert part in ("re", "im") and name in record, f"column {column} is not in the report"
        value = record[name][part]
    if value is None:
        return ""
    if isinstance(value, (bool, str)):
        return str(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, list):
        return ";".join(format(float(v), ".15g") for v in value)
    return format(float(value), ".15g")


@pytest.mark.parametrize("subcommand", list(REPORT_VIEWS))
def test_every_csv_is_a_view_of_its_report(subcommand, tmp_path):
    profiles = [{"kind": "gaussian", "amplitude": a} for a in (0.05, 0.04)]
    if subcommand == "recover":
        config = {**PAIR_CONFIG, "profiles": profiles[:1]}
    elif subcommand == "uniqueness-gap":
        config = {**PAIR_CONFIG, "profiles": profiles}
    else:
        config = SMOKE_CONFIG
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    tables = REPORT_VIEWS[subcommand](json.loads((run_dir / "report.json").read_text())["result"])
    assert sorted(p.stem for p in run_dir.glob("*.csv")) == sorted(tables)
    for name, records in tables.items():
        _, header, *rows = (run_dir / f"{name}.csv").read_text().splitlines()
        columns = header.split(",")
        assert len(rows) == len(records)
        cells = [next(csv.reader([row])) for row in rows]
        for row, record in zip(cells, records):
            assert row == [_expected_cell(record, c) for c in columns], (name, columns)
        # a column that is empty on every row shows nothing
        empty = [c for j, c in enumerate(columns) if not any(row[j] for row in cells)]
        assert not empty, (name, empty)


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} in the report")

    return json.loads(text, parse_constant=reject)


def test_one_step_solve_writes_null_final_ratio(tmp_path):
    # a uniform gamma has q = 0: the solve stops after one step, with no ratio
    config = {**SMOKE_CONFIG, "profiles": [{"kind": "uniform"}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["solve-cgo", "--config", str(path), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    result = _strict_json((run_dir / "report.json").read_text())["result"]
    assert result["iterations"] == 1 and result["contraction_estimates"] == []
    assert result["final_ratio"] is None
    _, header, row = (run_dir / "solve.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), next(csv.reader([row]))))
    assert cells["final_ratio"] == ""
    assert "nan" not in row.lower()
