import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cgolab.cli
import cgolab.errors
import cgolab.recovery
from cgolab.cli import EXIT_CONFIG, build_parser, main
from cgolab.config import ExperimentConfig, GridConfig, ProfileConfig

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cgolab.cli; "
        "assert 'scipy' not in sys.modules, 'cgolab.cli imports scipy'"
    )
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)


def test_threads_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify-estimates", "--config", "c.json", "--threads", "2"])
    assert exc.value.code == 2


def test_config_with_threads_exits_before_computing(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"threads": 2, "out_dir": str(tmp_path / "out")}))
    assert main(["verify-estimates", "--config", str(path)]) == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand, field, value",
    [
        ("select-zeta", "samples_per_band", "a"),
        ("averaged-decay", "quad_s", 2),
        ("singbound", "singbound_m", 4),
        ("select-zeta", "bands", [64, 8]),
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
    wrong = {"int": 16.0, "float": "a", "bool": "no", "str": 5, "list": 5, "GridConfig": 5}
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
    gate = cgolab.cli.pairing_weight

    def failing_on_second(cond, k, phi):
        if k[2] > 1.5:
            raise cgolab.errors.CgolabError("main-term transform oracle mismatch: second mode")
        return gate(cond, k, phi)

    def forbidden(*args, **kwargs):
        raise AssertionError("computed past the main-term gate")

    monkeypatch.setattr(cgolab.cli, "pairing_weight", failing_on_second)
    monkeypatch.setattr(cgolab.recovery, "select_zeta_sequence", forbidden)
    path = tmp_path / "c.json"
    config = {"grid": {"n": 64}, "k_modes": [[0, 0, 1], [0, 0, 2]], "out_dir": str(tmp_path / "out")}
    path.write_text(json.dumps(config))
    assert main(["recover", "--config", str(path)]) == 1
    assert "second mode" in capsys.readouterr().err


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
    (mq,) = [e for e in result["estimates"] if e["estimate_id"] == "mq_decay"]
    assert [row["params"]["s"] for row in mq["samples"]] == SMOKE_CONFIG["s_values"]
    assert result["schur"]["operator_norm"] <= result["schur"]["value"]
