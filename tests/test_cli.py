import json
import subprocess
import sys
from pathlib import Path

import pytest

from cgolab.cli import EXIT_CONFIG, build_parser, main

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
