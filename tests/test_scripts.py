import importlib.util
import sys
from pathlib import Path

from conftest import FIXTURE_CSV
from demandcast.cli import build_parser

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_script_regenerates_the_committed_fixture(tmp_path, monkeypatch):
    # pins the bits of simulate, from which the fixture's demand is drawn
    out = tmp_path / "fixture.csv"
    monkeypatch.setattr(sys, "argv", ["make_synthetic_fixture.py", "--out", str(out)])
    _load("make_synthetic_fixture").main()
    assert out.read_bytes() == FIXTURE_CSV.read_bytes()


def test_full_study_stages_parse_under_the_cli(tmp_path, monkeypatch):
    script = _load("run_full_study")
    argvs = []
    monkeypatch.setattr(script, "main", lambda argv: argvs.append(argv) or 0)
    options = {"input": "demand.csv", "out_dir": str(tmp_path), "split": "count:30",
               "season": "7", "jobs": "2", "seed": "3"}
    argv = [part for name, value in options.items() for part in ("--" + name.replace("_", "-"), value)]
    monkeypatch.setattr(sys, "argv", ["run_full_study.py", *argv])
    assert script.run() == 0
    assert [a[0] for a in argvs] == list(script.STAGES)
    reached = set()
    for stage_argv in argvs:
        parsed = vars(build_parser().parse_args(stage_argv))
        reached |= {name for name, value in options.items() if parsed.get(name) == value}
    assert reached == set(options)
