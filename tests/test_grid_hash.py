"""tools/grid_hash.py and tools/identity.py: the byte-identity grid that compares two source trees.

The grid must list 1680 distinct configs that the CLI accepts, and a line
must be the sha256 of the command's stdout, its exit code and its argv.
identity.py must run it in the four standing modes and report every line
that differs; its tests feed it fake grid outputs instead of running the grid.
"""

import hashlib
import importlib.util
import subprocess
from pathlib import Path

from teleportsim import cli

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


grid_hash = _load("grid_hash")
identity = _load("identity")


def test_grid_has_1680_distinct_configs_the_cli_accepts():
    configs = grid_hash.configs()
    assert len(configs) == len({tuple(c) for c in configs}) == 1680
    parser = cli.build_parser()
    for argv in configs:
        cli.parse_config(parser, parser.parse_args(argv))


def test_a_line_is_the_stdout_hash_the_exit_code_and_the_argv():
    want = hashlib.sha256(cli.render_tables().encode()).hexdigest()
    assert grid_hash.hash_line(cli.main, ["tables"]) == f"{want} 0 tables"


def test_a_line_keeps_a_failing_exit_code():
    empty = hashlib.sha256(b"").hexdigest()
    assert grid_hash.hash_line(lambda argv: 1, ["a"]) == f"{empty} 1 a"
    assert grid_hash.hash_line(cli.main, ["run", "--runs", "0"]) == f"{empty} 2 run --runs 0"


def test_identity_runs_the_grid_in_the_four_standing_modes():
    sandybridge = {"OPENBLAS_CORETYPE": "Sandybridge"}
    assert [(flags, env) for _, flags, env in identity.MODES] == [
        ((), {}), (("-O",), {}), ((), sandybridge), (("-O",), sandybridge)
    ]
    assert identity.GRID == _TOOLS / "grid_hash.py"


_FAKE = {
    "old": ["h1 0 run a", "h2 0 run b", "h3 2 run c"],
    "new": ["h1 0 run a", "h9 0 run b", "h3 1 run c"],
}


def test_identity_prints_each_differing_line_in_every_mode_and_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(identity, "grid_lines", lambda tree, flags, env: _FAKE[tree])
    assert identity.main(["old", "new"]) == 1
    out = capsys.readouterr().out
    for line in ("-h2 0 run b", "+h9 0 run b", "-h3 2 run c", "+h3 1 run c"):
        assert out.count(line + "\n") == 4
    assert "h1" not in out
    assert out.count("3 and 3 lines, 4 differing") == 4


def test_identity_exits_zero_on_identical_trees(monkeypatch, capsys):
    monkeypatch.setattr(identity, "grid_lines", lambda tree, flags, env: _FAKE["old"])
    assert identity.main(["old", "old"]) == 0
    assert capsys.readouterr().out.count("3 and 3 lines, identical") == 4


def test_identity_reports_missing_lines_and_failed_grids(monkeypatch, capsys):
    assert identity.differences(_FAKE["old"], _FAKE["old"][:2]) == ["-h3 2 run c"]

    def failing(tree, flags, env):
        raise subprocess.CalledProcessError(1, "grid", stderr="boom")

    monkeypatch.setattr(identity, "grid_lines", failing)
    assert identity.main(["old", "new"]) == 1
    assert capsys.readouterr().out.count("the grid failed with exit code 1") == 4
    assert identity.main(["old"]) == 2
