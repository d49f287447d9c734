"""tools/grid_hash.py: the byte-identity grid that compares two source trees.

The grid must list 1680 distinct configs that the CLI accepts, and a line
must be the sha256 of the command's stdout, its exit code and its argv.
"""

import hashlib
import importlib.util
from pathlib import Path

from teleportsim import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "grid_hash.py"
_SPEC = importlib.util.spec_from_file_location("grid_hash", _PATH)
grid_hash = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(grid_hash)


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
