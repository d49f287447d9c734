"""tools/grid_hash.py: the byte-identity grid that compares two source trees.

The grid must list 1008 distinct configs that the CLI accepts, and a line
must be the sha256 of the command's stdout followed by its argv.
"""

import hashlib
import importlib.util
from pathlib import Path

from teleportsim import cli

_PATH = Path(__file__).resolve().parent.parent / "tools" / "grid_hash.py"
_SPEC = importlib.util.spec_from_file_location("grid_hash", _PATH)
grid_hash = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(grid_hash)


def test_grid_has_1008_distinct_configs_the_cli_accepts():
    configs = grid_hash.configs()
    assert len(configs) == len({tuple(c) for c in configs}) == 1008
    parser = cli.build_parser()
    for argv in configs:
        cli.parse_config(parser, parser.parse_args(argv))


def test_a_line_is_the_stdout_hash_and_the_argv():
    want = hashlib.sha256(cli.render_tables().encode()).hexdigest()
    assert grid_hash.hash_line(cli.main, ["tables"]) == f"{want} tables"
