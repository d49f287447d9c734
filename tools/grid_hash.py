"""Hash the output of a fixed grid of CLI configs, one line per config.

    python tools/grid_hash.py [SOURCE_TREE]
    python -O tools/grid_hash.py [SOURCE_TREE]

SOURCE_TREE is a checkout of this repository (default: the one holding this
script); teleportsim is imported from its src/ directory. One process runs
`teleportsim run` over op/dual/single-i/single-ii x 4 channels x seeds 0-5 x
every valid --eve x a Haar and four explicit inputs (one with signed zeros,
one whose amplitudes a second normalization moves) x json/text, at 25 runs
each (1680 configs), then `verify` and `tables`. Each
output line is "<sha256 of stdout> <exit code> <argv>", so diffing the output
of two trees names every config whose report or exit code changed:

    diff <(python tools/grid_hash.py OLD) <(python tools/grid_hash.py NEW)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
from pathlib import Path

# The grid is fixed here rather than read from the package, so two trees are
# always compared over the same configs.
EVE_MODES = {"op": ("none",), "dual": ("none", "qubit"), "single-i": ("none", "pair"), "single-ii": ("none", "pair")}
CHANNELS = ("psi+", "psi-", "phi+", "phi-")
SEEDS = range(6)
INPUTS = (
    ("--random-input",),
    ("--input", "0.6,0,0,0.8"),
    ("--input", "0.5,0.5,0.5,-0.5"),
    # Run-tree keys read amplitude bytes, so -0.0 and 0.0 take different paths.
    # One token: argparse would take a separate "-0.0,..." for an option.
    ("--input=-0.0,0.0,0.7071067811865476,-0.7071067811865475",),
    # Normalizing its parsed amplitudes again changes their bytes, so a replay
    # that resolves the input twice teleports another state.
    ("--input", "0.1,0.3,0.3,0.9"),
)
FORMATS = ("json", "text")
RUNS = 25


def configs() -> list[list[str]]:
    """The argv of every `run` config of the grid, in output order."""
    return [
        ["run", "--variant", variant, "--channel", channel, "--seed", str(seed), "--eve", eve, *source]
        + ["--format", fmt, "--runs", str(RUNS)]
        for variant, eves in EVE_MODES.items()
        for eve, channel, seed, source, fmt in itertools.product(eves, CHANNELS, SEEDS, INPUTS, FORMATS)
    ]


def hash_line(main, argv: list[str]) -> str:
    """'<sha256 of what main(argv) writes to stdout> <its exit code> <argv>'."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # the CLI rejects a config by exiting 2
            code = exc.code
    return f"{hashlib.sha256(out.getvalue().encode()).hexdigest()} {code} {' '.join(argv)}"


def main(argv: list[str]) -> None:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    sys.path.insert(0, str(tree / "src"))
    from teleportsim import cli

    for config in configs() + [["verify"], ["tables"]]:
        print(hash_line(cli.main, config), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
