"""Compare two source trees over the byte-identity grid in the four standing modes.

    python tools/identity.py OLD NEW

Runs tools/grid_hash.py (the copy next to this script, so both trees are
hashed over the same configs) against OLD and against NEW in each mode:
the default kernels and OPENBLAS_CORETYPE=Sandybridge, each under python and
python -O. Prints every line that differs, as diff does, under a header
naming its mode, then one summary line per mode. Exits 1 on any difference
or on a grid run that fails, 0 when all four modes are identical.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
from pathlib import Path

GRID = Path(__file__).resolve().parent / "grid_hash.py"

# (mode name, extra interpreter flags, extra environment)
MODES = (
    ("default", (), {}),
    ("default -O", ("-O",), {}),
    ("Sandybridge", (), {"OPENBLAS_CORETYPE": "Sandybridge"}),
    ("Sandybridge -O", ("-O",), {"OPENBLAS_CORETYPE": "Sandybridge"}),
)


def grid_lines(tree: str, flags: tuple[str, ...], env: dict[str, str]) -> list[str]:
    """The grid's output lines for one tree in one mode."""
    proc = subprocess.run(
        [sys.executable, *flags, str(GRID), tree],
        env={**os.environ, **env}, capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


def differences(old: list[str], new: list[str]) -> list[str]:
    """The lines that differ between two grid outputs, '-' for old and '+' for new."""
    return [
        line for line in difflib.unified_diff(old, new, "old", "new", lineterm="", n=0)
        if line[:1] in "-+" and not line.startswith(("---", "+++"))
    ]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/identity.py OLD NEW", file=sys.stderr)
        return 2
    old_tree, new_tree = argv
    differing = 0
    for name, flags, env in MODES:
        try:
            old, new = grid_lines(old_tree, flags, env), grid_lines(new_tree, flags, env)
        except subprocess.CalledProcessError as exc:
            print(f"{name}: the grid failed with exit code {exc.returncode}:\n{exc.stderr}")
            differing += 1
            continue
        diff = differences(old, new)
        if diff:
            print(f"== {name}")
            print("\n".join(diff))
            differing += 1
        print(f"{name}: {len(old)} and {len(new)} lines, {f'{len(diff)} differing' if diff else 'identical'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
