"""Workload generation: each workload is a list of ``teleportsim`` argv lists.

Generation is a pure function of (workload name, seed) and uses only the
standard library, so the program under test sees nothing but the argv lists.
The structure of each workload (the sequence of variants, ``--runs``, formats
and input kinds) is fixed; the seed picks the channels, the explicit
amplitudes and each op's ``--seed``. Fixing the structure keeps the amount of
work per pass, and the warm-up op (the first), the same for every seed, so
times differ across seeds only by host noise.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("single-stream", "independent-short", "eavesdrop", "verify")
CHANNELS = ("psi+", "psi-", "phi+", "phi-")

# --runs of each of the four single-stream ops.
SINGLE_STREAM_RUNS = 1000

# independent-short: this many ops per variant, cycling through these --runs.
SHORT_OPS_PER_VARIANT = 100
SHORT_RUN_COUNTS = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 30)

# eavesdrop: (variant, eve mode, --runs, format) for every op of a pass.
EAVESDROP_OPS = (
    ("single-i", "pair", 80, "json"),
    ("single-i", "pair", 80, "text"),
    ("single-ii", "pair", 80, "json"),
    ("single-ii", "pair", 80, "text"),
    ("dual", "qubit", 100, "json"),
    ("dual", "qubit", 100, "json"),
    ("dual", "qubit", 100, "text"),
    ("dual", "qubit", 100, "text"),
)


@dataclass(frozen=True)
class Op:
    """One in-process ``teleportsim`` invocation and what the gate needs to check it."""

    argv: tuple[str, ...]
    variant: str | None = None  # None for ``verify``
    runs: int = 0
    channel: str = ""
    seed: int = 0
    eve: str = "none"
    fmt: str = "text"
    amplitudes: tuple[float, float, float, float] | None = None  # None means Haar input

    @property
    def is_run(self) -> bool:
        return self.variant is not None


def run_op(
    variant: str,
    runs: int,
    channel: str,
    seed: int,
    fmt: str,
    eve: str = "none",
    amplitudes: tuple[float, float, float, float] | None = None,
) -> Op:
    argv = ["run", "--variant", variant, "--runs", str(runs), "--channel", channel,
            "--seed", str(seed), "--format", fmt]
    if eve != "none":
        argv += ["--eve", eve]
    if amplitudes is not None:
        argv.append("--input=" + ",".join(repr(x) for x in amplitudes))
    return Op(tuple(argv), variant, runs, channel, seed, eve, fmt, amplitudes)


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _explicit_amplitudes(rng: random.Random, basis: bool) -> tuple[float, float, float, float]:
    if basis:
        return (1.0, 0.0, 0.0, 0.0) if rng.random() < 0.5 else (0.0, 0.0, 1.0, 0.0)
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sin(theta / 2.0)
    return (math.cos(theta / 2.0), 0.0, s * math.cos(phi), s * math.sin(phi))


def _single_stream(rng: random.Random) -> list[Op]:
    channels = list(CHANNELS)
    rng.shuffle(channels)
    return [
        run_op(variant, SINGLE_STREAM_RUNS, channel, _op_seed(rng), "json")
        for variant, channel in zip(["single-i", "single-ii"] * 2, channels)
    ]


def _independent_short(rng: random.Random) -> list[Op]:
    ops = []
    for k in range(SHORT_OPS_PER_VARIANT):
        runs = SHORT_RUN_COUNTS[k % len(SHORT_RUN_COUNTS)]
        fmt = ("json", "text")[k % 2]
        kind = k % 4  # 0, 1: Haar; 2: generic explicit; 3: basis state
        for variant in ("op", "dual"):
            amps = None if kind < 2 else _explicit_amplitudes(rng, basis=kind == 3)
            ops.append(run_op(variant, runs, rng.choice(CHANNELS), _op_seed(rng), fmt, amplitudes=amps))
    return ops


def _eavesdrop(rng: random.Random) -> list[Op]:
    return [
        run_op(variant, runs, rng.choice(CHANNELS), _op_seed(rng), fmt, eve=eve)
        for variant, eve, runs, fmt in EAVESDROP_OPS
    ]


def generate(workload: str, seed: int) -> list[Op]:
    """The ops of one pass of ``workload``; the same (workload, seed) gives the same ops."""
    if workload == "verify":
        return [Op(("verify",))]
    builders = {
        "single-stream": _single_stream,
        "independent-short": _independent_short,
        "eavesdrop": _eavesdrop,
    }
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](random.Random(f"{workload}/{seed}"))
