"""Command line front end: run experiments, dump tables, verify invariants.

Reports are deterministic byte-for-byte for a given configuration and seed.
Independent runs (baseline and two-channel variants) draw from a generator
seeded with (seed, run_index); a single-channel experiment is one stateful
sequence, so it consumes a single stream seeded with (seed,). Amplitudes in
JSON are rendered to 17 significant digits, enough to round-trip a double.

A JSON report is exactly json.dumps(payload, indent=2, sort_keys=True) of the
payload {"all_fidelities_ok", "config", "eve" (with --eve), "ledger", "runs"}.
Run records and eve records, the bulk of a report, are each written from one
fixed template rather than through json.dumps, whose indenting encoder is pure
Python.

The parser is built once per process; parsing never mutates it, so repeated
main() calls in one process behave like separate invocations.
"""
from __future__ import annotations

import argparse
import contextlib
import enum
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import verification
from .adversary import (
    LeakageReport,
    PairObserver,
    message_interception_report,
    pair_interception_analysis,
)
from .bell import BELL_ORDER, SUPERDENSE_DECODING, SUPERDENSE_ENCODING, SYNDROME_TO_BELL
from .bell import CORRECTIONS, label_to_message
from .core import BellLabel
from .protocol import (
    Approach,
    InputSpec,
    Ledger,
    ProtocolError,
    RunReport,
    Variant,
    run_op_baseline,
    run_single_channel_aqt,
    run_two_channel_aqt,
)

FIDELITY_OK = 1e-9  # report-level threshold, looser than the test tolerances

# Every run's report stays in memory until rendering (about 5 KB each), so
# --runs is capped until reports are streamed.
MAX_RUNS = 100_000


class EveMode(enum.Enum):
    NONE = "none"
    PAIR = "pair"
    QUBIT = "qubit"


@dataclass(frozen=True)
class ExperimentConfig:
    variant: Variant
    runs: int
    channel: BellLabel
    input_spec: InputSpec
    seed: int
    eve: EveMode
    fmt: str
    out: str | None


@dataclass
class ExperimentOutcome:
    reports: list[RunReport]
    ledger: Ledger
    eve_reports: list[LeakageReport] | None
    all_fidelities_ok: bool


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _amp_pair(a: complex, b: complex) -> list[list[str]]:
    return [[_fmt(a.real), _fmt(a.imag)], [_fmt(b.real), _fmt(b.imag)]]


def _per_run_rng(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, run_index]))


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    ledger = Ledger()
    reports: list[RunReport] = []
    eve_reports: list[LeakageReport] | None = None

    if config.variant is Variant.OP:
        for i in range(config.runs):
            reports.append(
                run_op_baseline(config.input_spec, config.channel, _per_run_rng(config.seed, i), ledger, i)
            )
    elif config.variant is Variant.TWO_CHANNEL:
        if config.eve is EveMode.QUBIT:
            eve_reports = [
                message_interception_report(
                    config.input_spec, config.channel, _per_run_rng(config.seed, i), i, ledger
                )
                for i in range(config.runs)
            ]
        else:
            for i in range(config.runs):
                report = run_two_channel_aqt(
                    config.input_spec, config.channel, _per_run_rng(config.seed, i), ledger, i
                )
                if report is None:
                    raise ProtocolError(f"run {i}: dual run without an interceptor returned no report")
                reports.append(report)
    else:
        approach = (
            Approach.RESTORE_CHANNEL
            if config.variant is Variant.SINGLE_CHANNEL_RESTORE
            else Approach.TRACK_CHANNEL
        )
        rng = np.random.default_rng(np.random.SeedSequence([config.seed]))
        interceptor = PairObserver() if config.eve is EveMode.PAIR else None
        reports = run_single_channel_aqt(
            [config.input_spec] * config.runs, approach, config.channel, rng, ledger, interceptor
        )
        if config.eve is EveMode.PAIR:
            # Distinguishability is measured against a fixed |0> reference input
            # replayed under the same seed.
            eve_reports = pair_interception_analysis(
                config.input_spec,
                InputSpec.explicit(1.0, 0.0),
                approach,
                config.channel,
                config.seed,
                config.runs,
            )

    all_ok = all(r.fidelity >= 1.0 - FIDELITY_OK for r in reports)
    return ExperimentOutcome(reports, ledger, eve_reports, all_ok)


def _config_dict(config: ExperimentConfig) -> dict[str, object]:
    spec = config.input_spec
    return {
        "variant": config.variant.value,
        "runs": config.runs,
        "channel": config.channel.value,
        "input": "random" if spec.random else _amp_pair(spec.alpha, spec.beta),
        "seed": config.seed,
        "eve": config.eve.value,
    }


_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    """A float as json.dumps writes it."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _json_run(r: RunReport) -> str:
    """One element of the report's "runs" list, laid out as json.dumps(indent=2,
    sort_keys=True) writes it two levels down."""
    a, b = r.input_amplitudes
    delta = r.ledger_delta
    after = "null" if r.channel_after is None else _json_str(r.channel_after.value)
    return f"""\
    {{
      "alice_result": {_json_str(r.alice_result.value)},
      "channel_after": {after},
      "channel_before": {_json_str(r.channel_before.value)},
      "correction": {_json_str(r.correction.value)},
      "fidelity": {_json_float(r.fidelity)},
      "input_amplitudes": [
        [
          {_json_str(_fmt(a.real))},
          {_json_str(_fmt(a.imag))}
        ],
        [
          {_json_str(_fmt(b.real))},
          {_json_str(_fmt(b.imag))}
        ]
      ],
      "ledger_delta": {{
        "classical_bits_transmitted": {delta.classical_bits_transmitted},
        "epr_pairs_created": {delta.epr_pairs_created},
        "qubits_transmitted": {delta.qubits_transmitted}
      }},
      "run_index": {r.run_index},
      "variant": {_json_str(r.variant.value)}
    }}"""


def _json_leak(leak: LeakageReport) -> str:
    """One element of the report's "eve" "runs" list, laid out as json.dumps(indent=2,
    sort_keys=True) writes it three levels down."""
    obs = "null" if leak.eve_observation is None else _json_str(leak.eve_observation.value)
    return f"""\
      {{
        "distinguishability": {_json_float(leak.distinguishability)},
        "disturbance": {_json_float(leak.disturbance)},
        "eve_observation": {obs}
      }}"""


def _json_list(items: Iterable[str], indent: str) -> str:
    """A list of rendered elements, closed at the given indent; [] when empty."""
    body = ",\n".join(items)
    return f"[\n{body}\n{indent}]" if body else "[]"


def _json_field(value: object) -> str:
    """A value as json.dumps(indent=2, sort_keys=True) writes it one level down."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def render_json(config: ExperimentConfig, outcome: ExperimentOutcome) -> str:
    parts = [
        '{\n  "all_fidelities_ok": ', "true" if outcome.all_fidelities_ok else "false",
        ',\n  "config": ', _json_field(_config_dict(config)),
    ]
    if outcome.eve_reports is not None:
        parts += [
            ',\n  "eve": {\n    "mode": ', _json_str(config.eve.value),
            ',\n    "runs": ', _json_list(map(_json_leak, outcome.eve_reports), "    "), "\n  }",
        ]
    parts += [
        ',\n  "ledger": ', _json_field(outcome.ledger.as_dict()),
        ',\n  "runs": ', _json_list(map(_json_run, outcome.reports), "  "), "\n}\n",
    ]
    return "".join(parts)


def render_text(config: ExperimentConfig, outcome: ExperimentOutcome) -> str:
    spec = config.input_spec
    input_txt = (
        "random"
        if spec.random
        else f"({_fmt(spec.alpha.real)},{_fmt(spec.alpha.imag)},{_fmt(spec.beta.real)},{_fmt(spec.beta.imag)})"
    )
    lines = [
        f"variant={config.variant.value} channel={config.channel.value} runs={config.runs}"
        f" seed={config.seed} eve={config.eve.value} input={input_txt}"
    ]
    for r in outcome.reports:
        a, b = r.input_amplitudes
        after = "-" if r.channel_after is None else r.channel_after.value
        lines.append(
            f"run {r.run_index}: channel={r.channel_before.value} result={r.alice_result.value}"
            f" correction={r.correction.value} fidelity={_fmt(r.fidelity)} channel_after={after}"
            f" input=({_fmt(a.real)},{_fmt(a.imag)},{_fmt(b.real)},{_fmt(b.imag)})"
        )
    if outcome.eve_reports is not None:
        for i, leak in enumerate(outcome.eve_reports):
            obs = "-" if leak.eve_observation is None else leak.eve_observation.value
            lines.append(
                f"eve run {i}: observation={obs} disturbance={_fmt(leak.disturbance)}"
                f" distinguishability={_fmt(leak.distinguishability)}"
            )
    led = outcome.ledger
    lines.append(
        f"ledger: epr_pairs_created={led.epr_pairs_created}"
        f" qubits_transmitted={led.qubits_transmitted}"
        f" classical_bits_transmitted={led.classical_bits_transmitted}"
    )
    lines.append(f"all_fidelities_ok={'true' if outcome.all_fidelities_ok else 'false'}")
    return "\n".join(lines) + "\n"


def render_tables() -> str:
    lines = ["correction table: (channel, result) -> operator on receiver qubit"]
    for channel in BELL_ORDER:
        for result in BELL_ORDER:
            lines.append(f"  channel={channel.value} result={result.value} -> {CORRECTIONS[channel, result].value}")
    lines.append("restore table: (measured, target) -> operator on first pair member")
    for measured in BELL_ORDER:
        for target in BELL_ORDER:
            lines.append(f"  measured={measured.value} target={target.value} -> {CORRECTIONS[measured, target].value}")
    lines.append("superdense encoding: bits -> operator on sender half of phi+")
    for msg, op in SUPERDENSE_ENCODING.items():
        lines.append(f"  {msg} -> {op.value}")
    lines.append("superdense decoding: pair state -> bits")
    for label in BELL_ORDER:
        lines.append(f"  {label.value} -> {SUPERDENSE_DECODING[label]}")
    lines.append("syndrome map: ancilla bits (d, e) -> collapsed pair state")
    for (d, e), label in SYNDROME_TO_BELL.items():
        lines.append(f"  ({d}, {e}) -> {label.value}")
    lines.append("label enumeration: pair state -> message bits")
    for label in BELL_ORDER:
        lines.append(f"  {label.value} -> {label_to_message(label)}")
    return "\n".join(lines) + "\n"


def run_verify() -> int:
    results = verification.run_checks()
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} invariants hold")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleportsim",
        description="Simulate teleportation protocols whose classical channel is replaced by quantum resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded experiment and print a report")
    run.add_argument("--variant", choices=[v.value for v in Variant], default="single-i")
    run.add_argument("--runs", type=int, default=1, metavar="N")
    run.add_argument("--channel", choices=[l.value for l in BELL_ORDER], default="psi-")
    group = run.add_mutually_exclusive_group()
    group.add_argument("--input", metavar="aRe,aIm,bRe,bIm", help="explicit input amplitudes")
    group.add_argument("--random-input", action="store_true", help="Haar-random input per run (default)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--eve", choices=[m.value for m in EveMode], default="none")
    run.add_argument("--format", choices=["text", "json"], default="text", dest="fmt")
    run.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")

    sub.add_parser("tables", help="print every correction, restore and coding table")
    sub.add_parser("verify", help="run the invariant suite and report pass/fail per invariant")
    return parser


def _parse_input(parser: argparse.ArgumentParser, text: str) -> InputSpec:
    parts = text.split(",")
    if len(parts) != 4:
        parser.error(f"--input expects four comma-separated floats, got {text!r}")
    try:
        a_re, a_im, b_re, b_im = (float(p) for p in parts)
    except ValueError:
        parser.error(f"--input expects four comma-separated floats, got {text!r}")
    if not all(map(math.isfinite, (a_re, a_im, b_re, b_im))):
        parser.error(f"--input amplitudes must be finite, got {text!r}")
    # A part above 2 can never normalize; rejected before squaring, which overflows.
    if any(abs(p) > 2.0 for p in (a_re, a_im, b_re, b_im)):
        parser.error(f"input amplitudes must be normalized, got {text!r}")
    alpha, beta = complex(a_re, a_im), complex(b_re, b_im)
    nrm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if abs(nrm - 1.0) > 1e-6:
        parser.error(f"input amplitudes must be normalized, |amps| = {nrm:.8f}")
    return InputSpec.explicit(alpha / nrm, beta / nrm)


def parse_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ExperimentConfig:
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.runs > MAX_RUNS:
        parser.error(f"--runs must be at most {MAX_RUNS}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    variant = Variant(args.variant)
    eve = EveMode(args.eve)
    if eve is EveMode.PAIR and variant not in (
        Variant.SINGLE_CHANNEL_RESTORE,
        Variant.SINGLE_CHANNEL_TRACK,
    ):
        parser.error("--eve pair only applies to the single-channel variants")
    if eve is EveMode.QUBIT and variant is not Variant.TWO_CHANNEL:
        parser.error("--eve qubit only applies to the dual variant")
    spec = _parse_input(parser, args.input) if args.input is not None else InputSpec.haar()
    return ExperimentConfig(
        variant=variant,
        runs=args.runs,
        channel=BellLabel(args.channel),
        input_spec=spec,
        seed=args.seed,
        eve=eve,
        fmt=args.fmt,
        out=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = parse_config(parser, args) if args.command == "run" else None
    out = config.out if config else None
    target = f"--out {out}" if out else "stdout"
    try:
        # Opened before the run so that an unwritable path fails fast. Runs and
        # checks do no I/O, so an OSError here is the output's.
        with (open(out, "w") if out else contextlib.nullcontext(sys.stdout)) as fh:
            if args.command == "tables":
                fh.write(render_tables())
                code = 0
            elif args.command == "verify":
                code = run_verify()
            else:
                outcome = run_experiment(config)
                fh.write(render_json(config, outcome) if config.fmt == "json" else render_text(config, outcome))
                code = 0 if outcome.all_fidelities_ok else 1
            fh.flush()
    except OSError as exc:
        if target == "stdout":  # so that the exit-time flush of what stays buffered cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        parser.exit(2, f"{parser.prog}: error: cannot write {target}: {exc.strerror}\n")
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
