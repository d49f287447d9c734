"""Command line tests: argument validation, report rendering, table dumps,
reproducibility and the verify subcommand's output contract.

The invariants ``verify`` runs are pytest cases of their own, in
tests/test_verification.py.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportsim import cli, verification
from teleportsim.adversary import LeakageReport
from teleportsim.cli import (
    EveMode,
    ExperimentConfig,
    build_parser,
    main,
    parse_config,
    render_json,
    run_experiment,
)
from teleportsim.core import BellLabel
from teleportsim.protocol import InputSpec, ProtocolError, Variant


def parse_args(argv):
    parser = build_parser()
    return parse_config(parser, parser.parse_args(argv))


class TestParsing:
    def test_defaults(self):
        config = parse_args(["run"])
        assert config.variant is Variant.SINGLE_CHANNEL_RESTORE
        assert config.runs == 1
        assert config.channel is BellLabel.PSI_MINUS
        assert config.input_spec.random
        assert config.seed == 0
        assert config.eve is EveMode.NONE
        args = build_parser().parse_args(["run"])
        assert args.fmt == "text"
        assert args.out is None

    def test_config_fields_are_the_report_config_section(self):
        """Output options stay in the parsed arguments; the config holds what the report records."""
        config = parse_args(["run", "--format", "json", "--out", "report.json"])
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert fields == ["variant", "runs", "channel", "input_spec", "seed", "eve"]
        assert list(cli._config_dict(config)) == ["variant", "runs", "channel", "input", "seed", "eve"]

    def test_explicit_input_parsed(self):
        config = parse_args(["run", "--input", "0.6,0,0.8,0"])
        assert not config.input_spec.random
        assert config.input_spec.alpha == 0.6
        assert config.input_spec.beta == 0.8

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--runs", "0"],
            ["run", "--seed", "-1"],
            ["run", "--input", "1,0,0"],
            ["run", "--input", "a,b,c,d"],
            ["run", "--input", "1,0,1,0"],
            ["run", "--input", "1,0,0,-inf"],
            ["run", "--input", "1e308,0,1e308,0"],
            ["run", "--variant", "op", "--eve", "pair"],
            ["run", "--variant", "single-i", "--eve", "qubit"],
            ["run", "--variant", "dual", "--eve", "pair"],
            ["run", "--runs", str(cli.MAX_RUNS + 1)],
            ["run", "--input="],
            ["run", "--input", ""],
        ],
    )
    def test_invalid_arguments_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("teleportsim: error:")]
        assert len(errors) == 1

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_runs_cap_is_accepted_and_one_more_exits_with_one_message(self, capsys):
        assert parse_args(["run", "--runs", str(cli.MAX_RUNS)]).runs == cli.MAX_RUNS
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--runs", str(cli.MAX_RUNS + 1)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if not l.startswith("usage:")]
        assert errors == [f"teleportsim: error: --runs must be at most {cli.MAX_RUNS}"]

    def test_parser_is_reused_without_carrying_arguments(self, capsys):
        valid = ["run", "--variant", "dual", "--runs", "3", "--channel", "phi+", "--seed", "7",
                 "--format", "json", "--input", "0.6,0,0,0.8"]
        assert main(valid) == 0
        first = capsys.readouterr().out
        for invalid in (["run", "--runs", "x"], ["run", "--variant", "op", "--eve", "pair"]):
            with pytest.raises(SystemExit) as excinfo:
                main(invalid)
            assert excinfo.value.code == 2
        capsys.readouterr()
        assert main(valid) == 0
        assert capsys.readouterr().out == first
        assert build_parser() is build_parser()
        assert vars(build_parser().parse_args(["run"])) == {
            "command": "run", "variant": "single-i", "runs": 1, "channel": "psi-", "input": None,
            "random_input": False, "seed": 0, "eve": "none", "fmt": "text", "out": None,
        }


_GOOD = dict(variant=Variant.OP, runs=2, channel=BellLabel.PSI_MINUS, input_spec=InputSpec.haar(), seed=0,
             eve=EveMode.NONE)
_EVE_RULES = {
    Variant.OP: {EveMode.NONE},
    Variant.TWO_CHANNEL: {EveMode.NONE, EveMode.QUBIT},
    Variant.SINGLE_CHANNEL_RESTORE: {EveMode.NONE, EveMode.PAIR},
    Variant.SINGLE_CHANNEL_TRACK: {EveMode.NONE, EveMode.PAIR},
}


class TestExperimentConfig:
    """A library caller gets a config run_experiment simulates, or one ValueError line."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("eve", list(EveMode))
    def test_eve_applies_only_where_it_can_intercept(self, variant, eve):
        make = lambda: ExperimentConfig(**{**_GOOD, "variant": variant, "eve": eve})  # noqa: E731
        if eve in _EVE_RULES[variant]:
            outcome = run_experiment(make())
            assert (outcome.eve_reports is not None) == (eve is not EveMode.NONE)
        else:
            with pytest.raises(ValueError, match=f"^--eve {eve.value} only applies to the"):
                make()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("runs", 0, "--runs must be at least 1"),
            ("runs", -3, "--runs must be at least 1"),
            ("runs", cli.MAX_RUNS + 1, f"--runs must be at most {cli.MAX_RUNS}"),
            ("seed", -1, "--seed must be nonnegative"),
            ("runs", 2.5, "runs must be an int and no bool, got 2.5"),
            ("runs", True, "runs must be an int and no bool, got True"),
            ("runs", "2", "runs must be an int and no bool, got '2'"),
            ("seed", False, "seed must be an int and no bool, got False"),
            ("seed", np.int64(1), "seed must be an int and no bool, got "),
            ("variant", "op", "variant must be an instance of Variant, got 'op'"),
            ("channel", "psi-", "channel must be an instance of BellLabel, got 'psi-'"),
            ("channel", None, "channel must be an instance of BellLabel, got None"),
            ("input_spec", (0.6, 0.8), "input_spec must be an instance of InputSpec, got (0.6, 0.8)"),
            ("eve", "none", "eve must be an instance of EveMode, got 'none'"),
        ],
    )
    def test_strays_raise_one_line(self, field, value, message):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(**{**_GOOD, field: value})
        assert str(excinfo.value).startswith(message)
        assert "\n" not in str(excinfo.value)

    def test_the_run_range_ends_at_the_cap(self):
        for runs in (1, cli.MAX_RUNS):
            assert ExperimentConfig(**{**_GOOD, "runs": runs}).runs == runs


class TestRunCommand:
    def test_op_ledger_and_exit_code(self, capsys):
        code = main(
            ["run", "--variant", "op", "--runs", "5", "--seed", "3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"] == {
            "epr_pairs_created": 5,
            "qubits_transmitted": 0,
            "classical_bits_transmitted": 10,
        }
        assert payload["all_fidelities_ok"] is True
        assert len(payload["runs"]) == 5
        assert all(r["variant"] == "op" for r in payload["runs"])

    def test_single_channel_ledger(self, capsys):
        code = main(
            ["run", "--variant", "single-i", "--runs", "3", "--seed", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"] == {
            "epr_pairs_created": 1,
            "qubits_transmitted": 9,
            "classical_bits_transmitted": 0,
        }
        afters = [r["channel_after"] for r in payload["runs"]]
        assert afters == ["psi-", "psi-", "psi-"]

    def test_dual_ledger(self, capsys):
        code = main(["run", "--variant", "dual", "--runs", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"] == {
            "epr_pairs_created": 8,
            "qubits_transmitted": 4,
            "classical_bits_transmitted": 0,
        }

    def test_track_variant_reports_collapsed_channels(self, capsys):
        code = main(
            ["run", "--variant", "single-ii", "--runs", "6", "--seed", "5", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for run in payload["runs"]:
            assert run["channel_after"] == run["alice_result"]

    def test_amplitudes_render_as_strings(self, capsys):
        main(["run", "--variant", "op", "--input", "0.6,0,0.8,0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        amps = payload["runs"][0]["input_amplitudes"]
        assert amps == [["0.59999999999999998", "0"], ["0.80000000000000004", "0"]]

    def test_text_format_structure(self, capsys):
        code = main(["run", "--runs", "2", "--seed", "4"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("variant=single-i channel=psi-")
        assert lines[1].startswith("run 0:")
        assert lines[2].startswith("run 1:")
        assert lines[-2].startswith("ledger:")
        assert lines[-1] == "all_fidelities_ok=true"

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            ["run", "--variant", "op", "--format", "json", "--seed", "2", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["config"]["variant"] == "op"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_two_with_one_message(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--input", f"{value},0,0,0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [l for l in captured.err.splitlines() if not l.startswith("usage:")]
        assert errors == [f"teleportsim: error: --input amplitudes must be finite, got '{value},0,0,0'"]

    def test_unwritable_out_exits_two_without_traceback(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", str(target)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [l for l in captured.err.splitlines() if not l.startswith("usage:")]
        assert errors == [f"teleportsim: error: cannot write --out {target}: No such file or directory"]
        assert not target.exists()

    def test_dual_run_without_report_raises(self, monkeypatch):
        monkeypatch.setattr(cli, "run_two_channel_aqt", lambda *args, **kwargs: None)
        config = parse_args(["run", "--variant", "dual", "--runs", "2"])
        with pytest.raises(ProtocolError, match="returned no report"):
            run_experiment(config)

    def test_eve_pair_report(self, capsys):
        code = main(
            [
                "run",
                "--variant",
                "single-i",
                "--runs",
                "2",
                "--eve",
                "pair",
                "--seed",
                "6",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        eve_runs = payload["eve"]["runs"]
        assert len(eve_runs) == 2
        for leak in eve_runs:
            assert leak["eve_observation"] in ("psi+", "psi-", "phi+", "phi-")
            assert leak["disturbance"] <= 1e-9
            assert leak["distinguishability"] <= 1e-9

    @pytest.mark.parametrize("text", ["0.1,0.3,0.3,0.9", "0.6,0,0,0.8"])
    @pytest.mark.parametrize("variant", ["single-i", "single-ii"])
    def test_eve_pair_records_of_an_explicit_input_describe_the_printed_runs(self, variant, text):
        """Replay "a" streams the input itself, so its runs are the printed ones
        even for an input whose amplitudes a second normalization would move."""
        for seed in range(3):
            config = parse_args(["run", "--variant", variant, "--input", text, "--eve", "pair",
                                 "--runs", "40", "--seed", str(seed)])
            outcome = run_experiment(config)
            assert len(outcome.eve_reports) == len(outcome.reports) == 40
            for r, leak in zip(outcome.reports, outcome.eve_reports):
                assert leak.disturbance == 1.0 - r.fidelity
                assert leak.eve_observation is r.alice_result

    def test_eve_qubit_report(self, capsys):
        code = main(
            ["run", "--variant", "dual", "--eve", "qubit", "--seed", "7", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == []
        leak = payload["eve"]["runs"][0]
        assert leak["eve_observation"] is None
        assert leak["disturbance"] == 1.0
        assert leak["distinguishability"] <= 1e-9


def ref_render_json(config, outcome):
    """The earlier render_json: the whole payload through one json.dumps call."""

    def value(label):
        return None if label is None else label.value

    def run_dict(r):
        return {
            "run_index": r.run_index,
            "variant": r.variant.value,
            "channel_before": r.channel_before.value,
            "alice_result": r.alice_result.value,
            "correction": r.correction.value,
            "fidelity": r.fidelity,
            "channel_after": value(r.channel_after),
            "ledger_delta": dataclasses.asdict(r.ledger_delta),
            "input_amplitudes": cli._amp_pair(*r.input_amplitudes),
        }

    def leak_dict(leak):
        return {
            "eve_observation": value(leak.eve_observation),
            "disturbance": leak.disturbance,
            "distinguishability": leak.distinguishability,
        }

    payload = {
        "config": cli._config_dict(config),
        "runs": [run_dict(r) for r in outcome.reports],
        "ledger": dataclasses.asdict(outcome.ledger),
        "all_fidelities_ok": outcome.all_fidelities_ok,
    }
    if outcome.eve_reports is not None:
        payload["eve"] = {
            "mode": config.eve.value,
            "runs": [leak_dict(leak) for leak in outcome.eve_reports],
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


VARIANT_EVES = [
    ("op", "none"),
    ("dual", "none"),
    ("dual", "qubit"),
    ("single-i", "none"),
    ("single-i", "pair"),
    ("single-ii", "none"),
    ("single-ii", "pair"),
]


class TestJsonRendering:
    @pytest.mark.parametrize("runs", [1, 4])
    @pytest.mark.parametrize("input_args", [[], ["--input", "0.28,-0.5,0.3,0.7626270385975047"]])
    @pytest.mark.parametrize("variant,eve", VARIANT_EVES)
    def test_matches_json_dumps(self, variant, eve, input_args, runs):
        config = parse_args(
            ["run", "--variant", variant, "--eve", eve, "--runs", str(runs), "--seed", "3", "--format", "json"]
            + input_args
        )
        outcome = run_experiment(config)
        assert render_json(config, outcome) == ref_render_json(config, outcome)

    @given(fidelity=st.floats(), re=st.floats(), im=st.floats())
    @example(fidelity=5e-324, re=-0.0, im=2.2250738585072014e-308)
    @example(fidelity=float(np.nextafter(1.0, 0.0)), re=1.0, im=-0.0)
    @example(fidelity=-0.0, re=1e-17, im=-1e-300)
    @example(fidelity=1e-17, re=float("nan"), im=float("-inf"))
    def test_floats_match_json_dumps(self, fidelity, re, im):
        config = parse_args(["run", "--variant", "single-ii", "--runs", "2", "--format", "json"])
        outcome = run_experiment(config)
        report = dataclasses.replace(
            outcome.reports[1], fidelity=fidelity, input_amplitudes=(complex(re, im), complex(im, re))
        )
        outcome = dataclasses.replace(outcome, reports=[outcome.reports[0], report])
        assert render_json(config, outcome) == ref_render_json(config, outcome)

    @given(disturbance=st.floats(), distinguishability=st.floats(), observed=st.booleans())
    @example(disturbance=5e-324, distinguishability=-0.0, observed=False)
    @example(disturbance=float("nan"), distinguishability=float("inf"), observed=True)
    @example(disturbance=float("-inf"), distinguishability=2.2250738585072014e-308, observed=False)
    @example(disturbance=-0.0, distinguishability=float(np.nextafter(1.0, 0.0)), observed=True)
    def test_eve_floats_match_json_dumps(self, disturbance, distinguishability, observed):
        config = parse_args(["run", "--variant", "single-i", "--eve", "pair", "--runs", "2", "--format", "json"])
        outcome = run_experiment(config)
        leak = LeakageReport(BellLabel.PHI_MINUS if observed else None, disturbance, distinguishability)
        outcome = dataclasses.replace(outcome, eve_reports=[outcome.eve_reports[0], leak])
        assert render_json(config, outcome) == ref_render_json(config, outcome)

    def test_empty_eve_runs_match_json_dumps(self):
        config = parse_args(["run", "--variant", "dual", "--eve", "qubit", "--format", "json"])
        outcome = dataclasses.replace(run_experiment(config), eve_reports=[])
        assert '"runs": []' in render_json(config, outcome)
        assert render_json(config, outcome) == ref_render_json(config, outcome)

    def test_eve_runs_name_the_observed_label(self):
        config = parse_args(["run", "--variant", "single-i", "--eve", "pair", "--runs", "2", "--format", "json"])
        leaks = [LeakageReport(BellLabel.PSI_PLUS, 0.0, 0.0), LeakageReport(None, 1.0, 0.0)]
        outcome = dataclasses.replace(run_experiment(config), eve_reports=leaks)
        assert json.loads(render_json(config, outcome))["eve"]["runs"] == [
            {"eve_observation": "psi+", "disturbance": 0.0, "distinguishability": 0.0},
            {"eve_observation": None, "disturbance": 1.0, "distinguishability": 0.0},
        ]


class TestReproducibility:
    def test_json_reports_are_byte_identical(self, tmp_path):
        argv = [
            "run",
            "--variant",
            "single-ii",
            "--runs",
            "4",
            "--seed",
            "11",
            "--format",
            "json",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [["--variant", "single-ii", "--input", "1,0,0,0"], ["--variant", "single-i", "--random-input", "--seed", "5"]],
        ids=["explicit", "haar"],
    )
    def test_eve_pair_reports_do_not_depend_on_the_hash_seed(self, args):
        """Enum members hash by their names, and str hashes vary with
        PYTHONHASHSEED, so no report may depend on the order of a set or a hash."""
        argv = [sys.executable, "-m", "teleportsim.cli", "run", *args, "--eve", "pair", "--runs", "40", "--format", "json"]
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
            proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["eve"]["mode"] == "pair"

    def test_op_runs_are_insensitive_to_run_count(self):
        # Run i draws from a generator seeded with (seed, i), so prefixes agree.
        def reports(n):
            config = ExperimentConfig(
                variant=Variant.OP,
                runs=n,
                channel=BellLabel.PSI_MINUS,
                input_spec=InputSpec.haar(),
                seed=13,
                eve=EveMode.NONE,
            )
            return run_experiment(config).reports

        assert reports(5)[:2] == reports(2)


class TestTables:
    def test_tables_content(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "channel=psi- result=phi+ -> XZ" in out
        assert "channel=psi+ result=phi+ -> X" in out
        assert "channel=psi+ result=phi- -> XZ" in out
        assert "channel=phi+ result=psi+ -> X" in out
        assert "measured=psi+ target=psi- -> Z" in out
        assert "  00 -> I" in out and "  01 -> X" in out
        assert "  10 -> Z" in out and "  11 -> XZ" in out
        assert "phi- -> 10" in out  # superdense decoding section
        assert "phi+ -> 10" in out  # label enumeration section
        assert "(1, 0) -> psi+" in out
        assert "(0, 1) -> phi-" in out

    def test_table_sections_present(self, capsys):
        main(["tables"])
        out = capsys.readouterr().out
        for heading in (
            "correction table:",
            "restore table:",
            "superdense encoding:",
            "superdense decoding:",
            "syndrome map:",
            "label enumeration:",
        ):
            assert heading in out

    def test_whole_output_is_pinned(self, capsys):
        # Every derived entry and the order of every section, byte for byte.
        assert main(["tables"]) == 0
        assert capsys.readouterr().out == TABLES_STDOUT


# The full `teleportsim tables` output, as printed when every table was hand-written.
TABLES_STDOUT = """\
correction table: (channel, result) -> operator on receiver qubit
  channel=psi+ result=psi+ -> I
  channel=psi+ result=psi- -> Z
  channel=psi+ result=phi+ -> X
  channel=psi+ result=phi- -> XZ
  channel=psi- result=psi+ -> Z
  channel=psi- result=psi- -> I
  channel=psi- result=phi+ -> XZ
  channel=psi- result=phi- -> X
  channel=phi+ result=psi+ -> X
  channel=phi+ result=psi- -> XZ
  channel=phi+ result=phi+ -> I
  channel=phi+ result=phi- -> Z
  channel=phi- result=psi+ -> XZ
  channel=phi- result=psi- -> X
  channel=phi- result=phi+ -> Z
  channel=phi- result=phi- -> I
restore table: (measured, target) -> operator on first pair member
  measured=psi+ target=psi+ -> I
  measured=psi+ target=psi- -> Z
  measured=psi+ target=phi+ -> X
  measured=psi+ target=phi- -> XZ
  measured=psi- target=psi+ -> Z
  measured=psi- target=psi- -> I
  measured=psi- target=phi+ -> XZ
  measured=psi- target=phi- -> X
  measured=phi+ target=psi+ -> X
  measured=phi+ target=psi- -> XZ
  measured=phi+ target=phi+ -> I
  measured=phi+ target=phi- -> Z
  measured=phi- target=psi+ -> XZ
  measured=phi- target=psi- -> X
  measured=phi- target=phi+ -> Z
  measured=phi- target=phi- -> I
superdense encoding: bits -> operator on sender half of phi+
  00 -> I
  01 -> X
  10 -> Z
  11 -> XZ
superdense decoding: pair state -> bits
  psi+ -> 01
  psi- -> 11
  phi+ -> 00
  phi- -> 10
syndrome map: ancilla bits (d, e) -> collapsed pair state
  (1, 0) -> psi+
  (1, 1) -> psi-
  (0, 0) -> phi+
  (0, 1) -> phi-
label enumeration: pair state -> message bits
  psi+ -> 00
  psi- -> 01
  phi+ -> 10
  phi- -> 11
"""


def _raise():
    raise RuntimeError("kaput")


class TestVerify:
    """Stub checks stand in for the registry; only the CLI contract is tested."""

    def verify(self, monkeypatch, capsys, checks):
        monkeypatch.setattr(verification, "CHECKS", checks)
        code = main(["verify"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_verify_passes(self, monkeypatch, capsys):
        checks = [("stub/a", lambda: (True, "fine")), ("stub/b", lambda: (True, "also fine"))]
        code, out, err = self.verify(monkeypatch, capsys, checks)
        assert code == 0
        assert out == "PASS stub/a: fine\nPASS stub/b: also fine\n2/2 invariants hold\n"
        assert err == ""

    def test_failing_check_exits_one(self, monkeypatch, capsys):
        checks = [("stub/a", lambda: (True, "fine")), ("stub/b", lambda: (False, "off by 1"))]
        code, out, _ = self.verify(monkeypatch, capsys, checks)
        assert code == 1
        assert out == "PASS stub/a: fine\nFAIL stub/b: off by 1\n1/2 invariants hold\n"

    def test_raising_check_fails_without_traceback(self, monkeypatch, capsys):
        checks = [("stub/boom", _raise), ("stub/a", lambda: (True, "fine"))]
        code, out, err = self.verify(monkeypatch, capsys, checks)
        assert code == 1
        assert out == "FAIL stub/boom: raised RuntimeError: kaput\nPASS stub/a: fine\n1/2 invariants hold\n"
        assert "Traceback" not in out + err


_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli(args, stdout):
    """The CLI in a fresh interpreter with Python's default buffering; (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdout is flushed again at exit
    proc = subprocess.run(
        [sys.executable, "-m", "teleportsim.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestUnwritableOutput:
    """Output that cannot be written or flushed exits 2 with one error line."""

    @pytest.mark.parametrize(
        "args",
        [["run"], ["run", "--runs", "200", "--format", "json"], ["tables"], ["verify"]],
    )
    def test_full_stdout_exits_two_with_one_line(self, args):
        with open("/dev/full", "w") as full:
            code, err = _run_cli(args, full)
        assert code == 2
        assert err == "teleportsim: error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("runs", ["1", "200"])
    def test_full_out_file_exits_two_with_one_line(self, runs):
        code, err = _run_cli(["run", "--runs", runs, "--out", "/dev/full"], subprocess.DEVNULL)
        assert code == 2
        assert err == "teleportsim: error: cannot write --out /dev/full: No space left on device\n"


@st.composite
def _unit_input(draw):
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    s = math.sin(theta / 2)
    return ",".join(map(repr, (math.cos(theta / 2), 0.0, s * math.cos(phi), s * math.sin(phi))))


_INPUT_TEXT = st.none() | st.text() | _unit_input() | st.lists(st.floats(), min_size=4, max_size=4).map(
    lambda parts: ",".join(map(repr, parts))
)


@settings(max_examples=200)
@given(
    input_text=_INPUT_TEXT,
    seed=st.integers(-1, 2**64),
    channel=st.sampled_from([label.value for label in BellLabel]),
    variant=st.sampled_from([v.value for v in Variant]),
    eve=st.sampled_from([m.value for m in EveMode]),
    runs=st.sampled_from([0, 1, 2, cli.MAX_RUNS + 1]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_main_simulates_exactly_or_exits_two(input_text, seed, channel, variant, eve, runs, fmt):
    argv = ["run", "--variant", variant, "--channel", channel, "--eve", eve, "--seed", str(seed),
            "--runs", str(runs), "--format", fmt]
    if input_text is not None:
        argv.append(f"--input={input_text}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 0:
        ok = '"all_fidelities_ok": true' if fmt == "json" else "all_fidelities_ok=true"
        assert ok in out.getvalue() and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        errors = [l for l in err.getvalue().splitlines() if l.startswith("teleportsim: error:")]
        assert len(errors) == 1 and "Traceback" not in err.getvalue()


@given(seed=st.integers(0, 2**64), run_index=st.integers(0, cli.MAX_RUNS))
@example(seed=2**32 - 1, run_index=cli.MAX_RUNS)
@example(seed=2**32, run_index=0)
@example(seed=2**64, run_index=1)
def test_per_run_generators_draw_as_list_seeded_ones(seed, run_index):
    """Below 2**32 the two seeds go in as a uint32 array, above it as a list; the
    draws are those of a generator seeded with the list either way."""
    want = np.random.default_rng(np.random.SeedSequence([seed, run_index]))
    assert np.array_equal(cli._per_run_rng(seed, run_index).random(8), want.random(8))


def test_importing_the_cli_leaves_verification_and_the_oracle_unloaded():
    """Only verify needs them, so run and tables do not compile them in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, teleportsim.cli; print(sorted(set(sys.modules) & {'teleportsim.verification', 'teleportsim.oracle'}))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
