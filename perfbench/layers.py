"""Per-layer metrics and pinned hand counts, computed from one traced pass.

A layer is a teleportsim module. A span's self time is its duration minus the
durations of its direct children. "Per run" divides by the teleportation runs
of the pass: the sum of ``--runs`` for run ops, and for ``verify`` the runs the
protocol run functions executed. A metric whose function the workload never
reaches reads 0.
"""
from __future__ import annotations

from collections import Counter, defaultdict

from .tracer import Span
from .workloads import Op

CORE_FNS = (
    "apply_gate", "apply_pauli", "extend", "measure_qubit",
    "drop_qubit", "prepare_bell", "reduced_density", "relabel",
)
VARIANTS = ("op", "single-i", "single-ii", "dual")
DRAW_KEYS = VARIANTS + ("single-i.eve-pair", "single-ii.eve-pair", "dual.eve-qubit")
CHECK_LABELS = (
    "core/unitarity", "core/involutions", "core/hadamard-bell-action",
    "core/measurement-statistics", "core/reduced-density", "bell/table-consistency",
    "bell/syndrome-bijection", "bell/qnd-idempotence", "bell/uniform-syndromes",
    "bell/superdense-roundtrip", "bell/restore-correctness", "protocol/perfect-teleportation",
    "protocol/receiver-determinism", "protocol/resource-claims", "protocol/approach-equivalence",
    "protocol/oracle-equivalence", "adversary/zero-leakage", "adversary/non-disturbance",
    "adversary/message-secrecy",
)

# Hand counts. One QND measurement: 8 gates, 2 ancillas extended, measured and
# dropped. Rng draws per Haar-input run = measure_qubit calls + 2 for the Haar
# input; an explicit input takes the 2 Haar draws away. Dual registers peak at
# A, B, MA, MB, C plus the two QND ancillas.
QND_CHILDREN = {"core.apply_gate": 8, "core.extend": 2, "core.measure_qubit": 2, "core.drop_qubit": 2}
HAAR_DRAWS = {
    "op": 6, "dual": 8, "single-i": 6, "single-ii": 6,
    "single-i.eve-pair": 8, "single-ii.eve-pair": 8, "dual.eve-qubit": 6,
}
MAX_LIVE_QUBITS = 7

RUN_FUNCTIONS = ("protocol.run_op_baseline", "protocol.run_two_channel_aqt", "protocol.run_single_channel_aqt")
# Children of cli.main that are not argument parsing or printing.
MAIN_WORK = ("cli.run_experiment", "cli.render_json", "cli.render_text", "cli.run_verify", "cli.render_tables")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    out = []
    for fn in CORE_FNS:
        out += [(f"core.{fn}.calls_per_run", "calls/run"), (f"core.{fn}.us", "us")]
    out += [("core.self_share", "ratio"), ("core.peak_live_qubits", "qubits")]
    out += [
        ("bell.qnd_bell_measure.calls_per_run", "calls/run"),
        ("bell.qnd_bell_measure.us", "us"),
        ("bell.apply_qnd_circuit.us", "us"),
        ("bell.decode_superdense.us", "us"),
        ("bell.syndrome_probabilities.us", "us"),
        ("bell.self_share", "ratio"),
    ]
    out += [(f"protocol.us_per_run.{v}", "us/run") for v in VARIANTS]
    out += [(f"protocol.draws_per_run.{k}", "draws/run") for k in DRAW_KEYS]
    out += [("protocol.InputSpec.resolve.us", "us"), ("protocol.self_share", "ratio")]
    out += [
        ("adversary.pair_interception_analysis.us_per_run", "us/run"),
        ("adversary.message_interception_report.us", "us"),
        ("adversary.trace_distance.us", "us"),
        ("adversary.analytic_label_distribution.us", "us"),
        ("adversary.self_share", "ratio"),
    ]
    out += [
        ("cli.run_experiment.self_us_per_run", "us/run"),
        ("cli.render.us_per_run.json", "us/run"),
        ("cli.render.us_per_run.text", "us/run"),
        ("cli.parse.us_per_op", "us/op"),
        ("cli.report_bytes_per_run", "B/run"),
    ]
    out += [(f"oracle.{fn}.us", "us") for fn in ("op_run", "single_experiment", "dual_run")]
    out += [(f"verification.check.{label.replace('/', '.')}.ms", "ms") for label in CHECK_LABELS]
    out += [("trace.overhead_s", "s")]
    return out


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def compute(
    spans: list[Span], ops: list[Op], report_bytes: list[int], check_functions: dict[str, str]
) -> tuple[dict[str, float], dict[int, list[str]]]:
    """Per-layer metrics of one traced pass, and hand-count violations by op index.

    ``check_functions`` maps each CHECKS label to its function name. The
    ``trace.overhead_s`` metric is left to the caller.
    """
    problems: dict[int, list[str]] = defaultdict(list)
    dur = [s.end - s.start for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += dur[i]
    calls: Counter[str] = Counter()
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        incl[s.name] += dur[i]
        self_t[s.name] += dur[i] - child[i]
        layer_self[s.name.split(".", 1)[0]] += dur[i] - child[i]
    total = sum(d for d, s in zip(dur, spans) if s.parent < 0)

    draws: dict[str, int] = defaultdict(int)
    draw_runs: dict[str, int] = defaultdict(int)
    variant_us: dict[str, float] = defaultdict(float)
    variant_runs: dict[str, int] = defaultdict(int)
    op_runs = [op.runs for op in ops]
    peak = 0
    main_work = defaultdict(float)
    for i, s in enumerate(spans):
        if s.name.startswith("core.") and s.info is not None:
            peak = max(peak, s.info)
            if s.info > MAX_LIVE_QUBITS:
                problems[s.op].append(f"{s.name} left {s.info} live qubits (> {MAX_LIVE_QUBITS})")
        elif s.name == "bell.qnd_bell_measure":
            inside = Counter(t.name for t in spans[i + 1:s.end_index])
            got = {name: inside[name] for name in QND_CHILDREN}
            if got != QND_CHILDREN:
                problems[s.op].append(f"QND measurement made {got}, want {QND_CHILDREN}")
        elif s.name in RUN_FUNCTIONS:
            key, runs = s.info
            inside = spans[i + 1:s.end_index]
            measures = sum(t.name == "core.measure_qubit" for t in inside)
            resolves = [t.info for t in inside if t.name == "protocol.InputSpec.resolve"]
            if measures != runs * (HAAR_DRAWS[key] - 2) or len(resolves) != runs:
                problems[s.op].append(
                    f"{key}: {measures} measurements and {len(resolves)} input resolves in {runs} runs"
                )
            draws[key] += measures + 2 * sum(resolves)
            draw_runs[key] += runs
            base = key.split(".", 1)[0]
            variant_us[base] += dur[i]
            variant_runs[base] += runs
            if not ops[s.op].is_run:
                op_runs[s.op] += runs
            if s.name == "protocol.run_two_channel_aqt":
                top = max((t.info or 0 for t in inside if t.name.startswith("core.")), default=0)
                if top != MAX_LIVE_QUBITS:
                    problems[s.op].append(f"dual run peaked at {top} live qubits, want {MAX_LIVE_QUBITS}")
        if s.parent >= 0 and spans[s.parent].parent < 0 and s.name in MAIN_WORK:
            main_work[s.parent] += dur[i]

    runs_total = sum(op_runs)
    run_op_runs = sum(op.runs for op in ops if op.is_run)
    fmt_runs = {fmt: sum(op.runs for op in ops if op.is_run and op.fmt == fmt) for fmt in ("json", "text")}
    tops = [i for i, s in enumerate(spans) if s.parent < 0]

    m: dict[str, float] = {}
    for fn in CORE_FNS:
        name = f"core.{fn}"
        m[f"{name}.calls_per_run"] = _per(calls[name], runs_total)
        m[f"{name}.us"] = 1e6 * _per(self_t[name], calls[name])
    m["core.self_share"] = _per(layer_self["core"], total)
    m["core.peak_live_qubits"] = peak
    m["bell.qnd_bell_measure.calls_per_run"] = _per(calls["bell.qnd_bell_measure"], runs_total)
    for fn in ("qnd_bell_measure", "apply_qnd_circuit", "decode_superdense", "syndrome_probabilities"):
        m[f"bell.{fn}.us"] = 1e6 * _per(incl[f"bell.{fn}"], calls[f"bell.{fn}"])
    m["bell.self_share"] = _per(layer_self["bell"], total)
    for v in VARIANTS:
        m[f"protocol.us_per_run.{v}"] = 1e6 * _per(variant_us[v], variant_runs[v])
    for k in DRAW_KEYS:
        m[f"protocol.draws_per_run.{k}"] = _per(draws[k], draw_runs[k])
    name = "protocol.InputSpec.resolve"
    m[f"{name}.us"] = 1e6 * _per(incl[name], calls[name])
    m["protocol.self_share"] = _per(layer_self["protocol"], total)
    name = "adversary.pair_interception_analysis"
    analysed = sum(s.info for s in spans if s.name == name and s.info is not None)
    m[f"{name}.us_per_run"] = 1e6 * _per(incl[name], analysed)
    for fn in ("message_interception_report", "trace_distance", "analytic_label_distribution"):
        m[f"adversary.{fn}.us"] = 1e6 * _per(incl[f"adversary.{fn}"], calls[f"adversary.{fn}"])
    m["adversary.self_share"] = _per(layer_self["adversary"], total)
    m["cli.run_experiment.self_us_per_run"] = 1e6 * _per(self_t["cli.run_experiment"], run_op_runs)
    m["cli.render.us_per_run.json"] = 1e6 * _per(incl["cli.render_json"], fmt_runs["json"])
    m["cli.render.us_per_run.text"] = 1e6 * _per(incl["cli.render_text"], fmt_runs["text"])
    m["cli.parse.us_per_op"] = 1e6 * _per(sum(dur[i] - main_work[i] for i in tops), len(tops))
    m["cli.report_bytes_per_run"] = _per(sum(report_bytes), runs_total)
    for fn in ("op_run", "single_experiment", "dual_run"):
        m[f"oracle.{fn}.us"] = 1e6 * _per(incl[f"oracle.{fn}"], calls[f"oracle.{fn}"])
    for label in CHECK_LABELS:
        name = f"verification.{check_functions.get(label, '')}"
        m[f"verification.check.{label.replace('/', '.')}.ms"] = 1e3 * _per(incl[name], calls[name])
    return m, dict(problems)
