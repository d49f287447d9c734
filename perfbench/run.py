"""teleportsim benchmark: one closed-loop client, one op at a time, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src/``.
An op is one call to ``teleportsim.cli.main(argv)`` with stdout captured in
memory. A pass runs every op of the workload once; passes repeat until the
ops have taken ``--seconds`` in total. Every op is checked (see ``gate.py``):
the first pass in full, later passes by byte equality with the first.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median over
fresh processes of importing ``teleportsim.cli``, generating the workload and
one warm-up op. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the first traced pass (see ``layers.py``) and
the tracing overhead. Spans and full results, with provenance, are written
under ``.perfbench/``. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MEASURE_CAP_S = 120  # stop repeating passes after this long, whatever --seconds says

if __name__ == "__main__":
    if not (SRC / "teleportsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no teleportsim sources at {SRC}; run from a source checkout")
    sys.path[0:1] = [str(ROOT), str(SRC)]

from perfbench.stats import percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, generate  # noqa: E402


def run_op(cli, argv: tuple[str, ...]) -> tuple[float, int, str]:
    """(seconds, exit code, captured stdout) of one ``cli.main`` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that raises is a failed op, not a failed benchmark
            traceback.print_exc()
            code = -1
        elapsed = perf_counter() - start
    return elapsed, code, buf.getvalue()


class Checker:
    """Gates every op and counts attempts and failures."""

    def __init__(self, gate, ops: list[Op]) -> None:
        self.gate = gate
        self.ops = ops
        self.raw: list[str | None] = [None] * len(ops)
        self.digests: list[str] = [""] * len(ops)
        self.report_bytes = [0] * len(ops)
        self.attempted = 0
        self.failures: set[tuple[int, int]] = set()
        self.passes = 0
        self.pin_mismatch = False

    def fail(self, index: int, problem: str, pass_no: int | None = None) -> None:
        pass_no = self.passes if pass_no is None else pass_no
        if (pass_no, index) not in self.failures:
            print(f"FAIL pass {pass_no} op {index} {' '.join(self.ops[index].argv)}: {problem}",
                  file=sys.stderr)
        self.failures.add((pass_no, index))

    def __call__(self, index: int, op: Op, code: int, report: str) -> None:
        self.attempted += 1
        self.report_bytes[index] = len(report.encode())
        raw = hashlib.sha256(report.encode()).hexdigest()
        if self.raw[index] is None:
            self.raw[index] = raw
            problem, self.digests[index] = self.gate.check_op(op, code, report)
        elif code != 0:
            problem = f"exit code {code}"
        elif raw != self.raw[index]:
            problem = "report differs from the first pass"
        else:
            problem = None
        if problem:
            self.fail(index, problem)

    @property
    def failed(self) -> int:
        return self.attempted if self.pin_mismatch else len(self.failures)

    def check_pin(self, workload: str, seed: int) -> None:
        pinned = json.loads((ROOT / "perfbench" / "pins.json").read_text())
        want = pinned["workload_digests"].get(workload)
        if seed != pinned["default_seed"] or want is None:
            return
        got = self.gate.workload_digest(self.digests)
        if got != want:
            self.pin_mismatch = True
            print(f"FAIL {workload} seed {seed}: report digest {got} differs from pinned {want}",
                  file=sys.stderr)


def fastest(passes: list[list[float]]) -> list[float]:
    """Each op's fastest time over the passes. Contention on a shared host only
    ever slows an op down, so the minimum is the steadiest estimate of its cost."""
    return [min(times) for times in zip(*passes)]


def run_pass(cli, ops: list[Op], check: Checker, tracer=None) -> list[float]:
    """Run every op once; returns each op's seconds."""
    times = []
    gc.collect()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        elapsed, code, report = run_op(cli, op.argv)
        if tracer is not None:
            tracer.op = None
        times.append(elapsed)
        check(index, op, code, report)
    check.passes += 1
    return times


def probe_setup(workload: str, seed: int) -> None:
    start = perf_counter()
    import teleportsim.cli as cli

    ops = generate(workload, seed)
    run_op(cli, ops[0].argv)
    print(repr(perf_counter() - start))


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args: argparse.Namespace, ops: list[Op]) -> dict[str, object]:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "teleportsim").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
    }


def _counted_runs(cli, teleportsim, op: Op) -> int:
    """Run op once, counting the teleportation runs the protocol run functions execute."""
    from perfbench.layers import RUN_FUNCTIONS
    from perfbench.tracer import Tracer

    tracer = Tracer(teleportsim, only=RUN_FUNCTIONS)
    tracer.install()
    try:
        tracer.op = 0
        run_op(cli, op.argv)
    finally:
        tracer.op = None
        tracer.uninstall()
    return sum(s.info[1] for s in tracer.take() if s.name in RUN_FUNCTIONS)


def end_to_end(args: argparse.Namespace) -> tuple[Checker, dict, dict]:
    setup = measure_setup(args.workload, args.seed)
    import teleportsim
    import teleportsim.cli as cli
    from perfbench import gate

    ops = generate(args.workload, args.seed)
    check = Checker(gate, ops)
    if ops[0].is_run:
        runs_per_pass = sum(op.runs for op in ops)
        run_op(cli, ops[0].argv)  # warm-up
    else:
        runs_per_pass = _counted_runs(cli, teleportsim, ops[0])  # doubles as the warm-up

    passes: list[list[float]] = []
    start = perf_counter()
    while not passes or (sum(map(sum, passes)) < args.seconds and perf_counter() - start < MEASURE_CAP_S):
        passes.append(run_pass(cli, ops, check))
        if len(passes) == 1:
            check.check_pin(args.workload, args.seed)

    best = fastest(passes)
    wall = sum(best)
    op_ms = [1e3 * t for t in best]
    p50, p90 = percentile(op_ms, 50), percentile(op_ms, 90)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "runs_per_s": (runs_per_pass / wall, "runs/s"),
        "op_ms_p50": (p50.value, "ms"),
        "op_ms_p90": (p90.value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "setup_s": {"samples": len(setup), "values": setup},
        "passes": len(passes),
        "pass_s": [sum(p) for p in passes],
        "op_fastest_s": best,
        "runs_per_pass": runs_per_pass,
        "op_ms_p50": p50.as_dict(),
        "op_ms_p90": p90.as_dict(),
    }
    return check, metrics, {"provenance": provenance(args, ops), "samples": samples}


def per_layer(args: argparse.Namespace) -> tuple[Checker, dict, dict]:
    import teleportsim
    import teleportsim.cli as cli
    from teleportsim import verification
    from perfbench import gate, layers
    from perfbench.tracer import Tracer

    ops = generate(args.workload, args.seed)
    check = Checker(gate, ops)
    run_op(cli, ops[0].argv)  # warm-up
    tracer = Tracer(teleportsim)
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    spans = None
    traced_bytes: list[int] = []
    start = perf_counter()
    while not traced or (sum(map(sum, untraced + traced)) < args.seconds and perf_counter() - start < MEASURE_CAP_S):
        untraced.append(run_pass(cli, ops, check))
        if len(untraced) == 1:
            check.check_pin(args.workload, args.seed)
        tracer.install()
        escaped = tracer.stray(installed=True)
        try:
            traced.append(run_pass(cli, ops, check, tracer))
        finally:
            tracer.uninstall()
        escaped += tracer.stray(installed=False)
        if escaped:
            for index in range(len(ops)):
                check.fail(index, f"tracer bindings out of place: {', '.join(escaped)}", check.passes - 1)
        if spans is None:
            spans, traced_bytes = tracer.take(), list(check.report_bytes)
        else:
            tracer.take()

    check_functions = {label: fn.__name__ for label, fn in verification.CHECKS}
    values, problems = layers.compute(spans, ops, traced_bytes, check_functions)
    for index, found in problems.items():
        check.fail(index, "; ".join(found[:3]), pass_no=1)
    values["trace.overhead_s"] = sum(fastest(traced)) - sum(fastest(untraced))
    units = dict(layers.metric_names())
    metrics = {name: (values[name], units[name]) for name, _ in layers.metric_names()}

    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(spans_path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps(list(s)) + "\n")
    samples = {
        "untraced_pass_s": [sum(p) for p in untraced],
        "traced_pass_s": [sum(p) for p in traced],
        "spans": len(spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "hand_count_violations": {str(k): v for k, v in problems.items()},
    }
    return check, metrics, {"provenance": provenance(args, ops), "samples": samples}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0

    check, metrics, extra = (per_layer if args.trace else end_to_end)(args)
    extra["report_digest"] = check.gate.workload_digest(check.digests)
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    out_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, **extra}, indent=2) + "\n")

    print(f"{args.workload} seed {args.seed}: {check.attempted} ops attempted, {check.failed} failed,"
          f" failed_frac {check.failed / check.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("samples " + json.dumps(extra["samples"], sort_keys=True))
    print("provenance " + json.dumps(extra["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
