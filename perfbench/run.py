"""orbitcharts benchmark: seeded CLI workloads, end-to-end metrics, per-layer trace.

    python3 perfbench/run.py --workload nilpotent-verify --seed 1 --seconds 20 --trace 0

Run from the repository root; it imports the package from `src/`. One
client in one process sends one `orbitcharts.cli.main(argv)` request at a
time (a closed loop, no threads). A pass is the workload's seeded request
list; whole passes repeat while another one fits in `--seconds` (at least
one runs). Every response is checked by the oracles in `workloads.py`, and
every pass must print the same bytes (sha256 over stdout). Set-up (import
plus building the workload's algebras) is repeated at least SETUP_REPEATS
times and for at least SETUP_MIN_S; its median is `setup_s`.

Times are reference seconds. On a shared host the speed of a core swings by
up to 1.7x for seconds to minutes at a time (a neighbour on the same
physical core), which moved the unscaled medians of identical runs by 20%
and more. So a fixed integer kernel (`_kernel`) is timed after every
request and set-up, and each measured interval is scaled by
REFERENCE_KERNEL_S over the mean of the kernel times just before and just
after it. REFERENCE_KERNEL_S is the kernel's time on an uncontended core of
the 2-vCPU Intel Xeon guest the benchmark was defined on, so there a
reference second is a second. The record keeps the unscaled figures too.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs one untraced
pass, then traced passes with `layertrace.LayerTracer` installed; it prints
the per-layer metrics per pass, requires the traced stdout digest to equal
the untraced one, reports the tracing overhead, and writes every traced
span to `.perfbench/<workload>-<seed>.jsonl`.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the full record (stamps, digests, per-command totals).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
SETUP_MIN_S = 3.0
TAIL_MIN_ABOVE = 10
REFERENCE_KERNEL_S = 0.003


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Timing in reference seconds
# ---------------------------------------------------------------------------


def _kernel() -> int:
    """sum (k^2 + 1) / (k mod 97 + 1) for k < 3000, in reduced int pairs:
    interpreter and big-int work like the program's, without Fraction, so a
    traced run's counting Fraction constructor does not slow it."""
    n, d = 0, 1
    for k in range(1, 3000):
        a, b = k * k + 1, k % 97 + 1
        n, d = n * b + a * d, d * b
        g = math.gcd(n, d)
        n, d = n // g, d // g
    return n


def _time_kernel() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Interval:
    """One timed call: measured seconds and the scale to reference seconds."""

    __slots__ = ("seconds", "scale")

    def __init__(self, seconds: float, scale: float):
        self.seconds = seconds
        self.scale = scale

    @property
    def reference(self) -> float:
        return self.seconds * self.scale


class Clock:
    """Times calls, and the kernel after each, so every interval has a
    kernel time on both sides."""

    def __init__(self):
        self._before = _time_kernel()
        self.kernel_s = [self._before]

    def call(self, fn, *args):
        """Returns (fn's result, Interval)."""
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = _time_kernel()
        self.kernel_s.append(after)
        scale = REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after
        return result, Interval(seconds, scale)


# ---------------------------------------------------------------------------
# Set-up: import plus build_classical, as every CLI invocation pays it
# ---------------------------------------------------------------------------


def _fresh_import():
    """Drop every orbitcharts module and import the CLI again from src/."""
    for name in [n for n in sys.modules if n == "orbitcharts" or n.startswith("orbitcharts.")]:
        del sys.modules[name]
    cli = importlib.import_module("orbitcharts.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"orbitcharts imported from {cli.__file__}, not from {SRC}")
    return cli


def _set_up(algebras, tracer):
    """Import and build every algebra the workload uses."""
    cli = _fresh_import()
    if tracer is not None:
        tracer.install()
    build = sys.modules["orbitcharts.liealg"].build_classical
    for family, size in algebras:
        build(family, size)
    return cli


def _send(cli, argv, out, err):
    """One request; returns (exit code, None) or (None, why it crashed)."""
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(argv), None
    except Exception as exc:  # a crashing request is a failed request
        return None, f"raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Pass:
    """Latencies, failures and the stdout digest of one pass."""

    def __init__(self):
        self.latencies = []  # (command, expected exit, Interval)
        self.failures = []
        self.digest = hashlib.sha256()
        self.wall = 0.0

    def busy(self, unscaled: bool = False) -> float:
        return sum(i.seconds if unscaled else i.reference for _, _, i in self.latencies)


class Run:
    """Everything one benchmark run measured."""

    def __init__(self, workload, requests):
        self.workload = workload
        self.requests = requests
        self.argvs = [r.argv() for r in requests]
        self.clock = Clock()
        self.scale = {}  # span request id -> scale to reference seconds
        self.setups = []  # Interval per set-up
        self.passes = []
        self._next_id = 0

    def _start(self, tracer) -> int:
        self._next_id += 1
        if tracer is not None:
            tracer.request_id = self._next_id
        return self._next_id

    def set_up(self, tracer=None):
        gc.collect()
        request_id = self._start(tracer)
        cli, interval = self.clock.call(_set_up, self.workload.algebras, tracer)
        self.scale[request_id] = interval.scale
        self.setups.append(interval)
        return cli

    def one_pass(self, cli, tracer=None) -> Pass:
        gc.collect()
        result = Pass()
        start = time.perf_counter()
        for index, (req, argv) in enumerate(zip(self.requests, self.argvs)):
            request_id = self._start(tracer)
            out, err = io.StringIO(), io.StringIO()
            (code, reason), interval = self.clock.call(_send, cli, argv, out, err)
            self.scale[request_id] = interval.scale
            text = out.getvalue()
            result.digest.update(text.encode("utf-8"))
            result.latencies.append((req.command, req.expect_exit, interval))
            reason = reason or workloads.check(req, code, text)
            if reason:
                result.failures.append(f"request {index}, {req.command} "
                                       f"{req.family}{req.size}: {reason}")
        result.wall = time.perf_counter() - start
        self.passes.append(result)
        return result

    def passes_within(self, seconds, started, cli=None, tracer=None):
        """Whole passes while the next one still fits in ``seconds`` from ``started``."""
        first = len(self.passes)
        while True:
            if tracer is not None:
                try:
                    self.one_pass(self.set_up(tracer), tracer)
                finally:
                    tracer.uninstall()
            else:
                self.one_pass(cli)
            if time.perf_counter() - started + self.passes[-1].wall > seconds:
                return self.passes[first:]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _tail_percentile(per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_MIN_ABOVE requests of one pass above it."""
    return max(0, math.floor(100 * (per_pass - TAIL_MIN_ABOVE) / per_pass))


def _nearest_rank(values, percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def _end_to_end(run: Run, unscaled: bool = False):
    """End-to-end metrics in reference seconds, or in measured ones."""
    def value(interval):
        return interval.seconds if unscaled else interval.reference

    passes = run.passes
    latencies = [value(i) for p in passes for _, _, i in p.latencies]
    per_command = {}
    for p in passes:
        for command, expect_exit, interval in p.latencies:
            seconds = value(interval) / len(passes)
            key = "reject_s" if expect_exit else f"{command}_s"
            per_command[key] = per_command.get(key, 0.0) + seconds
            if expect_exit and command == "verify":
                per_command["verify_s"] = per_command.get("verify_s", 0.0) + seconds
    metrics = {
        "setup_s": statistics.median(value(i) for i in run.setups),
        "requests_per_s": len(latencies) / sum(p.busy(unscaled) for p in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": _nearest_rank(latencies, _tail_percentile(len(run.requests))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verify_s": per_command["verify_s"],
    }
    return metrics, dict(sorted(per_command.items()))


UNITS = {"requests_per_s": "1/s", "peak_rss_mb": "MB",
         "linalg.char_poly.max_coeff_bits": "bits", "grading.witness_success_ratio": "ratio"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


# ---------------------------------------------------------------------------
# Record stamps
# ---------------------------------------------------------------------------


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stamps():
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "orbitcharts" / "cli.py").is_file():
        print(f"perfbench: no orbitcharts sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    run = Run(workload, workloads.build_pass(args.workload, args.seed))

    setup_started = time.perf_counter()
    while (len(run.setups) < SETUP_REPEATS
           or time.perf_counter() - setup_started < SETUP_MIN_S):
        cli = run.set_up()
    started = time.perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **_stamps(), "requests_per_pass": len(run.requests),
              "setup_samples": len(run.setups)}
    if args.trace:
        untraced = run.one_pass(cli)
        tracer = layertrace.LayerTracer()
        traced = run.passes_within(args.seconds, started, tracer=tracer)
        metrics = tracer.metrics(len(traced), run.scale)
        overhead = statistics.mean(p.busy() for p in traced) - untraced.busy()
        metrics["trace.overhead_s"] = overhead
        spans = SPANS_DIR / f"{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        record.update(untraced_pass_s=untraced.busy(), traced_pass_s=traced[0].busy(),
                      trace_overhead_s=overhead, spans=len(tracer.spans),
                      spans_file=str(spans.relative_to(ROOT)))
    else:
        run.passes_within(args.seconds, started, cli)
        metrics, per_command = _end_to_end(run)
        unscaled, unscaled_per_command = _end_to_end(run, unscaled=True)
        record.update(tail_percentile=_tail_percentile(len(run.requests)),
                      latency_samples=sum(len(p.latencies) for p in run.passes),
                      per_command_s=per_command, unscaled=unscaled,
                      unscaled_per_command_s=unscaled_per_command)

    digests = sorted({p.digest.hexdigest() for p in run.passes})
    failures = [f for p in run.passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in run.passes)
    for failure in failures[:20]:
        print(f"perfbench: {failure}", file=sys.stderr)
    if len(digests) != 1:
        print("perfbench: passes printed different bytes", file=sys.stderr)
    kernel = run.clock.kernel_s
    record.update(passes=len(run.passes), stdout_sha256=digests,
                  fail_share=len(failures) / attempted,
                  kernel_s={"min": min(kernel), "median": statistics.median(kernel),
                            "max": max(kernel)})
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and len(digests) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
