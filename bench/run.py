"""Benchmark of the ``nfabisim`` commands, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark is a closed loop with one
client: a single process and thread runs one case at a time, each case one
call to ``nfabisim.cli.main(argv)`` on automaton files written during
set-up, with standard output captured and the exit code recorded.  After the
timed phase every distinct output is checked against the reference in
``bench/reference.py``; a case fails on a wrong exit code, a wrong verdict, an
output that fails its check, or any exception, and a failure never stops the
run.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times are
scaled to a nominal host speed by a reference kernel run between cases (see
``host_scale``), and each case counts with the best of its runs.
``--trace 1`` replays a fixed, seed-determined subset of the cases, passes
alternating between traced and untraced, and reports the per-layer metrics
from the spans of ``bench/spans.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  The lines before it say the same for
a human reader, with the details the JSON line has no room for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench import workloads  # noqa: E402
from bench.spans import Tracer  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench"
SETUP_REPEATS = 5
# 256-bit rows for the reference kernel, fixed so every run does the same work.
KERNEL_ROWS = tuple(
    i * 0x9E3779B97F4A7C15 * 0x2545F4914F6CDD1D % (1 << 256) for i in range(1, 257)
)
# Typical duration of reference_kernel() under CPython 3.11 on a 2-vCPU
# x86-64 VM; times are reported at this speed, see host_scale().
KERNEL_NOMINAL_S = 0.0015
# Time to import the CLI in a fresh interpreter, interpreter start excluded.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import nfabisim.cli; "
    "print(time.perf_counter() - t)"
)


def reference_kernel():
    """Time a fixed piece of pure-Python work shaped like the program's inner
    loop: walk the set bits of big ints and OR rows together."""
    start = perf_counter()
    acc = 0
    for m in KERNEL_ROWS[:128]:
        while m:
            low = m & -m
            acc |= KERNEL_ROWS[low.bit_length() - 1]
            m ^= low
    return perf_counter() - start


def host_scale(before, after):
    """Factor that turns a time measured between two reference_kernel() runs
    into seconds at the nominal host speed.

    The benchmark runs on shared hosts whose speed drifts by tens of percent
    over half a minute; the kernel slows down with the program, so scaling
    by it takes most of that drift out of the reported times.
    """
    return KERNEL_NOMINAL_S / ((before + after) / 2)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail(times):
    """(percentile, value, cases beyond it) for the highest whole percentile,
    at most 99, that still has at least ten cases beyond it; the median when
    there are fewer than 20 cases."""
    ordered = sorted(times)
    n = len(ordered)
    p = min(99, max(50, math.floor(100 * (n - 10) / n)))
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1], n - rank


def execute(cli, argv):
    """Run one command; returns (exit code, stdout, exception type name)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # every failure is counted
        return None, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), None


class Outcomes:
    """Times and outputs of every case run; each distinct output is checked
    once, and every run that produced it shares the verdict."""

    def __init__(self):
        self.runs = []  # (case, seconds, key)
        self.first = {}  # key -> (case, code, stdout, error)
        self.digests = {}  # cid -> digest of the first output

    def add(self, case, seconds, code, out, error):
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        key = (case.cid, code, digest, error)
        if key not in self.first:
            self.first[key] = (case, code, out, error)
        self.digests.setdefault(case.cid, digest)
        self.runs.append((case, seconds, key))

    def check(self):
        """Returns (failed runs, Counter of failure reasons, failed case ids)."""
        verdicts = {}
        for key, (case, code, out, error) in self.first.items():
            if error is not None:
                verdicts[key] = f"raised {error}"
            else:
                verdicts[key] = case.check(code, out)
        reasons = Counter()
        failed_cids = set()
        for case, _, key in self.runs:
            if verdicts[key] is not None:
                failed_cids.add(case.cid)
                reasons[f"{' '.join(case.argv[:3])}: {verdicts[key]}"] += 1
        return sum(reasons.values()), reasons, failed_cids

    def digest(self):
        joined = "".join(f"{cid}:{d}\n" for cid, d in sorted(self.digests.items()))
        return hashlib.sha256(joined.encode()).hexdigest()[:16]


def writer(work):
    def write(name, auto):
        path = work / f"{name}.nfa"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(auto.to_text())
        return str(path)

    return write


def setup(workload, seed, work):
    """Import probe plus input generation and writing, SETUP_REPEATS times;
    returns (median seconds at nominal host speed, blocks, cases)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference_kernel()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            raise BenchError(f"cannot import nfabisim: {probe.stderr.strip()}")
        start = perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        blocks, cases = workloads.build(workload, seed, writer(work))
        seconds = float(probe.stdout) + perf_counter() - start
        samples.append(seconds * host_scale(before, reference_kernel()))
    return statistics.median(samples), blocks, cases


def import_program():
    if not (SRC / "nfabisim" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'nfabisim'}")
    sys.path.insert(0, str(SRC))
    import nfabisim
    import nfabisim.cli

    if Path(nfabisim.__file__).resolve().parent != SRC / "nfabisim":
        raise BenchError(f"imported nfabisim from {nfabisim.__file__}")
    return nfabisim, nfabisim.cli


def run_e2e(cli, blocks, cases, seconds, outcomes):
    """Closed loop over the cases, in order and round again, until the
    deadline; at least the first block always runs.  Each case is bracketed
    by reference_kernel() runs and recorded at nominal host speed.  Returns
    the elapsed wall time."""
    gc.collect()
    start = perf_counter()
    deadline = start + seconds
    i = 0
    before = reference_kernel()
    while i < len(blocks[0]) or perf_counter() < deadline:
        case = cases[i % len(cases)]
        t0 = perf_counter()
        code, out, error = execute(cli, case.argv)
        wall = perf_counter() - t0
        after = reference_kernel()
        outcomes.add(case, wall * host_scale(before, after), code, out, error)
        before = after
        i += 1
    return perf_counter() - start


def e2e_metrics(outcomes, elapsed, failed_cids, setup_s, printer):
    """End-to-end metrics of a timed phase.

    Each case's time is the best of its runs: on a shared host, other load
    only ever adds time.
    ``cases_per_s`` is the matching throughput: distinct cases that passed
    their checks over the sum of all best times.  The raw throughput of the
    timed phase is printed beside it.
    """
    best, command = {}, {}
    for case, seconds, _ in outcomes.runs:
        best[case.cid] = min(seconds, best.get(case.cid, seconds))
        command[case.cid] = case.command
    times = list(best.values())
    p, value, beyond = tail(times)
    printer(
        f"{len(outcomes.runs)} runs of {len(best)} distinct cases in "
        f"{elapsed:.2f} s, raw throughput {len(outcomes.runs) / elapsed:.4f} 1/s"
    )
    printer(f"case_s_tail is p{p} of {len(times)} cases, {beyond} beyond it")
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": (len(times) - len(failed_cids)) / sum(times),
        "case_s_p50": statistics.median(times),
        "case_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name in ("equiv", "reduce", "bisim", "determinize"):
        mine = [t for cid, t in best.items() if command[cid] == name]
        metrics[f"{name}_s_p50"] = statistics.median(mine)
    return metrics


def run_traced(nfabisim, cli, trace_cases, seconds, outcomes, spans_path):
    """Alternate traced and untraced passes over ``trace_cases``, one of each
    at least, while the next pass still ends before the deadline.  Returns
    the layer metrics of each traced pass."""
    tracer = Tracer(nfabisim)
    passes, walls = [], {True: [], False: []}
    gc.collect()
    deadline = perf_counter() + seconds
    while not walls[False] or perf_counter() + walls[True][-1] < deadline:
        traced = len(walls[True]) == len(walls[False])
        if traced:
            tracer.install()
        start = perf_counter()
        for case in trace_cases:
            tracer.case = case.cid
            t0 = perf_counter()
            code, out, error = execute(cli, case.argv)
            outcomes.add(case, perf_counter() - t0, code, out, error)
        walls[traced].append(perf_counter() - start)
        if traced:
            tracer.uninstall()
            passes.append(layer_metrics(tracer.stats))
            if len(passes) == 1:
                write_spans(tracer.spans, spans_path)
                tracer.keep = 0
    ratio = statistics.median(walls[True]) / statistics.median(walls[False])
    for metrics in passes:
        metrics["trace_overhead_ratio"] = ratio
    return passes


def write_spans(spans, path):
    base = min((span[2] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\tname\tstart_s\tend_s\tparent\tcase\tok\n")
        for sid, name, start, end, parent, case, ok in sorted(spans):
            handle.write(
                f"{sid}\t{name}\t{start - base:.9f}\t{end - base:.9f}\t"
                f"{parent}\t{case}\t{int(ok)}\n"
            )


def layer_metrics(stats):
    """Flat per-layer metrics from one traced pass."""
    out = {}
    for name, stat in stats.items():
        out[f"{name}.calls"] = stat.calls
        out[f"{name}.failed"] = stat.failed
        out[f"{name}.total_s"] = stat.total_s
        out[f"{name}.self_s"] = stat.self_s
        for counter, value in stat.counts.items():
            out[f"{name}.{counter}"] = value

    def total(*names):
        return sum(stats[n].total_s for n in names if n in stats)

    def count(counter, *names):
        return sum(stats[n].counts[counter] for n in names if n in stats)

    steps = ("bisim.forward_bisim_steps", "bisim.backward_forward_bisim_steps")
    rounds = count("rounds", *steps)
    pair_rounds = count("pair_rounds", *steps)
    reduced = stats.get("equivalence.reduce")
    out.update({
        "bisim.rounds": rounds,
        "bisim.round_s": total(*steps) / rounds if rounds else 0.0,
        "bisim.pairs_removed": count("pairs_removed", *steps),
        "bisim.removal_yield": (
            count("pairs_removed", *steps) / pair_rounds if pair_rounds else 0.0
        ),
        "equivalence.reduce.kept_ratio": (
            reduced.counts["states_out"] / reduced.counts["states_in"]
            if reduced and reduced.counts["states_in"] else 0.0
        ),
        "nerode.dfa_states": count(
            "dfa_states", "nerode.nerode", "nerode.reverse_nerode"
        ),
    })
    return out


def select(spec_metrics, values):
    """Values for the metrics BENCHMARK.json lists, in its order."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec_metrics
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def printer(line):
        print(f"bench: {line}", flush=True)

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        nfabisim, cli = import_program()
    except (OSError, ValueError, ImportError, BenchError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setup_s, blocks, cases = setup(args.workload, args.seed, work)
        outcomes = Outcomes()
        if args.trace:
            trace_blocks = blocks[: workloads.TRACE_BLOCKS[args.workload]]
            trace_cases = [case for block in trace_blocks for case in block]
            passes = run_traced(
                nfabisim, cli, trace_cases, args.seconds, outcomes,
                OUT / f"spans-{tag}.tsv",
            )
            printer(f"{len(passes)} traced passes over {len(trace_cases)} cases")
            failed, reasons, _ = outcomes.check()
            values = {
                name: statistics.median_low(p[name] for p in passes)
                for name in passes[0]
            }
            for name, value in values.items():
                if name.endswith(".failed") and value:
                    printer(f"{name} = {value}")
            metrics = select(spec["per_layer"], values)
            share = (
                values["relcalc.compose.self_s"] + values["relcalc.inverse.self_s"]
            ) / values["cli.main.total_s"]
            printer(f"compose + inverse self time is {share:.1%} of case time")
        else:
            elapsed = run_e2e(cli, blocks, cases, args.seconds, outcomes)
            failed, reasons, failed_cids = outcomes.check()
            values = e2e_metrics(outcomes, elapsed, failed_cids, setup_s, printer)
            metrics = select(spec["end_to_end"], values)
    except BenchError as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes.runs)
    printer(
        f"workload {args.workload} seed {args.seed}: {attempted} cases, "
        f"{failed} failed, fail_ratio {failed / attempted:g}"
    )
    for reason, n in reasons.most_common():
        printer(f"FAILED x{n} {reason}")
    printer(
        f"stdout digest over {len(outcomes.digests)} distinct cases: "
        f"{outcomes.digest()}"
    )
    for name, m in metrics.items():
        printer(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
