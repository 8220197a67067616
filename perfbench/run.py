"""Host-cost benchmark of the simulator: figure cells and torture sweeps.

Run from the repository root::

    python3 perfbench/run.py --workload ior-large-write --seed 1 --seconds 25 --trace 0

It builds the workload's fixed job list from ``--seed``, then runs it
serially in this one process, pass after pass.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs some untraced passes and then
traced ones and prints the per-layer metrics.  Every job's digest of
simulated output must be the same on every pass, traced or not.  The
last line of stdout is one JSON object; the exit code is non-zero when a
job failed or a digest moved.  See ``perfbench/README.md``.

Job times are reported at a reference host speed.  A shared host's speed
drifts by 10-30% within minutes, which no number of passes averages out,
so every job is bracketed by a fixed probe loop and its seconds are
scaled by ``REFERENCE_PROBE_S / probe seconds``.  The raw seconds are
printed beside every timing.  A set-up process probes for itself, as it
may run on another core.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

SETUP_REPEATS = 9  # fresh processes timed for setup_s
TRACED_PASSES = 2
MIN_COVERAGE = 0.95  # profiled self time / traced host time
#: Probe time at the reference speed: about the probe's median on a
#: 2-core x86 container with Python 3.11.
REFERENCE_PROBE_S = 0.004


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test job sizes")
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="build the job list, print a host-speed probe and exit (times setup_s)",
    )
    return p.parse_args(argv)


def _setup_command(args) -> list[str]:
    """A fresh process that imports ``repro`` and builds the job list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + ["--tiny"] if args.tiny else cmd


def _probe() -> float:
    """Host seconds of a fixed loop shaped like the simulator's inner loop
    (generator resumes, heap pushes and pops, dict updates); best of 3."""

    def ticks(n):
        for i in range(n):
            yield i

    def once() -> float:
        t0 = time.perf_counter()
        heap, counts = [], {}
        for i in ticks(4000):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            counts[i % 97] = counts.get(i % 97, 0) + 1
        while heap:
            heapq.heappop(heap)
        return time.perf_counter() - t0

    return min(once() for _ in range(3))


def _timed(fn):
    """``(fn(), raw host seconds, seconds at the reference speed)``, the
    speed taken from probes just before and just after ``fn``."""
    before = _probe()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, raw * REFERENCE_PROBE_S * 2 / (before + _probe())


def _time_setup(cmd: list[str]) -> tuple[float, float]:
    """Raw and reference-speed seconds of one set-up process, interpreter
    start included.  The process probes the host speed itself, on the
    core it ran on, and reports the probe's time, which is not set-up."""
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    probe, probing = (float(x) for x in out.stdout.split())
    raw = wall - probing
    return raw, raw * REFERENCE_PROBE_S / probe


def _run_job(job, tracer):
    from jobs import Outcome

    try:
        return tracer.run(job) if tracer else job.run()
    except Exception as exc:  # a job that raises is a failed job
        traceback.print_exc(file=sys.stderr)
        return Outcome("", f"{type(exc).__name__}: {exc}")


class Pass:
    """One run over every job: per-job host seconds (raw and at the
    reference speed) and outcomes, and with a tracer, the pass's
    per-layer self times and counters."""

    def __init__(self, workload, tracer=None):
        self.raw: list[float] = []
        self.walls: list[float] = []
        self.outcomes = []
        for job in workload.jobs:
            out, raw, scaled = _timed(lambda: _run_job(job, tracer))
            self.raw.append(raw)
            self.walls.append(scaled)
            self.outcomes.append(out)
        if tracer:
            tracer.counts["check.violations"] = sum(o.violations for o in self.outcomes)
            self.self_time = tracer.self_time()
            self.counts = tracer.counts
            self.timers = tracer.timers

    @property
    def wall(self) -> float:
        return sum(self.walls)


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it:
    ``(value, percentile, samples beyond)``; the maximum when there are
    too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _check(workload, passes: list[Pass]) -> list[str]:
    """Failed jobs: errors, and digests that differ from the first pass."""
    problems = []
    reference = [o.digest for o in passes[0].outcomes]
    for i, p in enumerate(passes):
        for job, out, want in zip(workload.jobs, p.outcomes, reference):
            if out.failure:
                problems.append(f"pass {i} {job.label}: {out.failure}")
            elif out.digest != want:
                problems.append(f"pass {i} {job.label}: digest {out.digest[:12]} != {want[:12]}")
    return problems


def _paper_err(outcomes) -> float | None:
    errs = [abs(sim - ref) / ref for sim, ref in (o.value for o in outcomes if o.value) if ref]
    return statistics.fmean(errs) if errs else None


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> dict:
    """``name -> (value, unit, note)``; each timing notes its raw seconds."""
    walls = [w for p in passes for w in p.walls]
    raws = [r for p in passes for r in p.raw]
    tail, pct, beyond = _tail(walls)

    def job_median(samples_of) -> float:
        # Median over jobs of each job's median over passes.  Pooling the
        # samples instead would put the median on the edge between two
        # jobs' samples when a workload has few jobs of unequal cost.
        per_job = zip(*(samples_of(p) for p in passes))
        return statistics.median(statistics.median(xs) for xs in per_job)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s",
                   f"raw {statistics.median(sum(p.raw) for p in passes):.4g} s, "
                   f"median of {len(passes)} passes"),
        "job_p50_s": (job_median(lambda p: p.walls), "s",
                      f"raw {job_median(lambda p: p.raw):.4g} s, median of "
                      f"{len(passes[0].walls)} jobs' medians over {len(passes)} passes"),
        "job_tail_s": (tail, "s", f"raw {_tail(raws)[0]:.4g} s, p{pct:.1f}, "
                                  f"{beyond} beyond, n={len(walls)}"),
        "setup_s": (statistics.median(s for _, s in setup), "s",
                    f"raw {statistics.median(r for r, _ in setup):.4g} s, "
                    f"median of {len(setup)} processes"),
        "peak_rss_mb": (rss_mb, "MB", ""),
    }


def _per_layer(traced: list[Pass], untraced_wall: float) -> dict:
    """Per-layer metrics from the traced passes (self times: median over
    passes; counts: the first pass, checked equal on every pass)."""
    from layers import BENCH, LAYERS, OTHER, REST, SERVER_LABELS

    counts, timers = traced[0].counts, traced[0].timers
    traced_wall = statistics.median(p.wall for p in traced)

    def med_self(layer):
        return statistics.median(p.self_time.get(layer, 0.0) for p in traced)

    m = {f"{layer}.self_s": (med_self(layer), "s") for layer in LAYERS + [REST, BENCH, OTHER]}

    def ratio(a, b):
        return a / b if b else 0.0

    events = counts["sim.engine.events"]
    calls = counts["rpc.calls"]
    m["sim.engine.events"] = (events, "count")
    m["sim.engine.heap_events"] = (counts["sim.engine.heap_events"], "count")
    m["sim.engine.events_per_host_s"] = (ratio(events, untraced_wall), "1/s")
    m["sim.engine.events_per_rpc"] = (ratio(events, calls), "event/rpc")
    m["sim.network.flows"] = (counts["sim.network.flows"], "count")
    m["sim.network.bytes"] = (counts["sim.network.bytes"], "B")
    m["sim.disk.requests"] = (counts["sim.disk.requests"], "count")
    m["sim.disk.busy_sim_s"] = (counts["sim.disk.busy_sim_s"], "sim_s")
    m["sim.cpu.busy_sim_s"] = (counts["sim.cpu.busy_sim_s"], "sim_s")
    m["rpc.calls"] = (calls, "count")
    for label in dict.fromkeys(SERVER_LABELS.values()):
        m[f"rpc.calls.{label}"] = (counts[f"rpc.calls.{label}"], "count")
    m["rpc.retransmissions"] = (counts["rpc.retransmissions"], "count")
    m["rpc.client_timeouts"] = (counts["rpc.client_timeouts"], "count")
    hit, miss = counts["nfs.client.cache_hit_bytes"], counts["nfs.client.cache_miss_bytes"]
    m["nfs.client.cache_hit_ratio"] = (ratio(hit, hit + miss), "ratio")
    m["nfs.client.readahead_used_ratio"] = (
        ratio(counts["nfs.client.readahead_used_bytes"],
              counts["nfs.client.readahead_issued_bytes"]), "ratio")
    m["pvfs2.client.rpcs_per_op"] = (
        ratio(counts["pvfs2.client.rpcs"], counts["pvfs2.client.ops"]), "rpc/op")
    m["vfs.ops"] = (counts["vfs.ops"], "count")
    m["vfs.host_us_per_op"] = (ratio(untraced_wall * 1e6, counts["vfs.ops"]), "us")
    m["check.model.build_s"] = (timers["check.model.build_s"], "s")
    m["check.model.bytes_checked"] = (counts["check.model.bytes_checked"], "B")
    m["check.violations"] = (counts["check.violations"], "count")
    m["cluster.deploy_s"] = (timers["cluster.deploy_s"], "s")
    m["bench.trace_overhead"] = (ratio(traced_wall, untraced_wall), "ratio")
    m["bench.trace_coverage"] = (
        ratio(sum(traced[0].self_time.values()), sum(traced[0].raw)), "ratio")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import jobs

    if args.seed is None:
        args.seed = jobs.DEFAULT_SEED
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = jobs.build(args.workload, args.seed, args.tiny)
    if args.setup_only:
        t0 = time.perf_counter()
        probe = _probe()
        print(probe, time.perf_counter() - t0)
        return 0

    n_passes = max(workload.min_passes, round(args.seconds / workload.pass_s))
    if args.trace:
        n_passes = max(2, math.ceil(n_passes / 3))
    # Set-up processes are spread over the run, between passes, so their
    # median sees the same host conditions as the passes do.
    setup_cmd = _setup_command(args)
    setup_at = Counter(i * n_passes // SETUP_REPEATS for i in range(SETUP_REPEATS))
    setup, passes = [], []
    for i in range(n_passes):
        if not args.trace:
            setup += [_time_setup(setup_cmd) for _ in range(setup_at[i])]
        gc.collect()
        passes.append(Pass(workload))

    traced = []
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer(SRC_DIR, BENCH_DIR)
        tracer.install()
        try:
            for _ in range(TRACED_PASSES):
                gc.collect()
                tracer.reset()
                traced.append(Pass(workload, tracer))
        finally:
            tracer.uninstall()

    problems = _check(workload, passes + traced)
    attempted = len(workload.jobs) * len(passes + traced)
    failed = len(problems)
    for p in traced[1:]:
        if p.counts != traced[0].counts:
            moved = sorted(k for k in p.counts.keys() | traced[0].counts.keys()
                           if p.counts[k] != traced[0].counts[k])
            problems.append(f"traced counts differ between passes: {', '.join(moved)}")

    digest = hashlib.sha256("".join(o.digest for o in passes[0].outcomes).encode())
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(workload.jobs)}  "
          f"passes {len(passes)} untraced + {len(traced)} traced")
    print(f"  digest        {digest.hexdigest()[:16]}")
    print(f"  fail_ratio    {failed / attempted:.6g} ratio  ({failed}/{attempted} jobs)")
    paper = _paper_err(passes[0].outcomes)
    if paper is not None:
        print(f"  paper_err     {paper:.6g} ratio  (mean |sim-paper|/paper, "
              f"{jobs.FIGURE_CLIENTS} clients)")

    untraced_wall = statistics.median(p.wall for p in passes)
    if args.trace:
        metrics = _per_layer(traced, untraced_wall)
        coverage = metrics["bench.trace_coverage"][0]
        if coverage < MIN_COVERAGE:
            problems.append(f"profiled self time covers {coverage:.1%} of traced host time")
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {_fmt(value)} {unit}")
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        metrics = _end_to_end(passes, setup)
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:13s} {_fmt(value)} {unit}  {note}")
        out = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
