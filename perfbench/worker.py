"""One workload in one process: set up, say "ready", run the ops, print the result.

run.py starts this file; the parent times set-up from spawning it to the
"ready" line.  The last line of stdout is a JSON object with the op results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--trace-ops N]
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import resource
import statistics
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
# Time of host_probe_ms() on an idle 2-vCPU Xeon host.  The *_ref metrics
# rescale every op latency from the mean probe time around that op to this
# one, so they read as milliseconds on that host whatever the load on the
# machine running the benchmark.
REF_PROBE_MS = 1.7
# The probe runs before and after every op; an op is rescaled by the mean of
# the probes within PROBE_WINDOW_S of its midpoint, or within its own
# duration of it if that is longer.  Chosen over the op's own two probes and
# over fixed windows of 0.25-4 s by the spread across seeds of all metrics.
PROBE_WINDOW_S = 0.25


def host_probe_ms() -> float:
    """Best of two timings of a fixed pure-Python loop, in ms.

    The loop mixes what apexobs spends its time on (bit counts, tuple-keyed
    dict updates, big-int and Fraction arithmetic), so that it slows down
    with the host roughly as the ops do.
    """
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        table: dict[tuple[int, int], int] = {}
        acc, big, frac = 0, 3 ** 200, Fraction(0)
        for i in range(3000):
            m = (i * 2654435761) & 0xFFFFFFFF
            acc += m.bit_count()
            key = (i & 255, m & 7)
            table[key] = table.get(key, 0) + 1
            big = (big * 7 + i) % (1 << 640)
            if i % 50 == 0:
                frac += Fraction(i, 7)
        best = min(best, perf_counter() - t0)
    return 1000 * best


class CacheNotCold(RuntimeError):
    """A program cache survived clearing: the benchmark itself is broken."""


@dataclass(frozen=True)
class OpResult:
    kind: str
    label: str
    latency_s: float
    error: str | None
    start_s: float = 0.0
    probe_ms: float = REF_PROBE_MS  # mean host probe time around the op

    @property
    def ref_latency_s(self) -> float:
        return self.latency_s * REF_PROBE_MS / self.probe_ms


class Runner:
    """Runs ops from cold program caches, checking each output off the clock.

    The cache handles are taken when the runner is built, before any
    tracer wrapper replaces ``enumerate_graphs`` on its module.
    """

    def __init__(self, lib, clear_caches: bool = True) -> None:
        self.canonical_cache = lib.canonical._canonical
        self.enumerate_cache = lib.canonical.enumerate_graphs
        self.clear_memo = lib.minors.clear_minor_cache
        self.memo = lib.minors._memo
        self.clear_caches = clear_caches

    def cold_start(self) -> None:
        if self.clear_caches:
            self.enumerate_cache.cache_clear()
            self.canonical_cache.cache_clear()
            self.clear_memo()
        gc.collect()
        if (
            self.canonical_cache.cache_info().currsize
            or self.enumerate_cache.cache_info().currsize
            or self.memo
        ):
            raise CacheNotCold("an op would start with warm program caches")

    def run_op(self, kind: str, op: workloads.Op, tracer: Tracer | None = None,
               probes: list[tuple[float, float]] | None = None) -> OpResult:
        """One op from cold caches.

        With `probes`, the host probe runs just before and just after the op
        and its (time, ms) samples are appended there.
        """
        self.cold_start()
        if tracer is not None:
            tracer.begin_op(op.label)
        if probes is not None:
            probes.append((perf_counter(), host_probe_ms()))
        error = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        if probes is not None:
            probes.append((perf_counter(), host_probe_ms()))
        if tracer is not None:
            info = self.canonical_cache.cache_info()
            tracer.end_op(info.hits, info.misses, len(self.memo))
        if error is None:
            try:
                if not op.check(out):
                    error = "output failed its reference check"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        return OpResult(kind, op.label, latency, error, t0)

    def timed(self, wl: workloads.Workload, seed: int, seconds: float) -> tuple[list, list]:
        """Whole rounds until `seconds` have passed and MIN_OPS ops are done.

        Returns the op results and the (time, ms) host probe samples.
        """
        results: list[OpResult] = []
        probes: list[tuple[float, float]] = []
        start = perf_counter()
        for batch in wl.rounds(seed):
            if perf_counter() - start >= seconds and len(results) >= MIN_OPS:
                break
            results.extend(self.run_op(kind, op, probes=probes) for kind, op in batch)
        return with_probes(results, probes), probes

    def first_ops(self, wl: workloads.Workload, seed: int, count: int,
                  tracer: Tracer | None = None) -> tuple[list, list]:
        """The first `count` ops of the schedule: the same ops on every run with this seed."""
        results: list[OpResult] = []
        probes: list[tuple[float, float]] = []
        for kind, op in itertools.islice(itertools.chain.from_iterable(wl.rounds(seed)), count):
            results.append(self.run_op(kind, op, tracer, probes))
        return with_probes(results, probes), probes


def with_probes(results: list[OpResult], probes: list[tuple[float, float]]) -> list[OpResult]:
    """Give each op the mean probe time over the window around it."""
    times = [t for t, _ in probes]
    out = []
    for r in results:
        mid = r.start_s + r.latency_s / 2
        half = max(PROBE_WINDOW_S, r.latency_s)
        lo = bisect.bisect_left(times, mid - half)
        hi = bisect.bisect_right(times, mid + half)
        window = [ms for _, ms in probes[lo:hi]]
        out.append(replace(r, probe_ms=sum(window) / len(window)))
    return out


def summary(results: list[OpResult]) -> dict:
    failures = [f"{r.label}: {r.error}" for r in results if r.error]
    kinds: dict[str, int] = {}
    for r in results:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    return {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:10],
        "op_mix": kinds,
    }


def end_to_end(results: list[OpResult]) -> dict:
    """(value, unit, samples) of every end-to-end metric the worker measures."""
    n = len(results)
    out = {}
    for suffix, lat in (("", [r.latency_s for r in results]),
                        ("_ref", [r.ref_latency_s for r in results])):
        out[f"throughput{suffix}_ops_s"] = (n / sum(lat), "1/s", n)
        out[f"latency_p50{suffix}_ms"] = (1000 * statistics.median(lat), "ms", n)
        out[f"latency_p90{suffix}_ms"] = (1000 * statistics.quantiles(lat, n=10)[8], "ms", n)
    out["failed_ops_frac"] = (sum(1 for r in results if r.error) / n, "frac", n)
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
    return out


def probe_record(probes: list[tuple[float, float]]) -> dict:
    ms = [v for _, v in probes]
    q = statistics.quantiles(ms, n=4)
    return {
        "median_ms": statistics.median(ms),
        "min_ms": min(ms),
        "max_ms": max(ms),
        "iqr_frac": (q[2] - q[0]) / q[1],
        "samples": len(ms),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-ops", type=int, help="override the workload's traced op count")
    args = p.parse_args(argv)

    lib = workloads.load_library(ROOT)
    runner = Runner(lib)
    tracer = Tracer(lib) if args.trace else None
    if tracer is not None:
        tracer.install()
    wl = workloads.BY_NAME[args.workload](lib, ROOT)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        results, probes = runner.timed(wl, args.seed, args.seconds)
        out = summary(results)
        out["metrics"] = end_to_end(results)
        out["host_probe"] = probe_record(probes)
        # every op (kind, start, latency, rescaling probe) and probe sample, for later analysis
        out["ops"] = [[r.kind, r.start_s, r.latency_s, r.probe_ms] for r in results]
        out["probes"] = probes
    else:
        count = args.trace_ops or wl.trace_ops
        plain, _ = runner.first_ops(wl, args.seed, count)
        tracer.install()
        traced, _ = runner.first_ops(wl, args.seed, count, tracer)
        tracer.uninstall()
        overhead = 1 - sum(r.ref_latency_s for r in plain) / sum(r.ref_latency_s for r in traced)
        out = summary(plain + traced)
        out["metrics"] = {
            name: (value, unit, len(traced)) for name, (value, unit) in tracer.metrics(overhead).items()
        }
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}"
        tracer.write(spans)
        out["spans_file"] = str(spans.relative_to(ROOT)) + ".{json,bin}"
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
