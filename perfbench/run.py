"""Benchmark of apexobs: four closed-loop workloads, each in its own process.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs all four, one after the other.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 the per-layer metrics of a
traced run.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A copy of every result, with its environment record, goes to perfbench/out/.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import host_probe_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("obstruction-verify", "enumerate-generate", "minor-membership", "series-asymptotics")
SETUP_SAMPLES = 5      # the workload process plus four set-up-only processes
WORKLOAD_TIMEOUT_S = 170
# End-to-end metrics in the final line.  The times are the host-rescaled
# *_ref ones (see worker.REF_PROBE_MS); the raw ones are printed above it.
# failed_ops_frac is printed too, and carried by "attempted"/"failed", since
# it is 0 on a correct program.
END_TO_END = ("throughput_ref_ops_s", "latency_p50_ref_ms", "latency_p90_ref_ms", "setup_s",
              "peak_rss_mb")


class BenchmarkError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Worker:
    """A worker.py process; `ready_s` is the time from spawn to its "ready" line."""

    def __init__(self, args: list[str], deadline: float) -> None:
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - t0), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.ready_s = perf_counter() - t0
        if line.strip() != "ready":
            self.finish()
            raise BenchmarkError(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self) -> str:
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchmarkError(f"worker exited with {self.proc.returncode}")
        return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + WORKLOAD_TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    probes = [host_probe_ms() for _ in range(5)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            probe = Worker(common + ["--setup-only"], deadline)
            setups.append(probe.ready_s)
            probe.finish()
    worker = Worker(common, deadline)
    setups.append(worker.ready_s)
    result = json.loads(worker.finish().strip().splitlines()[-1])
    probes += [host_probe_ms() for _ in range(5)]
    if not trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s", len(setups))
    result["env"] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": result["attempted"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        # a fixed pure-Python loop timed before and after the worker, and
        # (trace 0) between its ops: a noisy host shows here, not as a regression
        "host_probe_ms": {
            "median": statistics.median(probes),
            "min": min(probes),
            "max": max(probes),
            "spread": (max(probes) - min(probes)) / statistics.median(probes),
            "samples": len(probes),
            "between_ops": result.pop("host_probe", None),
        },
        "setup_s_samples": setups,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    return result


def report(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted']} ops, {result['failed']} failed")
    for metric, (value, unit, samples) in result["metrics"].items():
        print(f"  {metric:52s} {value:14.6g} {unit:6s} (n={samples})")
    print(f"  op mix: {json.dumps(result['op_mix'])}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  env: {json.dumps(result['env'])}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, results[name])
    except (BenchmarkError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, result in results.items():
        prefix = "" if args.workload else f"{name}."
        for metric, (value, unit, _) in result["metrics"].items():
            if args.trace or metric in END_TO_END:
                metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
