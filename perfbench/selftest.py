"""Self-tests of the benchmark itself (not of apexobs).

    python3 perfbench/selftest.py

1. wrong-expectation: with one printed coefficient altered, the ops that
   depend on it fail and failed_ops_frac > 0; with the true value it is 0.
2. cold-caches: every op starts with the canonical lru cache, the
   enumerate_graphs cache and the minor memo empty; with clearing switched
   off, the runner's own check stops the run.
3. trace-completeness: once installed, no apexobs module still binds an
   unwrapped entry point, uninstall restores every binding, and two traced
   runs with the same seed, in two processes, give identical .calls counts.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import reference
import workloads
from tracing import Tracer
from worker import CacheNotCold, Runner, end_to_end

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def wrong_expectation(lib) -> None:
    wl = workloads.series_asymptotics(lib, ROOT)
    good, _ = Runner(lib).first_ops(wl, seed=1, count=10)
    assert end_to_end(good)["failed_ops_frac"][0] == 0, [r.error for r in good]
    saved = reference.PRINTED_G
    reference.PRINTED_G = saved[:7] + (saved[7] + 1,) + saved[8:]
    try:
        bad, _ = Runner(lib).first_ops(wl, seed=1, count=10)
    finally:
        reference.PRINTED_G = saved
    frac = end_to_end(bad)["failed_ops_frac"][0]
    assert frac > 0, "an altered g_7 went unnoticed"
    print(f"  failed_ops_frac: {frac:.3f} with g_7 altered, 0 with the printed value")


def cold_caches(lib) -> None:
    canonical_cache = lib.canonical._canonical
    enumerate_cache = lib.canonical.enumerate_graphs

    def assert_cold() -> None:
        assert canonical_cache.cache_info().currsize == 0, "canonical cache warm"
        assert enumerate_cache.cache_info().currsize == 0, "enumerate_graphs cache warm"
        assert not lib.minors._memo, "minor memo warm"

    def probed(op: workloads.Op) -> workloads.Op:
        return workloads.Op(op.label, lambda: (assert_cold(), op.run())[1], op.check)

    runner = Runner(lib)
    checked = 0
    for make in workloads.BY_NAME.values():
        for group in make(lib, ROOT).groups:
            result = runner.run_op(group.name, probed(group.ops[0]))
            assert result.error is None, result
            checked += 1
    warm = Runner(lib, clear_caches=False)
    groups = {g.name: g for g in workloads.enumerate_generate(lib, ROOT).groups}
    op = groups["generate-z4"].ops[0]
    try:
        warm.run_op("warm", op)
        warm.run_op("warm", op)
    except CacheNotCold:
        pass
    else:
        raise AssertionError("an op started with warm caches and nothing noticed")
    print(f"  {checked} ops started cold; a run without clearing was stopped")


def trace_completeness(lib) -> None:
    importlib.import_module("apexobs.cli")  # scan the CLI's bindings too
    tracer = Tracer(lib)
    tracer.install()
    try:
        left = tracer.unwrapped_aliases()
        assert not left, f"unwrapped aliases: {left}"
        for name, original in tracer.originals.items():
            layer, fn = name.split(".")
            bound = getattr(getattr(lib, layer), fn)
            assert bound is not original and bound.__wrapped__ is original, name
    finally:
        tracer.uninstall()
    assert all(
        getattr(getattr(lib, name.split(".")[0]), name.split(".")[1]) is original
        for name, original in tracer.originals.items()
    ), "uninstall left a wrapper behind"

    for name in workloads.BY_NAME:
        counts = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0", "--trace", "1", "--trace-ops", "20"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
            counts.append({k: v[0] for k, v in metrics.items() if k.endswith(".calls")})
        assert counts[0] == counts[1], f"{name}: .calls differ between identical runs"
        print(f"  {name}: {len(counts[0])} .calls counts repeat, {sum(counts[0].values())} calls")


def main() -> int:
    lib = workloads.load_library(ROOT)
    failed = 0
    for test in (wrong_expectation, cold_caches, trace_completeness):
        print(f"{test.__name__}:")
        try:
            test(lib)
        except AssertionError as exc:
            failed += 1
            print(f"  FAIL {exc}")
        else:
            print("  PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
