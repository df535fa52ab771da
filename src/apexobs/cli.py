"""Command-line front door.

Subcommands: check, minor, apex, verify-catalog, search, gen-cacti,
enumerate, asymptotics.  Every subcommand supports --json for machine
output.  Exit codes: 0 success, 1 verification failure, 2 usage error;
``main`` leaves a stdout closed early to SIGPIPE, where it exists.
Past argparse, every usage error is a ValueError, raised by the argument
checks of the library functions each subcommand calls or by the
subcommand itself, and ``run`` prints it as one ``error:`` line.

The private names of the package read here, each for one reason:
- ``_check_tol``: checks --tol before the multi-second solve;
- ``_CheckFailed``: a result failing its own check is the exit-1 contract;
- ``_NAME_RE``: tells a malformed graph name from graph6;
- ``minors._memo``, ``minors._placements``: the counters ``minor --json`` prints.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from . import __version__, minors
from .asymptotics import NewtonDivergence, _check_tol, asymptotics_report
from .cacti import butterfly_levels, cactus_unions
from .graphio import from_graph6, load_graph, to_graph6
from .graphs import _NAME_RE, ClassId, Graph, is_in_class, make_named, min_apex_size
from .obstructions import (
    check_obstruction,
    load_catalog,
    search_obstructions,
    verify_catalog,
)
from .series import _CheckFailed, coefficient_table, solve_system

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2


def _read_graph(spec: str, fmt: str) -> Graph:
    """A graph argument: a named graph, a graph6 literal, or a file path."""
    if os.path.exists(spec):
        try:
            return load_graph(spec, fmt)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read {spec} as {fmt}: {exc}") from None
    try:
        return make_named(spec)
    except ValueError as exc:
        if _NAME_RE.match(spec.strip()):  # a graph name, but too large or malformed
            raise ValueError(f"{spec!r}: {exc}") from None
    try:
        return from_graph6(spec)
    except ValueError:
        raise ValueError(f"{spec!r} is neither a file, a graph name, nor graph6") from None


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_check(args) -> int:
    g = _read_graph(args.graph, args.format)
    cls = ClassId(args.cls)
    ok = is_in_class(g, cls)
    _emit(args, {"graph6": to_graph6(g), "class": cls.value, "member": ok}, str(ok).lower())
    return EXIT_OK


def cmd_minor(args) -> int:
    h = _read_graph(args.h, args.format)
    g = _read_graph(args.g, args.format)
    before, placed = len(minors._memo), minors._placements
    ok = minors.is_minor(h, g)
    payload = {
        "h": to_graph6(h),
        "g": to_graph6(g),
        "is_minor": ok,
        "graphs_searched": len(minors._memo) - before,  # hosts the descent added to the memo
        "placements": minors._placements - placed,  # partial placements of the spanning match
    }
    _emit(args, payload, str(ok).lower())
    return EXIT_OK


def cmd_apex(args) -> int:
    g = _read_graph(args.graph, args.format)
    cls = ClassId(args.cls)
    size = min_apex_size(g, cls)
    _emit(args, {"graph6": to_graph6(g), "class": cls.value, "min_apex_size": size}, str(size))
    return EXIT_OK


def cmd_verify_catalog(args) -> int:
    # an unreadable or inconsistent catalog is bad input, not a refutation
    try:
        cat = load_catalog(args.k)
    except (OSError, ValueError) as exc:
        raise ValueError(
            f"cannot load the k={args.k} catalog: {type(exc).__name__}: {exc}"
        ) from None
    report = verify_catalog(cat)
    _emit(args, report.to_dict(), report.to_text())
    return EXIT_OK if report.all_verified else EXIT_VERIFICATION_FAILED


def cmd_search(args) -> int:
    cat = search_obstructions(args.k, args.max_n, connected_only=args.connected_only)
    payload = {
        "k": cat.k,
        "max_n": args.max_n,
        "complete": cat.claimed_complete,
        "candidates": cat.candidates,
        "found": [rec.to_dict() for rec in cat.records],
    }
    lines = [f"obstruction search: k={cat.k}, n <= {args.max_n}"]
    for rec in cat.records:
        lines.append(
            f"  {rec.name:8s} n={rec.graph.n:2d} m={rec.graph.num_edges():2d}  {to_graph6(rec.graph)}"
        )
    lines.append(f"{len(cat.records)} obstruction(s) found")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_gen_cacti(args) -> int:
    levels = butterfly_levels(args.k)
    # (level, apex budget, label, members); a member is a graph and the rest of its row
    families = [
        (j, j - 1, "butterfly-cacti",
         [(b.graph, {"central_vertices": sorted(b.central_vertices)}) for b in level])
        for j, level in enumerate(levels, 1)
    ]
    if args.disconnected:
        unions = [(g, {"disconnected": True}) for g in cactus_unions(levels)]
        families.append((args.k, args.k, "disconnected cactus obstructions", unions))
    rows, lines = [], []
    for j, budget, label, members in families:
        lines.append(f"k={j}: {len(members)} {label}")
        level_rows = [{"k": j, "graph6": to_graph6(g), "n": g.n, **rest} for g, rest in members]
        rows += level_rows
        if not args.verify:
            continue
        checks = [(g, check_obstruction(g, budget)) for g, _ in members]
        for row, (_, c) in zip(level_rows, checks):
            row["children_searched"] = c.children_searched
        failed = [(g, c) for g, c in checks if not c.is_obstruction]
        lines[-1] += f"  ({len(failed)} FAILED)" if failed else "  (all verified)"
        if not failed:
            continue
        g, check = failed[0]
        lines.append(f"first failure: {to_graph6(g)}  [{check.failed_step}]")
        payload = {
            "error": "verification failed",
            "level": j,
            "graph6": to_graph6(g),
            "failed_step": check.failed_step,
            "witness": None if check.witness is None else to_graph6(check.witness),
        }
        _emit(args, payload, "\n".join(lines))
        return EXIT_VERIFICATION_FAILED
    _emit(args, {"families": rows}, "\n".join(lines + [r["graph6"] for r in rows]))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.N < 1:  # solved at max(N, n), so solve_system never sees a bad --N
        raise ValueError(f"--N must be at least 1, got {args.N}")
    if args.n < 0:  # else coefficient_table's message names its up_to, not the flag
        raise ValueError(f"--n must be non-negative, got {args.n}")
    sol = solve_system(max(args.N, args.n))
    table = coefficient_table(sol, args.n)
    payload = {
        "N": sol.truncation,
        "rows": [{"n": n, "t_n": str(t), "g_n": str(g)} for n, t, g in table],
    }
    _emit(args, payload, "\n".join(["n,t_n,g_n"] + [f"{n},{t},{g}" for n, t, g in table]))
    return EXIT_OK


def cmd_asymptotics(args) -> int:
    _check_tol(args.tol)  # before the solve, which takes seconds at large --N
    sol = solve_system(args.N)
    try:
        report = asymptotics_report(sol, tol=args.tol)
    except NewtonDivergence as exc:
        raise ValueError(f"the saddle-point solve failed at --tol {args.tol}: {exc}") from None
    text = (
        f"rho      = {report['rho']:.6f}   (1/rho = {report['rho_inv']:.5f})\n"
        f"y0       = {report['y0']:.6f}\n"
        f"h0       = {report['h0']:.6f}\n"
        f"h1       = {report['h1']:.6f}\n"
        f"q1       = {report['q1']:.6f}  "
        f"(X^2 coefficient fit {report['x2_coefficient_fit']:.6f}; "
        f"{'consistent' if report['q1_consistent_with_backsubstitution'] else 'printed formula INCONSISTENT with back-substitution'})\n"
        f"c_T      = {report['c_T']:.5f}  (spread {report['c_T_spread']:.1e})\n"
        f"c_G      = {report['c_G']:.5f}  (spread {report['c_G_spread']:.1e})\n"
        f"Z1 ident = " + ", ".join(f"N={k}: {v:.2e}" for k, v in report["z1_residuals"].items())
    )
    _emit(args, report, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="apexobs",
        description="minor-obstructions of k-apex sub-unicyclic graphs: "
        "exact verification, search, generation, and enumeration",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--timing", action="store_true", help="print elapsed time to stderr")

    def graph_input(sp):
        common(sp)
        sp.add_argument(
            "--format", choices=("g6", "edgelist"), default="g6", help="graph file format"
        )

    sp = sub.add_parser("check", help="class membership of a graph")
    sp.add_argument("--class", dest="cls", required=True,
                    choices=[c.value for c in ClassId])
    sp.add_argument("graph", help="file, graph name (Z, K4, 2K3, ...), or graph6")
    graph_input(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("minor", help="is h a minor of g?")
    sp.add_argument("h")
    sp.add_argument("g")
    graph_input(sp)
    sp.set_defaults(func=cmd_minor)

    sp = sub.add_parser("apex", help="minimum vertex deletions into a class")
    sp.add_argument("--class", dest="cls", default=ClassId.SUB_UNICYCLIC.value,
                    choices=[c.value for c in ClassId])
    sp.add_argument("graph")
    graph_input(sp)
    sp.set_defaults(func=cmd_apex)

    sp = sub.add_parser("verify-catalog", help="re-verify a shipped obstruction catalog")
    sp.add_argument("--k", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_verify_catalog)

    sp = sub.add_parser("search", help="exhaustive obstruction search up to a size")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-n", type=int, required=True)
    sp.add_argument("--connected-only", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("gen-cacti", help="generate butterfly-cacti families")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--verify", action="store_true", help="check obstruction-hood of every member")
    sp.add_argument("--disconnected", action="store_true",
                    help="also emit the disconnected obstructions at level k")
    common(sp)
    sp.set_defaults(func=cmd_gen_cacti)

    sp = sub.add_parser("enumerate", help="coefficient table of the counting series")
    sp.add_argument("--n", type=int, default=10, help="last row to print")
    sp.add_argument("--N", type=int, default=64, help="series truncation order")
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("asymptotics", help="saddle point, expansion, and constants")
    sp.add_argument("--N", type=int, default=256, help="series truncation order")
    sp.add_argument("--tol", type=float, default=1e-13)
    common(sp)
    sp.set_defaults(func=cmd_asymptotics)

    return p


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except ValueError as exc:  # every usage error
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except _CheckFailed as exc:  # a computed result failed its own check
        sys.stderr.write(f"FAILED: {exc}\n")
        return EXIT_VERIFICATION_FAILED
    if getattr(args, "timing", False):
        sys.stderr.write(f"elapsed: {time.perf_counter() - t0:.3f}s\n")
    return code


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
