from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import pytest

import apexobs
import apexobs.asymptotics
import apexobs.cli
import apexobs.series
from apexobs.asymptotics import SADDLE_MAX_ITER, SaddlePoint, expansion_coeffs
from apexobs.cacti import exceptional_obstruction, generate_Z
from apexobs.canonical import canonical_form
from apexobs.cli import run
from apexobs.graphio import from_graph6, to_edgelist, to_graph6
from apexobs.graphs import ClassId, has_apex_set_within, make_named, one_step_minors
from apexobs.minors import clear_minor_cache
from apexobs.obstructions import check_obstruction
from apexobs.series import PowerSeries, _CheckFailed, solve_system


def child_env(**overrides: str) -> dict[str, str]:
    """The parent's environment for a CLI child process, with ``overrides``.

    The directory holding the imported ``apexobs`` goes first on
    PYTHONPATH, so the child runs the same code as the test process even
    when the package is not installed and PYTHONPATH is relative.
    """
    env = dict(os.environ, **overrides)
    src = os.path.dirname(os.path.dirname(os.path.abspath(apexobs.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def invoke(capsys, *argv) -> tuple[int, str]:
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheck:
    def test_named_graph(self, capsys):
        code, out = invoke(capsys, "check", "--class", "subunicyclic", "K3")
        assert code == 0 and out.strip() == "true"

    def test_graph6_literal(self, capsys):
        code, out = invoke(capsys, "check", "--class", "cactus", to_graph6(make_named("K4-")))
        assert code == 0 and out.strip() == "false"

    def test_file_input(self, tmp_path, capsys):
        p = tmp_path / "k3.g6"
        p.write_text(to_graph6(make_named("K3")) + "\n")
        code, out = invoke(capsys, "check", "--class", "forest", str(p))
        assert code == 0 and out.strip() == "false"

    def test_edgelist_format(self, tmp_path, capsys):
        p = tmp_path / "z.txt"
        p.write_text(to_edgelist(make_named("Z")))
        code, out = invoke(
            capsys, "check", "--format", "edgelist", "--class", "cactus", str(p)
        )
        assert code == 0 and out.strip() == "true"

    def test_json_output(self, capsys):
        code, out = invoke(capsys, "check", "--json", "--class", "pseudoforest", "2K3")
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True

    def test_unknown_graph_is_usage_error(self, capsys):
        assert run(["check", "--class", "forest", "NOPE@@@"]) == 2

    def test_graph6_with_padding_bits_is_usage_error(self, capsys):
        # 'Bx' is 'Bw' (K3) with a padding bit set: not a graph6 string
        assert run(["check", "--class", "forest", "Bx"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: 'Bx'") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("lines,count", [
        (None, 29),  # the shipped k=1 catalog file
        (["Bw", "", "not graph6"], 2),  # K3, a blank line, then garbage
    ])
    def test_g6_file_of_more_than_one_line_is_usage_error(self, tmp_path, capsys, lines, count):
        if lines is None:
            path = str(resources.files("apexobs.data") / "obs_k1.g6")
        else:
            path = str(tmp_path / "two.g6")
            (tmp_path / "two.g6").write_text("\n".join(lines) + "\n")
        assert run(["check", "--class", "cactus", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path} as g6: {count} non-blank lines")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_unknown_class_is_usage_error(self, capsys):
        assert run(["check", "--class", "bogus", "K4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'bogus'" in captured.err

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("g6", ""),              # no graph in the file
            ("g6", "\n  \n"),
            ("edgelist", "2 1\n1 1\n"),  # a loop
            ("edgelist", "2 1\n0 x\n"),  # not a vertex number
            ("edgelist", "3 3\n0 1\n1 0\n1 2\n"),  # an edge twice: not a 2-edge path
        ],
    )
    def test_bad_graph_file_is_usage_error(self, tmp_path, capsys, fmt, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert run(["check", "--format", fmt, "--class", "forest", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert str(p) in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "text,lineno,form",
        [
            ("3 1\n0 1 2\n", 2, "u v"),        # three numbers on an edge line
            ("3 2\n0 1\n\n1 x\n", 4, "u v"),   # blank lines keep their numbers
            ("3\n0 1\n", 1, "n m"),            # header without the edge count
            ("a b\n", 1, "n m"),
        ],
    )
    def test_malformed_edge_list_line_is_named(self, tmp_path, capsys, text, lineno, form):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        assert run(["check", "--format", "edgelist", "--class", "forest", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert f"line {lineno}:" in captured.err and repr(form) in captured.err
        assert captured.out == ""

    def test_directory_is_usage_error(self, tmp_path, capsys):
        assert run(["check", "--class", "forest", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_graph_name_above_vertex_limit(self, capsys):
        assert run(["minor", "K3", "K40"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'K40'") and err.count("\n") == 1
        assert "32" in err and "limit" in err

    def test_huge_graph_name_exits_before_building(self, capsys):
        # rejected from the name alone: its 10^8 edge tuples would take about 13 GB
        assert run(["check", "--class", "forest", "C100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: 'C100000000'") and captured.err.count("\n") == 1
        assert "32" in captured.err and captured.out == ""


class TestSubcommands:
    def test_minor(self, capsys):
        code, out = invoke(capsys, "minor", "K3", "C5")
        assert code == 0 and out.strip() == "true"

    def test_minor_json_counts_graphs_searched(self, capsys):
        clear_minor_cache()
        # refuted by cycle rank before any canonical form: nothing searched
        code, out = invoke(capsys, "minor", "K4-", "C8", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["is_minor"] is False and payload["graphs_searched"] == 0
        code, out = invoke(capsys, "minor", "K3", "C5", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["is_minor"] is True and payload["graphs_searched"] >= 1

    def test_minor_json_counts_placements(self, capsys):
        # 2K3 against the 6-vertex wheel: every triangle holds the hub, so the
        # match refutes it; each triangle is a twin class placed once, not in
        # all 3! orders (267 placements without the twin rule)
        code, out = invoke(capsys, "minor", "2K3", "E|fG", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["is_minor"] is False
        assert payload["graphs_searched"] == 0 and payload["placements"] == 47
        # refuted by its cycle rank before any match
        code, out = invoke(capsys, "minor", "K4-", "C8", "--json")
        assert json.loads(out)["placements"] == 0

    def test_apex(self, capsys):
        code, out = invoke(capsys, "apex", "--class", "subunicyclic", "3K3")
        assert code == 0 and out.strip() == "2"

    @pytest.mark.parametrize("graph,size", [
        ("K5", 2),
        ("2K3", 0),
        # a 20-cycle with the chords 0-5, 2-7, 10-15, 12-17: two diamonds
        # that share no vertex, so two deletions
        ("ShEGHC@?G?_@?@??_?G?P??C?AG??K??C", 2),
    ])
    def test_apex_cactus(self, capsys, graph, size):
        code, out = invoke(capsys, "apex", "--class", "cactus", graph, "--json")
        payload = json.loads(out)
        assert code == 0 and payload["class"] == "cactus" and payload["min_apex_size"] == size

    def test_verify_catalog_k0(self, capsys):
        code, out = invoke(capsys, "verify-catalog", "--k", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] == 3 and payload["refuted"] == []
        # at k = 0 the membership search's root is its one near miss: the
        # empty set, with g's cycle rank 2, settles every child
        assert [rec["children_searched"] for rec in payload["records"]] == [0, 0, 0]

    def test_search_small(self, capsys):
        code, out = invoke(capsys, "search", "--k", "0", "--max-n", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert [rec["n"] for rec in payload["found"]] == [4]  # K4- only

    @pytest.mark.parametrize("k,extra", [(0, ()), (1, ()), (1, ("--connected-only",)), (2, ())])
    def test_search_counts_its_candidates(self, capsys, k, extra):
        code, out = invoke(capsys, "search", "--k", str(k), "--max-n", "6", "--json", *extra)
        assert code == 0
        payload = json.loads(out)
        c = payload["candidates"]
        assert set(c) == {
            "dropped_k_apex", "dropped_non_minimal",
            "generated", "passed_filters", "checked", "found",
        }
        assert c["generated"] >= c["passed_filters"] >= c["checked"] >= c["found"]
        assert c["found"] == len(payload["found"]) > 0
        # no filter stage: at k = 0 the candidates are the core levels'
        # finished classes, each built once; above it the last layer's rules
        # and the deduplication cut (8 neighbourhoods to 1 candidate at k = 2)
        if k:
            assert c["dropped_k_apex"] + c["dropped_non_minimal"] + c["generated"] > c["checked"]
        else:
            assert c["generated"] == c["checked"]
        assert (c["dropped_k_apex"] + c["dropped_non_minimal"] > 0) == (k > 0)

    def test_enumerate_row_ten(self, capsys):
        code, out = invoke(capsys, "enumerate", "--n", "10")
        assert code == 0
        last = out.strip().splitlines()[-1]
        assert last == "10,34982,49397"

    def test_enumerate_json_exact_strings(self, capsys):
        code, out = invoke(capsys, "enumerate", "--n", "10", "--json")
        rows = json.loads(out)["rows"]
        assert rows[-1] == {"n": 10, "t_n": "34982", "g_n": "49397"}

    def test_asymptotics_json_reports_saddle_iterations(self, capsys):
        code, out = invoke(capsys, "asymptotics", "--N", "64", "--json")
        assert code == 0
        assert 1 <= json.loads(out)["saddle_iterations"] <= SADDLE_MAX_ITER
        code, text = invoke(capsys, "asymptotics", "--N", "64")
        assert code == 0 and "iteration" not in text
        assert text.splitlines()[0].startswith("rho      = 0.159264")

    def test_gen_cacti(self, capsys):
        code, out = invoke(capsys, "gen-cacti", "--k", "3", "--json")
        assert code == 0
        fams = json.loads(out)["families"]
        assert sum(1 for f in fams if f["k"] == 3) == 3

    def test_gen_cacti_verify_json_counts_child_searches(self, capsys):
        # each verified member's row carries the check's children_searched,
        # as verify-catalog's records do; rows without --verify carry none
        code, out = invoke(capsys, "gen-cacti", "--k", "5", "--verify", "--disconnected", "--json")
        assert code == 0
        rows = json.loads(out)["families"]
        for row in rows:
            budget = row["k"] if row.get("disconnected") else row["k"] - 1
            check = check_obstruction(from_graph6(row["graph6"]), budget)
            assert row["children_searched"] == check.children_searched
        connected = [row for row in rows if not row.get("disconnected")]
        assert [sum(r["children_searched"] for r in connected if r["k"] == j)
                for j in (2, 3, 4, 5)] == [1, 2, 15, 79]
        code, out = invoke(capsys, "gen-cacti", "--k", "5", "--json")
        assert code == 0
        assert all("children_searched" not in row for row in json.loads(out)["families"])

    def test_gen_cacti_verify_level_five(self, capsys):
        code, out = invoke(capsys, "gen-cacti", "--k", "5", "--verify")
        assert code == 0
        assert "k=5: 25 butterfly-cacti  (all verified)" in out.splitlines()

    @pytest.mark.parametrize("k,unions", [(2, 3), (5, 56)])
    def test_gen_cacti_verify_disconnected(self, capsys, k, unions):
        code, out = invoke(capsys, "gen-cacti", "--k", str(k), "--verify", "--disconnected")
        assert code == 0
        verdicts = [line for line in out.splitlines() if line.startswith("k=")]
        assert len(verdicts) == k + 1
        assert all(line.endswith("  (all verified)") for line in verdicts)
        assert verdicts[-1] == f"k={k}: {unions} disconnected cactus obstructions  (all verified)"

    @pytest.mark.parametrize("argv,digest", [
        (("--k", "5", "--disconnected", "--json"),
         "fdb8363d316f605c0e71cdc7fe011d3383384c2eee9658c1bd57d2f3c5bac12c"),
        (("--k", "7"), "53ab250a3174ffae64f52b2402ed1ff9c16f4aff079d7aa4ed287e860633c38f"),
    ])
    def test_gen_cacti_bytes_pinned(self, capsys, argv, digest):
        # which levels are in form order fixes the unions' bytes; these are
        # the digests of the CLI that sorted every level it listed
        code, out = invoke(capsys, "gen-cacti", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @staticmethod
    def refute_4k3(monkeypatch):
        """Check the exceptional 4K3 one level too low, where a one-step minor refutes it."""
        exceptional = canonical_form(exceptional_obstruction(2))
        real = apexobs.cli.check_obstruction
        monkeypatch.setattr(
            apexobs.cli,
            "check_obstruction",
            lambda g, k: real(g, k - 1 if canonical_form(g) == exceptional else k),
        )
        return exceptional

    def test_gen_cacti_disconnected_failure_exit_1(self, capsys, monkeypatch):
        # refute only the exceptional 4K3, which is no union of butterfly-cacti
        exceptional = self.refute_4k3(monkeypatch)
        code, out = invoke(capsys, "gen-cacti", "--k", "2", "--verify", "--disconnected")
        assert code == 1
        verdict, failure = out.splitlines()[-2:]
        assert verdict == "k=2: 3 disconnected cactus obstructions  (1 FAILED)"
        assert failure.startswith("first failure: ") and failure.endswith("  [minimality]")
        assert canonical_form(from_graph6(failure.split()[2])) == exceptional

    def test_gen_cacti_failure_json_names_member_and_witness(self, capsys, monkeypatch):
        exceptional = self.refute_4k3(monkeypatch)
        code, out = invoke(capsys, "gen-cacti", "--k", "2", "--verify", "--disconnected", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "verification failed" and payload["level"] == 2
        assert canonical_form(from_graph6(payload["graph6"])) == exceptional
        assert payload["failed_step"] == "minimality"
        # the witness is a one-step minor of 4K3 that is not 1-apex
        witness = from_graph6(payload["witness"])
        minors = {canonical_form(c) for c in one_step_minors(make_named("4K3"))}
        assert canonical_form(witness) in minors
        assert not has_apex_set_within(witness, ClassId.SUB_UNICYCLIC, 1)

    @staticmethod
    def refute_z2(monkeypatch):
        """Check the Z_2 member at budget 0, where a one-step minor refutes it."""
        (member,) = generate_Z(2)
        z2 = canonical_form(member.graph)
        real = apexobs.cli.check_obstruction
        monkeypatch.setattr(
            apexobs.cli,
            "check_obstruction",
            lambda g, k: real(g, 0 if canonical_form(g) == z2 else k),
        )

    def test_gen_cacti_connected_failure_exit_1(self, capsys, monkeypatch):
        # the first failing level stops the run: no k=3 line follows
        self.refute_z2(monkeypatch)
        code, out = invoke(capsys, "gen-cacti", "--k", "3", "--verify")
        assert code == 1
        assert out.splitlines() == [
            "k=1: 1 butterfly-cacti  (all verified)",
            "k=2: 1 butterfly-cacti  (1 FAILED)",
            "first failure: H{dAGCB  [minimality]",
        ]

    def test_gen_cacti_connected_failure_json(self, capsys, monkeypatch):
        self.refute_z2(monkeypatch)
        code, out = invoke(capsys, "gen-cacti", "--k", "3", "--verify", "--json")
        assert code == 1
        assert json.loads(out) == {
            "error": "verification failed",
            "level": 2,
            "graph6": "H{dAGCB",
            "failed_step": "minimality",
            "witness": "GtaGGK",
        }

    # each bad argv -> the rejected value its error line must name
    OUT_OF_RANGE_LEVEL = {
        ("gen-cacti", "--k", "9"): "9",
        ("gen-cacti", "--k", "0", "--verify"): "0",
        ("gen-cacti", "--k", "6", "--disconnected"): "6",
        ("search", "--k", "-1", "--max-n", "4"): "-1",
        ("search", "--k", "0", "--max-n", "-1"): "-1",
        ("search", "--k", "0", "--max-n", "33"): "33",
        ("gen-cacti", "--k", "8"): "8",
    }
    BAD_SERIES_ARGUMENT = {
        ("enumerate", "--n", "-1"): "-1",
        ("enumerate", "--N", "-3"): "-3",
        ("asymptotics", "--N", "64", "--tol", "0"): "0.0",
        ("asymptotics", "--N", "64", "--tol", "nan"): "nan",
        ("asymptotics", "--N", "64", "--tol", "inf"): "inf",
        ("asymptotics", "--N", "64", "--tol", "-0.5"): "-0.5",
        ("asymptotics", "--N", "64", "--tol", "1e-300"): "1e-300",  # Newton cannot reach it
        ("asymptotics", "--N", "64", "--tol", "0.5"): "0.5",  # the start point meets it
        ("enumerate", "--n", "-1", "--json"): "-1",
    }

    @staticmethod
    def assert_usage_error(capsys, argv, rejected):
        """Exit 2, nothing on stdout, one ``error:`` line naming ``rejected``."""
        assert run(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert re.search(rf"(?<![\w.-]){re.escape(rejected)}(?![\w.])", captured.err), captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", list(OUT_OF_RANGE_LEVEL))
    def test_out_of_range_level_exit_2(self, capsys, argv):
        self.assert_usage_error(capsys, argv, self.OUT_OF_RANGE_LEVEL[argv])

    @pytest.mark.parametrize("argv", list(BAD_SERIES_ARGUMENT))
    def test_bad_series_argument_exit_2(self, capsys, argv):
        self.assert_usage_error(capsys, argv, self.BAD_SERIES_ARGUMENT[argv])

    def test_enumerate_negative_n_names_the_flag(self, capsys):
        assert run(["enumerate", "--n", "-1"]) == 2
        assert capsys.readouterr().err == "error: --n must be non-negative, got -1\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_rejected_before_the_solve(self, capsys, monkeypatch, tol):
        # --N 1024 --tol nan exited 2 only after a solve of seconds
        def unreached(truncation):
            raise AssertionError(f"solve_system({truncation}) ran before --tol was checked")

        monkeypatch.setattr(apexobs.cli, "solve_system", unreached)
        assert run(["asymptotics", "--N", "1024", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: tol must be finite and positive, got {float(tol)}\n"
        assert captured.out == ""

    def test_removed_flags_rejected(self):
        assert run(["gen-cacti", "--k", "4", "--verify", "--allow-expensive"]) == 2
        assert run(["verify-catalog", "--k", "0", "--threads", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-catalog", "--k", "0"),
            ("search", "--k", "0", "--max-n", "3"),
            ("gen-cacti", "--k", "1"),
            ("enumerate", "--n", "3"),
            ("asymptotics", "--N", "64"),
        ],
    )
    def test_format_only_where_graphs_are_read(self, capsys, argv):
        assert run([*argv, "--format", "g6"]) == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        assert run(["definitely-not-a-command"]) == 2
        assert run(["search", "--k", "0"]) == 2  # missing --max-n

    def test_asymptotics_truncation_too_small(self, capsys):
        assert run(["asymptotics", "--N", "32"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "truncation 32 is below 64" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        a = invoke(capsys, "search", "--k", "0", "--max-n", "5", "--json")
        b = invoke(capsys, "search", "--k", "0", "--max-n", "5", "--json")
        assert a == b

    def test_catalog_checks_pinned(self, capsys):
        # sha256 of the raw stdout of verify-catalog --json at k = 0 and 1,
        # which holds no wall time: verdicts, failed steps, witnesses and
        # children_searched
        digest = hashlib.sha256()
        for k in ("0", "1"):
            code, out = invoke(capsys, "verify-catalog", "--k", k, "--json")
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == (
            "df2e7e7b6492a88c240b5ba6340ac343b86b31c5fb76aabb51b23a1e73e873b9"
        )

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_timing_writes_one_stderr_line_only(self, capsys, fmt):
        argv = ["search", "--k", "0", "--max-n", "5", *fmt]
        assert run(argv) == 0
        plain = capsys.readouterr()
        assert run([*argv, "--timing"]) == 0
        timed = capsys.readouterr()
        assert timed.out == plain.out and plain.err == ""
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s\n", timed.err), timed.err


class TestProcessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "apexobs", "check", "--class", "subunicyclic", "2K3"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "false"

    def test_refutation_exit_code(self, tmp_path):
        # a doctored catalog: K4 planted at k=0 must be refuted -> exit 1
        from apexobs.graphio import write_graph6_file
        from apexobs.graphs import complete_graph
        from apexobs.obstructions import load_catalog

        records = [r.graph for r in load_catalog(0).records] + [complete_graph(4)]
        write_graph6_file(str(tmp_path / "obs_k0.g6"), records)
        manifest = {
            "k": 0,
            "claimed_complete": False,
            "source_note": "doctored",
            "records": [
                {"name": n, "figure": "t", "row": 0, "col": i}
                for i, n in enumerate(["2K3", "K4-", "Z", "K4"])
            ],
        }
        (tmp_path / "obs_k0.json").write_text(json.dumps(manifest))
        proc = subprocess.run(
            [sys.executable, "-m", "apexobs", "verify-catalog", "--k", "0"],
            capture_output=True,
            text=True,
            env=child_env(APEXOBS_DATA=str(tmp_path)),
        )
        assert proc.returncode == 1
        assert "K4" in proc.stdout
        # exit 1 must come from the refutation, not from a crash
        assert proc.stderr == ""
        lines = [ln.strip() for ln in proc.stdout.splitlines()]
        assert any(
            ln.startswith("XXX K4 ") and ln.endswith("[minimality]") for ln in lines
        )
        assert "3/4 verified" in proc.stdout

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE here")
    def test_closed_stdout_ends_quietly(self):
        # a stdout whose reader has gone must not end in a BrokenPipeError
        # traceback and exit 1, the code of a verification failure
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "apexobs", "verify-catalog", "--k", "0", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=child_env(),
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode not in (1, 2)

    def test_corrupt_catalog_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # one graph more than the manifest has records: bad input -> exit 2
        from apexobs.obstructions import load_catalog

        graphs = [to_graph6(r.graph) for r in load_catalog(0).records] + ["C~"]
        (tmp_path / "obs_k0.g6").write_text("\n".join(graphs) + "\n")
        manifest = {
            "k": 0,
            "records": [{"name": n} for n in ["2K3", "K4-", "Z"]],
        }
        (tmp_path / "obs_k0.json").write_text(json.dumps(manifest))
        monkeypatch.setenv("APEXOBS_DATA", str(tmp_path))
        assert run(["verify-catalog", "--k", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_manifest_of_another_level_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # the k=0 catalog under the k=1 file names: bad input -> exit 2
        from apexobs.obstructions import load_catalog

        graphs = [to_graph6(r.graph) for r in load_catalog(0).records]
        (tmp_path / "obs_k1.g6").write_text("\n".join(graphs) + "\n")
        manifest = {"k": 0, "records": [{"name": n} for n in ["2K3", "K4-", "Z"]]}
        (tmp_path / "obs_k1.json").write_text(json.dumps(manifest))
        monkeypatch.setenv("APEXOBS_DATA", str(tmp_path))
        assert run(["verify-catalog", "--k", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def change_T(monkeypatch, change):
    """Hand the CLI solved systems whose T coefficients pass through ``change``."""
    real = apexobs.cli.solve_system

    def solve(n):
        sol = real(n)
        return dataclasses.replace(sol, T=PowerSeries(tuple(change(list(sol.T.coeffs)))))

    monkeypatch.setattr(apexobs.cli, "solve_system", solve)


def non_int_T(monkeypatch):
    change_T(monkeypatch, lambda t: [*t[:2], Fraction(1, 2), *t[3:]])


def zero_top_T(monkeypatch):
    change_T(monkeypatch, lambda t: [*t[:-1], 0])


def perturbed_star(monkeypatch):
    real = apexobs.series._solve_T_diamond

    def solve(n):
        d, a, a2 = real(n)
        a[1] += 1
        return d, a, a2

    monkeypatch.setattr(apexobs.series, "_solve_T_diamond", solve)


def negative_G(monkeypatch):
    real = apexobs.series.mset
    monkeypatch.setattr(apexobs.series, "mset", lambda f: PowerSeries((1, -1) + real(f).coeffs[2:]))


def no_root(monkeypatch):
    monkeypatch.setattr(apexobs.asymptotics, "Y_AT_TOL", -1.0)


class TestCheckFailures:
    """A computed result that fails the library's own check exits 1 with
    one ``FAILED:`` line; each case makes one check fire."""

    # patch -> (argv, what the FAILED line names)
    CASES = {
        non_int_T: (("enumerate", "--n", "3"), r"x\^2 is not an integer: 1/2"),
        perturbed_star: (("enumerate", "--n", "3"), r"T_square: coefficient of x\^\d+ is"),
        negative_G: (("enumerate", "--n", "3"), "G has a negative coefficient"),
        zero_top_T: (("asymptotics", "--N", "64"), "non-positive coefficient at n=64"),
        no_root: (("asymptotics", "--N", "64"), "back-substitution at eps = .* has no root"),
    }

    @pytest.mark.parametrize("patch", list(CASES), ids=lambda patch: patch.__name__)
    def test_check_failure_exit_1(self, capsys, monkeypatch, patch):
        argv, named = self.CASES[patch]
        patch(monkeypatch)
        assert run(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("FAILED: ") and captured.err.count("\n") == 1
        assert re.search(named, captured.err), captured.err
        assert captured.out == ""

    def test_degenerate_saddle(self):
        # at x near 0, F_yy vanishes to well under the check's 1e-9
        sol = solve_system(64)
        sp = SaddlePoint(x0=1e-12, y0=0.0, residuals=(0.0, 0.0), iterations=0)
        with pytest.raises(_CheckFailed, match="degenerate saddle"):
            expansion_coeffs(sp, sol)
