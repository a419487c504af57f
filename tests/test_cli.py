import argparse
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cayleycolour
from cayleycolour import arrows, cli, equidecomp, groups, hausdorff, measures, proper
from cayleycolour.cli import ExperimentSpec, build_parser, main, presentation_named, run
from cayleycolour.groups import ball, free_group
from cayleycolour.rules import ColouringRule, rule_to_json

# The golden manifest's pins by command line, so the doubled digest tests
# below read the same digests tests/test_goldens.py checks.
GOLDENS = {" ".join(e["argv"]): e for e in json.loads(Path(__file__).with_name("goldens.json").read_text())}


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def alternate_rule():
    """On F1: each vertex takes the colour its a-neighbour does not."""
    return ColouringRule(
        name="alternate",
        colours=("red", "blue"),
        descendants=(free_group(1).word("a"),),
        allowed_fn=lambda w, d: frozenset({"red", "blue"} - set(d)),
    )


class TestPlumbing:
    def test_presentation_names(self):
        assert presentation_named("f2").n_generators == 2
        assert presentation_named("st").name(0) == "s"
        assert presentation_named("z2z3").order(0) == 2
        with pytest.raises(ValueError):
            presentation_named("f0")
        with pytest.raises(ValueError):
            presentation_named("banana")

    def test_schema_and_spec_echo(self, tmp_path):
        code, record = run_json(tmp_path, ["prefix", "--radius", "4"])
        assert code == 0
        assert record["schema"] == "cayleycolour/v1"
        assert record["spec"]["command"] == "prefix"
        assert "workers" not in record["spec"]

    def test_sidecar_holds_timestamp(self, tmp_path):
        out = tmp_path / "r.json"
        main(["prefix", "--radius", "4", "--out", str(out)])
        meta = json.loads((tmp_path / "r.json.meta.json").read_text())
        assert "written_at" in meta and "elapsed_seconds" in meta
        assert "written_at" not in out.read_text()

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "same.json"
        main(["pdeg", "--samples", "2000", "--seed", "9", "--out", str(out)])
        first = out.read_bytes()
        main(["pdeg", "--samples", "2000", "--seed", "9", "--out", str(out)])
        assert out.read_bytes() == first

    def test_pdeg_independent_of_out_path(self, tmp_path):
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["pdeg", "--samples", "2000", "--seed", "9", "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
            meta = json.loads((tmp_path / (name + ".meta.json")).read_text())
            assert meta["out"] == str(out)
        assert blobs[0] == blobs[1]

    def test_sidecar_records_csv_path(self, tmp_path):
        out, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        assert main(["solve", "--rule", "example1", "--radius", "4", "--csv", str(csv_path), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "s.json.meta.json").read_text())
        assert meta["out"] == str(out) and meta["csv"] == str(csv_path)
        assert csv_path.read_text().startswith("word,colour")

    def test_csv_only_where_a_csv_is_written(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["audit", "--rule", "example1", "--radius", "6", "--csv", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("audit", "--samples 7"),
            ("audit", "--epsilon 1/4"),
            ("audit", "--n-levels 3"),
            ("pdeg", "--rule arrow"),
            ("prefix", "--seed 9"),
            ("offsets", "--workers 2"),
        ],
    )
    def test_spec_flags_only_where_read(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as err:
            main([command, *flag.split(), "--out", str(tmp_path / "x.json")])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_parser_surface(self):
        expected = {
            "solve": "presentation radius seed rule solver csv",
            "check": "presentation radius seed rule solver",
            "audit": "presentation radius seed rule",
            "pdeg": "presentation radius seed samples conditional workers",
            "offsets": "presentation radius seed choice",
            "doubled": "presentation radius seed epsilon n-levels choice csv",
            "prefix": "presentation radius",
        }
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(expected)
        for name, flags in expected.items():
            offered = {s for a in sub.choices[name]._actions for s in a.option_strings}
            assert offered == {"--" + f for f in flags.split()} | {"--out", "-h", "--help"}, name

    def test_environment_is_not_an_input(self, tmp_path, monkeypatch):
        for name in [k for k in os.environ if k.startswith("CAYLEYCOLOUR_")]:
            monkeypatch.delenv(name)
        args = ["solve", "--rule", "example1"]
        assert main(args + ["--out", str(tmp_path / "clean.json")]) == 0
        monkeypatch.setenv("CAYLEYCOLOUR_RADIUS", "4")
        monkeypatch.setenv("CAYLEYCOLOUR_SEED", "17")
        assert main(args + ["--out", str(tmp_path / "env.json")]) == 0
        assert (tmp_path / "env.json").read_bytes() == (tmp_path / "clean.json").read_bytes()

    def test_failure_record_and_exit(self, tmp_path):
        code, record = run_json(tmp_path, ["audit", "--rule", "nosuch"])
        assert code == 1
        assert record["ok"] is False
        assert "nosuch" in record["error"]["message"]

    def test_bad_epsilon_rejected(self, tmp_path):
        code, record = run_json(tmp_path, ["doubled", "--epsilon", "3/2"])
        assert code == 1 and record["error"]["type"] == "SpecError"

    @pytest.mark.parametrize("args", ["doubled --radius 5", "offsets --radius 5", "pdeg --samples 5"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_seed_rejected(self, tmp_path, args, seed):
        code, record = run_json(tmp_path, [*args.split(), "--seed", seed])
        assert code == 1 and record["ok"] is False
        assert record["error"]["type"] == "SpecError"
        assert "seed" in record["error"]["message"]

    def test_unbuilt_rank_rejected(self, tmp_path):
        # free_group names at most eight generators, so f9 is no presentation.
        assert presentation_named("f8").n_generators == 8
        code, record = run_json(tmp_path, ["solve", "--presentation", "f9", "--rule", "example1"])
        assert code == 1
        assert record["error"] == {"type": "SpecError", "message": "unknown presentation 'f9'"}

    def test_bad_radius_rejected(self, tmp_path):
        code, record = run_json(tmp_path, ["solve", "--radius", "-2"])
        assert code == 1

    @pytest.mark.parametrize(
        "args, digest",
        [(args, GOLDENS[args]["record"]) for args in ["doubled --radius 5 --n-levels 3 --seed 4"]],
    )
    def test_record_golden_digest(self, tmp_path, args, digest):
        """SHA-256 of the whole primary record of a doubled run with explicit
        levels, so its spec's bytes are pinned with the result."""
        out = tmp_path / "record.json"
        assert main([*args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSolveCheck:
    def test_arrow_constructive(self, tmp_path):
        code, record = run_json(
            tmp_path, ["check", "--rule", "arrow", "--radius", "8", "--solver", "constructive"]
        )
        assert code == 0
        assert record["result"]["check"]["n_violations"] == 0
        assert record["result"]["check"]["interior_size"] == 1457

    def test_solve_histogram_and_csv(self, tmp_path):
        csv_path = tmp_path / "cols.csv"
        code, record = run_json(
            tmp_path, ["solve", "--rule", "example1", "--radius", "5", "--csv", str(csv_path)]
        )
        assert code == 0
        hist = record["result"]["colour_histogram"]
        assert sum(hist.values()) == 485
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "word,colour" and len(lines) == 486

    def test_hausdorff_solve(self, tmp_path):
        code, record = run_json(tmp_path, ["solve", "--rule", "hausdorff", "--radius", "6"])
        assert code == 0
        assert record["spec"]["presentation"] == "z2z3"

    @pytest.mark.parametrize("radius", [6, 10])
    def test_arrow_csv_boundary_rows_have_no_colour(self, tmp_path, radius):
        csv_path = tmp_path / "colours.csv"
        code, _ = run_json(tmp_path, ["solve", "--rule", "arrow", "--radius", str(radius), "--csv", str(csv_path)])
        assert code == 0
        # Boundary vertices send no arrow: their colour field is empty.
        assert f"\r\n{'ab' * (radius // 2)},\r\n".encode() in csv_path.read_bytes()

    @pytest.mark.parametrize(
        "args, digest",
        [(args, GOLDENS[f"doubled {args}"]["csv"]) for args in ["--radius 7", "--radius 5 --n-levels 3 --seed 4"]],
    )
    def test_doubled_csv_golden_digest(self, tmp_path, args, digest):
        csv_path = tmp_path / "edges.csv"
        code, _ = run_json(tmp_path, ["doubled", *args.split(), "--csv", str(csv_path)])
        assert code == 0
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    def test_file_rule_iterate(self, tmp_path):
        rule_path = tmp_path / "alt.json"
        rule_path.write_text(rule_to_json(alternate_rule()))
        code, record = run_json(
            tmp_path,
            ["check", "--rule", str(rule_path), "--presentation", "f1",
             "--radius", "6", "--solver", "iterate"],
        )
        assert code == 0
        assert record["result"]["converged"] is True
        assert record["result"]["check"]["n_violations"] == 0

    def test_file_rule_needs_iterate(self, tmp_path):
        rule_path = tmp_path / "alt.json"
        rule_path.write_text(rule_to_json(alternate_rule()))
        code, record = run_json(
            tmp_path, ["check", "--rule", str(rule_path), "--presentation", "f1", "--radius", "4"]
        )
        assert code == 1 and "iterate" in record["error"]["message"]

    def test_builtin_declaration_is_not_a_rule(self, tmp_path):
        # Rule files hold a full table; a {"builtin": ...} stub names no letters
        # of the run's presentation, so it must not run as a Z2*Z3 rule.
        rule_path = tmp_path / "stub.json"
        rule_path.write_text('{"builtin": "three-class-congruence"}')
        code, record = run_json(tmp_path, ["check", "--solver", "iterate", "--radius", "4", "--rule", str(rule_path)])
        assert code == 1 and record["ok"] is False and "result" not in record
        assert record["error"] == {
            "type": "ValueError",
            "message": "not a rule declaration: missing keys ['allowed', 'colours', 'dependency_radius', "
            "'descendants', 'name', 'stationary', 'window'], unknown keys ['builtin']",
        }

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [], "a rule declaration is a JSON object"),
            (lambda doc: {**doc, "dependency_radius": "two"}, "'dependency_radius' must hold a JSON integer"),
            (lambda doc: {**doc, "stationary": 1}, "'stationary' must hold a JSON boolean"),
            (lambda doc: {**doc, "colours": ["red", 2]}, "'colours' must hold a JSON array of strings"),
            (lambda doc: {**doc, "extra": 1}, "unknown keys ['extra']"),
            (lambda doc: {k: v for k, v in doc.items() if k != "window"}, "missing keys ['window']"),
            (lambda doc: {**doc, "allowed": {"|red": ["blue"]}}, "no allowed list for input '|blue'"),
        ],
        ids=["not-object", "radius-type", "bool-type", "array-items", "unknown-key", "missing-key", "missing-input"],
    )
    def test_malformed_rule_file_fails_with_a_record(self, tmp_path, edit, message):
        rule_path = tmp_path / "bad.json"
        rule_path.write_text(json.dumps(edit(json.loads(rule_to_json(alternate_rule())))))
        code, record = run_json(
            tmp_path, ["check", "--solver", "iterate", "--presentation", "f1", "--rule", str(rule_path)]
        )
        assert code == 1 and record["ok"] is False and "result" not in record
        assert record["error"]["type"] == "ValueError"
        assert message in record["error"]["message"]

    def test_rule_path_that_is_a_directory_fails_with_a_record(self, tmp_path):
        (tmp_path / "d.json").mkdir()
        code, record = run_json(
            tmp_path, ["solve", "--rule", str(tmp_path / "d.json"), "--solver", "iterate", "--radius", "4"]
        )
        assert code == 1 and record["ok"] is False and "result" not in record
        assert record["error"]["type"] == "IsADirectoryError"

    @pytest.mark.parametrize("args", ["solve --rule example1 --radius 4", "doubled --radius 5 --n-levels 3"])
    def test_csv_path_that_is_a_directory_fails_with_a_record(self, tmp_path, args):
        code, record = run_json(tmp_path, [*args.split(), "--csv", str(tmp_path)])
        assert code == 1 and record["ok"] is False and "result" not in record
        assert record["error"]["type"] == "IsADirectoryError"

    def test_long_rule_names_are_gone(self, tmp_path):
        code, record = run_json(tmp_path, ["check", "--rule", "arrow-orientation"])
        assert code == 1 and "unknown rule" in record["error"]["message"]

    def test_file_rule_with_window_matches_builtin(self, tmp_path):
        # A file rule that reads a window gets the same sampled configuration.
        rule_path = tmp_path / "arrow.json"
        rule_path.write_text(rule_to_json(arrows.arrow_rule()))
        args = ["check", "--solver", "iterate", "--radius", "6", "--seed", "3", "--rule"]
        _, builtin = run_json(tmp_path, args + ["arrow"], "builtin.json")
        _, from_file = run_json(tmp_path, args + [str(rule_path)], "file.json")
        assert "result" in from_file
        assert from_file["result"] == builtin["result"]


class TestAudits:
    def test_example1_contradiction(self, tmp_path):
        code, record = run_json(tmp_path, ["audit", "--rule", "example1", "--radius", "8"])
        assert code == 0
        result = record["result"]
        assert all(c["checks_passed"] == c["checks_total"] for c in result["certificates"])
        assert result["feasibility"]["feasible"] is False
        assert result["feasibility"]["refutation"]["display"] == "2/3 <= 1/3"

    def test_example1_failed_certificate_is_recorded(self, tmp_path, monkeypatch):
        real = hausdorff.example1_solve

        def recoloured(b):
            colouring = real(b)
            colouring.codes[1] = (colouring.codes[1] + 1) % 3
            return colouring

        monkeypatch.setattr(hausdorff, "example1_solve", recoloured)
        code, record = run_json(tmp_path, ["audit", "--rule", "example1", "--radius", "6"])
        failed = [c for c in record["result"]["certificates"] if "first_failure" in c]
        assert failed and all(c["checks_passed"] < c["checks_total"] for c in failed)
        assert "feasibility" not in record["result"]
        assert record["ok"] is False and code == 1

    def test_arrow_mass_gap(self, tmp_path):
        code, record = run_json(tmp_path, ["audit", "--rule", "arrow", "--radius", "6"])
        assert code == 0
        audit = record["result"]["audit"]
        assert audit["outflow"] == 1
        assert audit["crowded_fraction"] == "0"
        assert audit["feasibility"]["refutation"]["gap"] == "1/16"

    def test_hausdorff_doubling(self, tmp_path):
        code, record = run_json(tmp_path, ["audit", "--rule", "hausdorff", "--radius", "6"])
        assert code == 0
        assert record["result"]["doubling"]["all_verified"] is True

    def test_hausdorff_doubling_with_empty_interior_fails(self, tmp_path):
        # At radius 1 no vertex has its radius-2 neighbourhood in the ball,
        # so nothing is verified and the audit must not pass.
        code, record = run_json(tmp_path, ["audit", "--rule", "hausdorff", "--radius", "1"])
        assert record["result"]["doubling"]["interior_size"] == 0
        assert record["result"]["doubling"]["all_verified"] is False
        assert record["ok"] is False and code == 1

    @pytest.mark.parametrize("presentation", ["f1", "f2", "f3", "st", "z2z3"])
    @pytest.mark.parametrize("rule", ["arrow", "example1", "hausdorff"])
    def test_audit_rejects_what_solve_rejects(self, tmp_path, rule, presentation):
        """A builtin rule's audit runs on the presentations its solve runs on,
        and fails on the others with the same error, also at a radius too
        small for the arrow solver."""
        for radius in ("4", "2"):
            args = ["--rule", rule, "--presentation", presentation, "--radius", radius]
            solve_code, solved = run_json(tmp_path, ["solve", *args], "solve.json")
            audit_code, audited = run_json(tmp_path, ["audit", *args], "audit.json")
            assert audit_code == solve_code, radius
            if solve_code:
                assert audited.get("error", {}).get("message") == solved["error"]["message"], radius

    @pytest.mark.parametrize(
        "module, args, feasibility",
        [
            (arrows, "audit --rule arrow --radius 6", "audit.feasibility"),
            (cli, "audit --rule example1 --radius 6", "feasibility"),
            (proper, "doubled --radius 5 --n-levels 3 --seed 4", "audit.feasibility"),
        ],
    )
    def test_unreplayable_refutation_fails(self, tmp_path, monkeypatch, module, args, feasibility):
        """A refutation with a multiplier dropped fails the run.  Only the
        call of `measures.feasible` made in `module` is planted, so each case
        fails at its own call site (doubled's exact program, solved in `cli`,
        still replays)."""
        real = measures.feasible
        planted = []

        def drops_a_multiplier(program):
            outcome = real(program)
            if sys._getframe(1).f_globals["__name__"] != module.__name__:
                return outcome
            planted.append(program)
            refutation = outcome.refutation
            return dataclasses.replace(
                outcome, refutation=dataclasses.replace(refutation, multipliers=refutation.multipliers[:-1])
            )

        monkeypatch.setattr(measures, "feasible", drops_a_multiplier)
        code, record = run_json(tmp_path, args.split())
        reported = functools.reduce(dict.__getitem__, feasibility.split("."), record["result"])
        assert len(planted) == 1 and reported["feasible"] is False
        assert record["ok"] is False and code == 1

    @pytest.mark.parametrize(
        "args, digest",
        [("doubled --radius 7", "192fde2fd5f7e9aaf67ad0cb08ac40cb46ae337576c3440cad739653e2b7c8e9")],
    )
    def test_result_golden_digest(self, tmp_path, args, digest):
        """SHA-256 of the canonical result body (as perfbench/gate.py hashes
        it). The manifest pins the whole record; this pins the result alone,
        so a re-pin for a change in the spec's bytes still holds the audit."""
        code, record = run_json(tmp_path, args.split())
        assert code == 0 and record["ok"] is True
        body = json.dumps(record["result"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(body.encode()).hexdigest() == digest


class TestMonteCarlo:
    def test_worker_invariance(self, tmp_path):
        out = tmp_path / "h.json"
        blobs = []
        for w in ("1", "3", "8"):
            main(["pdeg", "--samples", "3000", "--seed", "5", "--workers", w, "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_conditional_excludes_zero(self, tmp_path):
        code, record = run_json(
            tmp_path, ["pdeg", "--samples", "2000", "--seed", "2", "--conditional"]
        )
        assert code == 0
        assert record["result"]["histogram"][0] == 0
        assert sum(record["result"]["histogram"]) == 2000

    def test_conditional_matches_library(self, tmp_path):
        from cayleycolour.arrows import pdegree_histogram
        from cayleycolour.configs import RandomSource
        from cayleycolour.groups import ball, free_group

        args = ["pdeg", "--samples", "4000", "--seed", "13", "--conditional", "--workers", "3"]
        code, record = run_json(tmp_path, args)
        expected = pdegree_histogram(ball(free_group(2), 3), RandomSource(13), 4000, conditional=True)
        assert record["result"]["conditioned_on"] == expected.conditioned_on
        assert tuple(record["result"]["histogram"]) == expected.histogram

    def test_matches_library_sequential(self, tmp_path):
        from cayleycolour.arrows import pdegree_histogram
        from cayleycolour.configs import RandomSource
        from cayleycolour.groups import ball, free_group

        code, record = run_json(tmp_path, ["pdeg", "--samples", "4000", "--seed", "13"])
        expected = pdegree_histogram(ball(free_group(2), 3), RandomSource(13), 4000)
        assert tuple(record["result"]["histogram"]) == expected.histogram

    @pytest.mark.parametrize("flags", [[], ["--conditional"]])
    def test_lost_sample_fails(self, tmp_path, monkeypatch, flags):
        real = arrows.pdegree_histogram

        def drops_one(ball, source, n, conditional=False, workers=1):
            return dataclasses.replace(real(ball, source, n - 1, conditional, workers), samples=n)

        monkeypatch.setattr(arrows, "pdegree_histogram", drops_one)
        code, record = run_json(tmp_path, ["pdeg", "--samples", "2000", "--seed", "9", *flags])
        assert record["result"]["samples"] == 2000
        assert sum(record["result"]["histogram"]) == 1999
        assert record["ok"] is False and code == 1

    @pytest.mark.parametrize("flags", [[], ["--conditional"]])
    def test_histogram_far_from_the_law_fails(self, tmp_path, monkeypatch, flags):
        # Every sample counted, all at p-degree 0: outside six standard
        # deviations of the binomial law in bin 0.
        monkeypatch.setattr(arrows, "_pdegrees", lambda signs: np.zeros(signs.shape[:-1], dtype=np.int64))
        code, record = run_json(tmp_path, ["pdeg", "--samples", "2000", "--seed", "9", *flags])
        assert record["result"]["histogram"] == [2000, 0, 0, 0, 0]
        assert record["ok"] is False and code == 1


class TestStructureCommands:
    def test_offsets(self, tmp_path):
        code, record = run_json(tmp_path, ["offsets", "--radius", "6"])
        assert code == 0
        result = record["result"]
        assert result["n_offsets"] == 16
        assert len(result["short"]) == 4 and len(result["long"]) == 12
        assert result["conflicts"] == 0 and result["inverse_closed"] is True

    def test_offset_conflict_fails(self, tmp_path, monkeypatch):
        real = proper.greedy_base_colouring

        def one_conflict(b, choice="min", seed=0):
            base = real(b, choice=choice, seed=seed)
            # The root takes the colour of its neighbour through one offset.
            base.codes[0] = base.codes[b.left_table(proper.offsets16(b.presentation)[0])[0]]
            return base

        monkeypatch.setattr(proper, "greedy_base_colouring", one_conflict)
        code, record = run_json(tmp_path, ["offsets", "--radius", "6"])
        assert record["result"]["conflicts"] > 0
        assert record["ok"] is False and code == 1

    def test_doubled_explicit_levels(self, tmp_path):
        code, record = run_json(
            tmp_path, ["doubled", "--radius", "5", "--n-levels", "3", "--seed", "4"]
        )
        assert code == 0
        result = record["result"]
        assert result["audit"]["gap"] == "15/512"
        assert result["audit"]["feasibility"]["feasible"] is False
        assert result["proper"]["conflicts"] == []

    def test_doubled_with_offset_pairs_wrapped(self, tmp_path, monkeypatch):
        """A plain wrapper around `proper.offset_pairs`, as a profiler sets,
        has no `cache_clear`; doubled still drops the pair lists and keeps
        its pinned record."""
        args = "doubled --radius 6 --seed 0"
        real = proper.offset_pairs
        monkeypatch.setattr(proper, "offset_pairs", lambda b: real(b))
        out = tmp_path / "record.json"
        assert main([*args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDENS[args]["record"]
        assert real.cache_info().currsize == 0

    def test_doubled_even_levels_rejected(self, tmp_path):
        # Zero and negative level counts get the same SpecError as even ones.
        for levels in ("2", "0", "-1"):
            code, record = run_json(tmp_path, ["doubled", "--radius", "5", "--n-levels", levels])
            assert code == 1
            assert record["error"] == {"type": "SpecError", "message": "--n-levels must be odd and positive"}, levels

    @pytest.mark.parametrize("radius", ["2", "3"])
    def test_doubled_small_radius_names_the_offsets_need(self, tmp_path, radius):
        # The base colouring's check comes first: the arrow colouring alone
        # would run from radius 3.
        code, record = run_json(tmp_path, ["doubled", "--radius", radius])
        assert code == 1
        assert record["error"]["message"] == "need radius at least 5 so the offsets act inside the ball"

    @pytest.mark.parametrize("args", ["offsets --radius 8 --choice random --seed 3", "doubled --radius 7"])
    def test_st_runs_as_f2_spelled_s_t(self, tmp_path, args):
        """Offsets are spelled by generator index, so on the free group on s
        and t a run gives f2's result with a, b, A, B read as s, t, S, T."""
        code, f2 = run_json(tmp_path, args.split(), "f2.json")
        st_code, st = run_json(tmp_path, [*args.split(), "--presentation", "st"], "st.json")
        assert code == st_code == 0
        spell = str.maketrans("abAB", "stST")
        for key in ("short", "long"):
            if key in f2["result"]:
                f2["result"][key] = sorted(w.translate(spell) for w in f2["result"][key])
        assert st["result"] == f2["result"]

    def test_doubled_reports_calibration_failure(self, tmp_path):
        code, record = run_json(
            tmp_path, ["doubled", "--radius", "5", "--choice", "min", "--seed", "0"]
        )
        assert code == 0
        result = record["result"]
        assert result["calibration"]["N"] is None
        assert "infeasible" in result["note"]
        assert result["exact_program"]["feasible"] is False

    def test_doubled_off_list_vertex_fails(self, tmp_path, monkeypatch):
        real = proper.canonical_doubled_colouring

        def planted(graph, arrow_colouring):
            codes = real(graph, arrow_colouring)
            # The root is a secondary-graph member with list {c16, c8}; c4 is
            # off that list, yet no edge of the doubled graph sees it.
            assert graph.secondary.members()[0] == 0
            assert 4 not in proper.list_assignments(graph.config, graph.base, [0])[0]
            codes[0] = 4
            return codes

        monkeypatch.setattr(proper, "canonical_doubled_colouring", planted)
        code, record = run_json(tmp_path, ["doubled", "--radius", "5", "--n-levels", "3", "--seed", "4"])
        result = record["result"]
        assert result["proper"]["n_conflicts"] == 0
        assert result["list_colouring"]["n_violations"] == 1
        assert result["list_colouring"]["violations"][0]["vertex"] == 0
        assert record["ok"] is False and code == 1

    def test_doubled_secondary_clash_is_listed(self, tmp_path, monkeypatch):
        real = proper.canonical_doubled_colouring

        def planted(graph, arrow_colouring):
            codes = real(graph, arrow_colouring)
            # The first off-Q secondary edge gets equal colours at its ends.
            x, y = (int(ends[0]) for ends in proper._secondary_off_q(graph))
            codes[y] = codes[x]
            return codes

        monkeypatch.setattr(proper, "canonical_doubled_colouring", planted)
        code, record = run_json(tmp_path, ["doubled", "--radius", "5", "--n-levels", "3", "--seed", "4"])
        families = [family for family, _, _ in record["result"]["proper"]["conflicts"]]
        assert "secondary" in families
        assert record["ok"] is False and code == 1

    def test_doubled_blank_second_copy_fails(self, tmp_path, monkeypatch):
        real = proper.canonical_doubled_colouring

        def planted(graph, arrow_colouring):
            codes = real(graph, arrow_colouring)
            # Every edge check skips an uncoloured end, so no conflict shows.
            codes[graph.n_first :] = -1
            return codes

        monkeypatch.setattr(proper, "canonical_doubled_colouring", planted)
        code, record = run_json(tmp_path, ["doubled", "--radius", "5", "--n-levels", "3", "--seed", "4"])
        result = record["result"]
        assert result["proper"]["n_conflicts"] == 0 and "list_colouring" not in result
        assert result["uncoloured"] == len(ball(free_group(2), 5))
        assert record["ok"] is False and code == 1

    def test_prefix(self, tmp_path):
        code, record = run_json(tmp_path, ["prefix", "--radius", "5"])
        assert code == 0
        assert record["result"]["all_verified"] is True
        # The identity is the piece left over: W(s) u s W(S) misses nothing else.
        assert record["result"]["piece_sizes"]["1"] == 1 and "1" not in record["result"]["movers"]

    def test_prefix_broken_mask_fails(self, tmp_path, monkeypatch):
        real = equidecomp.free_group_decomposition

        def one_vertex_moved(b):
            decomposition = real(b)
            decomposition.pieces[1] = 1  # vertex 1 leaves its prefix piece for the identity's
            return decomposition

        monkeypatch.setattr(equidecomp, "free_group_decomposition", one_vertex_moved)
        code, record = run_json(tmp_path, ["prefix", "--radius", "5"])
        assert record["result"]["piece_sizes"]["1"] == 2
        assert record["ok"] is False and code == 1

    @pytest.mark.parametrize("plant", ["vertex-moved", "mover-edited", "copies-overlap"])
    @pytest.mark.parametrize(
        "module, args",
        [(equidecomp, "prefix --radius 5"), (hausdorff, "audit --rule hausdorff --radius 8")],
        ids=["prefix", "hausdorff"],
    )
    def test_planted_decomposition_fails(self, tmp_path, monkeypatch, module, args, plant):
        """Each command's decomposition, planted with one fault on its way
        into the checker, fails the run: the first judged vertex moves to the
        next piece, the first moved piece's mover gains an s, or that piece
        joins the other copy, which it overlaps."""
        real = equidecomp.check_decomposition

        def planted(b, decomposition, judged):
            first = next(iter(decomposition.movers))  # the first moved piece
            if plant == "vertex-moved":
                decomposition.pieces[0] = decomposition.pieces[0] % len(decomposition.names) + 1
            elif plant == "mover-edited":
                decomposition.movers[first] = decomposition.movers[first].replace("1", "") + "s"
            else:
                decomposition.copies[first] = 3 - decomposition.copies[first]
            return real(b, decomposition, judged)

        monkeypatch.setattr(module, "check_decomposition", planted)
        code, record = run_json(tmp_path, args.split())
        result = record["result"].get("doubling", record["result"])
        assert result["all_verified"] is False
        assert record["ok"] is False and code == 1


# Runs in a fresh interpreter: what the CLI costs before it does any work.
STARTUP_PROBE = """
import contextlib, io, json, os, sys
import cayleycolour.cli as cli
state = {"blas": os.environ.get("OPENBLAS_NUM_THREADS")}
if sys.platform == "linux":
    state["threads"] = len(os.listdir("/proc/self/task"))
with contextlib.redirect_stdout(io.StringIO()):
    state["audit"] = cli.main(["audit", "--rule", "hausdorff", "--radius", "6"])
    state["numpy.ma"] = "numpy.ma" in sys.modules
    state["pdeg"] = cli.main(["pdeg", "--samples", "2000", "--workers", "1"])
    state["concurrent.futures"] = "concurrent.futures" in sys.modules
print(json.dumps(state))
"""

# Runs in a fresh interpreter: which package modules have been executed
# after `import cayleycolour.cli`, after parsing the arguments given, when
# the first ball is built and when the command returns.  A lazy module is
# of a ModuleType subclass until it is executed, and reading any attribute
# of it executes it, so only its type is read.
EXECUTED_PROBE = """
import contextlib, io, json, sys, types
import cayleycolour.cli as cli
from cayleycolour import groups

def executed():
    return sorted(
        name.removeprefix("cayleycolour.") for name, module in list(sys.modules.items())
        if name.startswith("cayleycolour.") and type(module) is types.ModuleType
    )

state = {"imported": executed()}
argv = sys.argv[1:]
if argv:
    cli.build_parser().parse_args(argv)
    state["parsed"] = executed()
    real = groups.Ball.__init__

    def init(b, *args, **kwargs):
        state.setdefault("at_ball", executed())
        real(b, *args, **kwargs)

    groups.Ball.__init__ = init
    with contextlib.redirect_stdout(io.StringIO()):
        state["exit"] = cli.main(argv)
    state["executed"] = executed()
print(json.dumps(state))
"""

LAZY = {"arrows", "equidecomp", "hausdorff", "measures", "proper"}


def fresh_process(cwd, script, *args, env=None):
    """Run `script` in a new interpreter in `cwd` that imports this
    checkout's package, and return its stdout parsed as JSON."""
    env = dict(os.environ if env is None else env)
    src = str(Path(cayleycolour.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


@functools.cache
def executed_modules(args: str) -> dict:
    """EXECUTED_PROBE's state for one command line, run once per session."""
    return fresh_process(Path.cwd(), EXECUTED_PROBE, *args.split())


class TestStartup:
    @pytest.mark.parametrize("preset", [None, "2"])
    def test_fresh_process(self, tmp_path, preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        state = fresh_process(tmp_path, STARTUP_PROBE, env=env)
        # A value the caller set wins; otherwise no idle BLAS threads start.
        assert state["blas"] == (preset or "1")
        if preset is None and sys.platform == "linux":
            assert state["threads"] == 1
        assert state["audit"] == 0 and state["pdeg"] == 0
        assert state["numpy.ma"] is False
        assert state["concurrent.futures"] is False

    def test_import_executes_no_lazy_module(self, tmp_path):
        state = fresh_process(tmp_path, EXECUTED_PROBE)
        assert {"cli", "configs", "groups", "rules"} <= set(state["imported"])
        assert not LAZY & set(state["imported"])

    @pytest.mark.parametrize(
        "args, modules",
        [
            ("offsets --radius 5", {"proper"}),
            ("audit --rule hausdorff --radius 4", {"equidecomp", "hausdorff"}),
            ("pdeg --samples 50", {"arrows"}),
            ("audit --rule example1 --radius 4", {"equidecomp", "hausdorff", "measures"}),
            ("solve --rule example1 --radius 4", {"equidecomp", "hausdorff"}),
            ("check --rule hausdorff --radius 4", {"equidecomp", "hausdorff"}),
        ],
    )
    def test_command_executes_only_what_it_reads(self, args, modules):
        state = executed_modules(args)
        assert state["exit"] == 0
        assert LAZY & set(state["executed"]) == modules

    def test_choice_flag_lists_the_greedy_choices(self):
        assert cli._FLAGS["choice"]["choices"] == proper.GREEDY_CHOICES

    def test_lazy_returns_what_sys_modules_holds(self, monkeypatch):
        """A module already in sys.modules comes back untouched: reading any
        of its attributes would execute a lazy one."""

        class Unread(types.ModuleType):
            def __getattribute__(self, name):
                raise AssertionError(f"read {name}")

        held = Unread("cayleycolour.arrows")
        monkeypatch.setitem(sys.modules, "cayleycolour.arrows", held)
        assert cayleycolour._lazy("arrows") is held


class TestRunApi:
    def test_run_accepts_spec_directly(self):
        spec = ExperimentSpec(command="prefix", presentation="st", radius=4)
        result = run(spec)
        assert result["ok"] is True

    SMALL_RUNS = {
        "solve": "--radius 4",
        "check": "--radius 4",
        "audit": "--radius 4",
        "pdeg": "--samples 50",
        "offsets": "--radius 5",
        "doubled": "--radius 5",
        "prefix": "--radius 4",
    }

    @pytest.mark.parametrize("command", SMALL_RUNS)
    def test_each_command_builds_one_ball(self, tmp_path, monkeypatch, command):
        assert set(self.SMALL_RUNS) == set(cli._COMMANDS)
        built = []
        real = groups.Ball.__init__

        def counted(b, *args, **kwargs):
            built.append(b)
            real(b, *args, **kwargs)

        monkeypatch.setattr(groups.Ball, "__init__", counted)
        code, _ = run_json(tmp_path, [command, *self.SMALL_RUNS[command].split()])
        assert code == 0 and len(built) == 1

    @pytest.mark.parametrize(
        "args",
        [f"{command} {flags}" for command, flags in SMALL_RUNS.items()]
        + [f"{command} --rule {rule} --radius 4" for command in ("solve", "check", "audit") for rule in cli._BUILTINS],
    )
    def test_no_module_is_first_executed_after_the_ball(self, args):
        """Parsing the arguments executes none of the lazy modules, and `run`
        executes those its command reads before it builds the ball, so
        compiling them leaves no transient beside its arrays."""
        state = executed_modules(args)
        assert state["exit"] == 0
        assert not LAZY & set(state["parsed"])
        assert state["at_ball"] == state["executed"]
