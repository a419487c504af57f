import argparse
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayleycolour
from cayleycolour import arrows, cli, hausdorff, proper
from cayleycolour.cli import ExperimentSpec, build_parser, main, presentation_named, run
from cayleycolour.groups import ball, free_group
from cayleycolour.rules import ColouringRule, rule_to_json


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
        [
            ("prefix --radius 5", "dc3396c9cca9f1fa8ac02c55e5c6d3c1d00f20dac4e060e5f32a0fe0dbe4a4a3"),
            ("audit --rule hausdorff --radius 5", "c95c4892edac98a987319c2e3cccab6f86a80cc158690cd1162b44c0f1f8364c"),
            ("pdeg --samples 3000 --seed 5", "3fa80c937a67761fd7aea55e7abd42ac9b480c35e24feb543ed9e4aec041a3cb"),
            ("doubled --radius 5 --n-levels 3 --seed 4", "0a93062de1724a1777a635903e6fd6d43a8cd4c722915d74822af33d4ad9ffe2"),
            ("solve --rule example1 --radius 5", "25ac6fcf1d526db8fc9b55547311768feb805098a698a216bff05befa606b2d1"),
            ("offsets --radius 8 --choice random --seed 3", "159cde45a528ff47830c9a2ce0c5d3ef23b665f8d22db75fa47676de8c3a3d37"),
        ],
    )
    def test_record_golden_digest(self, tmp_path, args, digest):
        """SHA-256 of the whole primary record, so the spec's bytes (each
        command's defaults and presentation) are pinned with the result."""
        out = tmp_path / "record.json"
        assert main([*args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("check --solver iterate --rule example1 --radius 6", "a489b2ed536da13aa436003339e3a727017f63c4465aa010efb469c1056a2127"),
            ("check --solver iterate --radius 6 --seed 3 --rule arrow", "61e2d49499477c23907c3376a0243a809ac9e045a9c7fdff7895f250358f5da3"),
        ],
    )
    def test_failing_record_golden_digest(self, tmp_path, args, digest):
        """Whole-record SHA-256 of iterate runs that end with violations."""
        out = tmp_path / "record.json"
        assert main([*args.split(), "--out", str(out)]) == 1
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

    @pytest.mark.parametrize(
        "rule, radius, digest",
        [
            ("hausdorff", "8", "506dd4114cf15b32c62604fafc1df59e4c8045ebc3ddd309bc16f06f1ebf5420"),
            ("arrow", "6", "58710bfd5bf61c2ba9d315328a5f741bfef0d78123c42fe0814beeb32a4f0292"),
            ("arrow", "10", "07c81b8e5e83c4e3198151c1584f1ed1d8b6f37e897f285fec41a00acc1d1473"),
        ],
    )
    def test_solve_csv_golden_digest(self, tmp_path, rule, radius, digest):
        csv_path = tmp_path / "colours.csv"
        code, _ = run_json(tmp_path, ["solve", "--rule", rule, "--radius", radius, "--csv", str(csv_path)])
        assert code == 0
        data = csv_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        if rule == "arrow":
            # Boundary vertices send no arrow: their colour field is empty.
            assert f"\r\n{'ab' * (int(radius) // 2)},\r\n".encode() in data

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--radius 7", "58db55aa0ec2f164ad626ab4d3d824be3debaced2e33a3cf8a024839eb2d3e8c"),
            ("--radius 5 --n-levels 3 --seed 4", "44fd73b08b8dca44e2627eb09a6f27a5b7a8da0b76244fbbf365e8edd4270342"),
        ],
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

    @pytest.mark.parametrize(
        "module, args, feasibility",
        [
            (arrows, "audit --rule arrow --radius 6", "audit.feasibility"),
            (cli, "audit --rule example1 --radius 6", "feasibility"),
            (proper, "doubled --radius 5 --n-levels 3 --seed 4", "audit.feasibility"),
        ],
    )
    def test_unreplayable_refutation_fails(self, tmp_path, monkeypatch, module, args, feasibility):
        real = module.feasible

        def drops_a_multiplier(program):
            outcome = real(program)
            refutation = outcome.refutation
            return dataclasses.replace(
                outcome, refutation=dataclasses.replace(refutation, multipliers=refutation.multipliers[:-1])
            )

        monkeypatch.setattr(module, "feasible", drops_a_multiplier)
        code, record = run_json(tmp_path, args.split())
        reported = functools.reduce(dict.__getitem__, feasibility.split("."), record["result"])
        assert reported["feasible"] is False
        assert record["ok"] is False and code == 1

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("audit --rule example1 --radius 8", "52c37d16467839801ae74401a17455e3361069b5577a09237bb24745e69aac74"),
            ("audit --rule arrow --radius 8", "6932f439c535a4f0978028212e229766252bd775ef57a467842cd2f30fd36eb3"),
            ("doubled --radius 7", "192fde2fd5f7e9aaf67ad0cb08ac40cb46ae337576c3440cad739653e2b7c8e9"),
        ],
    )
    def test_result_golden_digest(self, tmp_path, args, digest):
        """SHA-256 of the canonical result body (as perfbench/gate.py hashes
        it) for records that no benchmark workload pins."""
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
        from cayleycolour.arrows import conditional_pdegree
        from cayleycolour.configs import RandomSource
        from cayleycolour.groups import ball, free_group

        args = ["pdeg", "--samples", "4000", "--seed", "13", "--conditional", "--workers", "3"]
        code, record = run_json(tmp_path, args)
        expected = conditional_pdegree(ball(free_group(2), 3), RandomSource(13), 4000)
        assert record["result"]["conditioned_on"] == expected.conditioned_on
        assert tuple(record["result"]["histogram"]) == expected.histogram

    def test_matches_library_sequential(self, tmp_path):
        from cayleycolour.arrows import pdegree_histogram
        from cayleycolour.configs import RandomSource
        from cayleycolour.groups import ball, free_group

        code, record = run_json(tmp_path, ["pdeg", "--samples", "4000", "--seed", "13"])
        expected = pdegree_histogram(ball(free_group(2), 3), RandomSource(13), 4000)
        assert tuple(record["result"]["histogram"]) == expected.histogram

    @pytest.mark.parametrize(
        "estimator, flags", [("pdegree_histogram", []), ("conditional_pdegree", ["--conditional"])]
    )
    def test_lost_sample_fails(self, tmp_path, monkeypatch, estimator, flags):
        real = getattr(arrows, estimator)

        def drops_one(ball, source, n, workers=1):
            return dataclasses.replace(real(ball, source, n - 1, workers=workers), samples=n)

        monkeypatch.setattr(arrows, estimator, drops_one)
        code, record = run_json(tmp_path, ["pdeg", "--samples", "2000", "--seed", "9", *flags])
        assert record["result"]["samples"] == 2000
        assert sum(record["result"]["histogram"]) == 1999
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
            base.codes[0] = base.codes[b.left_table(proper.offsets16(b.presentation).short[0])[0]]
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

    def test_doubled_even_levels_rejected(self, tmp_path):
        code, record = run_json(tmp_path, ["doubled", "--radius", "5", "--n-levels", "2"])
        assert code == 1 and "odd" in record["error"]["message"]

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
        assert record["result"]["star_literal_gap"] == [["1"], ["1"]]

    def test_prefix_broken_mask_fails(self, tmp_path, monkeypatch):
        from cayleycolour import equidecomp

        real = equidecomp._prefix_masks

        def one_vertex_moved(b):
            masks = real(b)
            masks[0][1] = not masks[0][1]  # vertex 1 joins or leaves the s-prefix set
            return masks

        monkeypatch.setattr(equidecomp, "_prefix_masks", one_vertex_moved)
        code, record = run_json(tmp_path, ["prefix", "--radius", "5"])
        assert record["result"]["partition_exact"] is False
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


class TestStartup:
    @pytest.mark.parametrize("preset", [None, "2"])
    def test_fresh_process(self, tmp_path, preset):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(cayleycolour.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        state = json.loads(proc.stdout)
        # A value the caller set wins; otherwise no idle BLAS threads start.
        assert state["blas"] == (preset or "1")
        if preset is None and sys.platform == "linux":
            assert state["threads"] == 1
        assert state["audit"] == 0 and state["pdeg"] == 0
        assert state["numpy.ma"] is False
        assert state["concurrent.futures"] is False


class TestRunApi:
    def test_run_accepts_spec_directly(self):
        spec = ExperimentSpec(command="prefix", presentation="st", radius=4)
        result = run(spec)
        assert result["ok"] is True
