import functools
import json

import pytest

from cayleycolour import arrows
from cayleycolour.cli import ExperimentSpec, main, presentation_named, run
from cayleycolour.groups import free_group
from cayleycolour.rules import ColouringRule, rule_to_json


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


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
        code, record = run_json(tmp_path, ["recursion"])
        assert code == 0
        assert record["schema"] == "cayleycolour/v1"
        assert record["spec"]["command"] == "recursion"
        assert "workers" not in record["spec"]

    def test_sidecar_holds_timestamp(self, tmp_path):
        out = tmp_path / "r.json"
        main(["recursion", "--out", str(out)])
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
            args = ["pdeg", "--samples", "2000", "--seed", "9", "--csv", str(out) + ".csv"]
            assert main(args + ["--out", str(out)]) == 0
            blobs.append(out.read_bytes())
            meta = json.loads((tmp_path / (name + ".meta.json")).read_text())
            assert meta["out"] == str(out) and meta["csv"] == str(out) + ".csv"
        assert blobs[0] == blobs[1]

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAYLEYCOLOUR_RADIUS", "4")
        monkeypatch.setenv("CAYLEYCOLOUR_SEED", "17")
        code, record = run_json(tmp_path, ["solve", "--rule", "example1"])
        assert code == 0
        assert record["spec"]["radius"] == 4
        assert record["spec"]["seed"] == 17

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAYLEYCOLOUR_RADIUS", "4")
        code, record = run_json(tmp_path, ["solve", "--rule", "example1", "--radius", "5"])
        assert record["spec"]["radius"] == 5

    def test_failure_record_and_exit(self, tmp_path):
        code, record = run_json(tmp_path, ["audit", "--rule", "nosuch"])
        assert code == 1
        assert record["ok"] is False
        assert "nosuch" in record["error"]["message"]

    def test_bad_epsilon_rejected(self, tmp_path):
        code, record = run_json(tmp_path, ["doubled", "--epsilon", "3/2"])
        assert code == 1 and record["error"]["type"] == "SpecError"

    def test_bad_radius_rejected(self, tmp_path):
        code, record = run_json(tmp_path, ["solve", "--radius", "-2"])
        assert code == 1


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

    def test_file_rule_iterate(self, tmp_path):
        p = free_group(1)
        rule = ColouringRule(
            name="alternate",
            colours=("red", "blue"),
            descendants=(p.word("a"),),
            allowed_fn=lambda w, d: frozenset({"red", "blue"} - set(d)),
        )
        rule_path = tmp_path / "alt.json"
        rule_path.write_text(rule_to_json(rule))
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
        p = free_group(1)
        rule = ColouringRule(
            name="alternate",
            colours=("red", "blue"),
            descendants=(p.word("a"),),
            allowed_fn=lambda w, d: frozenset({"red", "blue"} - set(d)),
        )
        rule_path.write_text(rule_to_json(rule))
        code, record = run_json(
            tmp_path, ["check", "--rule", str(rule_path), "--presentation", "f1", "--radius", "4"]
        )
        assert code == 1 and "iterate" in record["error"]["message"]

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


class TestStructureCommands:
    def test_offsets(self, tmp_path):
        code, record = run_json(tmp_path, ["offsets", "--radius", "6"])
        assert code == 0
        result = record["result"]
        assert result["n_offsets"] == 16
        assert len(result["short"]) == 4 and len(result["long"]) == 12
        assert result["conflicts"] == 0 and result["inverse_closed"] is True

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

    def test_types(self, tmp_path):
        code, record = run_json(tmp_path, ["types", "--samples", "30", "--seed", "3"])
        assert code == 0
        for experiment in record["result"]["experiments"]:
            assert experiment["failures"] == 0
            assert experiment["recovered"] == experiment["witnessed"] == 30

    def test_recursion_miss_fails(self, tmp_path, monkeypatch):
        # Three steps never reach the 1e-6 tolerance, so the run must fail.
        short = functools.partial(arrows.chain_recursion, steps=3)
        monkeypatch.setattr(arrows, "chain_recursion", short)
        code, record = run_json(tmp_path, ["recursion"])
        assert record["result"]["first_below_tolerance"] is None
        assert record["ok"] is False and code == 1

    def test_prefix(self, tmp_path):
        code, record = run_json(tmp_path, ["prefix", "--radius", "5"])
        assert code == 0
        assert record["result"]["all_verified"] is True
        assert record["result"]["star_literal_gap"] == [["1"], ["1"]]


class TestRunApi:
    def test_run_accepts_spec_directly(self):
        spec = ExperimentSpec(command="prefix", presentation="st", radius=4)
        result = run(spec)
        assert result["ok"] is True
