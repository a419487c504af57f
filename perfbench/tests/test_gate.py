"""Self-tests of the benchmark: the result gate can fail, and spans add up.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from gate import judge, load_references, result_digest  # noqa: E402
from run import ROOT, TRACE_DERIVED, Session  # noqa: E402
from tracer import layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PDEG = WORKLOADS["pdeg-f2-r3"]


def test_digest_covers_result_body_only():
    record = {"spec": {"out": "a.json"}, "result": {"histogram": [1, 2]}, "ok": True}
    moved = {**record, "spec": {"out": "b.json"}}
    changed = {**record, "result": {"histogram": [2, 1]}}
    assert result_digest(record["result"]) == result_digest(moved["result"])
    assert result_digest(record["result"]) != result_digest(changed["result"])


def test_tampered_reference_counts_the_run_as_failed():
    references = load_references()
    assert PDEG.name in references and "0" in references[PDEG.name]
    tampered = json.loads(json.dumps(references))
    tampered[PDEG.name]["0"] = "0" * 64

    session = Session(PDEG, 0, tampered)
    session.cli()
    assert (session.attempted, session.failed) == (1, 1)
    assert dict(session.failures) == {"result digest differs from the expected digest": 1}

    honest = Session(PDEG, 0, references)
    honest.cli()
    assert (honest.attempted, honest.failed) == (1, 0)


def test_invariants_reject_a_result_that_matches_no_reference():
    histogram = [500_000, 2_000_000, 3_000_000, 2_000_000, 500_000]
    good = {"samples": 8_000_000, "seed": 3, "histogram": histogram, "algorithm": "x"}
    record = json.dumps({"result": good, "ok": True})
    assert judge(PDEG, 3, 0, record, None).passed
    skewed = {**good, "histogram": [400_000, 2_100_000, 3_000_000, 2_000_000, 500_000]}
    verdict = judge(PDEG, 3, 0, json.dumps({"result": skewed, "ok": True}), None)
    assert not verdict.passed and "degree 0" in verdict.failure
    assert not judge(PDEG, 3, 0, json.dumps({"result": good, "ok": False}), None).passed
    assert not judge(PDEG, 3, 1, record, None).passed
    assert not judge(PDEG, 4, 0, record, None).passed  # echoes another seed


def test_self_time_subtracts_children_and_merges_overlapping_workers():
    ms = 1_000_000
    main, worker_a, worker_b = 1, 2, 3
    spans = [
        (0, "cli.run", 0, 100 * ms, main, None),
        (1, "groups.ball", 10 * ms, 30 * ms, main, 0),
        (2, "configs.sample", 40 * ms, 70 * ms, worker_a, 0),
        (3, "configs.sample", 50 * ms, 80 * ms, worker_b, 0),
        (4, "groups.tables", 55 * ms, 60 * ms, worker_b, 3),
    ]
    own = self_times(spans)
    assert abs(own["cli.run"] - 0.040) < 1e-12  # 100 - 20 - union(40..80)
    assert abs(own["configs.sample"] - 0.055) < 1e-12  # busy time summed over threads
    assert abs(own["groups.ball"] - 0.020) < 1e-12


def test_traced_run_reports_every_per_layer_metric():
    spans = [(0, "cli.main", 0, 10, 1, None), (1, "cli.run", 2, 9, 1, 0)]
    payload = {"spans": spans, "counters": {}, "main_thread": 1}
    names = set(layer_metrics(payload, 1e-8)) | set(TRACE_DERIVED)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in spec["per_layer"]}


def test_no_program_means_nonzero_exit_and_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", PDEG.name, "--seed", "0", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
