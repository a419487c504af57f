"""Record the benchmark's reference digests and its baseline results.

    python3 perfbench/record.py references
    python3 perfbench/record.py baseline [--seeds 0-9]

``references`` runs each workload's CLI command once per seed 0-31 and writes
the digest of each result body to ``references.json``; a workload whose seed
cannot change the result is run on two seeds, which must agree, and stored
once.  Every run must pass the workload's invariants.  Record references
only at a commit whose results are known good: later runs are judged
against them.

``baseline`` runs ``run.py`` on every workload, untraced once per seed and
traced on the first two seeds, each for BENCHMARK.json's ``run_seconds``.
It writes ``results/seeds-<first>-<last>.json``: every result line with its
provenance, and per workload and end-to-end metric (plus the untraced wall
time ``wall_s``) the median, quartiles and spread (interquartile distance over
median).  Two sets on different seeds of the same code show whether the
benchmark reproduces within its bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from gate import ANY_SEED, REFERENCES
from run import ROOT, SPEC, Session
from workloads import WORKLOADS

RESULTS = Path(__file__).with_name("results")
REFERENCE_SEEDS = range(32)
TRACED_SEEDS = 2


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def digest_of(workload, seed: int) -> str:
    session = Session(workload, seed, {})
    session.cli()
    if session.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {dict(session.failures)}")
    return session.expected


def record_references() -> None:
    references: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS.values():
        if workload.seeded:
            table = {str(seed): digest_of(workload, seed) for seed in REFERENCE_SEEDS}
        else:
            digests = {digest_of(workload, seed) for seed in REFERENCE_SEEDS[:2]}
            if len(digests) != 1:
                raise SystemExit(f"{workload.name}: the seed changed the result")
            table = {ANY_SEED: digests.pop()}
        references[workload.name] = table
        print(workload.name, len(table), "digests", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).with_name("run.py"))]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    run = {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}
    print(workload, seed, trace, json.dumps(run["result"])[:200], flush=True)
    return run


def summary(runs: list[dict], end_to_end: list[dict]) -> dict:
    columns = {m["name"]: [r["result"]["metrics"][m["name"]]["value"] for r in runs] for m in end_to_end}
    columns["wall_s"] = [r["details"]["wall_s"] for r in runs]
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    out = {}
    for name, values in columns.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bounds.get(name)}
    return out


def record_baseline(seeds: list[int]) -> None:
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        untraced = [bench(name, seed, seconds, 0) for seed in seeds]
        traced = [bench(name, seed, seconds, 1) for seed in seeds[:TRACED_SEEDS]]
        workloads[name] = {
            "end_to_end": summary(untraced, spec["end_to_end"]),
            "untraced_runs": untraced,
            "traced_runs": traced,
        }
    span = f"{seeds[0]}-{seeds[-1]}"
    command = ["python3", "perfbench/record.py", "baseline", "--seeds", span]
    document = {"command": command, "run_seconds": seconds, "workloads": workloads}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"seeds-{span}.json").write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    sub.add_parser("baseline").add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = parser.parse_args()
    if args.what == "references":
        record_references()
    else:
        record_baseline(args.seeds)


if __name__ == "__main__":
    main()
