"""Result gate: decides whether one CLI run produced the right answer.

A run passes when the process exits 0, its stdout is one JSON record with
``ok`` true, the ``result`` body meets the workload's invariants, and the
digest of that body equals the expected digest.  Only ``result`` is hashed:
the rest of the record echoes the spec (``spec.out`` among it), whose fields
may move without the answer changing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

REFERENCES = Path(__file__).with_name("references.json")
ANY_SEED = "*"


def result_digest(result: dict) -> str:
    body = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def load_references(path: Path = REFERENCES) -> dict[str, dict[str, str]]:
    """Workload name -> seed (or ``*`` for seed-free workloads) -> digest."""
    return json.loads(path.read_text())


def expected_digest(references: dict, workload: Workload, seed: int) -> str | None:
    table = references.get(workload.name, {})
    return table.get(str(seed) if workload.seeded else ANY_SEED)


@dataclass(frozen=True)
class Verdict:
    digest: str | None
    failure: str  # empty when the run passed

    @property
    def passed(self) -> bool:
        return not self.failure


def judge(workload: Workload, seed: int, returncode: int, stdout: str, expected: str | None) -> Verdict:
    if returncode != 0:
        return Verdict(None, f"exit status {returncode}")
    try:
        record = json.loads(stdout)
    except json.JSONDecodeError:
        return Verdict(None, "stdout is not one JSON record")
    if not isinstance(record, dict) or record.get("ok") is not True:
        return Verdict(None, "record is not ok")
    result = record.get("result")
    if not isinstance(result, dict):
        return Verdict(None, "record has no result body")
    digest = result_digest(result)
    reason = workload.check(result, seed)
    if reason:
        return Verdict(digest, reason)
    if expected is not None and digest != expected:
        return Verdict(digest, "result digest differs from the expected digest")
    return Verdict(digest, "")
