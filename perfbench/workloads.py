"""The benchmark's fixed workloads: CLI arguments and result invariants.

Each workload is one ``cayleycolour`` command.  Besides the recorded
reference digest (see ``gate.py``), every run's ``result`` body must satisfy
the workload's invariants, which hold for any seed.  They keep the gate
meaningful on seeds that have no recorded reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    # False when the seed cannot change the result body, so one reference
    # digest covers every seed.
    seeded: bool
    check: Callable[[dict, int], str]

    def argv(self, seed: int, workers: int | None = None) -> list[str]:
        argv = [*self.args, "--seed", str(seed)]
        if workers is not None:
            argv[argv.index("--workers") + 1] = str(workers)
        return argv


def _offsets(result: dict, seed: int) -> str:
    if result.get("n_offsets") != 16 or not result.get("inverse_closed"):
        return "offset family is not 16 inverse-closed elements"
    if result.get("conflicts") != 0:
        return f"{result.get('conflicts')} offset conflicts"
    if not 1 <= result.get("colours_used", 0) <= result.get("palette_size", 0) == 17:
        return "base colouring uses a colour outside the 17-colour palette"
    return ""


def _refutes(feasibility: dict, gap: str) -> bool:
    refutation = feasibility.get("refutation") or {}
    return feasibility.get("feasible") is False and refutation.get("gap") == gap


def _doubled(result: dict, seed: int) -> str:
    if not _refutes(result.get("exact_program", {}), "15/512"):
        return "exact flow program is not refuted with gap 15/512"
    calibration = result.get("calibration", {})
    if calibration.get("N") is None or result.get("n") != calibration["N"]:
        return "calibration did not succeed"
    if result.get("proper", {}).get("n_conflicts") != 0:
        return "doubled colouring is not proper"
    if not _refutes(result.get("audit", {}).get("feasibility", {}), "15/512"):
        return "flow audit is not refuted with gap 15/512"
    return ""


PDEG_SAMPLES = 8_000_000


def _pdeg(result: dict, seed: int) -> str:
    histogram = result.get("histogram", [])
    if result.get("samples") != PDEG_SAMPLES or sum(histogram) != PDEG_SAMPLES:
        return "histogram does not count every sample"
    if result.get("seed") != seed:
        return "record echoes another seed"
    # The p-degree at the root is Binomial(4, 1/2); allow six standard
    # deviations per bin, which a correct sampler exceeds with odds below 1e-8.
    for degree, count in enumerate(histogram):
        p = Fraction([1, 4, 6, 4, 1][degree], 16)
        mean = PDEG_SAMPLES * p
        sd = float(PDEG_SAMPLES * p * (1 - p)) ** 0.5
        if abs(count - float(mean)) > 6 * sd:
            return f"degree {degree} count {count} is far from its mean {float(mean):.0f}"
    return ""


def _hausdorff(result: dict, seed: int) -> str:
    doubling = result.get("doubling", {})
    if not doubling.get("all_verified") or not doubling.get("partition_exact"):
        return "six-piece doubling is not verified"
    if doubling.get("interior_size", 0) <= 0:
        return "empty interior"
    return ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offsets-f2-r10", ("offsets", "--radius", "10", "--choice", "min"), False, _offsets),
        Workload("doubled-f2-r8", ("doubled", "--radius", "8", "--choice", "random"), True, _doubled),
        Workload(
            "pdeg-f2-r3",
            # One worker: on a shared two-vCPU virtual machine, a two-thread
            # process stalls whenever either vCPU is preempted, and its wall
            # time swung 3.5x between runs.  The traced run times two workers.
            ("pdeg", "--radius", "3", "--samples", str(PDEG_SAMPLES), "--workers", "1"),
            True,
            _pdeg,
        ),
        Workload(
            "audit-hausdorff-z2z3-r24",
            ("audit", "--rule", "hausdorff", "--radius", "24"),
            False,
            _hausdorff,
        ),
    )
}
