"""Command-line experiments with frozen seeds and versioned JSON records.

Primary artifacts are byte-stable: keys sorted, rationals as "p/q" strings,
timestamps, worker count and output paths segregated into a ``.meta.json``
sidecar.  Worker count never changes results, only wall time.

Flags are the only inputs.  ``_COMMANDS`` declares, for each command, the
flags it reads and their defaults, so a record's ``spec`` echoes only what
the command read (other fields keep ``ExperimentSpec``'s defaults).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the caller set
it: no code here calls BLAS, and numpy's idle OpenBLAS pool only burns CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

# Must run before numpy loads OpenBLAS, which reads it once at start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import arrows, hausdorff, proper
from .configs import ALGORITHM, RandomSource, sample
from .groups import Ball, Presentation, ball, free_group, z2_z3
from .measures import DensityProgram, FeasibilityResult, feasible, replay_refutation
from .rules import Colouring, check, iterate, rule_from_json

SCHEMA = "cayleycolour/v1"

class SpecError(ValueError):
    """Bad or inconsistent experiment parameters."""


def presentation_named(name: str) -> Presentation:
    if name == "z2z3":
        return z2_z3()
    if name == "st":
        return free_group(2, "st")
    if len(name) == 2 and name[0] == "f" and name[1] in "12345678":
        return free_group(int(name[1]))
    raise SpecError(f"unknown presentation {name!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines a run's primary artifact.

    Worker count and the output and CSV paths are deliberately absent: they
    may change wall time or where files go, never bytes.  They travel in the
    sidecar instead, as ``RunOptions``.
    """

    command: str
    presentation: str
    radius: int | None = None
    seed: int = 0
    samples: int | None = None
    rule: str | None = None
    epsilon: str | None = None
    n_levels: int | None = None
    choice: str = "min"
    solver: str = "constructive"
    conditional: bool = False


@dataclass(frozen=True)
class RunOptions:
    """How a run is carried out and where it writes; recorded in the sidecar."""

    workers: int = 1
    out: str | None = None
    csv: str | None = None


# ---------------------------------------------------------------------------
# Solvers shared by solve/check.


def _solve_colouring(spec: ExperimentSpec, p: Presentation, b: Ball):
    """(rule, colouring, solver record) for the named rule."""
    name = spec.rule
    rule = colouring = None
    extra: dict = {"solver": spec.solver}
    if name == "arrow":
        rule = arrows.arrow_rule(p)
        if spec.solver == "constructive":
            config = sample(b, RandomSource(spec.seed))
            colouring = arrows.constructive_solve(config)
    elif name == "example1":
        rule = hausdorff.example1_rule(2, p)
        if spec.solver == "constructive":
            colouring = hausdorff.example1_solve(b)
    elif name == "hausdorff":
        rule = hausdorff.hausdorff_rule(p)
        if spec.solver == "constructive":
            colouring = hausdorff.hausdorff_solve(b)
    else:
        path = Path(name) if name else None
        if path is None or path.suffix != ".json" or not path.exists():
            raise SpecError(f"unknown rule {name!r}")
        rule = rule_from_json(path.read_text(), p)
        if spec.solver == "constructive":
            raise SpecError("file rules have no constructive solver; use --solver iterate")
    if colouring is None:
        if spec.solver != "iterate":
            raise SpecError(f"unknown solver {spec.solver!r}")
        initial = Colouring.uniform(b, rule.colours, rule.colours[0])
        if rule.window:
            config = sample(b, RandomSource(spec.seed))
            initial = Colouring(b, rule.colours, initial.codes, config)
        colouring, converged, rounds = iterate(rule, initial, max_rounds=64)
        extra.update({"converged": converged, "rounds": rounds})
    return rule, colouring, extra


def _run_solve(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    b = ball(p, spec.radius)
    rule, colouring, extra = _solve_colouring(spec, p, b)
    report = check(rule, colouring)
    histogram = {
        colour: int(np.count_nonzero(colouring.codes == i))
        for i, colour in enumerate(colouring.palette)
    }
    if options.csv:
        with open(options.csv, "w", newline="") as fh:
            colouring.write_csv(fh)
    return {
        "rule": rule.name,
        "interior_checked": report.interior_size,
        "violations": report.n_violations,
        "colour_histogram": histogram,
        "ok": report.satisfied,
        **extra,
    }


def _run_check(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    b = ball(p, spec.radius)
    rule, colouring, extra = _solve_colouring(spec, p, b)
    report = check(rule, colouring)
    return {"rule": rule.name, "check": report.to_record(), "ok": report.satisfied, **extra}


# ---------------------------------------------------------------------------
# Audits.


def _refuted(program: DensityProgram, outcome: FeasibilityResult) -> bool:
    """Infeasible, with a refutation that replays against the program."""
    return not outcome.feasible and replay_refutation(program, outcome.refutation)


def _run_audit(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    b = ball(p, spec.radius)
    name = spec.rule
    if name == "arrow":
        config = sample(b, RandomSource(spec.seed))
        colouring = arrows.constructive_solve(config)
        audit = arrows.mass_audit(colouring, seed=spec.seed)
        ok = (
            audit.certificate.verified
            and audit.feasibility is not None
            and _refuted(audit.program, audit.feasibility)
        )
        return {"rule": "arrow", "audit": audit.to_record(), "ok": ok}
    if name == "example1":
        certificates = hausdorff.example1_certificates(hausdorff.example1_solve(b))
        record = {"rule": "example1", "certificates": [c.to_record() for c in certificates], "ok": False}
        # `translate` refuses an unverified certificate, so only a verified
        # set becomes a program.
        if all(c.verified for c in certificates):
            program = hausdorff.example1_program(certificates)
            outcome = feasible(program)
            record.update(program=json.loads(program.to_json()), feasibility=outcome.to_record())
            record["ok"] = _refuted(program, outcome)
        return record
    if name == "hausdorff":
        report = hausdorff.six_piece_doubling(hausdorff.hausdorff_solve(b))
        return {"rule": "hausdorff", "doubling": report.to_record(), "ok": report.all_verified}
    raise SpecError(f"no audit for rule {name!r}")


# ---------------------------------------------------------------------------
# Monte Carlo p-degree histograms, worker-count invariant.


def _run_pdeg(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    b = ball(p, spec.radius)
    estimate = arrows.conditional_pdegree if spec.conditional else arrows.pdegree_histogram
    report = estimate(b, RandomSource(spec.seed), spec.samples, workers=options.workers)
    record = report.to_record()
    record["algorithm"] = ALGORITHM
    record["ok"] = len(report.histogram) == 5 and sum(report.histogram) == spec.samples
    return record


def _run_offsets(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    family = proper.offsets16(p)
    b = ball(p, spec.radius)
    base = proper.greedy_base_colouring(b, choice=spec.choice, seed=spec.seed)
    conflicts = proper.offset_conflicts(base, family)
    used = int(np.count_nonzero(np.bincount(base.codes[base.codes >= 0], minlength=17)))
    return {
        "short": sorted(w.to_string() for w in family.short),
        "long": sorted(w.to_string() for w in family.long),
        "n_offsets": len(family.elements),
        "inverse_closed": family.closed_under_inverse(),
        "palette_size": len(base.palette),
        "colours_used": used,
        "conflicts": conflicts,
        "ok": conflicts == 0 and used <= 17,
    }


def _run_doubled(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    b = ball(p, spec.radius)
    config = sample(b, RandomSource(spec.seed))
    arrow_colouring = arrows.constructive_solve(config)
    base = proper.greedy_base_colouring(b, choice=spec.choice, seed=spec.seed)

    exact_program = proper.doubled_flow_program()
    exact = feasible(exact_program)
    result: dict = {"exact_program": exact.to_record()}
    ok = _refuted(exact_program, exact)

    q_proxy: frozenset[int] = frozenset()
    n = spec.n_levels
    if n is None:
        calibration = proper.calibrate_N(base, epsilon=Fraction(spec.epsilon))
        result["calibration"] = calibration.to_record()
        if not calibration.succeeded:
            result["note"] = (
                "base-colour calibration infeasible at this radius; "
                "doubled graph not constructed"
            )
            result["ok"] = ok
            return result
        n = calibration.N
        q_proxy = frozenset(calibration.failing)
    elif n % 2 == 0:
        raise SpecError("--n-levels must be odd")

    graph = proper.doubled_graph(config, base, n, q_proxy=q_proxy)
    codes = proper.canonical_doubled_colouring(graph, arrow_colouring)
    properness = proper.check_proper(graph, codes, seed=spec.seed)
    # check_proper compares equal colours only; the first copy must also take
    # every secondary-graph vertex's colour from its list.
    first = codes[: graph.n_first]
    listed = proper.check_proper_list(graph.secondary, base, Colouring(b, base.palette, first))
    audit = proper.flow_audit_doubled(codes, graph)
    # check_proper skips uncoloured endpoints, so every vertex it judges must
    # be coloured: the whole second copy and the first copy's 1-interior.
    uncoloured = int(np.count_nonzero(codes[graph.n_first :] < 0) + np.count_nonzero(first[b.interior_indices(1)] < 0))
    if options.csv:
        with open(options.csv, "w", newline="") as fh:
            graph.write_csv(fh)
    if not listed.satisfied:
        result["list_colouring"] = listed.to_record()
    if uncoloured:
        result["uncoloured"] = uncoloured
    result.update(
        {
            "n": n,
            "proper": properness.to_record(),
            "audit": audit.to_record(),
            "ok": ok
            and not properness.conflicts
            and listed.satisfied
            and not uncoloured
            and _refuted(audit.program, audit.feasibility),
        }
    )
    return result


def _run_prefix(spec: ExperimentSpec, options: RunOptions) -> dict:
    # Imported here: no other command reads equidecomp, so no other command
    # pays to import it.
    from . import equidecomp

    p = presentation_named(spec.presentation)
    report = equidecomp.verify_prefix_identities(ball(p, spec.radius))
    record = report.to_record()
    record["ok"] = report.all_verified
    return record


# ---------------------------------------------------------------------------
# Argument plumbing.

_FLAGS: dict[str, dict] = {
    "presentation": {"help": "f1..f8, st, or z2z3"},
    "radius": {"type": int},
    "seed": {"type": int},
    "samples": {"type": int},
    "rule": {"help": "arrow, example1, hausdorff, or a .json rule file"},
    "solver": {"choices": ("constructive", "iterate")},
    "epsilon": {"help": "rational like 1/512"},
    "n-levels": {"type": int},
    "choice": {"choices": proper.GREEDY_CHOICES},
    "conditional": {"action": "store_true"},
    "csv": {"help": "optional CSV table path"},
    "workers": {"type": int},
    "out": {"help": "primary JSON path (stdout when omitted)"},
}

# Each command: its runner, its help, and the flags it reads with their
# defaults.  Every command also takes --out.
_COMMANDS: dict[str, tuple] = {
    "solve": (_run_solve, "run a constructive solver and report rule satisfaction",
              {"presentation": None, "radius": 6, "seed": 0, "rule": "arrow", "solver": "constructive", "csv": None}),
    "check": (_run_check, "check a solver's output against its rule, with violations",
              {"presentation": None, "radius": 8, "seed": 0, "rule": "arrow", "solver": "constructive"}),
    "audit": (_run_audit, "transport certificates and exact density feasibility",
              {"presentation": None, "radius": 8, "seed": 0, "rule": "example1"}),
    "pdeg": (_run_pdeg, "Monte Carlo p-degree histograms at the root",
             {"presentation": None, "radius": 3, "seed": 0, "samples": 10000, "conditional": False, "workers": 1}),
    "offsets": (_run_offsets, "offset family and greedy base colouring",
                {"presentation": None, "radius": 10, "seed": 0, "choice": "min"}),
    "doubled": (_run_doubled, "doubled-graph build, properness, and flow audit",
                {"presentation": None, "radius": 7, "seed": 0, "epsilon": "1/512", "n-levels": None,
                 "choice": "random", "csv": None}),
    "prefix": (_run_prefix, "exact prefix-set identity verification", {"presentation": None, "radius": 6}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycolour",
        description="Reproducible colouring-rule experiments on Cayley balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=blurb)
        for flag, default in {**flags, "out": None}.items():
            sp.add_argument("--" + flag, default=default, **_FLAGS[flag])
    return parser


def _resolve_spec(args: argparse.Namespace) -> tuple[ExperimentSpec, RunOptions]:
    given = dict(vars(args))
    options = RunOptions(given.pop("workers", 1), given.pop("out"), given.pop("csv", None))
    if given.get("presentation") is None:
        if given.get("rule") == "hausdorff":
            given["presentation"] = "z2z3"
        elif args.command == "prefix":
            given["presentation"] = "st"
        else:
            given["presentation"] = "f2"
    if given.get("radius", 1) < 1:
        raise SpecError("radius must be positive")
    if given.get("samples", 1) < 1:
        raise SpecError("samples must be positive")
    if not 0 <= given.get("seed", 0) < 2**64:
        raise SpecError("seed must be in [0, 2**64)")
    if options.workers < 1:
        raise SpecError("workers must be at least 1")
    epsilon = given.get("epsilon")
    if epsilon is not None:
        try:
            parsed = Fraction(epsilon)
        except (ValueError, ZeroDivisionError) as err:
            raise SpecError(f"bad epsilon {epsilon!r}: {err}")
        if not 0 < parsed <= 1:
            raise SpecError("epsilon must be in (0, 1]")
    return ExperimentSpec(**given), options


def _emit(record: dict, options: RunOptions, elapsed: float | None) -> None:
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if options.out:
        Path(options.out).write_text(text)
        meta = {
            "written_at": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": elapsed,
            **asdict(options),
        }
        Path(options.out + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)


def run(spec: ExperimentSpec, options: RunOptions = RunOptions()) -> dict:
    """Dispatch to the command implementation, returning the result body."""
    return _COMMANDS[spec.command][0](spec, options)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        spec, options = _resolve_spec(args)
    except SpecError as err:
        record = {
            "schema": SCHEMA,
            "error": {"type": "SpecError", "message": str(err)},
            "ok": False,
        }
        _emit(record, RunOptions(out=args.out), None)
        return 1
    try:
        result = run(spec, options)
    except (SpecError, ValueError, KeyError, FileNotFoundError) as err:
        record = {
            "schema": SCHEMA,
            "spec": asdict(spec),
            "error": {"type": type(err).__name__, "message": str(err)},
            "ok": False,
        }
        _emit(record, options, time.perf_counter() - started)
        return 1
    ok = bool(result.pop("ok"))
    record = {"schema": SCHEMA, "spec": asdict(spec), "result": result, "ok": ok}
    _emit(record, options, time.perf_counter() - started)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
