"""Command-line experiments with frozen seeds and versioned JSON records.

Primary artifacts are byte-stable: keys sorted, rationals as "p/q" strings,
timestamps, worker count and output paths segregated into a ``.meta.json``
sidecar.  Worker count never changes results, only wall time.

Flags are the only inputs.  ``_COMMANDS`` declares, for each command, the
flags it reads and their defaults, so a record's ``spec`` echoes only what
the command read (other fields keep ``ExperimentSpec``'s defaults).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the caller set
it: no code here calls BLAS, and numpy's idle OpenBLAS pool only burns CPU.

Of the package, importing it executes only ``groups``, ``configs`` and
``rules``; the other modules are lazy (``cayleycolour._lazy``), and ``run``
executes those its command and builtin rule read, before the ball is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

# Must run before numpy loads OpenBLAS, which reads it once at start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import _lazy
from .configs import ALGORITHM, RandomSource, sample
from .groups import Ball, Presentation, ball, free_group, z2_z3
from .rules import Colouring, check, iterate, rule_from_json

# Compiled and executed when first read (see `run`).
arrows = _lazy("arrows")
equidecomp = _lazy("equidecomp")
hausdorff = _lazy("hausdorff")
measures = _lazy("measures")
proper = _lazy("proper")

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
# Builtin rules, read by solve, check, audit and doubled.


def _refuted(program: measures.DensityProgram, outcome: measures.FeasibilityResult) -> bool:
    """Infeasible, with a refutation that replays against the program."""
    return not outcome.feasible and measures.replay_refutation(program, outcome.refutation)


def _audit_arrow(colouring: Colouring, seed: int) -> dict:
    audit = arrows.mass_audit(colouring, seed=seed)
    ok = audit.certificate.verified and audit.feasibility is not None and _refuted(audit.program, audit.feasibility)
    return {"audit": audit.to_record(), "ok": ok}


def _audit_example1(colouring: Colouring, seed: int) -> dict:
    certificates = hausdorff.example1_certificates(colouring)
    record = {"certificates": [c.to_record() for c in certificates], "ok": False}
    # `translate` refuses an unverified certificate, so only a verified
    # set becomes a program.
    if all(c.verified for c in certificates):
        program = hausdorff.example1_program(certificates)
        outcome = measures.feasible(program)
        record.update(program=program.to_record(), feasibility=outcome.to_record())
        record["ok"] = _refuted(program, outcome)
    return record


def _audit_hausdorff(colouring: Colouring, seed: int) -> dict:
    report = hausdorff.six_piece_doubling(colouring)
    return {"doubling": report.to_record(), "ok": report.all_verified}


# Each builtin rule: how it is built on a presentation, how its constructive
# colouring is drawn from (ball, seed), how `audit` certifies that colouring,
# and the lazy modules its rule and colouring read besides their own
# imports.  Each colouring rejects the presentations its rule rejects.  The
# lambdas look each function up in its module when called, so a replaced
# module attribute (a traced span, a test's plant) is the one that runs.
# `_AUDIT_MODULES` lists what each audit reads besides them: the arrow and
# example1 audits solve a density program in `measures`, and the six-piece
# doubling of the Hausdorff audit reads none.
_AUDIT_MODULES = {"arrow": (measures,), "example1": (measures,)}
_Builtin = namedtuple("_Builtin", "rule colour audit modules")
_BUILTINS = {
    "arrow": _Builtin(lambda p: arrows.arrow_rule(p),
                      lambda b, seed: arrows.constructive_solve(sample(b, RandomSource(seed))), _audit_arrow,
                      (arrows,)),
    "example1": _Builtin(lambda p: hausdorff.example1_rule(2, p), lambda b, seed: hausdorff.example1_solve(b),
                         _audit_example1, (hausdorff,)),
    "hausdorff": _Builtin(lambda p: hausdorff.hausdorff_rule(p), lambda b, seed: hausdorff.hausdorff_solve(b),
                          _audit_hausdorff, (hausdorff,)),
}


def _solve_and_check(spec: ExperimentSpec, b: Ball):
    """(rule, colouring, check report, solver record) for the named rule."""
    builtin = _BUILTINS.get(spec.rule)
    if builtin:
        rule = builtin.rule(b.presentation)
    else:
        path = Path(spec.rule or "")
        if path.suffix != ".json" or not path.exists():
            raise SpecError(f"unknown rule {spec.rule!r}")
        rule = rule_from_json(path.read_text(), b.presentation)
    extra: dict = {"solver": spec.solver}
    if spec.solver == "constructive":
        if not builtin:
            raise SpecError("file rules have no constructive solver; use --solver iterate")
        colouring = builtin.colour(b, spec.seed)
    elif spec.solver == "iterate":
        initial = Colouring.uniform(b, rule.colours, rule.colours[0])
        if rule.window:
            initial = Colouring(b, rule.colours, initial.codes, sample(b, RandomSource(spec.seed)))
        colouring, converged, rounds = iterate(rule, initial, max_rounds=64)
        extra.update({"converged": converged, "rounds": rounds})
    else:
        raise SpecError(f"unknown solver {spec.solver!r}")
    return rule, colouring, check(rule, colouring), extra


def _run_solve(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    rule, colouring, report, extra = _solve_and_check(spec, b)
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


def _run_check(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    rule, _, report, extra = _solve_and_check(spec, b)
    return {"rule": rule.name, "check": report.to_record(), "ok": report.satisfied, **extra}


def _run_audit(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    if spec.rule not in _BUILTINS:
        raise SpecError(f"no audit for rule {spec.rule!r}")
    builtin = _BUILTINS[spec.rule]
    return {"rule": spec.rule, **builtin.audit(builtin.colour(b, spec.seed), spec.seed)}


# ---------------------------------------------------------------------------
# Monte Carlo p-degree histograms, worker-count invariant.


def _run_pdeg(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    report = arrows.pdegree_histogram(b, RandomSource(spec.seed), spec.samples, spec.conditional, options.workers)
    record = report.to_record()
    record["algorithm"] = ALGORITHM
    # The root p-degree is Binomial(4, 1/2), or 1 + Binomial(3, 1/2) given
    # one in-pointer; a correct sampler leaves a bin more than six standard
    # deviations from its mean with odds below 1e-8.
    law = [Fraction(k, 8) for k in (0, 1, 3, 3, 1)] if spec.conditional else [Fraction(k, 16) for k in (1, 4, 6, 4, 1)]
    n = spec.samples
    near = all(abs(count - n * q) <= 6 * float(n * q * (1 - q)) ** 0.5 for count, q in zip(report.histogram, law))
    record["ok"] = sum(report.histogram) == n and near
    return record


def _run_offsets(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    offsets = proper.offsets16(b.presentation)
    base = proper.greedy_base_colouring(b, choice=spec.choice, seed=spec.seed)
    conflicts = proper.offset_conflicts(base)
    return {
        "short": sorted(w.to_string() for w in offsets[:4]),
        "long": sorted(w.to_string() for w in offsets[4:]),
        "n_offsets": len(offsets),
        "inverse_closed": all(g.inverse() in offsets for g in offsets),
        "palette_size": len(base.palette),
        "colours_used": int(np.count_nonzero(np.bincount(base.codes[base.codes >= 0], minlength=17))),
        "conflicts": conflicts,
        "ok": conflicts == 0,
    }


def _run_doubled(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    # The base colouring is drawn first: its presentation and radius checks
    # name what doubled needs, which the arrow colouring's checks understate.
    base = proper.greedy_base_colouring(b, choice=spec.choice, seed=spec.seed)
    # doubled counts no offset conflicts: the pair lists the greedy kept
    # for that count go now.
    proper.forget_offset_pairs()
    arrow_colouring = _BUILTINS["arrow"].colour(b, spec.seed)

    exact_program = proper.doubled_flow_program()
    exact = measures.feasible(exact_program)
    result: dict = {"exact_program": exact.to_record()}
    ok = _refuted(exact_program, exact)

    q_proxy: tuple[int, ...] = ()
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
        q_proxy = calibration.failing
    elif n < 1 or n % 2 == 0:
        raise SpecError("--n-levels must be odd and positive")

    graph = proper.doubled_graph(arrow_colouring.configuration, base, n, q_proxy=q_proxy)
    codes = proper.canonical_doubled_colouring(graph, arrow_colouring)
    properness = proper.check_proper(graph, codes, seed=spec.seed)
    # check_proper compares equal colours only; the first copy must also take
    # every secondary-graph vertex's colour from its list.
    first = Colouring(b, base.palette, codes[: graph.n_first])
    listed = proper.check_proper_list(graph.secondary, base, first)
    audit = proper.flow_audit_doubled(codes, graph)
    if options.csv:
        with open(options.csv, "w", newline="") as fh:
            graph.write_csv(fh)
    if not listed.satisfied:
        result["list_colouring"] = listed.to_record()
    if properness.uncoloured:
        result["uncoloured"] = properness.uncoloured
    result.update(
        {
            "n": n,
            "proper": properness.to_record(),
            "audit": audit.to_record(),
            "ok": ok and properness.satisfied and listed.satisfied and _refuted(audit.program, audit.feasibility),
        }
    )
    return result


def _run_prefix(spec: ExperimentSpec, b: Ball, options: RunOptions) -> dict:
    report = equidecomp.check_decomposition(b, equidecomp.free_group_decomposition(b), len(b))
    return {**report.to_record(), "ok": report.all_verified}


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
    "choice": {"choices": ("min", "random")},  # proper.GREEDY_CHOICES; parsing executes no proper
    "conditional": {"action": "store_true"},
    "csv": {"help": "optional CSV table path"},
    "workers": {"type": int},
    "out": {"help": "primary JSON path (stdout when omitted)"},
}

# Each command: its runner, its help, the flags it reads with their
# defaults, and the lazy modules it reads besides its builtin rule's, in
# dependency order (measures, arrows, proper; `run` loads an audit's
# `_AUDIT_MODULES`, then the rule's, after).
# Every command also takes --out.
_COMMANDS: dict[str, tuple] = {
    "solve": (_run_solve, "run a constructive solver and report rule satisfaction",
              {"presentation": None, "radius": 6, "seed": 0, "rule": "arrow", "solver": "constructive", "csv": None},
              ()),
    "check": (_run_check, "check a solver's output against its rule, with violations",
              {"presentation": None, "radius": 8, "seed": 0, "rule": "arrow", "solver": "constructive"}, ()),
    "audit": (_run_audit, "transport certificates and exact density feasibility",
              {"presentation": None, "radius": 8, "seed": 0, "rule": "example1"}, ()),
    "pdeg": (_run_pdeg, "Monte Carlo p-degree histograms at the root",
             {"presentation": None, "radius": 3, "seed": 0, "samples": 10000, "conditional": False, "workers": 1},
             (arrows,)),
    "offsets": (_run_offsets, "offset family and greedy base colouring",
                {"presentation": None, "radius": 10, "seed": 0, "choice": "min"}, (proper,)),
    "doubled": (_run_doubled, "doubled-graph build, properness, and flow audit",
                {"presentation": None, "radius": 7, "seed": 0, "epsilon": "1/512", "n-levels": None,
                 "choice": "random", "csv": None}, (measures, arrows, proper)),
    "prefix": (_run_prefix, "F2's paradoxical decomposition into prefix sets, checked exactly",
               {"presentation": None, "radius": 6}, (equidecomp,)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycolour",
        description="Reproducible colouring-rule experiments on Cayley balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, flags, _) in _COMMANDS.items():
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
    """Build the run's ball, dispatch to the command implementation and
    return the result body."""
    runner, _, _, modules = _COMMANDS[spec.command]
    presentation = presentation_named(spec.presentation)
    builtin = _BUILTINS.get(spec.rule)
    audit = _AUDIT_MODULES.get(spec.rule, ()) if spec.command == "audit" else ()
    # Executed before the ball is built, their compiling leaves no transient
    # beside its arrays; any attribute read executes a lazy module.
    for module in modules + audit + (builtin.modules if builtin else ()):
        getattr(module, "__spec__")
    return runner(spec, ball(presentation, spec.radius), options)


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
    except (SpecError, ValueError, KeyError, OSError) as err:
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
