"""Command-line experiments with frozen seeds and versioned JSON records.

Primary artifacts are byte-stable: keys sorted, rationals as "p/q" strings,
timestamps, worker count and output paths segregated into a ``.meta.json``
sidecar.  Worker count never changes results, only wall time.

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

from . import arrows, equidecomp, hausdorff, proper
from .configs import ALGORITHM, RandomSource, sample
from .groups import Ball, Presentation, ball, free_group, z2_z3
from .measures import feasible
from .rules import Colouring, check, iterate, rule_from_json

SCHEMA = "cayleycolour/v1"
ENV_PREFIX = "CAYLEYCOLOUR_"

_ARROW_NAMES = frozenset({"arrow", "arrow-orientation"})
_EXAMPLE1_NAMES = frozenset({"example1", "mod3-cycling-k2"})
_HAUSDORFF_NAMES = frozenset({"hausdorff", "three-class-congruence"})


class SpecError(ValueError):
    """Bad or inconsistent experiment parameters."""


def presentation_named(name: str) -> Presentation:
    if name == "z2z3":
        return z2_z3()
    if name == "st":
        return free_group(2, "st")
    if len(name) == 2 and name[0] == "f" and name[1].isdigit() and name[1] != "0":
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
    if name in _ARROW_NAMES:
        rule = arrows.arrow_rule(p)
        if spec.solver == "constructive":
            config = sample(b, RandomSource(spec.seed))
            colouring = arrows.constructive_solve(config)
    elif name in _EXAMPLE1_NAMES:
        rule = hausdorff.example1_rule(2, p)
        if spec.solver == "constructive":
            colouring = hausdorff.example1_solve(b)
    elif name in _HAUSDORFF_NAMES:
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


def _run_audit(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    b = ball(p, spec.radius)
    name = spec.rule
    if name in _ARROW_NAMES:
        config = sample(b, RandomSource(spec.seed))
        colouring = arrows.constructive_solve(config)
        audit = arrows.mass_audit(colouring, seed=spec.seed)
        ok = (
            audit.certificate.verified
            and audit.feasibility is not None
            and not audit.feasibility.feasible
        )
        return {"rule": "arrow", "audit": audit.to_record(), "ok": ok}
    if name in _EXAMPLE1_NAMES:
        colouring = hausdorff.example1_solve(b)
        certificates = hausdorff.example1_certificates(colouring)
        program = hausdorff.example1_program(colouring)
        outcome = feasible(program)
        ok = all(c.verified for c in certificates) and not outcome.feasible
        return {
            "rule": "example1",
            "certificates": [c.to_record() for c in certificates],
            "program": json.loads(program.to_json()),
            "feasibility": outcome.to_record(),
            "ok": ok,
        }
    if name in _HAUSDORFF_NAMES:
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


def _run_recursion(spec: ExperimentSpec, options: RunOptions) -> dict:
    analysis = arrows.chain_recursion()
    record = analysis.to_record()
    record["ok"] = analysis.first_below_tolerance is not None
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

    exact = feasible(proper.doubled_flow_program())
    result: dict = {"exact_program": exact.to_record()}
    ok = not exact.feasible

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
    colouring = proper.canonical_doubled_colouring(graph, arrow_colouring)
    properness = proper.check_proper(graph, colouring, seed=spec.seed)
    audit = proper.flow_audit_doubled(colouring, graph)
    if options.csv:
        with open(options.csv, "w", newline="") as fh:
            graph.write_csv(fh)
    result.update(
        {
            "n": n,
            "proper": properness.to_record(),
            "audit": audit.to_record(),
            "ok": ok and not properness.conflicts and not audit.feasibility.feasible,
        }
    )
    return result


def _run_types(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    pool = list(ball(p, spec.radius).words)
    movers = {p.identity()}
    for i in range(p.n_generators):
        movers.add(p.generator(i, 1))
        movers.add(p.generator(i, -1))
    mover_list = sorted(movers, key=lambda w: w.sort_key())
    folds = [spec.n_levels] if spec.n_levels is not None else [2, 3]
    experiments = []
    for n in folds:
        report = equidecomp.cancellation_experiment(
            n, pool, mover_list, trials=spec.samples, seed=spec.seed + n
        )
        experiments.append(report.to_record())
    return {
        "movers": [w.to_string() for w in mover_list],
        "experiments": experiments,
        "ok": all(e["failures"] == 0 for e in experiments),
    }


def _run_prefix(spec: ExperimentSpec, options: RunOptions) -> dict:
    p = presentation_named(spec.presentation)
    report = equidecomp.verify_prefix_identities(ball(p, spec.radius))
    record = report.to_record()
    record["ok"] = report.all_verified
    return record


# ---------------------------------------------------------------------------
# Argument plumbing.

_COMMANDS = {
    "solve": "run a constructive solver and report rule satisfaction",
    "check": "check a solver's output against its rule, with violations",
    "audit": "transport certificates and exact density feasibility",
    "pdeg": "Monte Carlo p-degree histograms at the root",
    "recursion": "survival chain fixed-point analysis",
    "offsets": "offset family and greedy base colouring",
    "doubled": "doubled-graph build, properness, and flow audit",
    "types": "level-set cancellation experiments",
    "prefix": "exact prefix-set identity verification",
}

_DEFAULTS: dict[str, dict] = {
    "solve": {"rule": "arrow", "radius": 6},
    "check": {"rule": "arrow", "radius": 8},
    "audit": {"rule": "example1", "radius": 8},
    "pdeg": {"radius": 3, "samples": 10000},
    "recursion": {},
    "offsets": {"radius": 10},
    "doubled": {"radius": 7, "epsilon": "1/512", "choice": "random"},
    "types": {"radius": 3, "samples": 100},
    "prefix": {"radius": 6},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycolour",
        description="Reproducible colouring-rule experiments on Cayley balls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _COMMANDS.items():
        sp = sub.add_parser(name, help=blurb)
        sp.add_argument("--presentation", help="f1..f9, st, or z2z3")
        sp.add_argument("--radius", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--workers", type=int)
        sp.add_argument("--out", help="primary JSON path (stdout when omitted)")
        if name in ("pdeg", "types"):
            sp.add_argument("--samples", type=int)
        if name in ("solve", "check", "audit"):
            sp.add_argument("--rule", help="builtin name or .json rule file")
        if name == "doubled":
            sp.add_argument("--epsilon", help="rational like 1/512")
        if name in ("doubled", "types"):
            sp.add_argument("--n-levels", type=int, dest="n_levels")
        if name in ("solve", "doubled"):
            sp.add_argument("--csv", help="optional CSV table path")
        if name in ("solve", "check"):
            sp.add_argument("--solver", choices=("constructive", "iterate"))
        if name in ("offsets", "doubled"):
            sp.add_argument("--choice", choices=proper.GREEDY_CHOICES)
        if name == "pdeg":
            sp.add_argument("--conditional", action="store_true", default=None)
    return parser


_ENV_CASTS = {
    "presentation": str,
    "radius": int,
    "seed": int,
    "samples": int,
    "rule": str,
    "epsilon": str,
    "n_levels": int,
    "workers": int,
    "out": str,
    "csv": str,
    "solver": str,
    "choice": str,
    "conditional": lambda s: s.lower() in ("1", "true", "yes"),
}


def _fill_from_env(args: argparse.Namespace) -> None:
    """Fill unset options the command offers from the environment; a bad
    value raises SpecError once the rest (an --out among them) are filled."""
    bad = []
    for attr, cast in _ENV_CASTS.items():
        name = ENV_PREFIX + attr.upper()
        raw = os.environ.get(name)
        if raw is not None and hasattr(args, attr) and getattr(args, attr) is None:
            try:
                setattr(args, attr, cast(raw))
            except ValueError:
                bad.append(f"bad {name} {raw!r}")
    if bad:
        raise SpecError("; ".join(bad))


def _resolve_spec(args: argparse.Namespace) -> tuple[ExperimentSpec, RunOptions]:
    defaults = _DEFAULTS[args.command]

    def value(attr, fallback):
        given = getattr(args, attr, None)
        return given if given is not None else defaults.get(attr, fallback)

    rule = value("rule", None)
    if args.presentation is not None:
        presentation = args.presentation
    elif rule in _HAUSDORFF_NAMES:
        presentation = "z2z3"
    elif args.command in ("types", "prefix"):
        presentation = "st"
    else:
        presentation = "f2"
    radius = value("radius", None)
    samples = value("samples", None)
    workers = value("workers", 1)
    if radius is not None and radius < 1:
        raise SpecError("radius must be positive")
    if samples is not None and samples < 1:
        raise SpecError("samples must be positive")
    if workers < 1:
        raise SpecError("workers must be at least 1")
    epsilon = value("epsilon", None)
    if epsilon is not None:
        try:
            parsed = Fraction(epsilon)
        except (ValueError, ZeroDivisionError) as err:
            raise SpecError(f"bad epsilon {epsilon!r}: {err}")
        if not 0 < parsed <= 1:
            raise SpecError("epsilon must be in (0, 1]")
    choice = value("choice", "min")
    if choice not in proper.GREEDY_CHOICES:
        raise SpecError(f"unknown choice {choice!r}: use one of {proper.GREEDY_CHOICES}")
    spec = ExperimentSpec(
        command=args.command,
        presentation=presentation,
        radius=radius,
        seed=value("seed", 0),
        samples=samples,
        rule=rule,
        epsilon=epsilon,
        n_levels=value("n_levels", None),
        choice=choice,
        solver=value("solver", "constructive"),
        conditional=bool(value("conditional", False)),
    )
    return spec, RunOptions(workers, value("out", None), value("csv", None))


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
    dispatch = {
        "solve": _run_solve,
        "check": _run_check,
        "audit": _run_audit,
        "pdeg": _run_pdeg,
        "recursion": _run_recursion,
        "offsets": _run_offsets,
        "doubled": _run_doubled,
        "types": _run_types,
        "prefix": _run_prefix,
    }
    return dispatch[spec.command](spec, options)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _fill_from_env(args)
        spec, options = _resolve_spec(args)
    except SpecError as err:
        record = {
            "schema": SCHEMA,
            "error": {"type": "SpecError", "message": str(err)},
            "ok": False,
        }
        _emit(record, RunOptions(out=getattr(args, "out", None)), None)
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
