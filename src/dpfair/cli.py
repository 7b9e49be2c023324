"""Command-line front end: instance I/O, experiment orchestration, reports.

Instances and reports are single JSON documents with integer-scaled
utilities, so exact values survive serialization.  Item indices are 1-based
everywhere in files and output.  Every command takes a ``--seed``;
replaying the same command, seed, and instance reproduces the identical
report byte for byte, except for the ``timing`` block.

Exit codes: 0 on success, 1 on audit failure (a confident privacy-ratio
violation or a broken invariant), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, fields
from fractions import Fraction
from typing import Optional

from . import audit as audit_mod
from . import generators, oracles, prop_knife
from .core import (
    ConnectedAllocation,
    EnumerationCapError,
    PrivacyParams,
    UtilityProfile,
    is_ef_c,  # not called here; bench/tracing.py expects it bound in this module
    is_prop_c,  # not called here; bench/tracing.py expects it bound in this module
    min_ef_c,
    min_prop_c,
)
from .ef_em import DEFAULT_ENUMERATION_CAP, dp_ef_allocate, scoring_truncation_budget
from .mechanisms import RandomStream
from .prop_knife import dp_moving_knife

SEED_ENV_VAR = "DPFAIR_SEED"

EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_USAGE = 2


class InstanceFormatError(ValueError):
    """An instance file failed to parse into a valid utility profile."""


# ---------------------------------------------------------------------------
# instance and report serialization
# ---------------------------------------------------------------------------


def profile_to_dict(profile: UtilityProfile) -> dict:
    doc = {
        "n": profile.n,
        "m": profile.m,
        "scale": profile.scale,
        "kind": profile.kind,
        "values": [list(row) for row in profile.values],
    }
    if profile.tables is not None:
        doc["tables"] = [list(table) for table in profile.tables]
    return doc


def profile_from_dict(doc: dict, where: str = "instance") -> UtilityProfile:
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{where}: expected a JSON object")
    for field in ("n", "m", "scale", "values"):
        if field not in doc:
            raise InstanceFormatError(f"{where}: missing required field '{field}'")
    try:
        values = tuple(tuple(int(v) for v in row) for row in doc["values"])
        tables = doc.get("tables")
        if tables is not None:
            tables = tuple(tuple(int(v) for v in table) for table in tables)
        return UtilityProfile(
            n=int(doc["n"]),
            m=int(doc["m"]),
            scale=int(doc["scale"]),
            values=values,
            kind=doc.get("kind", "additive"),
            tables=tables,
        )
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def read_instance(path: str) -> UtilityProfile:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return profile_from_dict(doc, where=path)


def allocation_to_dict(allocation: ConnectedAllocation) -> dict:
    return {
        "type": "connected",
        "intervals": [list(span) if span else None for span in allocation.spans],
    }


def _record_to_dict(record: prop_knife.KnifeRecord) -> dict:
    doc = asdict(record)
    doc["range"] = [doc.pop("lo"), doc.pop("hi")]
    return doc


def _emit(report: dict, args, text: Optional[str] = None) -> None:
    """Write ``text``, by default the report as JSON, to --out or stdout."""
    if text is None:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> PrivacyParams:
    # A field the leaf has no flag for (allocate-ef has no --svt-constant) keeps its default.
    given = vars(args)
    return PrivacyParams(
        **{field.name: given[field.name] for field in fields(PrivacyParams) if field.name in given}
    )


# Parsed fields that are not report parameters: routing, the top-level seed,
# output options, and the ratio-audit instance pair, which reports have never
# carried (bench/workloads.py digests reports with only ``instance`` dropped).
_UNRECORDED = {"subcommand", "handler", "seed", "out", "format", "instance1", "instance2"}


def _base_report(args) -> dict:
    """Report header; ``parameters`` holds every other flag the leaf command read."""
    return {
        "command": args.subcommand,
        "seed": args.seed,
        "parameters": {
            key: value for key, value in vars(args).items() if key not in _UNRECORDED
        },
    }


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_allocate_ef(args) -> int:
    profile = read_instance(args.instance)
    start = time.perf_counter()
    report_obj = dp_ef_allocate(
        profile, _params(args), RandomStream(args.seed), enumeration_cap=args.enum_cap
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    report = _base_report(args)
    report["allocation"] = allocation_to_dict(report_obj.allocation)
    report["metadata"] = {
        "g": report_obj.g,
        "score": report_obj.score,
        "candidate_count": report_obj.candidate_count,
        "ef_guarantee": report_obj.ef_guarantee,
    }
    report["timing"] = {"runtime_ms": elapsed_ms}
    _emit(report, args)
    return EXIT_OK


def _cmd_allocate_prop(args) -> int:
    profile = read_instance(args.instance)
    params = _params(args)
    start = time.perf_counter()
    allocation, trace = dp_moving_knife(profile, params, RandomStream(args.seed))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    levels = trace.levels_used()
    budget = prop_knife.exact_budget_total(params.epsilon, levels)
    budget_ok = budget <= Fraction(params.epsilon)
    trace_ok = audit_mod.validate_knife_trace(trace, profile.n, profile.m)
    schedule = prop_knife.budget_schedule(profile.m, profile.n, params)
    report = _base_report(args)
    report["allocation"] = allocation_to_dict(allocation)
    report["metadata"] = {
        "budget_levels": [
            {"level": b, "epsilon_b": eps_b, "g_b": g_b}
            for b, (eps_b, g_b) in sorted(schedule.items())
        ],
        "levels_used": list(levels),
        "budget_total_exact": str(budget),
        "budget_within_epsilon": budget_ok,
        "proof_chain_c": prop_knife.proof_chain_c(profile.m, profile.n, params),
        "trace_valid": trace_ok,
        "trace": [_record_to_dict(record) for record in trace.records],
    }
    report["timing"] = {"runtime_ms": elapsed_ms}
    _emit(report, args)
    return EXIT_OK if budget_ok and trace_ok else EXIT_AUDIT_FAILURE


def _cmd_oracle(args) -> int:
    profile = read_instance(args.instance)
    report = _base_report(args)
    start = time.perf_counter()
    if args.which == "min-ef":
        report["result"] = oracles.min_ef_c_connected(profile, args.enum_cap)
    elif args.which == "min-prop":
        report["result"] = oracles.min_prop_c_connected(profile, args.enum_cap)
    elif args.which == "ef2-exists":
        report["result"] = oracles.ef2_connected_exists(profile, args.enum_cap)
    else:  # em-dist
        distribution = oracles.exact_em_distribution(profile, _params(args), args.enum_cap)
        report["result"] = [
            {"allocation": allocation_to_dict(a), "probability": p}
            for a, p in distribution.items()
        ]
    report["timing"] = {"runtime_ms": (time.perf_counter() - start) * 1000.0}
    _emit(report, args)
    return EXIT_OK


def _cmd_gen(args) -> int:
    stream = RandomStream(args.seed)
    if args.kind == "bernoulli":
        payload = profile_to_dict(generators.bernoulli_profile(args.n, args.m, stream))
    elif args.kind == "all-zero":
        payload = profile_to_dict(generators.all_zero_profile(args.n, args.m))
    else:
        maker = (
            generators.ef_packing_family
            if args.kind == "ef-packing"
            else generators.prop_packing_family
        )
        family = maker(args.n, args.m, c=args.c, T=args.T, epsilon=args.epsilon)
        if not generators.verify_packing_distances(family):
            sys.stderr.write("packing family failed its edit-distance invariant\n")
            return EXIT_AUDIT_FAILURE
        if args.pick is not None:
            payload = profile_to_dict(_pick(family, args.pick))
        else:
            payload = {
                "family": args.kind,
                "params": {
                    "n": family.n,
                    "m": family.m,
                    "c": family.c,
                    "T": family.T,
                    "block_width": family.block_width,
                    "expected_distance": family.expected_distance,
                },
                "base": profile_to_dict(family.base),
                "variants": [profile_to_dict(v) for v in family.variants],
            }
    # Emitted bare (no report wrapper) so the output feeds allocate-* directly.
    _emit(payload, args)
    return EXIT_OK


def _pick(family: generators.PackingFamily, pick: str) -> UtilityProfile:
    if pick == "base":
        return family.base
    if pick.isdecimal() and 1 <= int(pick) <= family.T:
        return family.variants[int(pick) - 1]
    raise ValueError(f"--pick must be 'base' or an integer in 1..{family.T}, got {pick!r}")


def _mechanism_for(algorithm: str, params: PrivacyParams, enum_cap: int):
    if algorithm == "ef":
        return lambda profile, stream: dp_ef_allocate(
            profile, params, stream, enumeration_cap=enum_cap
        ).allocation
    return lambda profile, stream: dp_moving_knife(profile, params, stream)[0]


def _ratio_report_dict(ratio: audit_mod.RatioReport) -> dict:
    return {
        "mode": ratio.mode,
        "bound": ratio.bound,
        "samples_per_input": ratio.samples,
        "outcome_count": len(ratio.outcomes),
        "max_log_ratio": ratio.max_log_ratio,
        "max_log_ratio_ci": list(ratio.max_log_ratio_ci),
        "flagged_count": len(ratio.flagged),
        "passed": ratio.passed,
        "outcomes": [
            {"allocation": allocation_to_dict(o), "p1": a, "p2": b}
            for o, a, b in zip(ratio.outcomes, ratio.p1, ratio.p2)
        ],
    }


def _cmd_audit(args) -> int:
    stream = RandomStream(args.seed)
    report = _base_report(args)
    start = time.perf_counter()

    if args.check in ("privacy-ratio", "group"):
        params = _params(args)
        p1 = read_instance(args.instance1)
        p2 = read_instance(args.instance2)
        if args.exact:
            if args.algorithm != "ef":
                raise InstanceFormatError("--exact audits are available for --algorithm ef only")
            ratio = audit_mod.exact_em_ratio_check(p1, p2, params, args.enum_cap, g=args.g)
        else:
            mechanism = _mechanism_for(args.algorithm, params, args.enum_cap)
            if args.check == "privacy-ratio":
                ratio = audit_mod.estimate_privacy_ratio(
                    mechanism, p1, p2, params.epsilon, args.trials, stream
                )
            else:
                ratio = audit_mod.group_privacy_check(
                    mechanism, p1, p2, params.epsilon, args.trials, stream
                )
        result = _ratio_report_dict(ratio)
    elif args.check == "sensitivity":
        if args.which == "score":
            sens = oracles.audit_score_sensitivity(args.m, args.n, args.g)
        else:
            sens = oracles.audit_f_sensitivity(args.m, args.n, args.g)
        result = {
            "which": args.which,
            "max_delta": sens.max_delta,
            "pairs_examined": sens.pairs_examined,
            "bound": 1,
            "passed": sens.max_delta <= 1,
        }
    elif args.check == "fairness-rate":
        params = _params(args)
        profile = read_instance(args.instance)
        mechanism = _mechanism_for(args.algorithm, params, args.enum_cap)
        rate = audit_mod.fairness_failure_rate(
            mechanism, profile, args.criterion, args.c, args.trials, stream
        )
        result = {
            "criterion": args.criterion,
            "c": args.c,
            "failures": rate.hits,
            "trials": rate.trials,
            "rate": rate.estimate,
            "ci": [rate.ci_low, rate.ci_high],
            "beta": params.beta,
            # The allocators promise failure probability at most beta; flag
            # only a confident violation of that promise.
            "passed": rate.ci_low <= params.beta,
        }
    else:  # anti-concentration
        estimate = audit_mod.anti_concentration_check(
            args.lemma, args.k, args.gamma, args.trials, stream
        )
        target = 0.25 if args.lemma == "2.10" else 0.1 / args.gamma
        result = {
            "lemma": args.lemma,
            "k": args.k,
            "gamma": args.gamma,
            "hits": estimate.hits,
            "trials": estimate.trials,
            "estimate": estimate.estimate,
            "ci": [estimate.ci_low, estimate.ci_high],
            "target_lower_bound": target,
            "passed": estimate.ci_high >= target,
        }

    report["result"] = result
    report["timing"] = {"runtime_ms": (time.perf_counter() - start) * 1000.0}
    _emit(report, args)
    return EXIT_OK if result["passed"] else EXIT_AUDIT_FAILURE


def _cmd_sweep(args) -> int:
    grid = itertools.product(args.ns, args.ms, args.epsilons, args.betas)
    min_c = min_ef_c if args.algorithm == "ef" else min_prop_c
    rows = []
    for point_index, (n, m, epsilon, beta) in enumerate(grid):
        params = PrivacyParams(epsilon=epsilon, beta=beta, svt_constant=args.svt_constant)
        grid_stream = RandomStream(args.seed, (point_index,))
        profile = generators.bernoulli_profile(n, m, grid_stream.child(0))
        mechanism = _mechanism_for(args.algorithm, params, args.enum_cap)
        if args.algorithm == "ef":
            guarantee_c = 3 * scoring_truncation_budget(m, n, epsilon, beta) // 2
        else:
            guarantee_c = prop_knife.proof_chain_c(m, n, params)
        start = time.perf_counter()
        failures = 0
        worst_c = 0
        for trial in range(args.trials):
            allocation = mechanism(profile, grid_stream.child(trial + 1))
            c = min_c(profile, allocation)
            worst_c = max(worst_c, c)
            if c > guarantee_c:
                failures += 1
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "n": n,
                "m": m,
                "epsilon": epsilon,
                "beta": beta,
                "seed": args.seed,
                "algorithm": args.algorithm,
                "c_achieved": worst_c,
                "failure_rate": failures / args.trials,
                "runtime_ms": elapsed_ms,
            }
        )
    report = _base_report(args)
    report["rows"] = [
        {k: v for k, v in row.items() if k != "runtime_ms"} for row in rows
    ]
    report["timing"] = {"runtime_ms": sum(row["runtime_ms"] for row in rows)}
    text = None
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    _emit(report, args, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _grid(cast):
    """Argument type: a nonempty comma-separated list of ``cast`` values."""

    def parse(text: str) -> list:
        try:
            values = [cast(tok) for tok in text.split(",") if tok]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad grid value in {text!r}: {exc}") from exc
        if not values:
            raise argparse.ArgumentTypeError(f"empty grid {text!r}")
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per command, declaring only the flags its handler reads.

    A flag the leaf does not read is a usage error.  ``oracle``, ``gen`` and
    ``audit`` pick their mode with a second word, parsed into ``which``,
    ``kind`` and ``check``.
    """

    def flag(name: str, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(name, **kwargs)
        return parent

    base = [flag("--seed", type=int, default=_default_seed()), flag("--out", default=None)]
    instance = flag("--instance", required=True)
    epsilon = flag("--epsilon", type=float, default=1.0)
    beta = flag("--beta", type=float, default=PrivacyParams.beta)
    svt = flag("--svt-constant", type=float, default=PrivacyParams.svt_constant)
    cap = flag("--enum-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    trials = flag("--trials", type=_positive_int, default=1000)
    # what _mechanism_for reads besides epsilon and beta
    mechanism = [flag("--algorithm", choices=("ef", "prop"), default="ef"), svt, cap]
    size = [flag("--n", type=int, required=True), flag("--m", type=int, required=True)]

    def leaf(subparsers, name, *parents, handler=None, text=None):
        # No abbreviations: they would let an unread flag alias a read one
        # (sweep's --epsilons would answer to --epsilon).
        p = subparsers.add_parser(name, parents=[*base, *parents], help=text, allow_abbrev=False)
        if handler is not None:
            p.set_defaults(handler=handler)
        return p

    def modes(name, handler, dest, text):
        p = commands.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        return p.add_subparsers(dest=dest, required=True)

    parser = argparse.ArgumentParser(
        prog="dpfair",
        description="Differentially private fair division: allocators, oracles, audits.",
    )
    commands = parser.add_subparsers(dest="subcommand", required=True)
    leaf(commands, "allocate-ef", instance, epsilon, beta, cap,
         handler=_cmd_allocate_ef, text="run the private EF allocator")
    leaf(commands, "allocate-prop", instance, epsilon, beta, svt,
         handler=_cmd_allocate_prop, text="run the private PROP allocator")

    which = modes("oracle", _cmd_oracle, "which", "exact brute-force computations")
    for name in ("min-ef", "min-prop", "ef2-exists"):
        leaf(which, name, instance, cap)
    leaf(which, "em-dist", instance, epsilon, beta, cap)

    kind = modes("gen", _cmd_gen, "kind", "generate instances")
    for name in ("bernoulli", "all-zero"):
        leaf(kind, name, *size)
    for name in ("ef-packing", "prop-packing"):
        p = leaf(kind, name, *size, epsilon)
        p.add_argument("--c", type=int, default=None)
        p.add_argument("--T", type=int, default=None)
        p.add_argument("--pick", default=None, help="emit one family member: 'base' or 1..T")

    check = modes("audit", _cmd_audit, "check", "privacy and fairness audits")
    for name in ("privacy-ratio", "group"):
        p = leaf(check, name, *mechanism, epsilon, beta, trials)
        p.add_argument("--instance1", required=True, help="first instance")
        p.add_argument("--instance2", required=True, help="second instance")
        p.add_argument("--exact", action="store_true",
                       help="use exact EM distributions (--algorithm ef only)")
        p.add_argument("--g", type=int, default=None,
                       help="truncation budget of --exact audits (default: allocator formula)")
    p = leaf(check, "sensitivity")
    p.add_argument("--which", choices=("score", "f"), default="score")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--g", type=int, default=2, help="truncation budget")
    p = leaf(check, "fairness-rate", instance, *mechanism, epsilon, beta, trials)
    p.add_argument("--criterion", choices=("EF", "PROP"), default="EF")
    p.add_argument("--c", type=int, default=0)
    p = leaf(check, "anti-concentration", trials)
    p.add_argument("--lemma", choices=("2.10", "2.11"), default="2.10")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--gamma", type=float, default=2.0)

    p = leaf(commands, "sweep", *mechanism, trials,
             handler=_cmd_sweep, text="grid experiments, CSV output")
    for name, cast, what in [("--ns", int, "agent counts"), ("--ms", int, "item counts"),
                             ("--epsilons", float, "epsilons"), ("--betas", float, "betas")]:
        p.add_argument(name, type=_grid(cast), required=True, help=f"comma-separated {what}")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def run(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (EnumerationCapError, ValueError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
