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
import json
import os
import sys
import time
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
    return {
        "agents": list(record.agents),
        "range": [record.lo, record.hi],
        "depth": record.depth,
        "level": record.level,
        "epsilon_b": record.epsilon_b,
        "g_b": record.g_b,
        "h_values": [list(pair) for pair in record.h_values],
        "svt_fired": list(record.svt_fired),
        "svt_queries": list(record.svt_queries),
        "split": record.split,
        "left_agents": list(record.left_agents),
        "right_agents": list(record.right_agents),
    }


def _emit(report: dict, args, rows: Optional[list[dict]] = None) -> None:
    """Write the report (or CSV rows for sweeps) to --out or stdout."""
    if args.format == "csv":
        if rows is None:
            raise InstanceFormatError("--format csv is only available for 'sweep'")
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _params(args) -> PrivacyParams:
    return PrivacyParams(
        epsilon=args.epsilon, beta=args.beta, svt_constant=args.svt_constant
    )


def _base_report(command: str, args, **parameters) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "parameters": {
            "epsilon": args.epsilon,
            "beta": args.beta,
            "svt_constant": args.svt_constant,
            "enum_cap": args.enum_cap,
            **parameters,
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
    report = _base_report("allocate-ef", args, instance=args.instance)
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
    report = _base_report("allocate-prop", args, instance=args.instance)
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
    report = _base_report("oracle", args, instance=args.instance, which=args.which)
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
            profile = family.base if args.pick == "base" else family.variants[int(args.pick) - 1]
            payload = profile_to_dict(profile)
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


def _mechanism_for(algorithm: str, params: PrivacyParams, enum_cap: int):
    if algorithm == "ef":
        return lambda profile, stream: dp_ef_allocate(
            profile, params, stream, enumeration_cap=enum_cap
        ).allocation
    if algorithm == "prop":
        return lambda profile, stream: dp_moving_knife(profile, params, stream)[0]
    raise InstanceFormatError(f"unknown algorithm {algorithm!r}")


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
    params = _params(args)
    stream = RandomStream(args.seed)
    report = _base_report("audit", args, check=args.check)
    start = time.perf_counter()
    passed = True

    if args.check in ("privacy-ratio", "group"):
        if not args.instance1 or not args.instance2:
            raise InstanceFormatError(f"{args.check} needs --instance1 and --instance2")
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
        report["result"] = _ratio_report_dict(ratio)
        passed = ratio.passed
    elif args.check == "sensitivity":
        g = args.g if args.g is not None else 2
        if args.which == "score":
            sens = oracles.audit_score_sensitivity(args.m, args.n, g)
        else:
            sens = oracles.audit_f_sensitivity(args.m, args.n, g)
        report["result"] = {
            "which": args.which,
            "max_delta": sens.max_delta,
            "pairs_examined": sens.pairs_examined,
            "bound": 1,
            "passed": sens.max_delta <= 1,
        }
        passed = sens.max_delta <= 1
    elif args.check == "fairness-rate":
        if not args.instance:
            raise InstanceFormatError("fairness-rate needs --instance")
        profile = read_instance(args.instance)
        mechanism = _mechanism_for(args.algorithm, params, args.enum_cap)
        rate = audit_mod.fairness_failure_rate(
            mechanism, profile, args.criterion, args.c, args.trials, stream
        )
        # The allocators promise failure probability at most beta; flag only
        # a confident violation of that promise.
        passed = rate.ci_low <= params.beta
        report["result"] = {
            "criterion": args.criterion,
            "c": args.c,
            "failures": rate.hits,
            "trials": rate.trials,
            "rate": rate.estimate,
            "ci": [rate.ci_low, rate.ci_high],
            "beta": params.beta,
            "passed": passed,
        }
    else:  # anti-concentration
        estimate = audit_mod.anti_concentration_check(
            args.lemma, args.k, args.gamma, args.trials, stream
        )
        target = 0.25 if args.lemma == "2.10" else 0.1 / args.gamma
        passed = estimate.ci_high >= target
        report["result"] = {
            "lemma": args.lemma,
            "k": args.k,
            "gamma": args.gamma,
            "hits": estimate.hits,
            "trials": estimate.trials,
            "estimate": estimate.estimate,
            "ci": [estimate.ci_low, estimate.ci_high],
            "target_lower_bound": target,
            "passed": passed,
        }

    report["timing"] = {"runtime_ms": (time.perf_counter() - start) * 1000.0}
    _emit(report, args)
    return EXIT_OK if passed else EXIT_AUDIT_FAILURE


def _parse_grid(text: str, cast) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise InstanceFormatError(f"bad grid value in {text!r}: {exc}") from exc


def _cmd_sweep(args) -> int:
    ns = _parse_grid(args.ns, int)
    ms = _parse_grid(args.ms, int)
    epsilons = _parse_grid(args.epsilons, float)
    betas = _parse_grid(args.betas, float)
    grid = [
        (n, m, epsilon, beta)
        for n in ns
        for m in ms
        for epsilon in epsilons
        for beta in betas
    ]
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
    report = _base_report("sweep", args, algorithm=args.algorithm)
    report["rows"] = [
        {k: v for k, v in row.items() if k != "runtime_ms"} for row in rows
    ]
    report["timing"] = {"runtime_ms": sum(row["runtime_ms"] for row in rows)}
    _emit(report, args, rows=rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_default_seed())
    common.add_argument("--epsilon", type=float, default=1.0)
    common.add_argument("--beta", type=float, default=0.1)
    common.add_argument("--svt-constant", type=float, default=16.0, dest="svt_constant")
    common.add_argument("--trials", type=int, default=1000)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--enum-cap", type=int, default=DEFAULT_ENUMERATION_CAP, dest="enum_cap")

    parser = argparse.ArgumentParser(
        prog="dpfair",
        description="Differentially private fair division: allocators, oracles, audits.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("allocate-ef", parents=[common], help="run the private EF allocator")
    p.add_argument("--instance", required=True)
    p.set_defaults(handler=_cmd_allocate_ef)

    p = sub.add_parser("allocate-prop", parents=[common], help="run the private PROP allocator")
    p.add_argument("--instance", required=True)
    p.set_defaults(handler=_cmd_allocate_prop)

    p = sub.add_parser("oracle", parents=[common], help="exact brute-force computations")
    p.add_argument("which", choices=("min-ef", "min-prop", "ef2-exists", "em-dist"))
    p.add_argument("--instance", required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("gen", parents=[common], help="generate instances")
    p.add_argument("kind", choices=("bernoulli", "all-zero", "ef-packing", "prop-packing"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--pick", default=None, help="emit one family member: 'base' or 1..T")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("audit", parents=[common], help="privacy and fairness audits")
    p.add_argument(
        "check",
        choices=("privacy-ratio", "group", "sensitivity", "fairness-rate", "anti-concentration"),
    )
    p.add_argument("--instance", help="instance for fairness-rate")
    p.add_argument("--instance1", help="first instance for ratio audits")
    p.add_argument("--instance2", help="second instance for ratio audits")
    p.add_argument("--algorithm", choices=("ef", "prop"), default="ef")
    p.add_argument("--exact", action="store_true", help="use exact EM distributions")
    p.add_argument("--which", choices=("score", "f"), default="score")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--g", type=int, default=None,
                   help="truncation budget: sensitivity audits default to 2; "
                        "exact ratio audits default to the allocator formula")
    p.add_argument("--criterion", choices=("EF", "PROP"), default="EF")
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--lemma", choices=("2.10", "2.11"), default="2.10")
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--gamma", type=float, default=2.0)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("sweep", parents=[common], help="grid experiments, CSV output")
    p.add_argument("--ns", required=True, help="comma-separated agent counts")
    p.add_argument("--ms", required=True, help="comma-separated item counts")
    p.add_argument("--epsilons", required=True, help="comma-separated epsilons")
    p.add_argument("--betas", required=True, help="comma-separated betas")
    p.add_argument("--algorithm", choices=("ef", "prop"), default="ef")
    p.set_defaults(handler=_cmd_sweep)

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
