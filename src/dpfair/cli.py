"""Command-line front end: instance I/O, experiment orchestration, reports.

Instances and reports are single JSON documents with integer-scaled
utilities, so exact values survive serialization.  Item indices are 1-based
everywhere in files and output.  Every command takes a ``--seed``;
replaying the same command, seed, and instance reproduces the identical
report byte for byte, except for the ``timing`` block.

Each ``_cmd_*`` handler takes the parsed flags and returns ``(body,
exit_code)``, writing nothing to stdout or a file.  ``body`` is a dict of
the command's own report sections, a finished text written as is (``gen``'s
bare instance or family, ``sweep --format csv``), or None when the handler
has already reported on stderr.  :func:`run` alone times the handler, wraps
a dict in the report header and a ``timing`` block whose ``runtime_ms`` is
the handler's wall time, instance reads included, and writes the result to
``--out`` or stdout.

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
    Adjacency,
    ConnectedAllocation,
    EnumerationCapError,
    PrivacyParams,
    UtilityProfile,
    adjacency_distance,
    is_ef_c,  # not called here; bench/tracing.py expects it bound in this module
    is_prop_c,  # not called here; bench/tracing.py expects it bound in this module
    min_ef_c,
    min_prop_c,
)
from .ef_em import (
    DEFAULT_ENUMERATION_CAP,
    EfSampler,
    dp_ef_allocate,
    scoring_truncation_budget,
)
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
        "values": profile.values.tolist(),
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

    def integer(value, name: str) -> int:
        if type(value) is not int:  # int() would truncate 0.7 and accept true and "2"
            raise TypeError(f"{name} must be a JSON integer, got {json.dumps(value, default=repr)}")
        return value

    def rows(field: str) -> list[list[int]]:
        # Named by their 0-based positions in the JSON arrays, as in values[0][2].
        return [
            [integer(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(doc[field])
        ]

    try:
        return UtilityProfile(
            n=integer(doc["n"], "n"),
            m=integer(doc["m"], "m"),
            scale=integer(doc["scale"], "scale"),
            values=rows("values"),
            kind=doc.get("kind", "additive"),
            tables=None if doc.get("tables") is None else rows("tables"),
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


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def _cmd_allocate_ef(args) -> tuple[dict, int]:
    profile = read_instance(args.instance)
    report = dp_ef_allocate(
        profile, _params(args), RandomStream(args.seed), enumeration_cap=args.enum_cap
    )
    metadata = {
        "g": report.g,
        "score": report.score,
        "candidate_count": report.candidate_count,
        "ef_guarantee": report.ef_guarantee,
    }
    return {"allocation": allocation_to_dict(report.allocation), "metadata": metadata}, EXIT_OK


def _cmd_allocate_prop(args) -> tuple[dict, int]:
    profile = read_instance(args.instance)
    params = _params(args)
    allocation, trace = dp_moving_knife(profile, params, RandomStream(args.seed))
    levels = trace.levels_used()
    budget = prop_knife.exact_budget_total(params.epsilon, levels)
    budget_ok = budget <= Fraction(params.epsilon)
    trace_ok = audit_mod.validate_knife_trace(trace, profile.n, profile.m)
    schedule = prop_knife.budget_schedule(profile.m, profile.n, params)
    metadata = {
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
    code = EXIT_OK if budget_ok and trace_ok else EXIT_AUDIT_FAILURE
    return {"allocation": allocation_to_dict(allocation), "metadata": metadata}, code


def _cmd_oracle(args) -> tuple[dict, int]:
    profile = read_instance(args.instance)
    if args.which == "em-dist":
        distribution = oracles.exact_em_distribution(profile, _params(args), args.enum_cap)
        result = [
            {"allocation": allocation_to_dict(a), "probability": p}
            for a, p in distribution.items()
        ]
    else:
        exact = {
            "min-ef": oracles.min_ef_c_connected,
            "min-prop": oracles.min_prop_c_connected,
            "ef2-exists": oracles.ef2_connected_exists,
        }[args.which]
        result = exact(profile, args.enum_cap)
    return {"result": result}, EXIT_OK


def _cmd_gen(args) -> tuple[Optional[str], int]:
    stream = RandomStream(args.seed)
    if args.kind == "bernoulli":
        payload = profile_to_dict(generators.bernoulli_profile(args.n, args.m, stream))
    elif args.kind == "all-zero":
        payload = profile_to_dict(generators.all_zero_profile(args.n, args.m))
    else:
        maker = {
            "ef-packing": generators.ef_packing_family,
            "prop-packing": generators.prop_packing_family,
        }[args.kind]
        family = maker(args.n, args.m, c=args.c, T=args.T, epsilon=args.epsilon)
        if not generators.verify_packing_distances(family):
            sys.stderr.write("packing family failed its edit-distance invariant\n")
            return None, EXIT_AUDIT_FAILURE
        if args.pick is not None:
            payload = profile_to_dict(_pick(family, args.pick))
        else:
            payload = {
                "family": args.kind,
                "params": {
                    field.name: getattr(family, field.name)
                    for field in fields(family)
                    if field.name not in ("base", "variants")
                },
                "base": profile_to_dict(family.base),
                "variants": [profile_to_dict(v) for v in family.variants],
            }
    # Bare (no report wrapper), so the output feeds allocate-* directly.
    return _json(payload), EXIT_OK


def _pick(family: generators.PackingFamily, pick: str) -> UtilityProfile:
    if pick == "base":
        return family.base
    if pick.isdecimal() and 1 <= int(pick) <= family.T:
        return family.variants[int(pick) - 1]
    raise ValueError(f"--pick must be 'base' or an integer in 1..{family.T}, got {pick!r}")


def _mechanism_for(algorithm: str, params: PrivacyParams, enum_cap: int) -> audit_mod.Mechanism:
    """The allocator as a sampler: ``(profile, stream, k)`` to k allocations from one stream."""
    if algorithm == "ef":
        # Counted by candidate index, so no drawn allocation is hashed.
        return lambda profile, stream, k: EfSampler.prepare(profile, params, enum_cap).counts(
            stream, k
        )
    # Lazy, so that a run's trace is dropped as soon as it is counted.
    return lambda profile, stream, k: (
        allocation for allocation, _ in prop_knife.knife_samples(profile, params, stream, k)
    )


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


def _cmd_audit(args) -> tuple[dict, int]:
    stream = RandomStream(args.seed)
    if args.check in ("privacy-ratio", "group"):
        params = _params(args)
        p1 = read_instance(args.instance1)
        p2 = read_instance(args.instance2)
        distance = adjacency_distance(p1, p2, Adjacency.AGENT_ITEM_LEVEL)
        if args.check == "privacy-ratio" and distance != 1:
            raise InstanceFormatError(
                f"privacy-ratio needs instances one cell apart, not {distance}; "
                "use 'audit group'"
            )
        if args.exact:
            if args.algorithm != "ef":
                raise InstanceFormatError("--exact audits are available for --algorithm ef only")
            ratio = audit_mod.exact_em_ratio_check(p1, p2, params, args.enum_cap, g=args.g)
        else:
            mechanism = _mechanism_for(args.algorithm, params, args.enum_cap)
            # Group privacy: profiles k cells apart are held to e^(k epsilon).
            ratio = audit_mod.estimate_privacy_ratio(
                mechanism, p1, p2, distance * params.epsilon, args.trials, stream
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
    return {"result": result}, EXIT_OK if result["passed"] else EXIT_AUDIT_FAILURE


def _cmd_sweep(args) -> tuple[dict | str, int]:
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
        counts = audit_mod.draw_counts(mechanism, profile, grid_stream.child(1), args.trials)
        achieved = {allocation: min_c(profile, allocation) for allocation in counts}
        worst_c = max(achieved.values())
        failures = sum(counts[a] for a, c in achieved.items() if c > guarantee_c)
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
                "runtime_ms": (time.perf_counter() - start) * 1000.0,
            }
        )
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue(), EXIT_OK
    for row in rows:
        del row["runtime_ms"]  # a report times the whole sweep in its timing block
    return {"rows": rows}, EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_at_least(low: int, what: str):
    """Argument type: an integer of at least ``low``, called ``what`` in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")


def _env_seed() -> int:
    """The seed when ``--seed`` is absent: ``DPFAIR_SEED``, else 0."""
    try:
        return _nonnegative_int(os.environ.get(SEED_ENV_VAR, "0"))
    except argparse.ArgumentTypeError as exc:
        _PARSER.error(f"{SEED_ENV_VAR}: {exc}")


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


# Flags that one mode of their leaf ignores parse to None when absent, so
# that one given in that mode can be refused; absent ones then get these.
_MODE_DEFAULTS = {
    "svt_constant": PrivacyParams.svt_constant,
    "enum_cap": DEFAULT_ENUMERATION_CAP,
    "trials": 1000,
    "epsilon": 1.0,
    "gamma": 2.0,
}


def _refuse_ignored_flags(parser: argparse.ArgumentParser, args) -> None:
    """Exit 2 on a flag the chosen mode does not read; then fill in absent ones."""
    given = {key for key, value in vars(args).items() if value is not None}
    algorithm, exact = getattr(args, "algorithm", None), getattr(args, "exact", None)
    packing_c = getattr(args, "kind", "").endswith("packing") and args.c is not None
    for flag, key, ignored, mode in (
        ("--svt-constant", "svt_constant", algorithm == "ef", "--algorithm ef"),
        ("--enum-cap", "enum_cap", algorithm == "prop", "--algorithm prop"),
        ("--g", "g", exact is False, "a sampled audit (without --exact)"),
        ("--trials", "trials", exact is True, "--exact"),
        ("--epsilon", "epsilon", packing_c, "--c"),
        ("--gamma", "gamma", getattr(args, "lemma", None) == "2.10", "--lemma 2.10"),
    ):
        if ignored and key in given:
            parser.error(f"{flag} is not read with {mode}")
    for key, default in _MODE_DEFAULTS.items():
        if getattr(args, key, default) is None:
            setattr(args, key, default)


def build_parser() -> argparse.ArgumentParser:
    """One leaf parser per command, declaring only the flags its handler reads.

    A flag the leaf does not read is a usage error.  ``oracle``, ``gen`` and
    ``audit`` pick their mode with a second word, parsed into ``which``,
    ``kind`` and ``check``.
    """

    def arg(name: str, **kwargs) -> tuple[str, dict]:
        return name, kwargs

    base = [arg("--seed", type=_nonnegative_int, default=None), arg("--out", default=None)]
    instance = arg("--instance", required=True)
    epsilon = arg("--epsilon", type=float, default=_MODE_DEFAULTS["epsilon"])
    beta = arg("--beta", type=float, default=PrivacyParams.beta)
    svt = arg("--svt-constant", type=float, default=PrivacyParams.svt_constant)
    cap = arg("--enum-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    trials = arg("--trials", type=_positive_int, default=_MODE_DEFAULTS["trials"])
    # What _mechanism_for reads besides epsilon and beta.  A flag that only
    # one mode of its leaf reads parses to None when absent (see _MODE_DEFAULTS).
    mechanism = [
        arg("--algorithm", choices=("ef", "prop"), default="ef"),
        arg("--svt-constant", type=float, default=None),
        arg("--enum-cap", type=int, default=None),
    ]
    size = [arg("--n", type=int, required=True), arg("--m", type=int, required=True)]
    packing = [
        *size, arg("--epsilon", type=float, default=None),
        arg("--c", type=_positive_int, default=None),
        arg("--T", type=_positive_int, default=None),
        arg("--pick", default=None, help="emit one family member: 'base' or 1..T"),
    ]
    ratio = [
        *mechanism, epsilon, beta, arg("--trials", type=_positive_int, default=None),
        arg("--instance1", required=True, help="first instance"),
        arg("--instance2", required=True, help="second instance"),
        arg("--exact", action="store_true",
            help="use exact EM distributions (--algorithm ef only)"),
        arg("--g", type=int, default=None,
            help="truncation budget of --exact audits (default: allocator formula)"),
    ]
    grids = [
        arg(name, type=_grid(cast), required=True, help=f"comma-separated {what}")
        for name, cast, what in [("--ns", int, "agent counts"), ("--ms", int, "item counts"),
                                 ("--epsilons", float, "epsilons"), ("--betas", float, "betas")]
    ]
    # command -> (help, handler, dest of its mode word or None for a leaf)
    commands = {
        "allocate-ef": ("run the private EF allocator", _cmd_allocate_ef, None),
        "allocate-prop": ("run the private PROP allocator", _cmd_allocate_prop, None),
        "oracle": ("exact brute-force computations", _cmd_oracle, "which"),
        "gen": ("generate instances", _cmd_gen, "kind"),
        "audit": ("privacy and fairness audits", _cmd_audit, "check"),
        "sweep": ("grid experiments, CSV output", _cmd_sweep, None),
    }
    # leaf path -> its flags after --seed and --out, in help order
    leaves = {
        ("allocate-ef",): [instance, epsilon, beta, cap],
        ("allocate-prop",): [instance, epsilon, beta, svt],
        **{("oracle", name): [instance, cap] for name in ("min-ef", "min-prop", "ef2-exists")},
        ("oracle", "em-dist"): [instance, epsilon, beta, cap],
        **{("gen", name): size for name in ("bernoulli", "all-zero")},
        **{("gen", name): packing for name in ("ef-packing", "prop-packing")},
        **{("audit", name): ratio for name in ("privacy-ratio", "group")},
        ("audit", "sensitivity"): [
            arg("--which", choices=("score", "f"), default="score"),
            arg("--n", type=int, default=2),
            arg("--m", type=int, default=3),
            arg("--g", type=int, default=2, help="truncation budget"),
        ],
        ("audit", "fairness-rate"): [
            instance, *mechanism, epsilon, beta, trials,
            arg("--criterion", choices=("EF", "PROP"), default="EF"),
            arg("--c", type=_nonnegative_int, default=0),
        ],
        ("audit", "anti-concentration"): [
            trials,
            arg("--lemma", choices=("2.10", "2.11"), default="2.10"),
            arg("--k", type=int, default=100),
            arg("--gamma", type=float, default=None),
        ],
        ("sweep",): [*mechanism, trials, *grids, arg("--format", choices=("json", "csv"),
                                                      default="json")],
    }

    def leaf(subparsers, name, flags, text=None, handler=None):
        # No abbreviations: they would let an unread flag alias a read one
        # (sweep's --epsilons would answer to --epsilon).
        p = subparsers.add_parser(name, help=text, allow_abbrev=False)
        if handler is not None:
            p.set_defaults(handler=handler)
        for flag, kwargs in [*base, *flags]:
            p.add_argument(flag, **kwargs)

    parser = argparse.ArgumentParser(
        prog="dpfair",
        description="Differentially private fair division: allocators, oracles, audits.",
    )
    top = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, handler, dest) in commands.items():
        if dest is None:
            leaf(top, name, leaves[(name,)], text, handler)
        else:
            p = top.add_parser(name, help=text)
            p.set_defaults(handler=handler)
            mode = p.add_subparsers(dest=dest, required=True)
            for path, flags in leaves.items():
                if path[0] == name:
                    leaf(mode, path[1], flags)
    return parser


_PARSER = build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        _refuse_ignored_flags(_PARSER, args)
        if args.seed is None:
            args.seed = _env_seed()
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        start = time.perf_counter()
        body, code = args.handler(args)
        runtime_ms = (time.perf_counter() - start) * 1000.0
        if isinstance(body, dict):
            body = _json({**_base_report(args), **body, "timing": {"runtime_ms": runtime_ms}})
        if body is not None:
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(body)
            else:
                sys.stdout.write(body)
    except (EnumerationCapError, ValueError, IndexError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    return code


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
