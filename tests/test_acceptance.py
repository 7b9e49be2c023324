"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import json
import math
import time
from collections import Counter

import numpy as np

from dpfair.audit import (
    anti_concentration_check,
    exact_em_ratio_check,
    ratio_report_from_distributions,
    validate_knife_trace,
)
from dpfair.core import (
    Adjacency,
    PrivacyParams,
    UtilityProfile,
    adjacency_distance,
    is_ef_c,
    is_ef_d_wrt_truncated,
    is_prop_c,
    top_k_utility,
    truncated_utility,
)
from dpfair.ef_em import (
    EfSampler,
    connected_allocation_tuple,
    scoring_truncation_budget,
)
from dpfair.generators import (
    ef_packing_family,
    prop_packing_family,
    small_bundle_profile_experiment,
)
from dpfair.mechanisms import RandomStream
from dpfair.oracles import (
    audit_f_sensitivity,
    audit_score_sensitivity,
    binary_profiles,
    exact_em_distribution,
    min_ef_c_connected,
    min_prop_c_connected,
)
from dpfair.prop_knife import dp_moving_knife, exact_budget_total, proof_chain_c
from fractions import Fraction

from conftest import (
    brute_is_ef_c,
    brute_is_ef_d_wrt_truncated,
    brute_is_prop_c,
    brute_top_k,
    brute_truncated,
    random_additive_profile,
)


def _verdict(number, name, ok, started, detail=""):
    elapsed = time.time() - started
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:>2}: {status} - {name} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_score_sensitivity_exhaustive():
    # The default m=3 universe truncates every bundle to zero (scores are
    # constant there), so the sweep also covers m=4 with g in {1,2}, the
    # only n=2 shape inside the exhaustible universe where scores vary;
    # g=2 attains the bound with |delta| = 1 exactly.
    started = time.time()
    worst = 0
    pairs = 0
    for m, g in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        report = audit_score_sensitivity(m=m, n=2, g=g)
        worst = max(worst, report.max_delta)
        pairs += report.pairs_examined
    tight = audit_score_sensitivity(m=4, n=2, g=2).max_delta == 1
    _verdict(1, "allocator-score sensitivity <= 1 (exhaustive)",
             worst <= 1 and tight, started,
             f"max |delta| = {worst} over {pairs} adjacent pairs; bound tight at m=4, g=2")


def test_criterion_02_cut_function_sensitivity_exhaustive():
    started = time.time()
    worst = 0
    pairs = 0
    for g_b in (2, 4):
        report = audit_f_sensitivity(m=3, n=2, g_b=g_b)
        worst = max(worst, report.max_delta)
        pairs += report.pairs_examined
    _verdict(2, "cut-acceptance sensitivity <= 1 (exhaustive)", worst <= 1, started,
             f"max |delta| = {worst} over {pairs} adjacent pairs, g_b in {{2,4}}")


def test_criterion_03_exact_em_privacy_all_adjacent_pairs():
    # At the allocator's formula g (> m at this scale) every score is -1 and
    # the check is vacuous, so the same sweep also runs at small g where the
    # distributions genuinely differ.
    started = time.time()
    ok = True
    checked = 0
    max_log = 0.0
    # (m, g) sweeps: m=3 at the formula g, where the
    # distribution is provably uniform, plus m=4 at g=2 where it is not
    for m, g in [(3, None), (4, 2)]:
        cells = 2 * m
        profiles = binary_profiles(2, m)
        for epsilon in (0.5, 1.0, 2.0):
            params = PrivacyParams(epsilon=epsilon, beta=0.1)
            distributions = [exact_em_distribution(p, params, g=g) for p in profiles]
            for bits in range(1 << cells):
                for cell in range(cells):
                    if bits >> cell & 1:
                        continue
                    other = bits | 1 << cell
                    report = ratio_report_from_distributions(
                        distributions[bits], distributions[other], math.exp(epsilon)
                    )
                    checked += 1
                    ok = ok and report.passed
                    if g is not None:
                        max_log = max(max_log, report.max_log_ratio)
    _verdict(3, "exact EM privacy ratio <= e^eps + 1e-9", ok and max_log > 0.0,
             started,
             f"{checked} pair checks x eps in {{0.5,1,2}}; "
             f"max log-ratio at m=4, g=2: {max_log:.4f} (nonvacuous)")


def test_criterion_04_group_privacy_on_packing_pair():
    started = time.time()
    family = ef_packing_family(n=3, m=12, c=1, T=1)
    params = PrivacyParams(epsilon=0.5, beta=0.1)
    k = adjacency_distance(family.base, family.variants[0], Adjacency.AGENT_ITEM_LEVEL)
    report = exact_em_ratio_check(family.base, family.variants[0], params)
    # teeth: c=1 rows value only 3 items, which every relevant truncation
    # wipes out, so distributions coincide at any g; the c=2 family at g=2
    # actually separates the inputs and leaves only the chain bound e^(10 eps)
    wide = ef_packing_family(n=3, m=20, c=2, T=1)
    wide_k = adjacency_distance(wide.base, wide.variants[0], Adjacency.AGENT_ITEM_LEVEL)
    teeth = exact_em_ratio_check(wide.base, wide.variants[0], params, g=2)
    ok = (
        k == 6
        and report.passed
        and abs(report.bound - math.exp(6 * 0.5)) < 1e-9
        and wide_k == 10
        and teeth.passed
        and teeth.max_log_ratio > 0.0
    )
    _verdict(4, "group privacy e^(k eps) on packing pairs", ok, started,
             f"c=1 pair k = {k}; c=2 pair k = {wide_k}, "
             f"max log-ratio at g=2: {teeth.max_log_ratio:.4f} (nonvacuous)")


def test_criterion_05_ef_allocator_utility_and_fairness():
    started = time.time()
    profile = UtilityProfile.additive([[1, 0, 1, 0], [0, 1, 1, 1]])
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    runs = 10_000
    g = scoring_truncation_budget(4, 2, params.epsilon, params.beta)
    candidates = connected_allocation_tuple(4, 2)
    from dpfair.ef_em import score as score_fn

    max_score = max(score_fn(profile, a, g) for a in candidates)
    slack = 2 * math.log(len(candidates) / params.beta) / params.epsilon
    # The runs are drawn in turn from one stream; each distinct draw's report
    # is checked once and counted as often as it was drawn.
    sampler = EfSampler.prepare(profile, params)
    draws = Counter(sampler.draw_many(RandomStream(20_240_501), runs).tolist())
    good_utility = 0
    structural_ok = True
    for index, count in draws.items():
        report = sampler.report(index)
        if report.allocation.m != 4 or report.allocation.n != 2:
            structural_ok = False
        if not is_ef_c(profile, report.allocation, report.ef_guarantee):
            structural_ok = False
        if report.score >= max_score - slack:
            good_utility += count
    sigma = math.sqrt(params.beta * (1 - params.beta) / runs)
    utility_ok = good_utility / runs >= 1 - params.beta - 3 * sigma
    ok = structural_ok and utility_ok and g == 20
    _verdict(5, "EF allocator utility and per-run EF(g - score)", ok, started,
             f"g = {g}, utility hit rate = {good_utility / runs:.4f} "
             f">= {1 - params.beta - 3 * sigma:.4f}")


def test_criterion_06_moving_knife_structure_and_failure_rate():
    started = time.time()
    rng = np.random.default_rng(6001)
    structural_ok = True
    epsilon = 1.3
    for n in range(2, 9):
        for m in (3, 7):
            params = PrivacyParams(epsilon=epsilon, beta=0.2)
            profile = random_additive_profile(rng, n, m, max_value=5)
            allocation, trace = dp_moving_knife(profile, params, RandomStream(n * 100 + m))
            if not validate_knife_trace(trace, n, m):
                structural_ok = False
            if allocation.n != n or allocation.m != m:
                structural_ok = False
            if exact_budget_total(epsilon, trace.levels_used()) > Fraction(epsilon):
                structural_ok = False
            top = math.ceil(math.log2(n))
            if exact_budget_total(epsilon, range(1, top + 1)) > Fraction(epsilon):
                structural_ok = False

    params = PrivacyParams(epsilon=5.0, beta=0.1)
    values = tuple(
        tuple(int(v) for v in rng.integers(0, 1_000_001, size=200)) for _ in range(4)
    )
    profile = UtilityProfile(n=4, m=200, scale=1_000_000, values=values)
    c = proof_chain_c(200, 4, params)
    runs = 1000
    failures = 0
    for seed in range(runs):
        allocation, trace = dp_moving_knife(profile, params, RandomStream(seed))
        if not is_prop_c(profile, allocation, c):
            failures += 1
    sigma = math.sqrt(params.beta * (1 - params.beta) / runs)
    rate_ok = failures / runs <= params.beta + 3 * sigma
    _verdict(6, "moving-knife budget/structure and PROP failure rate",
             structural_ok and rate_ok, started,
             f"proof-chain c = {c}, failure rate = {failures / runs:.4f} "
             f"<= {params.beta + 3 * sigma:.4f}")


def test_criterion_07_lower_tail_anti_concentration():
    started = time.time()
    trials = 1_000_000
    report = anti_concentration_check("2.10", k=100, gamma=None, trials=trials,
                                      stream=RandomStream(777))
    exact = sum(math.comb(100, i) for i in range(49)) / 2**100
    bound_ok = report.estimate >= 0.25 - 3 * report.sigma
    exact_ok = abs(exact - 0.382) < 1e-3 and abs(report.estimate - exact) <= 0.005
    _verdict(7, "lower-tail probability >= 1/4 and matches exact tail",
             bound_ok and exact_ok, started,
             f"estimate = {report.estimate:.4f}, exact = {exact:.4f}")


def test_criterion_08_upper_tail_anti_concentration():
    started = time.time()
    trials = 1_000_000
    ok = True
    estimates = {}
    for gamma in (2.0, 8.0):
        report = anti_concentration_check("2.11", k=100, gamma=gamma, trials=trials,
                                          stream=RandomStream(int(gamma)))
        estimates[gamma] = report.estimate
        ok = ok and report.estimate >= 0.1 / gamma - 3 * report.sigma
    _verdict(8, "upper-tail probability >= 0.1/gamma", ok, started,
             f"estimates = {estimates}")


def test_criterion_09_small_bundle_prop_violation_at_scale():
    started = time.time()
    trials = 10_000
    rate = small_bundle_profile_experiment(
        n=4, m=40_000, bundle_size=10_000, c=1, trials=trials, stream=RandomStream(314)
    )
    sigma = math.sqrt(0.125 * 0.875 / trials)
    ok = rate >= 0.125 - 3 * sigma
    _verdict(9, "small-bundle PROP1 violation rate >= 1/8", ok, started,
             f"rate = {rate:.4f} >= {0.125 - 3 * sigma:.4f}")


def test_criterion_10_packing_acceptance_sets_disjoint():
    started = time.time()
    ef_family = ef_packing_family(n=3, m=20, c=1, T=2)
    ef_candidates = connected_allocation_tuple(20, 3)
    ef_sets = [
        {i for i, a in enumerate(ef_candidates) if is_ef_c(variant, a, 1)}
        for variant in ef_family.variants
    ]
    ef_ok = all(ef_sets) and not (ef_sets[0] & ef_sets[1])

    prop_family = prop_packing_family(n=3, m=24, c=1, T=3)
    prop_candidates = connected_allocation_tuple(24, 3)
    prop_sets = [
        {i for i, a in enumerate(prop_candidates) if is_prop_c(variant, a, 1)}
        for variant in prop_family.variants
    ]
    prop_ok = all(prop_sets) and all(
        not (prop_sets[s] & prop_sets[t])
        for s in range(3)
        for t in range(s + 1, 3)
    )
    _verdict(10, "packing acceptance sets pairwise disjoint", ef_ok and prop_ok, started,
             f"EF1 set sizes = {[len(s) for s in ef_sets]}, "
             f"PROP1 set sizes = {[len(s) for s in prop_sets]}")


def test_criterion_11_oracle_consistency():
    started = time.time()
    rng = np.random.default_rng(11_000)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        scale = int(rng.integers(1, 3))
        profile = random_additive_profile(rng, n, m, max_value=4, scale=scale)

        items = tuple(
            int(v)
            for v in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False) + 1
        )
        agent = int(rng.integers(1, n + 1))
        k = int(rng.integers(0, m + 2))
        ok = ok and truncated_utility(profile, agent, items, k) == brute_truncated(
            profile, agent, items, k
        )
        ok = ok and top_k_utility(profile, agent, items, k) == brute_top_k(
            profile, agent, items, k
        )

        candidates = connected_allocation_tuple(m, n)
        allocation = candidates[int(rng.integers(0, len(candidates)))]
        c = int(rng.integers(0, 3))
        ok = ok and is_ef_c(profile, allocation, c) == brute_is_ef_c(
            profile, allocation, c
        )
        ok = ok and is_prop_c(profile, allocation, c) == brute_is_prop_c(
            profile, allocation, c
        )
        d, k2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        ok = ok and brute_is_ef_d_wrt_truncated(
            profile, allocation, d, k2
        ) == is_ef_d_wrt_truncated(profile, allocation, d, k2)

        min_ef = min_ef_c_connected(profile)
        min_prop = min_prop_c_connected(profile)
        ok = ok and min_ef <= 2 and min_prop <= min_ef
        if not ok:
            break
    _verdict(11, "fast paths = brute force; EF2 exists; PROP <= EF", ok, started,
             "1000 random instances, m <= 5")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    started = time.time()
    from dpfair import cli

    instance = tmp_path / "i.json"
    instance.write_text(json.dumps({
        "n": 2, "m": 4, "scale": 1, "kind": "additive",
        "values": [[1, 0, 1, 1], [0, 1, 1, 0]],
    }))
    adjacent = tmp_path / "j.json"
    adjacent.write_text(json.dumps({
        "n": 2, "m": 4, "scale": 1, "kind": "additive",
        "values": [[1, 0, 1, 0], [0, 1, 1, 0]],
    }))
    i, j = str(instance), str(adjacent)
    commands = [
        ["gen", "bernoulli", "--n", "2", "--m", "4", "--seed", "3"],
        ["gen", "all-zero", "--n", "2", "--m", "3"],
        ["gen", "ef-packing", "--n", "3", "--m", "12", "--c", "1", "--T", "1"],
        ["gen", "prop-packing", "--n", "3", "--m", "16", "--c", "1", "--T", "2"],
        ["allocate-ef", "--instance", i, "--seed", "9", "--epsilon", "2"],
        ["allocate-prop", "--instance", i, "--seed", "9", "--epsilon", "1"],
        ["oracle", "min-ef", "--instance", i],
        ["oracle", "min-prop", "--instance", i],
        ["oracle", "ef2-exists", "--instance", i],
        ["oracle", "em-dist", "--instance", i, "--epsilon", "1"],
        ["audit", "privacy-ratio", "--instance1", i, "--instance2", j,
         "--algorithm", "ef", "--trials", "200", "--seed", "2"],
        ["audit", "group", "--instance1", i, "--instance2", j,
         "--algorithm", "prop", "--trials", "100", "--seed", "2"],
        ["audit", "sensitivity", "--which", "f", "--n", "2", "--m", "3", "--g", "2"],
        ["audit", "fairness-rate", "--instance", i, "--algorithm", "ef",
         "--criterion", "PROP", "--c", "2", "--trials", "100", "--seed", "5",
         "--epsilon", "2"],
        ["audit", "anti-concentration", "--lemma", "2.11", "--k", "100",
         "--gamma", "8", "--trials", "20000", "--seed", "6"],
        ["sweep", "--ns", "2", "--ms", "3", "--epsilons", "1", "--betas", "0.1",
         "--algorithm", "prop", "--trials", "5", "--seed", "3", "--format", "csv"],
    ]

    def normalized(argv):
        code = cli.run(argv)
        out = capsys.readouterr().out
        if "--format" in argv and "csv" in argv:
            lines = out.strip().splitlines()
            # runtime_ms is the only timing column
            return code, [",".join(line.split(",")[:-1]) for line in lines]
        doc = json.loads(out)
        doc.pop("timing", None)
        return code, json.dumps(doc, sort_keys=True)

    ok = True
    for argv in commands:
        first = normalized(argv)
        second = normalized(argv)
        if first != second or first[0] != 0:
            ok = False
            break
    _verdict(12, "every seeded command replays byte-identically", ok, started,
             f"{len(commands)} commands x 2 runs")
