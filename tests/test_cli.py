import argparse
import json
import math
import os
import subprocess
import sys
import time

import pytest

import dpfair
from dpfair import cli
from dpfair.core import PrivacyParams, min_ef_c
from dpfair.ef_em import dp_ef_allocate, scoring_truncation_budget
from dpfair.generators import bernoulli_profile, ef_packing_family, prop_packing_family
from dpfair.mechanisms import RandomStream


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, values, scale=1, kind="additive", tables=None):
    doc = {
        "n": len(values),
        "m": len(values[0]) if values else 0,
        "scale": scale,
        "kind": kind,
        "values": values,
    }
    if tables is not None:
        doc["tables"] = tables
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timing(text):
    doc = json.loads(text)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# gen + instance round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, maker", [("ef-packing", ef_packing_family), ("prop-packing", prop_packing_family)]
)
def test_gen_packing_params_block(kind, maker, capsys):
    # default T: the report's params are exactly the family's scalar fields
    code, text, _ = run_cli(["gen", kind, "--n", "3", "--m", "24", "--c", "1"], capsys)
    assert code == 0
    family = maker(3, 24, c=1)
    assert json.loads(text)["params"] == {
        "n": family.n,
        "m": family.m,
        "c": family.c,
        "T": family.T,
        "block_width": family.block_width,
        "expected_distance": family.expected_distance,
    }


def test_gen_bernoulli_round_trip(tmp_path, capsys):
    out = tmp_path / "instance.json"
    code, _, _ = run_cli(
        ["gen", "bernoulli", "--n", "2", "--m", "5", "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    profile = cli.read_instance(str(out))
    assert profile.n == 2 and profile.m == 5 and profile.is_binary()
    # write -> read -> write is lossless
    rewritten = tmp_path / "again.json"
    rewritten.write_text(json.dumps(cli.profile_to_dict(profile)))
    assert cli.read_instance(str(rewritten)) == profile


def test_gen_packing_family_and_pick(tmp_path, capsys):
    out = tmp_path / "family.json"
    code, _, _ = run_cli(
        ["gen", "ef-packing", "--n", "3", "--m", "12", "--c", "1", "--T", "1",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    family = json.loads(out.read_text())
    assert family["params"]["expected_distance"] == 6
    assert len(family["variants"]) == 1
    code, text, _ = run_cli(
        ["gen", "ef-packing", "--n", "3", "--m", "12", "--c", "1", "--T", "1",
         "--pick", "1"],
        capsys,
    )
    assert code == 0
    picked = cli.profile_from_dict(json.loads(text))
    assert picked.values[0, :3].tolist() == [1, 1, 1]


@pytest.mark.parametrize("pick", ["0", "-1", "3", "x"])
def test_gen_pick_outside_the_family_exits_two(pick, capsys):
    code, _, err = run_cli(
        ["gen", "ef-packing", "--n", "3", "--m", "12", "--c", "1", "--T", "2", "--pick", pick],
        capsys,
    )
    assert code == 2
    assert "'base' or an integer in 1..2" in err


def test_gen_pick_base_and_last_variant(capsys):
    argv = ["gen", "ef-packing", "--n", "3", "--m", "12", "--c", "1", "--T", "2"]
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    family = json.loads(text)
    for pick, expected in [("base", family["base"]), ("2", family["variants"][1])]:
        code, text, _ = run_cli([*argv, "--pick", pick], capsys)
        assert code == 0
        assert json.loads(text) == expected
    assert family["variants"][0] != family["variants"][1]


def test_gen_rejects_removed_wrap_flag(capsys):
    code, _, err = run_cli(["gen", "all-zero", "--n", "2", "--m", "3", "--wrap"], capsys)
    assert code == 2
    assert "--wrap" in err


def test_general_instance_round_trip(tmp_path):
    path = write_instance(
        tmp_path, "general.json", values=[[1, 1]], kind="general", tables=[[0, 1, 1, 2]]
    )
    profile = cli.read_instance(path)
    assert profile.kind == "general"
    assert profile.tables == ((0, 1, 1, 2),)


# ---------------------------------------------------------------------------
# allocators
# ---------------------------------------------------------------------------


def test_allocate_ef_reports_g_from_the_formula(tmp_path, capsys):
    path = write_instance(tmp_path, "zero.json", [[0, 0, 0], [0, 0, 0]])
    code, text, _ = run_cli(
        ["allocate-ef", "--instance", path, "--epsilon", "1", "--beta", "0.1",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["metadata"]["g"] == 28
    assert doc["metadata"]["candidate_count"] == 6
    intervals = doc["allocation"]["intervals"]
    assert len(intervals) == 2


def test_allocate_prop_budget_ledger(tmp_path, capsys):
    path = write_instance(tmp_path, "p.json", [[2, 1, 1, 3], [1, 1, 1, 1], [0, 4, 2, 0]])
    code, text, _ = run_cli(
        ["allocate-prop", "--instance", path, "--epsilon", "1", "--seed", "5"], capsys
    )
    assert code == 0
    doc = json.loads(text)
    md = doc["metadata"]
    assert md["budget_within_epsilon"] is True
    assert md["trace_valid"] is True
    num, _, den = md["budget_total_exact"].partition("/")
    assert int(num) / int(den or "1") <= 1.0
    assert doc["allocation"]["type"] == "connected"


# ---------------------------------------------------------------------------
# oracle and audit subcommands
# ---------------------------------------------------------------------------


def test_oracle_subcommands(tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 0]])
    for which, check in [
        ("min-ef", lambda r: 0 <= r <= 2),
        ("min-prop", lambda r: 0 <= r <= 2),
        ("ef2-exists", lambda r: r is True),
    ]:
        code, text, _ = run_cli(["oracle", which, "--instance", path], capsys)
        assert code == 0
        assert check(json.loads(text)["result"])
    code, text, _ = run_cli(
        ["oracle", "em-dist", "--instance", path, "--epsilon", "1"], capsys
    )
    assert code == 0
    rows = json.loads(text)["result"]
    assert abs(sum(r["probability"] for r in rows) - 1.0) < 1e-9


def test_audit_anti_concentration_pass(tmp_path, capsys):
    code, text, _ = run_cli(
        ["audit", "anti-concentration", "--lemma", "2.10", "--k", "100",
         "--trials", "20000", "--seed", "1"],
        capsys,
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert result["estimate"] >= 0.25
    assert result["passed"] is True


def test_audit_privacy_ratio_exact(tmp_path, capsys):
    p1 = write_instance(tmp_path, "a.json", [[1, 0, 1], [0, 1, 1]])
    p2 = write_instance(tmp_path, "b.json", [[1, 0, 0], [0, 1, 1]])
    code, text, _ = run_cli(
        ["audit", "privacy-ratio", "--instance1", p1, "--instance2", p2,
         "--algorithm", "ef", "--exact", "--epsilon", "1"],
        capsys,
    )
    assert code == 0
    result = json.loads(text)["result"]
    assert result["mode"] == "exact"
    assert result["passed"] is True


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["sampled", "exact"])
def test_privacy_ratio_needs_instances_one_cell_apart(tmp_path, capsys, mode):
    p1 = write_instance(tmp_path, "a.json", [[1, 0, 1], [0, 1, 1]])
    p2 = write_instance(tmp_path, "b.json", [[1, 1, 1], [0, 1, 0]])
    pair = ["--instance1", p1, "--instance2", p2, "--algorithm", "ef", *mode]
    code, text, err = run_cli(["audit", "privacy-ratio", *pair], capsys)
    assert code == 2 and text == ""
    assert "not 2" in err and "audit group" in err
    trials = [] if mode else ["--trials", "50"]  # --exact reads no --trials
    code, text, _ = run_cli(["audit", "group", *pair, *trials], capsys)
    assert code == 0
    assert json.loads(text)["result"]["bound"] == pytest.approx(math.exp(2.0))


@pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["sampled", "exact"])
def test_privacy_ratio_refuses_general_kind_pairs(tmp_path, capsys, mode):
    p1 = write_instance(tmp_path, "a.json", [[1]], kind="general", tables=[[0, 1]])
    p2 = write_instance(tmp_path, "b.json", [[2]], kind="general", tables=[[0, 2]])
    code, _, err = run_cli(
        ["audit", "privacy-ratio", "--instance1", p1, "--instance2", p2, *mode], capsys
    )
    assert code == 2 and "additive" in err


def test_audit_sensitivity(capsys):
    code, text, _ = run_cli(
        ["audit", "sensitivity", "--which", "score", "--n", "2", "--m", "3", "--g", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(text)["result"]["max_delta"] <= 1


def test_audit_fairness_rate(tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 1, 0], [0, 1, 1]])
    code, text, _ = run_cli(
        ["audit", "fairness-rate", "--instance", path, "--algorithm", "ef",
         "--criterion", "EF", "--c", "3", "--trials", "200", "--epsilon", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(text)["result"]["rate"] == 0.0


def test_audit_failure_exits_one(tmp_path, capsys, monkeypatch):
    from dpfair.audit import RatioReport

    failing = RatioReport(
        outcomes=("x",), p1=(1.0,), p2=(1.0,), max_log_ratio=5.0,
        max_log_ratio_ci=(4.0, 6.0), samples=10, bound=2.0, mode="sampled",
        flagged=("x",),
    )
    monkeypatch.setattr(cli.audit_mod, "estimate_privacy_ratio", lambda *a, **k: failing)
    monkeypatch.setattr(cli, "allocation_to_dict", lambda o: {"type": "stub", "value": o})
    p1 = write_instance(tmp_path, "a.json", [[1, 0]])
    p2 = write_instance(tmp_path, "b.json", [[1, 1]])
    code, _, _ = run_cli(
        ["audit", "privacy-ratio", "--instance1", p1, "--instance2", p2,
         "--trials", "10"],
        capsys,
    )
    assert code == 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv_grid_order_and_columns(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--ns", "2", "--ms", "3,4", "--epsilons", "1,2", "--betas", "0.1",
            "--algorithm", "ef", "--trials", "3", "--seed", "11", "--format", "csv"]
    code, _, _ = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m,epsilon,beta,seed,algorithm,c_achieved,failure_rate,runtime_ms"
    assert len(lines) == 5
    # grid order is fixed: m ascending before epsilon
    assert [line.split(",")[1] for line in lines[1:]] == ["3", "3", "4", "4"]
    # Without --out the same CSV, apart from each row's runtime_ms, goes to stdout.
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    assert [line.rsplit(",", 1)[0] for line in text.strip().splitlines()] == [
        line.rsplit(",", 1)[0] for line in lines
    ]


def test_sweep_records_the_grid_it_ran(capsys):
    code, text, _ = run_cli(
        ["sweep", "--ns", "2", "--ms", "3,4", "--epsilons", "2", "--betas", "0.1,0.2",
         "--algorithm", "prop", "--trials", "2", "--seed", "5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["parameters"] == {
        "algorithm": "prop",
        "ns": [2],
        "ms": [3, 4],
        "epsilons": [2.0],
        "betas": [0.1, 0.2],
        "trials": 2,
        "svt_constant": 16.0,
        "enum_cap": cli.DEFAULT_ENUMERATION_CAP,
    }
    assert {row["epsilon"] for row in doc["rows"]} == {2.0}


def test_sweep_draws_a_points_trials_from_one_stream(capsys):
    # Point i's profile comes from stream (seed, i) child 0 and its trials,
    # drawn in turn, from child 1; c is computed once per distinct outcome.
    code, text, _ = run_cli(
        ["sweep", "--ns", "2,3", "--ms", "4", "--epsilons", "8", "--betas", "0.1",
         "--algorithm", "ef", "--trials", "60", "--seed", "7"],
        capsys,
    )
    assert code == 0
    params = PrivacyParams(epsilon=8.0, beta=0.1)
    for point, row in enumerate(json.loads(text)["rows"]):
        grid_stream = RandomStream(7, (point,))
        profile = bernoulli_profile(row["n"], 4, grid_stream.child(0))
        stream = grid_stream.child(1)
        draws = [dp_ef_allocate(profile, params, stream).allocation for _ in range(60)]
        achieved = [min_ef_c(profile, a) for a in draws]
        guarantee = 3 * scoring_truncation_budget(4, row["n"], 8.0, 0.1) // 2
        assert row["c_achieved"] == max(achieved)
        assert row["failure_rate"] == sum(c > guarantee for c in achieved) / 60


@pytest.mark.parametrize("out_format", ["json", "csv"])
def test_sweep_rejects_an_empty_grid_naming_the_flag(out_format, capsys):
    code, _, err = run_cli(
        ["sweep", "--ns", "2", "--ms", ",", "--epsilons", "1", "--betas", "0.1",
         "--trials", "1", "--format", out_format],
        capsys,
    )
    assert code == 2
    assert "--ms" in err and "empty grid" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--ns", "2", "--ms", "3", "--epsilons", "1", "--betas", "0.1"],
    ["audit", "privacy-ratio", "--instance1", "a.json", "--instance2", "b.json"],
    ["audit", "group", "--instance1", "a.json", "--instance2", "b.json"],
    ["audit", "fairness-rate", "--instance", "a.json"],
    ["audit", "anti-concentration"],
], ids=lambda argv: " ".join(argv[:2]))
@pytest.mark.parametrize("trials", ["0", "-3", "many"])
def test_trials_must_be_a_positive_integer(argv, trials, capsys):
    code, _, err = run_cli([*argv, "--trials", trials], capsys)
    assert code == 2
    assert "--trials" in err and "positive integer" in err


# ---------------------------------------------------------------------------
# per-command flags
# ---------------------------------------------------------------------------


# One flag per leaf command that its handler never reads.
UNREAD_FLAGS = [
    (["allocate-ef", "--instance", "i.json"], ["--svt-constant", "1"]),
    (["allocate-prop", "--instance", "i.json"], ["--enum-cap", "5"]),
    (["oracle", "min-ef", "--instance", "i.json"], ["--epsilon", "2"]),
    (["oracle", "min-prop", "--instance", "i.json"], ["--beta", "0.2"]),
    (["oracle", "ef2-exists", "--instance", "i.json"], ["--trials", "5"]),
    (["oracle", "em-dist", "--instance", "i.json"], ["--svt-constant", "1"]),
    (["gen", "bernoulli", "--n", "2", "--m", "3"], ["--pick", "1"]),
    (["gen", "all-zero", "--n", "2", "--m", "3"], ["--epsilon", "2"]),
    (["gen", "ef-packing", "--n", "3", "--m", "12"], ["--beta", "0.2"]),
    (["gen", "prop-packing", "--n", "3", "--m", "12"], ["--enum-cap", "5"]),
    (["audit", "privacy-ratio", "--instance1", "a.json", "--instance2", "b.json"],
     ["--which", "f"]),
    (["audit", "group", "--instance1", "a.json", "--instance2", "b.json"],
     ["--criterion", "EF"]),
    (["audit", "sensitivity"], ["--trials", "5"]),
    (["audit", "fairness-rate", "--instance", "i.json"], ["--exact"]),
    (["audit", "anti-concentration"], ["--epsilon", "2"]),
    (["audit", "anti-concentration"], ["--svt-constant", "3"]),
    (["sweep", "--ns", "2", "--ms", "3", "--epsilons", "2", "--betas", "0.1"],
     ["--epsilon", "7"]),
    # no abbreviations: these would otherwise alias --betas and --ns
    (["sweep", "--ns", "2", "--ms", "3", "--epsilons", "2", "--betas", "0.1"],
     ["--beta", "0.2"]),
    (["sweep", "--ns", "2", "--ms", "3", "--epsilons", "2", "--betas", "0.1"],
     ["--n", "3"]),
]


@pytest.mark.parametrize("argv,flag", UNREAD_FLAGS, ids=lambda x: " ".join(x[:2]))
def test_a_flag_the_command_does_not_read_exits_two(argv, flag, capsys):
    code, _, err = run_cli([*argv, *flag], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag[0]}" in err


PAIR = ["--instance1", "a.json", "--instance2", "b.json"]
GRID = ["--ns", "2", "--ms", "3", "--epsilons", "2", "--betas", "0.1"]

# A flag given in the one mode of its leaf that does not read it.
IGNORED_IN_MODE = [
    (["audit", "privacy-ratio", *PAIR, "--algorithm", "ef"], ["--svt-constant", "1"]),
    (["audit", "group", *PAIR], ["--svt-constant", "1"]),  # --algorithm defaults to ef
    (["audit", "fairness-rate", "--instance", "i.json"], ["--svt-constant", "1"]),
    (["sweep", *GRID, "--algorithm", "ef"], ["--svt-constant", "1"]),
    (["audit", "privacy-ratio", *PAIR, "--algorithm", "prop"], ["--enum-cap", "5"]),
    (["audit", "fairness-rate", "--instance", "i.json", "--algorithm", "prop"],
     ["--enum-cap", "5"]),
    (["sweep", *GRID, "--algorithm", "prop"], ["--enum-cap", "5"]),
    (["audit", "privacy-ratio", *PAIR], ["--g", "2"]),
    (["audit", "group", *PAIR], ["--g", "2"]),
    (["audit", "privacy-ratio", *PAIR, "--exact"], ["--trials", "5"]),
    (["audit", "group", *PAIR, "--exact"], ["--trials", "5"]),
    (["audit", "anti-concentration", "--lemma", "2.10"], ["--gamma", "7"]),
    (["gen", "ef-packing", "--n", "3", "--m", "40", "--c", "1"], ["--epsilon", "5"]),
    (["gen", "prop-packing", "--n", "3", "--m", "40", "--c", "1"], ["--epsilon", "5"]),
]


@pytest.mark.parametrize("argv,flag", IGNORED_IN_MODE, ids=lambda x: " ".join(x[:2]))
def test_a_flag_the_chosen_mode_does_not_read_exits_two(argv, flag, capsys):
    code, out, err = run_cli([*argv, *flag], capsys)
    assert code == 2 and out == ""
    assert f"{flag[0]} is not read with" in err


def test_absent_mode_flags_report_their_defaults(tmp_path, capsys):
    a = write_instance(tmp_path, "a.json", [[1, 0, 1], [0, 1, 1]])
    b = write_instance(tmp_path, "b.json", [[1, 0, 0], [0, 1, 1]])
    ratio = ["audit", "privacy-ratio", "--instance1", a, "--instance2", b]
    for argv, read in [
        ([*ratio, "--exact", "--g", "2"],
         {"svt_constant": PrivacyParams.svt_constant, "trials": 1000}),
        ([*ratio, "--algorithm", "prop", "--svt-constant", "2", "--trials", "20"],
         {"svt_constant": 2.0, "enum_cap": 10**7, "trials": 20}),
        (["audit", "anti-concentration", "--lemma", "2.10", "--trials", "20"], {"gamma": 2.0}),
    ]:
        code, text, _ = run_cli(argv, capsys)
        assert code == 0
        parameters = json.loads(text)["parameters"]
        assert {key: parameters[key] for key in read} == read


def _leaf_paths(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in _leaf_paths(child, (*path, name))]


def test_every_leaf_command_is_covered_by_the_unread_flag_table():
    paths = _leaf_paths(cli.build_parser())
    assert len(paths) == 16
    for path in paths:
        assert any(tuple(argv[: len(path)]) == path for argv, _ in UNREAD_FLAGS), path


def test_run_parses_with_the_parser_built_at_import(tmp_path, capsys, monkeypatch):
    def rebuild():
        raise AssertionError("cli.run rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    path = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 0]])
    for argv in (["gen", "all-zero", "--n", "2", "--m", "3"],
                 ["oracle", "min-ef", "--instance", path],
                 ["audit", "sensitivity", "--which", "f"]):
        assert run_cli(argv, capsys)[0] == 0, argv


def test_battery_command_shapes_exit_zero(tmp_path):
    # The command shapes of the benchmark's audit_cli battery, at small trial counts.
    a = write_instance(tmp_path, "pair_a.json", [[1, 0, 1, 1], [0, 1, 1, 0]])
    b = write_instance(tmp_path, "pair_b.json", [[1, 1, 1, 1], [0, 1, 1, 0]])
    c = write_instance(tmp_path, "fair.json", [[1, 0, 1, 1, 0, 0, 1, 1],
                                               [0, 1, 1, 0, 1, 0, 0, 1],
                                               [1, 1, 0, 0, 0, 1, 1, 0]])
    trials = 80
    eps = ["--epsilon", "1.0", "--beta", "0.1"]
    pair = ["--instance1", a, "--instance2", b]
    g_fair = scoring_truncation_budget(8, 3, 1.0, 0.1)
    battery = [
        ["audit", "privacy-ratio", "--algorithm", "ef", *pair, "--trials", str(trials), *eps],
        ["audit", "privacy-ratio", "--algorithm", "prop", *pair, "--trials", str(trials // 4),
         *eps],
        ["audit", "privacy-ratio", "--exact", "--g", "2", *pair, *eps],
        ["audit", "fairness-rate", "--algorithm", "ef", "--instance", c, "--criterion", "EF",
         "--c", str(3 * g_fair // 2), "--trials", str(trials // 4), *eps],
        ["audit", "sensitivity", "--which", "f", "--n", "2", "--m", "3", "--g", "2"],
        ["audit", "sensitivity", "--which", "score", "--n", "2", "--m", "3", "--g", "2"],
        ["oracle", "min-ef", "--instance", c],
        ["sweep", "--ns", "2", "--ms", "4,5", "--epsilons", "1.0", "--betas", "0.1",
         "--algorithm", "ef", "--trials", str(trials // 40)],
        ["audit", "anti-concentration", "--lemma", "2.10", "--k", "100",
         "--trials", str(trials * 25)],
    ]
    for k, argv in enumerate(battery):
        out = tmp_path / f"report_{k}.json"
        assert cli.run([*argv, "--seed", "3", "--out", str(out)]) == 0, argv
        report = json.loads(out.read_text())
        assert report["seed"] == 3
        assert not {"seed", "out", "instance1", "instance2"} & report["parameters"].keys()


# ---------------------------------------------------------------------------
# the report path
# ---------------------------------------------------------------------------


def one_argv_per_leaf(tmp_path):
    i = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 0]])
    j = write_instance(tmp_path, "j.json", [[1, 0, 1], [0, 1, 1]])
    pair = ["--instance1", i, "--instance2", j]
    packing = ["--n", "3", "--m", "24", "--c", "1", "--T", "2"]
    return [
        ["allocate-ef", "--instance", i],
        ["allocate-prop", "--instance", i],
        ["oracle", "min-ef", "--instance", i],
        ["oracle", "min-prop", "--instance", i],
        ["oracle", "ef2-exists", "--instance", i],
        ["oracle", "em-dist", "--instance", i],
        ["gen", "bernoulli", "--n", "2", "--m", "3"],
        ["gen", "all-zero", "--n", "2", "--m", "3"],
        ["gen", "ef-packing", *packing, "--pick", "base"],
        ["gen", "prop-packing", *packing, "--pick", "2"],
        ["audit", "privacy-ratio", *pair, "--trials", "20"],
        ["audit", "group", *pair, "--exact"],
        ["audit", "sensitivity"],
        ["audit", "fairness-rate", "--instance", i, "--trials", "20", "--c", "3"],
        ["audit", "anti-concentration", "--trials", "200"],
        ["sweep", *GRID, "--trials", "2"],
    ]


def test_the_report_path_argv_table_covers_every_leaf(tmp_path):
    words = [
        tuple(word for word in argv[:2] if not word.startswith("-"))
        for argv in one_argv_per_leaf(tmp_path)
    ]
    assert sorted(words) == sorted(_leaf_paths(cli.build_parser()))


def test_handlers_return_their_body_and_write_nothing(tmp_path, capsys):
    for argv in one_argv_per_leaf(tmp_path):
        args = cli._PARSER.parse_args([*argv, "--seed", "3"])
        cli._refuse_ignored_flags(cli._PARSER, args)
        body, code = args.handler(args)
        captured = capsys.readouterr()
        assert captured.out == captured.err == "", argv
        assert code == cli.EXIT_OK, argv
        if argv[0] == "gen":
            assert isinstance(body, str), argv
        else:
            assert isinstance(body, dict), argv
            assert not {"command", "seed", "parameters", "timing"} & body.keys(), argv


def test_every_json_report_has_its_header_and_timing(tmp_path, capsys):
    for argv in one_argv_per_leaf(tmp_path):
        if argv[0] == "gen":
            continue
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli([*argv, "--seed", "3"], capsys)
        assert code == cli.EXIT_OK, argv
        assert run_cli([*argv, "--seed", "3", "--out", str(out)], capsys)[1] == ""
        for doc in (json.loads(stdout), json.loads(out.read_text())):
            assert doc["command"] == argv[0] and doc["seed"] == 3, argv
            assert isinstance(doc["parameters"], dict), argv
            assert doc["timing"]["runtime_ms"] >= 0, argv
        assert strip_timing(stdout) == strip_timing(out.read_text()), argv


def test_gen_output_is_bare_and_reads_as_an_instance(tmp_path, capsys):
    for argv in one_argv_per_leaf(tmp_path):
        if argv[0] != "gen":
            continue
        out = tmp_path / "instance.json"
        code, stdout, _ = run_cli([*argv, "--out", str(out)], capsys)
        assert code == cli.EXIT_OK and stdout == "", argv
        doc = json.loads(out.read_text())
        assert not {"command", "seed", "parameters", "timing"} & doc.keys(), argv
        assert cli.read_instance(str(out)).n == int(argv[argv.index("--n") + 1]), argv
    code, stdout, _ = run_cli(["gen", "ef-packing", "--n", "3", "--m", "12", "--c", "1"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(stdout).keys() == {"family", "params", "base", "variants"}


def test_runtime_ms_covers_the_instance_read(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 0]])
    read = cli.read_instance

    def slow_read(name):
        time.sleep(0.05)
        return read(name)

    monkeypatch.setattr(cli, "read_instance", slow_read)
    for argv in (["allocate-ef", "--instance", path], ["oracle", "min-ef", "--instance", path]):
        code, stdout, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_OK
        assert json.loads(stdout)["timing"]["runtime_ms"] >= 50


@pytest.mark.parametrize("kind", ["ef-packing", "prop-packing"])
def test_a_failed_packing_invariant_exits_one_writing_nothing(kind, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(cli.generators, "verify_packing_distances", lambda family: False)
    argv = ["gen", kind, "--n", "3", "--m", "24", "--c", "1"]
    out = tmp_path / "family.json"
    for extra in ([], ["--out", str(out)], ["--pick", "base", "--out", str(out)]):
        code, stdout, err = run_cli([*argv, *extra], capsys)
        assert code == cli.EXIT_AUDIT_FAILURE and stdout == ""
        assert "edit-distance invariant" in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes and determinism
# ---------------------------------------------------------------------------


def test_unparseable_instance_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["allocate-ef", "--instance", str(bad)], capsys)
    assert code == 2
    assert "line" in err


def test_missing_field_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "m": 3, "values": [[0, 0, 0], [0, 0, 0]]}))
    code, _, err = run_cli(["allocate-ef", "--instance", str(bad)], capsys)
    assert code == 2
    assert "scale" in err


def test_enum_cap_exceeded_exits_two_naming_the_cap(tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 1]])
    code, _, err = run_cli(
        ["allocate-ef", "--instance", path, "--enum-cap", "3"], capsys
    )
    assert code == 2
    assert "3" in err and "cap" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["allocate-ef", "--instance", "I", "--epsilon", "1e-18"], "epsilon"),
        (["allocate-ef", "--instance", "I", "--epsilon", "1e-320"], "epsilon"),
        (["allocate-prop", "--instance", "I", "--epsilon", "1e-320"], "epsilon"),
        (["allocate-prop", "--instance", "I", "--epsilon", "2.8e-16"], "epsilon"),
        (["oracle", "em-dist", "--instance", "I", "--epsilon", "1e-320"], "epsilon"),
        (["allocate-prop", "--instance", "I", "--beta", "1e-320"], "beta"),
        (["allocate-prop", "--instance", "I", "--svt-constant", "1e300"], "svt_constant"),
        (["sweep", "--ns", "2", "--ms", "4", "--epsilons", "1e-300", "--betas", "0.1"],
         "epsilon"),
        (["sweep", "--algorithm", "prop", "--ns", "2", "--ms", "4", "--epsilons", "1e-300",
          "--betas", "0.1"], "epsilon"),
    ],
)
def test_a_budget_past_the_integer_arithmetic_exits_two(argv, named, tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1, 1], [0, 1, 1, 0]])
    code, out, err = run_cli([path if arg == "I" else arg for arg in argv], capsys)
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["audit", "sensitivity", "--which", "score", "--n", "2", "--m", "0"], "m=0"),
        (["audit", "sensitivity", "--which", "f", "--n", "2", "--m", "0"], "m=0"),
        (["gen", "all-zero", "--n", "2", "--m", "-1"], "m=-1"),
        (["gen", "all-zero", "--n", "0", "--m", "2"], "n=0"),
    ],
)
def test_a_shape_with_no_cell_to_audit_or_a_negative_size_exits_two(argv, named, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and named in err


def test_anti_concentration_takes_a_large_k_and_rejects_one_past_numpy(capsys):
    argv = ["audit", "anti-concentration", "--lemma", "2.11", "--gamma", "3", "--k"]
    code, out, _ = run_cli([*argv, "20000"], capsys)
    assert code == 0 and json.loads(out)["result"]["passed"]
    code, out, err = run_cli([*argv, "100000000000000000000"], capsys)
    assert code == 2 and out == "" and "k=" in err


def test_usage_error_exits_two(capsys):
    assert run_cli(["allocate-ef"], capsys)[0] == 2  # missing --instance
    assert run_cli(["no-such-command"], capsys)[0] == 2


def test_csv_format_rejected_outside_sweep(tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0], [0, 1]])
    code, _, err = run_cli(
        ["allocate-ef", "--instance", path, "--format", "csv"], capsys
    )
    assert code == 2


NOT_INTEGERS = [
    ({"values": [[1, 0, 1], [0, 0.7, 0]]}, "values[1][1]"),
    ({"values": [[1, 0, True], [0, 1, 0]]}, "values[0][2]"),
    ({"scale": 1.9}, "scale"),
    ({"n": "2"}, "n"),
    ({"m": True}, "m"),
    ({"n": 1, "m": 2, "values": [[1, 1]], "kind": "general", "tables": [[0, 1.5, 1, 2]]},
     "tables[0][1]"),
]


@pytest.mark.parametrize("instance, name", NOT_INTEGERS, ids=[name for _, name in NOT_INTEGERS])
@pytest.mark.parametrize("command", [["oracle", "min-ef"], ["allocate-ef"]], ids=" ".join)
def test_instance_numbers_must_be_json_integers(instance, name, command, tmp_path, capsys):
    doc = {"n": 2, "m": 3, "scale": 1, "kind": "additive",
           "values": [[1, 0, 1], [0, 1, 0]], **instance}
    path = tmp_path / "i.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([*command, "--instance", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"{name} must be a JSON integer" in err


@pytest.mark.parametrize("argv", [
    ["allocate-ef", "--epsilon", "inf"],
    ["allocate-ef", "--epsilon", "nan"],
    ["allocate-prop", "--epsilon", "inf"],
    ["allocate-prop", "--svt-constant", "inf"],
    ["allocate-prop", "--svt-constant", "nan"],
], ids=" ".join)
def test_privacy_parameters_must_be_finite(argv, tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 0]])
    code, out, err = run_cli([*argv, "--instance", path], capsys)
    assert code == 2 and out == ""
    assert f"{argv[1][2:].replace('-', '_')} must be finite" in err


@pytest.mark.parametrize("flag,value,named", [
    ("--epsilon", "0", "epsilon must be positive and finite"),
    ("--epsilon", "-1", "epsilon must be positive and finite"),
    ("--epsilon", "inf", "epsilon must be positive and finite"),
    ("--epsilon", "nan", "epsilon must be positive and finite"),
    ("--c", "0", "argument --c: expected a positive integer"),
    ("--c", "-1", "argument --c: expected a positive integer"),
    ("--T", "0", "argument --T: expected a positive integer, got '0'"),
    ("--T", "-2", "argument --T: expected a positive integer, got '-2'"),
])
@pytest.mark.parametrize("kind", ["ef-packing", "prop-packing"])
def test_packing_inputs_exit_two_naming_their_flag(kind, flag, value, named, capsys):
    code, out, err = run_cli(["gen", kind, "--n", "3", "--m", "40", flag, value], capsys)
    assert code == 2 and out == ""
    assert named in err


def test_fairness_rate_c_must_be_non_negative(tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1], [0, 1, 0]])
    argv = ["audit", "fairness-rate", "--instance", path, "--trials", "5", "--c", "-1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "argument --c: expected a non-negative integer, got '-1'" in err


SEEDED = [
    ["gen", "all-zero", "--n", "2", "--m", "3"],
    ["audit", "sensitivity"],
    ["allocate-ef", "--instance", "i.json"],
]


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
@pytest.mark.parametrize("argv", SEEDED, ids=lambda argv: " ".join(argv[:2]))
def test_seed_must_be_a_non_negative_integer(argv, seed, capsys):
    code, out, err = run_cli([*argv, "--seed", seed], capsys)
    assert code == 2 and out == ""
    assert "--seed" in err and "non-negative integer" in err


@pytest.mark.parametrize("seed", ["-1", "abc", ""])
def test_an_invalid_seed_variable_exits_two_naming_it(seed, capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, seed)
    for argv in SEEDED:
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "", argv
        assert f"{cli.SEED_ENV_VAR}: expected a non-negative integer" in err
    # Neither help nor a run given --seed reads the variable.
    assert run_cli(["gen", "all-zero", "--help"], capsys)[0] == 0
    assert run_cli(["audit", "sensitivity", "--seed", "4"], capsys)[0] == 0


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
@pytest.mark.parametrize("argv", [
    ["gen", "all-zero", "--n", "2", "--m", "3"],
    ["audit", "sensitivity"],
], ids=lambda argv: " ".join(argv[:2]))
def test_an_unwritable_out_exits_two(argv, target, tmp_path, capsys):
    out = tmp_path / target
    code, text, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 2 and text == ""
    assert err.startswith("error: ") and str(out) in err


def test_seed_env_var_default(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, "i.json", [[1, 0], [0, 1]])
    # read on every call, not once when the parser is built
    for seed in (123, 45):
        monkeypatch.setenv(cli.SEED_ENV_VAR, str(seed))
        code, text, _ = run_cli(["allocate-ef", "--instance", path], capsys)
        assert code == 0
        assert json.loads(text)["seed"] == seed


def test_reports_replay_byte_identically(tmp_path, capsys):
    path = write_instance(tmp_path, "i.json", [[1, 0, 1, 1], [0, 1, 1, 0]])
    other = write_instance(tmp_path, "j.json", [[1, 0, 1, 1], [0, 1, 1, 1]])
    pair = ["--instance1", path, "--instance2", other]
    commands = [
        ["allocate-ef", "--instance", path, "--seed", "9", "--epsilon", "2"],
        ["allocate-prop", "--instance", path, "--seed", "9", "--epsilon", "1"],
        ["oracle", "em-dist", "--instance", path, "--epsilon", "1"],
        ["audit", "anti-concentration", "--lemma", "2.11", "--k", "100",
         "--gamma", "2", "--trials", "5000", "--seed", "4"],
        # one leaf in two modes, each filling _MODE_DEFAULTS differently
        ["audit", "privacy-ratio", *pair, "--exact", "--g", "2"],
        ["audit", "privacy-ratio", *pair, "--algorithm", "prop", "--trials", "40"],
        ["audit", "anti-concentration", "--lemma", "2.10", "--trials", "50"],
    ]
    # Forward, then backward: every leaf parses after a different one each time.
    first = {tuple(argv): run_cli(argv, capsys) for argv in commands}
    for argv in reversed(commands):
        code, text, _ = run_cli(argv, capsys)
        assert code == first[tuple(argv)][0] == 0, argv
        assert strip_timing(text) == strip_timing(first[tuple(argv)][1]), argv


def test_module_entry_point(tmp_path):
    # The child imports the same dpfair as this process, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpfair.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "i.json"
    result = subprocess.run(
        [sys.executable, "-m", "dpfair", "gen", "all-zero", "--n", "2", "--m", "2",
         "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(out.read_text())["values"] == [[0, 0], [0, 0]]
