"""Verification-suite front end: configs, reports, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diffalg import cli, ideals
from diffalg.cli import (
    SUITE_NAMES,
    CheckConfig,
    InvalidRank,
    Report,
    UnknownSuite,
    main,
    parse,
    run_suite,
    serialize,
)
from diffalg.ideals import IdealSpec, membership
from diffalg.poly import LaurentPoly, VarContext, parse_poly
from diffalg.weyl import RootData

ALL_SUITES = (
    "daha-relations",
    "shift-iso",
    "e-lambda",
    "abelian-zalg",
    "localization",
    "splitting",
    "factorization",
    "delta-bases",
    "ideal-membership",
    "spanning",
    "springer-module",
    "chain-example",
)

CTX2 = VarContext(2)


def test_registered_suite_names():
    assert SUITE_NAMES == ALL_SUITES


def test_config_validation():
    with pytest.raises(InvalidRank):
        CheckConfig("all", rank=0)
    with pytest.raises(InvalidRank):
        CheckConfig("all", rank="2")
    with pytest.raises(ValueError):
        CheckConfig("all", d_max=-1)
    for budget in (0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="budget must be a positive finite number"):
            CheckConfig("all", budget=budget)
    cfg = CheckConfig("splitting", seed=7)
    echo = cfg.echo()
    assert echo["suite"] == "splitting"
    assert echo["seed"] == 7
    assert "out" not in echo


def test_report_entry_validation():
    good = {"label": "x", "status": "pass", "witness": None}
    report = Report("demo", [good], {"suite": "demo"})
    assert report.all_pass()
    assert report.counts() == {"pass": 1, "fail": 0, "skipped": 0}
    with pytest.raises(ValueError):
        Report("demo", [{"label": "x", "status": "ok", "witness": None}], {})
    with pytest.raises(ValueError):
        Report("demo", [{"label": "x", "status": "fail", "witness": None}], {})


def test_empty_report_passes_vacuously():
    report = Report("demo", [], {})
    assert report.all_pass()
    assert parse(serialize(report)) == report


def test_serialize_parse_round_trip():
    entries = [
        {"label": "a", "status": "pass", "witness": None},
        {"label": "b", "status": "fail", "witness": "y1 - y2"},
        {"label": "c", "status": "skipped", "witness": "budget 1s exceeded"},
    ]
    report = Report("demo", entries, {"suite": "demo", "seed": 3}, wall_time=1.23)
    text = serialize(report)
    assert text.endswith("\n")
    again = parse(text)
    assert again == report
    assert again.wall_time is None  # wall time never survives serialization
    assert "wall" not in text


def test_unknown_suite_is_rejected():
    with pytest.raises(UnknownSuite):
        run_suite(CheckConfig("bogus"))


@pytest.mark.parametrize(
    "suite, label",
    [
        ("shift-iso", "shift identity (rank 1 has no coweights)"),
        ("e-lambda", "closed form (rank 1 is trivial)"),
    ],
)
def test_rank_one_has_one_placeholder_step_per_coweight_suite(suite, label):
    report = run_suite(CheckConfig(suite, rank=1))
    assert report.entries == [{"label": label, "status": "pass", "witness": None}]


def test_chain_example_suite_passes():
    report = run_suite(CheckConfig("chain-example"))
    assert report.all_pass()
    assert report.entries
    assert report.config["suite"] == "chain-example"
    assert report.wall_time is not None


def test_suite_entries_are_deterministic_bytes():
    cfg_a = CheckConfig("splitting", seed=11)
    cfg_b = CheckConfig("splitting", seed=11)
    assert serialize(run_suite(cfg_a)) == serialize(run_suite(cfg_b))


def test_seed_changes_are_visible_in_config_echo():
    a = serialize(run_suite(CheckConfig("splitting", seed=1)))
    b = serialize(run_suite(CheckConfig("splitting", seed=2)))
    assert a != b  # the echoed config differs even when all checks pass


def test_exhausted_budget_skips_steps():
    report = run_suite(CheckConfig("splitting", budget=1e-9))
    assert report.entries
    assert all(entry["status"] == "skipped" for entry in report.entries)
    assert all("budget" in entry["witness"] for entry in report.entries)
    assert not report.all_pass()


def _inject_failing_step(monkeypatch):
    """Append to chain-example a step whose membership test fails."""
    real = cli.SUITES["chain-example"]

    def suite(cfg, rng):
        def non_member():
            ok, witness = membership(LaurentPoly.one(CTX2), IdealSpec(RootData.type_a(2), 1))
            return ok, None if ok else witness["coefficient"]

        return real(cfg, rng) + [("non-member is rejected (expected failure)", non_member)]

    monkeypatch.setitem(cli.SUITES, "chain-example", suite)


def test_corrupt_run_reports_parseable_witness(monkeypatch):
    _inject_failing_step(monkeypatch)
    report = run_suite(CheckConfig("chain-example"))
    failing = [e for e in report.entries if e["status"] == "fail"]
    assert len(failing) == 1
    assert "expected failure" in failing[0]["label"]
    witness = failing[0]["witness"]
    assert parse_poly(witness, CTX2).is_constant()


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["verify", "daha-relations", "--rank", "0"]) == 2
    capsys.readouterr()
    assert main(["verify", "chain-example"]) == 0
    out = capsys.readouterr().out
    assert "suite chain-example" in out
    assert "[   pass]" in out
    _inject_failing_step(monkeypatch)
    assert main(["verify", "chain-example"]) == 1


def test_main_writes_report_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["verify", "chain-example", "--out", str(target)])
    assert code == 0
    loaded = parse(target.read_text())
    assert loaded.suite == "chain-example"
    assert loaded.all_pass()
    payload = json.loads(target.read_text())
    assert set(payload) == {"suite", "config", "entries"}


def test_matter_config_file_is_loaded(tmp_path):
    config = tmp_path / "matter.json"
    config.write_text(json.dumps([{"rank": 1, "characters": [[1]]}]))
    code = main(
        ["verify", "abelian-zalg", "--matter-config", str(config), "--seed", "5"]
    )
    assert code == 0


def test_dims_subcommand_prints_pinned_dimension(capsys):
    code = main(
        [
            "dims",
            "--rank",
            "2",
            "--d",
            "1",
            "--xmin",
            "0",
            "--xmax",
            "1",
            "--ymax",
            "1",
            "--basis",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dimension 5" in out
    assert "y1 - y2" in out


@pytest.mark.parametrize(
    "args, digest",
    [
        # Taylor rows at rank 3
        ("--rank 3 --d 1 --xmin 0 --xmax 1 --ymax 2", "bbf20027951b8c329c5555113d8748a998d1830e987763a4ca0763bd9a2fbc44"),
        # the x-clearing shift of a negative x_min
        ("--rank 2 --d 2 --xmin -1 --xmax 1 --ymax 2", "ecd9d9dc4e832984428601cd7f5af9c4afee1a024b623335fcef6dc2fc705466"),
        # no conditions: the basis is the unit vectors in column order
        ("--rank 2 --d 0 --kind B2 --xmin -1 --xmax 1 --ymax 2 --plain", "33b18b4e9c2e30aaa000008bb3ff70f244e9e9989913c003976426af52aa097d"),
        # a group acting by matrices that are not permutations
        ("--rank 2 --d 0 --kind G2 --xmin -1 --xmax 1 --ymax 3", "e91dcc280169cb0e7726e61269b7e96a0ad01a15155397b7546e184f356230da"),
        # rank-3 slices; digests taken from the dense Fraction elimination
        ("--rank 3 --d 1 --xmin 0 --xmax 2 --ymax 4", "a400c2d76922c7df0795919baec149307d01b0f136bffd131fdc14a332b4cabb"),
        ("--rank 3 --d 1 --xmin 0 --xmax 3 --ymax 4", "7a4908ca78be632712ea8fba6340f12cd8b35c3b46295bbda6761c91e48a1ddc"),
        ("--rank 3 --d 2 --xmin 0 --xmax 2 --ymax 5", "1edd0a2a004c63f2027b792573f16b9fb582d0f6991cbe1dad5a6a4eb5f61e28"),
        # isotypy rows of a group that is not type A; digest taken from the full-group projection
        ("--rank 2 --d 0 --kind B2 --xmin -1 --xmax 1 --ymax 3", "386853066971126b00d8c9683b8b0c7e303949c76f8ca13fa3f37a2bbeddf9a8"),
        # 5,376 monomials, near WINDOW_CAP; digest taken from the full-group projection
        ("--rank 3 --d 2 --xmin 0 --xmax 3 --ymax 6", "6c4b700e807a19b97485053546999971d165213fe8961d97adda51d0884059a1"),
    ],
    ids=[
        "taylor",
        "negative-xmin",
        "column-order",
        "g2",
        "rank3-d1-x2",
        "rank3-d1-x3",
        "rank3-d2-y5",
        "b2-isotypic",
        "rank3-d2-x3-y6",
    ],
)
def test_dims_basis_listing_is_pinned(capsys, args, digest):
    assert main(["dims", *args.split(), "--basis"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_dims_rejects_mismatched_kind_rank(capsys):
    assert main(["dims", "--rank", "3", "--d", "1", "--kind", "B2"]) == 2


def test_eval_subcommand_prints_an_operator(capsys):
    assert main(["eval", "--expr", "s1 y1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out
    assert main(["eval", "--expr", "pi (c + h)", "--rank", "3"]) == 0


def test_eval_cshift_substitutes_into_the_result(capsys):
    assert main(["eval", "--expr", "s1", "--rank", "2", "--cshift", "1"]) == 0
    assert capsys.readouterr().out == (
        "((-c - h) / (y1 - y2)) * u^[0,0] * [1,2]"
        " + ((y1 - y2 + c + h) / (y1 - y2)) * u^[0,0] * [2,1]\n"
    )


def test_crash_witness_names_where_it_was_raised(monkeypatch):
    def crash():
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.SUITES, "splitting", lambda cfg, rng: [("crashes", crash)])
    [entry] = run_suite(CheckConfig("splitting")).entries
    line = crash.__code__.co_firstlineno + 1
    assert entry["status"] == "fail"
    assert entry["witness"] == f"ZeroDivisionError: boom (at test_cli.py:{line})"


def test_broken_schur_route_fails_with_its_arithmetic_error(monkeypatch):
    # delta_S_schur raises ArithmeticError unless its result is proportional
    # to the direct determinant; the suite relies on that check alone
    monkeypatch.setattr(ideals, "schur_poly", lambda ctx, block, mu: LaurentPoly.y(ctx, block[0]) + 1)
    random_sets, showcase, _staircase = run_suite(CheckConfig("delta-bases")).entries
    for entry in (random_sets, showcase):
        assert entry["status"] == "fail"
        assert entry["witness"].startswith("ArithmeticError: ")
        assert "(at ideals.py:" in entry["witness"]


@pytest.mark.parametrize(
    "argv, matter, expect",
    [
        (["dims", "--kind", "B2", "--rank", "2", "--d", "1"], None, "B2"),
        (["dims", "--rank", "3", "--d", "1", "--xmax", "4", "--ymax", "6"], None, "10500"),
        (["dims", "--rank", "0", "--d", "1"], None, "rank must be a positive integer, got 0"),
        (["dims", "--rank", "-1", "--d", "1"], None, "rank must be a positive integer, got -1"),
        (["eval", "--expr", "s5 q", "--rank", "2"], None, "position"),
        (["verify", "chain-example", "--budget", "0"], None, "budget"),
        (["verify", "splitting", "--budget", "nan"], None, "finite"),
        (["verify", "abelian-zalg", "--matter-config"], None, "No such file"),
        (["verify", "abelian-zalg", "--matter-config"], "{not json", "line 1"),
        (["verify", "abelian-zalg", "--matter-config"], '{"rank": 1}', "'characters'"),
        (["verify", "abelian-zalg", "--matter-config"], "[1]", "malformed"),
        (["verify", "abelian-zalg", "--matter-config"], '{"rank": 1.5, "characters": [[1]]}', "rank must be an integer"),
        (["verify", "abelian-zalg", "--matter-config"], '{"rank": 1, "characters": [[1.5]]}', "entry must be an integer"),
        (["verify", "abelian-zalg", "--matter-config"], "[]", "at least one record"),
        (["verify", "splitting", "--matter-config"], "[" * 200_000 + "]" * 200_000, "recursion"),
        (["eval", "--rank", "2", "--expr", "s1 " + "(" * 5000 + "y1" + ")" * 5000], None, "recursion"),
    ],
    ids=[
        "root-data",
        "window",
        "dims-rank-0",
        "dims-rank-negative",
        "parse",
        "budget",
        "budget-nan",
        "no-file",
        "bad-json",
        "missing-key",
        "not-a-record",
        "fractional-rank",
        "fractional-character",
        "no-matter",
        "deep-json",
        "deep-parens",
    ],
)
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, argv, matter, expect):
    if argv[-1] == "--matter-config":
        path = tmp_path / "matter.json"
        if matter is not None:
            path.write_text(matter)
        argv = argv + [str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert expect in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_dims_rejects_a_large_window_before_building_the_group(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("the Weyl group was built")

    monkeypatch.setattr(RootData, "type_a", staticmethod(refuse))
    assert main(["dims", "--rank", "10", "--d", "1"]) == 2
    assert capsys.readouterr().err == "error: window has 67584 monomials (cap 6000)\n"


def test_dims_rejects_a_large_weyl_group_before_building_it(capsys, monkeypatch):
    # a one-monomial window passes the window check, but S_8 has 40320 elements
    def refuse(n):
        raise AssertionError("the Weyl group was built")

    monkeypatch.setattr(RootData, "type_a", staticmethod(refuse))
    assert main(["dims", "--rank", "8", "--xmax", "0", "--ymax", "0", "--d", "0"]) == 2
    assert capsys.readouterr().err == "error: the Weyl group of A8 has 40320 elements (cap 6000)\n"


def test_python_dash_m_runs_the_cli_without_warnings():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "diffalg", "verify", "splitting", "--rank", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "suite splitting: 1 pass, 0 fail" in done.stdout


def test_full_run_row_reduces_exact_scalars_only(monkeypatch):
    # LaurentPoly construction rejects floats itself; the row-reduction
    # rows are plain dicts {column: value} and bypass it.
    original = ideals.rref
    seen = []

    def check_entries(rows):
        for row in rows:
            assert all(type(col) is int for col in row), f"non-int column in {row!r}"
            for value in row.values():
                assert type(value) in (int, Fraction), f"inexact entry {value!r}"

    def checked_rref(rows):
        check_entries(rows)
        reduced, pivots = original(rows)
        check_entries(reduced)
        seen.append(len(rows))
        return reduced, pivots

    monkeypatch.setattr(ideals, "rref", checked_rref)
    report = run_suite(CheckConfig("all", seed=0))
    assert report.all_pass(), [e for e in report.entries if e["status"] != "pass"]
    assert seen


def test_seed_zero_report_is_pinned():
    # the canonical report of the default run: a changed verdict, witness or
    # entry order changes the digest
    text = serialize(run_suite(CheckConfig("all", seed=0)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2c42e77abdb57ca766633651a5bfccd0ae76b1005cb8c6eec710773383e66b02"
    )
