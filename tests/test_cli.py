import argparse
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mexstat import cli, mexcount, partitions, series, statistics
from mexstat.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_p_aa(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "p_aa", "--A", "2", "--a", "3", "--n", "6")
        assert code == 0
        assert "p_{2,3}(6) = 8" in out
        assert "enumeration" in out

    def test_method_flag_forces_route(self, capsys):
        for method in ("enum", "series", "recurrence"):
            code, out, _ = run_cli(
                capsys, "compute", "p_aa", "--A", "2", "--a", "3", "--n", "6",
                "--method", method,
            )
            assert code == 0
            assert "= 8" in out

    @pytest.mark.parametrize("kind", ["p_aa", "pbar_aa", "p"])
    @pytest.mark.parametrize("method", [None, "enum", "series", "recurrence"])
    def test_negative_n_is_refused_on_every_route(self, capsys, kind, method):
        argv = ["compute", kind, "--A", "2", "--a", "3", "--n", "-3"]
        code, out, err = run_cli(capsys, *argv, *(["--method", method] if method else []))
        assert (code, out) == (2, "")
        assert "n must be non-negative" in err

    def test_spt(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "spt", "--n", "5")
        assert code == 0
        assert "spt(5) = 14" in out

    def test_mex(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "mex", "--partition", "3,3", "--A", "2", "--a", "3"
        )
        assert code == 0
        assert "= 5" in out

    def test_partition_input_canonicalized(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "rank", "--partition", "1,4,2")
        assert code == 0
        assert "rank(4+2+1) = 1" in out

    def test_bad_partition_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "rank", "--partition", "3,0")
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0", "partition parts must be positive integers, got 0"),
            ("3,x", "cannot parse partition '3,x'; expected comma-separated integers"),
        ],
    )
    def test_bad_partition_names_the_fault(self, capsys, text, message):
        code, out, err = run_cli(capsys, "compute", "rank", "--partition", text)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"mexstat compute: error: argument --partition: {message}"

    def test_missing_args_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compute", "p_aa", "--A", "2")
        assert code == 2
        assert "requires" in err

    def test_json_values_are_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "M", "--m", "0", "--n", "1", "--method", "series",
            "--format", "json",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == "-1"
        assert isinstance(blob["value"], str)

    def test_moment_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "moment", "--stat", "rank", "--k", "2", "--n", "4"
        )
        assert code == 0
        assert "= 20" in out


# Each is past a documented cap; none may ever be run without one.
OVER_LIMIT_ARGVS = [
    ["compute", "goe", "--n", "120"],
    ["compute", "moment", "--stat", "rank", "--k", "2", "--n", "120"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "300000"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "5000"],
    ["compute", "pbar_aa", "--A", "2", "--a", "3", "--n", "2001", "--method", "series"],
    ["compute", "M", "--m", "0", "--method", "series", "--n", "3000"],
    ["compute", "N", "--m", "0", "--method", "series", "--n", "2500"],
    ["compute", "moment", "--stat", "crank", "--k", "2", "--n", "2001"],
    ["verify", "thm-2.1", "--max-n", "300000"],
    ["verify", "all", "--max-n", "6", "--max-n-series", "300000"],
    ["compute", "p", "--n", "3000000"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "10000000", "--method", "recurrence"],
    ["compute", "pbar_aa", "--A", "2", "--a", "3", "--n", "50001", "--method", "recurrence"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "71", "--method", "enum"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "2001", "--method", "series"],
    ["compute", "pbar_aa", "--A", "2", "--a", "3", "--n", "71", "--method", "enum"],
    ["compute", "N", "--m", "0", "--method", "combinatorial", "--n", "71"],
    ["compute", "M", "--m", "0", "--method", "combinatorial", "--n", "71"],
    ["compute", "spt", "--n", "71"],
]

# compute kinds that read one given partition and so have no size to cap
NO_SIZE_LIMIT = {"rank", "crank", "mex"}


def test_every_compute_route_has_an_over_limit_case():
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices["compute"]
    actions = {a.dest: a for a in sub._actions}
    covered = {tuple(argv[1:2]) for argv in OVER_LIMIT_ARGVS if argv[0] == "compute"}
    for argv in OVER_LIMIT_ARGVS:
        if "--method" in argv:
            covered.add((argv[1], argv[argv.index("--method") + 1]))
    routes = {(kind,) for kind in actions["kind"].choices if kind not in NO_SIZE_LIMIT}
    # the --method help reads "p_aa/pbar_aa: enum|series|recurrence; N/M: ..."
    for clause in actions["method"].help.split(";"):
        kinds, methods = (part.strip() for part in clause.split(":"))
        routes |= {(kind, method) for kind in kinds.split("/") for method in methods.split("|")}
    assert routes - covered == set()


class DeadlinePassed(BaseException):
    """Raised by SIGALRM; a BaseException so the CLI's error handling lets it through."""


class TestOverLimitInputs:
    """Inputs past a documented cap exit 2 at once instead of running unbounded.

    A SIGALRM deadline stops the call if a cap goes missing, so a regression
    fails in half a second instead of running the over-limit input.
    """

    @pytest.fixture(autouse=True)
    def deadline(self):
        def expire(signum, frame):
            raise DeadlinePassed

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("argv", OVER_LIMIT_ARGVS)
    def test_rejected_fast(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("MEXSTAT_MAX_PRECISION", raising=False)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert time.perf_counter() - start < 0.5
        assert "cap" in err

    def test_series_route_follows_the_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MEXSTAT_MAX_PRECISION", "80")
        argv = ["compute", "p_aa", "--A", "2", "--a", "3", "--n"]
        code, out, _ = run_cli(capsys, *argv, "80")
        assert code == 0 and "method: series" in out
        code, _, err = run_cli(capsys, *argv, "81")
        assert code == 2 and "cap 80" in err


class TestParserReuse:
    """``main`` keeps one parser per process; consecutive calls share no state."""

    P_AA = ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "6"]

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []

        def counting_build():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        assert run_cli(capsys, *self.P_AA)[0] == 0
        assert run_cli(capsys, "compute", "p", "--n", "5")[0] == 0
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_method_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, *self.P_AA, "--method", "recurrence")
        assert code == 0 and "method: recurrence" in out
        code, out, _ = run_cli(capsys, *self.P_AA)
        assert code == 0 and "p_{2,3}(6) = 8" in out and "method: enumeration" in out

    def test_format_does_not_carry_over(self, capsys):
        code, out, _ = run_cli(capsys, *self.P_AA, "--format", "json")
        assert code == 0 and json.loads(out)["value"] == "8"
        code, out, _ = run_cli(capsys, *self.P_AA)
        assert code == 0 and out == "p_{2,3}(6) = 8\nmethod: enumeration\n"

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run_cli(capsys, "compute", "nonsense-kind", "--n", "5")
        assert code == 2 and out == "" and "invalid choice" in err
        code, out, _ = run_cli(capsys, "compute", "p", "--n", "20")
        assert code == 0 and "p(20) = 627" in out

    def test_capacity_error_then_valid_call(self, capsys):
        code, out, err = run_cli(capsys, "compute", "p", "--n", "3000000")
        assert code == 2 and out == "" and "cap" in err
        code, out, _ = run_cli(capsys, "compute", "p", "--n", "20")
        assert code == 0 and "p(20) = 627" in out


# Each argv gives the same namespace, or the same output and exit code, when its
# first token goes straight to the subcommand's parser as through argparse's own path.
PARSER_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "compute"],
    ["nonsense"],
    ["--bogus", "compute", "p", "--n", "5"],
    ["--", "compute", "p", "--n", "5"],
    ["compute"],
    ["compute", "-h"],
    ["compute", "p", "--he"],
    ["compute", "p", "--n", "5"],
    ["compute", "p", "--n"],
    ["compute", "p", "--n", "x"],
    ["compute", "p", "--n", "-1"],
    ["compute", "nonsense-kind", "--n", "5"],
    ["compute", "N", "--m", "-3", "--n", "10"],
    ["compute", "M", "--m", "-3", "--n", "10", "--method", "series", "--form", "json"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "6", "--method", "recurrence"],
    ["compute", "moment", "--stat", "rank", "--k", "2", "--n", "4", "--format", "csv"],
    ["compute", "moment", "--stat", "mean", "--k", "2", "--n", "4"],
    ["compute", "rank", "--partition", "5,3,1"],
    ["compute", "rank", "--partition", "0"],
    ["compute", "p", "--n", "5", "--bogus"],
    ["compute", "p", "--n", "5", "extra", "--bogus", "x"],
    ["compute", "--", "p"],
    ["compute", "p", "--n", "5", "--"],
    ["compute", "p", "--", "--n", "5"],
    ["table", "1"],
    ["table", "4"],
    ["table", "-h"],
    ["series", "--help"],
    ["series", "euler", "--precision", "5", "--format", "json"],
    ["series", "theta", "--quadratic", "-1,0,0"],
    ["series", "theta", "--quadratic=-1,0,0", "--n-start", "-2"],
    ["series", "jtp", "--k", "1", "--i", "1", "--parity", "even", "--side", "product"],
    ["verify", "thm-2.1", "--max-n", "5"],
    ["verify", "all", "--max-n", "-1"],
    ["verify"],
    ["list-identities"],
    ["list-identities", "--format", "csv"],
    ["list-identities", "x"],
    # at the edges of the plain-argv reader
    ["compute", "--n", "5", "p"],
    ["compute", "p", "--n", "5", "--n", "6"],
    ["compute", "p", "--n", "--n", "5"],
    ["compute", "p", "--n", "-1.5"],
    ["compute", "N", "--n", "10", "--m", "-3"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "6", "--method", "-x"],
    ["compute", "p", "--n", "-"],
    ["compute", "-", "--n", "5"],
    ["compute", "p", "--n", ""],
    ["compute", "p", "--n", "5", "--format=json"],
    ["compute", "p", "--n", "5", "--fo", "json"],
    ["compute", "p", "--n", "5", "--format", "xml"],
    ["compute", "p", "--n", "5", "--format"],
    ["compute", "p", "--n", "5", "-h"],
    ["compute", "p", "--n", "5", "-h", "x"],
    ["table", "-1"],
    ["table", "2", "--format", "csv"],
    ["series", "F", "--A", "2", "--a", "3", "--precision", "10"],
    ["series", "residue-product", "--modulus", "4", "--residues", "2", "--sign", "plus"],
    ["series", "jtp", "--k", "1", "--i", "1", "--parity", "none"],
    ["verify", "all", "--max-n", "6", "--max-n-series", "8", "--format", "json"],
    ["verify", "thm-2.1", "--max-n-series", "5"],
]

# one argv per compute kind, in the form the queries workload sends them
CANONICAL_COMPUTE = [
    ["compute", "p_aa", "--format", "json", "--A", "2", "--a", "3", "--n", "40"],
    ["compute", "pbar_aa", "--format", "json", "--A", "7", "--a", "4", "--n", "900"],
    ["compute", "p", "--format", "json", "--n", "20000"],
    ["compute", "spt", "--format", "json", "--n", "30"],
    ["compute", "rank", "--format", "json", "--partition", "4,2,1"],
    ["compute", "crank", "--format", "json", "--partition", "3,1,1"],
    ["compute", "mex", "--format", "json", "--A", "2", "--a", "3", "--partition", "3,3"],
    ["compute", "N", "--format", "json", "--n", "12", "--m", "-5"],
    ["compute", "M", "--format", "json", "--n", "250", "--m", "6", "--method", "series"],
    ["compute", "moment", "--format", "json", "--n", "40", "--stat", "crank", "--k", "2"],
    ["compute", "goe", "--format", "json", "--n", "44"],
]
PARSER_CORPUS += CANONICAL_COMPUTE

# the corpus argvs read off the subparser's actions, without argparse's matcher
READ_PLAIN = CANONICAL_COMPUTE + [
    ["compute", "p", "--n", "5"],
    ["compute", "p", "--n", "-1"],
    ["compute", "N", "--m", "-3", "--n", "10"],
    ["compute", "p_aa", "--A", "2", "--a", "3", "--n", "6", "--method", "recurrence"],
    ["compute", "moment", "--stat", "rank", "--k", "2", "--n", "4", "--format", "csv"],
    ["compute", "rank", "--partition", "5,3,1"],
    ["table", "1"],
    ["series", "euler", "--precision", "5", "--format", "json"],
    ["series", "jtp", "--k", "1", "--i", "1", "--parity", "even", "--side", "product"],
    ["verify", "thm-2.1", "--max-n", "5"],
    ["verify", "all", "--max-n", "-1"],
    ["compute", "p", "--n", "5", "--n", "6"],
    ["compute", "N", "--n", "10", "--m", "-3"],
    ["table", "2", "--format", "csv"],
    ["series", "F", "--A", "2", "--a", "3", "--precision", "10"],
    ["series", "residue-product", "--modulus", "4", "--residues", "2", "--sign", "plus"],
    ["verify", "all", "--max-n", "6", "--max-n-series", "8", "--format", "json"],
    ["verify", "thm-2.1", "--max-n-series", "5"],
]


def _parse_outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            namespace, code = None, exc.code
    return namespace, out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_the_subcommand_shortcut_parses_as_argparse_does(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    inherited = build_parser()
    inherited.commands = {}  # every argv takes argparse's own path
    shortcut = _parse_outcome(build_parser(), argv)
    assert shortcut == _parse_outcome(inherited, argv)
    if argv[:1] == ["compute"] and shortcut[0] is not None:
        assert shortcut[0]["command"] == "compute"


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_only_plain_argvs_skip_argparse_matcher(argv, monkeypatch):
    matched = []
    match = argparse.ArgumentParser._parse_known_args

    def spy(parser, *args, **kwargs):
        matched.append(parser.prog)
        return match(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", spy)
    _parse_outcome(build_parser(), argv)
    assert (matched == []) == (argv in READ_PLAIN)


def test_planned_argvs_read_no_private_argparse_name(monkeypatch):
    inherited = build_parser()
    inherited.commands = {}  # every argv takes argparse's own path
    expected = [inherited.parse_args(argv) for argv in READ_PLAIN]
    parser = build_parser()
    assert parser.plans == {}  # built on the first parse of each subcommand
    first = [parser.parse_args(argv) for argv in READ_PLAIN]
    plans = dict(parser.plans)
    assert sorted(plans) == ["compute", "series", "table", "verify"]

    def forbidden(*args, **kwargs):
        raise AssertionError("a planned parse used argparse's own reader")

    for name in ("_get_value", "_check_value", "_parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, forbidden)
    private = []
    get = object.__getattribute__

    def spy(obj, name):
        if name[:1] == "_" and name[:2] != "__":
            private.append(name)
        return get(obj, name)

    monkeypatch.setattr(argparse.ArgumentParser, "__getattribute__", spy)
    again = [parser.parse_args(argv) for argv in READ_PLAIN]
    monkeypatch.undo()
    assert private == []
    assert again == first == expected
    assert all(parser.plans[name] is plan for name, plan in plans.items())  # kept, not rebuilt


def test_the_command_table_plans_every_subcommand_with_a_positional():
    # a plan takes "-" then digits for a value, as argparse does while no option
    # string could be read as a negative number (every such form starts r"-\.?\d")
    flags = [flag for _, _, arguments in cli._COMMANDS.values() for flag, _ in arguments]
    assert not [flag for flag in flags if re.match(r"-\.?\d", flag)]
    planned = [name for name in build_parser().commands if cli._Plan.of(name) is not None]
    assert sorted(planned) == ["compute", "series", "table", "verify"]


SUBPARSERS = build_parser().commands
VALUES = st.one_of(
    st.integers(-50, 50).map(str),
    st.sampled_from(["-1.5", "2.5", "-", "--", "3,1", "0", ""]),
    st.sampled_from(["json", "csv", "rank", "series", "recurrence", "plus", "odd", "x"]),
)


def _likely(action):
    return st.sampled_from([str(c) for c in action.choices or ["2", "5", "-3", "all", "-x", "--"]])


FOREIGN = sorted({s for p in SUBPARSERS.values() for a in p._actions for s in a.option_strings})
EDITS = ["none", "drop", "move", "replace", "insert", "abbreviate", "join", "foreign"]


@st.composite
def argvs(draw):
    """A plain subcommand argv -- the positional from its choices, then exact
    options of the subcommand with one likely value each -- with at most one
    edit at the reader's edges: a token dropped, moved, replaced by a drawn
    value or preceded by one, or an option abbreviated, ``=``-joined to its
    value or swapped for any subcommand's option (``-h`` among them)."""
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [a for a in SUBPARSERS[command]._actions if type(a) is argparse._StoreAction]
    options = [a for a in actions if a.option_strings]
    positionals = [a for a in actions if not a.option_strings] or options
    tokens = [draw(_likely(positionals[0]))]
    for _ in range(draw(st.integers(0, 4))):
        action = draw(st.sampled_from(options))
        tokens += [draw(st.sampled_from(action.option_strings)), draw(_likely(action))]
    edit, i = draw(st.sampled_from(EDITS)), draw(st.integers(0, len(tokens) - 1))
    if edit == "drop":
        del tokens[i]
    elif edit == "move":
        tokens.insert(draw(st.integers(0, len(tokens) - 1)), tokens.pop(i))
    elif edit in ("replace", "insert"):
        tokens[i : i + (edit == "replace")] = [draw(VALUES)]
    elif len(tokens) > 1:  # an edit of one option, at an odd index
        i = 2 * draw(st.integers(0, len(tokens) // 2 - 1)) + 1
        if edit == "abbreviate":
            tokens[i] = tokens[i][: draw(st.integers(2, len(tokens[i])))]
        elif edit == "join":
            tokens[i : i + 2] = [f"{tokens[i]}={tokens[i + 1]}"]
        elif edit == "foreign":
            tokens[i] = draw(st.sampled_from(FOREIGN))
    return [command, *tokens]


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_drawn_argvs_parse_as_argparse_does(argv):
    inherited = build_parser()
    inherited.commands = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _parse_outcome(build_parser(), argv) == _parse_outcome(inherited, argv)


def test_series_point_queries_read_only_the_partition_series(monkeypatch, capsys):
    # the recurrence route (p_count) stays independent, and no whole row is built
    def forbidden(*args, **kwargs):
        raise AssertionError("a series point query must not use this")

    for module, name in [
        (partitions, "p_count"),
        (mexcount, "_series_row"),
        (statistics, "theta_quotient"),
        (series, "rank_generating_series"),
        (series, "crank_generating_series"),
        (series.TruncatedSeries, "__mul__"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    queries = [
        ["p_aa", "--A", "2", "--a", "3", "--n", "500", "--method", "series"],
        ["pbar_aa", "--A", "7", "--a", "4", "--n", "71"],
        ["N", "--m", "-4", "--n", "300", "--method", "series"],
        ["M", "--m", "6", "--n", "250", "--method", "series"],
        ["moment", "--stat", "crank", "--k", "2", "--n", "400"],
    ]
    answers = []
    for query in queries:
        code, out, err = run_cli(capsys, "compute", *query, "--format", "json")
        assert code == 0, err
        answers.append(int(json.loads(out)["value"]))
    monkeypatch.undo()
    assert answers == [
        mexcount.p_mex_series(statistics.MexParams(2, 3), 500)[500],
        mexcount.pbar_mex_series(statistics.MexParams(7, 4), 71)[71],
        series.rank_generating_series(4, 300).coeff(300),
        series.crank_generating_series(6, 250).coeff(250),
        2 * 400 * partitions.p_count(400),
    ]


def test_series_f_builds_its_row_without_caching_it(capsys):
    rng = random.Random(3)
    pairs = [(A, a) for A in range(1, 11) for a in range(1, 11)]
    keys = rng.sample([(expr, A, a) for expr in ("F", "Fbar") for A, a in pairs], 25)
    mexcount._series_row.cache_clear()
    printed = []
    for expr, A, a in keys:
        precision = rng.randint(0, 300)
        argv = ["series", expr, "--A", str(A), "--a", str(a), "--precision", str(precision)]
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        printed.append((expr, A, a, precision, json.loads(out)))
    assert mexcount._series_row.cache_info().currsize == 0
    for expr, A, a, precision, out in printed:
        row = (mexcount.pbar_mex_series if expr == "Fbar" else mexcount.p_mex_series)(
            statistics.MexParams(A, a), precision
        )
        assert out["expr"] == f"{expr}_{{{A},{a}}}" and out["precision"] == precision
        assert out["coefficients"] == [str(c) for c in row]


def _sweep(rng):
    """A shuffled sweep of compute queries: every stat kind at n <= 70, series
    crank counts at n <= 300, series mex counts at n <= 600, and many keys on
    the series route: 1000 distinct (A, a, bar) at n in 71..300 and N and M at
    400 distinct (stat, |m|)."""
    queries = []
    for n in range(1, 71):
        m, k = rng.randint(-n, n), rng.randint(0, 4)
        queries += [
            ["spt", "--n", n],
            ["goe", "--n", n],
            ["N", "--m", m, "--n", n],
            ["M", "--m", m, "--n", n],
            ["moment", "--stat", "rank", "--k", k, "--n", n],
            ["moment", "--stat", "crank", "--k", k, "--n", n],
        ]
    for n in range(10, 301, 10):
        queries.append(["M", "--m", rng.randint(-n, n), "--n", n, "--method", "series"])
    for n in range(20, 601, 20):
        A, a = rng.randint(1, 10), rng.randint(1, 15)
        queries.append(["p_aa", "--A", A, "--a", a, "--n", n, "--method", "series"])
    kinds = ("p_aa", "pbar_aa")
    mex_keys = [(kind, A, a) for kind in kinds for A in range(1, 31) for a in range(1, 26)]
    for kind, A, a in rng.sample(mex_keys, 1000):
        n = rng.randint(71, 300)
        queries.append([kind, "--A", A, "--a", a, "--n", n, "--method", "series"])
    for kind in ("N", "M"):
        for m in range(200):
            n = rng.randint(max(m, 1), 300)
            queries.append([kind, "--m", rng.choice([m, -m]), "--n", n, "--method", "series"])
    rng.shuffle(queries)
    return [["compute", *map(str, query)] for query in queries]


def test_a_query_sweep_stays_within_a_memory_bound():
    queries = _sweep(random.Random(1))
    # from cold caches, so that the peak counts all that the sweep builds and keeps
    for cached in (
        statistics._stat_census,
        mexcount.mex_census,
        mexcount._series_row,
        series.partition_generating_series,
        series.rank_generating_series,
        series.crank_generating_series,
    ):
        cached.cache_clear()
    # answers go to the null device: a buffer that kept them would grow with the sweep
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        main(["compute", "p", "--n", "5"])  # the parser, built once per process
        tracemalloc.start()
        try:
            codes = {main(argv) for argv in queries}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert codes == {0}
    # measured 0.38-0.40 MB over seeds 1-5 (CPython 3.11), most of it the census
    # build, and one 1/(q)_inf row, whatever the number of keys.  A row per series
    # key took 8.9-9.2 MB
    assert peak < 500_000


class TestTables:
    @pytest.mark.parametrize("table_id", [1, 2, 3])
    def test_golden_csv(self, capsys, table_id):
        code, out, _ = run_cli(capsys, "table", str(table_id), "--format", "csv")
        assert code == 0
        golden = (GOLDEN / f"table{table_id}.csv").read_text()
        assert out == golden

    def test_table_one_text_totals(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1")
        assert code == 0
        assert out.count("\n") >= 12  # 11 partition rows
        assert "p_2_3(6) = 8" in out
        assert "pbar_2_3(6) = 3" in out

    def test_table_three_row_four(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "--format", "csv")
        assert "4,3,3,4,3,4,4,5,4,5,5,10" in out

    def test_table_two_row_six(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "--format", "csv")
        assert "6,5,6,3,4," in out

    def test_bad_table_id(self, capsys):
        code, _, _ = run_cli(capsys, "table", "4")
        assert code == 2

    def test_csv_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "table", "2", "--format", "csv")
        _, second, _ = run_cli(capsys, "table", "2", "--format", "csv")
        assert first == second


class TestSeries:
    def test_euler_text(self, capsys):
        code, out, _ = run_cli(capsys, "series", "euler", "--precision", "7")
        assert code == 0
        values = [line.split(": ")[1] for line in out.strip().splitlines()]
        assert values == ["1", "-1", "-1", "0", "0", "1", "0", "1"]

    def test_f_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "F", "--A", "3", "--a", "2", "--precision", "5",
            "--format", "json",
        )
        blob = json.loads(out)
        assert blob["coefficients"] == ["1", "1", "1", "2", "3", "4"]

    def test_f_precision_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "F", "--A", "1", "--a", "1", "--precision", "0",
            "--format", "json",
        )
        assert json.loads(out)["coefficients"] == ["1"]

    def test_residue_product(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "residue-product", "--modulus", "4", "--residues", "2",
            "--precision", "6", "--format", "json",
        )
        assert json.loads(out)["coefficients"] == ["1", "0", "-1", "0", "0", "0", "-1"]

    def test_theta_quadratic(self, capsys):
        # exponent n^2 -> P,Q,R = 2,0,0
        code, out, _ = run_cli(
            capsys, "series", "theta", "--quadratic", "2,0,0", "--precision", "3",
            "--format", "json",
        )
        assert json.loads(out)["coefficients"] == ["1", "-1", "0", "0"]

    def test_theta_quadratic_that_dips_before_it_grows(self, capsys):
        # (2n^2 - 200n + 5000)/2 = (n - 50)^2: terms at n = 46..54 only
        code, out, _ = run_cli(
            capsys, "series", "theta", "--quadratic", "2,-200,5000", "--precision", "20",
            "--format", "json",
        )
        expected = {0: 1, 1: -2, 4: 2, 9: -2, 16: 2}
        assert json.loads(out)["coefficients"] == [str(expected.get(e, 0)) for e in range(21)]

    @pytest.mark.parametrize("quadratic", ["0,0,0", "-2,0,100", "0,-2,100"])
    def test_theta_degenerate_triple_exits_2_at_once(self, capsys, quadratic):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "series", "theta", f"--quadratic={quadratic}")
        assert code == 2 and out == "" and "growing" in err
        assert time.perf_counter() - start < 0.2

    def test_theta_spaced_negative_triple_reaches_validation(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "series", "theta", "--quadratic", "-1,0,0")
        assert code == 2 and out == "" and "growing" in err
        assert time.perf_counter() - start < 0.5

    def test_jtp(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "jtp", "--k", "1", "--i", "1", "--parity", "odd",
            "--side", "product", "--precision", "7", "--format", "json",
        )
        assert json.loads(out)["coefficients"] == ["1", "-1", "-1", "0", "0", "1", "0", "1"]

    def test_precision_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("MEXSTAT_MAX_PRECISION", "10")
        code, _, err = run_cli(capsys, "series", "euler", "--precision", "11")
        assert code == 2
        assert "cap" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "euler", "--precision", "2", "--format", "csv"
        )
        assert out == "exponent,coefficient\n0,1\n1,-1\n2,-1\n"


class TestVerifyCommand:
    def test_single_identity_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm-3.1", "--max-n", "50")
        assert code == 0
        assert out.startswith("pass")

    def test_unknown_id_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nonsense-id")
        assert code == 2
        assert "unknown identity" in err

    def test_all_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-n", "6", "--format", "json"
        )
        assert code == 0
        blob = json.loads(out)
        assert all(r["status"] == "pass" for r in blob)
        assert {r["id"] for r in blob} >= {"thm-3.1", "cor-3.9", "thm-2.11"}

    def test_all_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "5", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "id,n_from,n_to,status,num_failures"

    @pytest.mark.parametrize(
        "bounds", [["--max-n", "-5"], ["--max-n", "6", "--max-n-series", "-3"]]
    )
    def test_all_with_a_negative_bound_exits_2(self, capsys, bounds):
        code, out, err = run_cli(capsys, "verify", "all", *bounds)
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_one_check_refuses_the_series_bound_of_all(self, capsys):
        # it bounded nothing: thm-2.1 ran over n = 0..50 and exited 0
        code, out, err = run_cli(capsys, "verify", "thm-2.1", "--max-n-series", "5")
        assert (code, out) == (2, "")
        assert "--max-n" in err.replace("--max-n-series", "")

    def test_all_at_zero_checks_each_first_value(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "0")
        assert code == 0
        assert out.startswith("pass  thm-3.1             n=1..1")

    def test_capacity_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "cor-3.4", "--max-n", "200")
        assert code == 2
        assert "enumeration" in err


class TestListIdentities:
    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "list-identities", "--format", "json")
        assert code == 0
        blob = json.loads(out)
        ids = {entry["id"] for entry in blob}
        assert "thm-3.1" in ids and "lemma-a-gt-n" in ids
        assert all("valid_from" in e and "description" in e for e in blob)

    def test_text_listing(self, capsys):
        code, out, _ = run_cli(capsys, "list-identities")
        assert code == 0
        assert "thm-3.13" in out


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "mexstat", "compute", "p", "--n", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "627" in proc.stdout


SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(*args):
    """Run a fresh interpreter on this checkout's sources; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_importing_the_cli_loads_only_the_compute_modules():
    # a point query is one fresh process: the catalog, the tables and
    # dataclasses (with inspect) would cost more to import than the query
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mexstat.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"mexstat.identities", "mexstat.tables", "dataclasses", "inspect"}
    compute = {"limits", "series", "partitions", "statistics", "mexcount"}
    assert {f"mexstat.{m}" for m in compute} <= loaded


@pytest.mark.parametrize(
    "code",
    [
        "import mexstat\nfor name in mexstat.__all__:\n    getattr(mexstat, name)\n",
        "import mexstat\nfrom mexstat import *\n"
        "assert [n for n in mexstat.__all__ if n not in globals()] == []\n",
    ],
    ids=["attributes", "star-import"],
)
def test_every_public_name_resolves_in_a_fresh_process(code):
    proc = _fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["verify", "thm-3.1", "--max-n", "10"], "pass"),
        (["table", "1"], "mex_2_3"),
        (["list-identities"], "thm-3.13"),
    ],
)
def test_subcommands_that_import_on_demand_run_in_a_fresh_process(argv, shown):
    proc = _fresh_python("-m", "mexstat", *argv)
    assert proc.returncode == 0, proc.stderr
    assert shown in proc.stdout
