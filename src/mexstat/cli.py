"""Command-line front end: compute, table, series, verify, list-identities.

Exit codes: 0 success (all verifications pass), 1 verification failure,
2 usage error.  Every number printed is an exact decimal string.

Importing this module loads only what ``compute`` and ``series`` read; the
identity catalog (``verify``, ``list-identities``) and the reference tables
(``table``) are imported by their subcommands, since a point query is one
fresh process and their import would cost more than the query.

Each subcommand's help, handler and arguments are declared once, in
``_COMMANDS``.  ``build_parser`` adds those arguments to argparse's parser,
built once per process, and a plain subcommand argv (``compute p --n 5
--format json``: the positional, then exact ``--option value`` pairs) is read
by that subcommand's parse plan, taken from the same entry on its first
parse: dict lookups, the values' ``type`` calls and one namespace, reading no
private argparse name.  That is about 4 us a parse (``bench/layers.py``
``cli.parse.compute``: 3-6 ms for the 1000 argvs of the queries workload,
against 56-61 ms through argparse's matcher; 2-core x86_64 host, CPython
3.11); a series point read then takes 20-30 us (``point.p_aa.2000``, with
the 1/(q)_inf row held).  Every other argv, and every error, takes
argparse's whole path from the top-level parser.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import mexcount, partitions, statistics
from .limits import ENUMERATION_CAP, CapacityError, check_precision
from .arith import ResidueCondition, TruncatedSeries
from .series import (
    alternating_theta,
    euler_product,
    jtp_specialized,
    residue_product,
    theta_quotient,
)
from .statistics import MexParams


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        return partitions.as_partition(_parse_int_list(text, "partition"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_int_list(text: str, label: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {label} {text!r}; expected comma-separated integers")


def _require(args: argparse.Namespace, names: list[str], kind: str) -> None:
    missing = [n for n in names if getattr(args, n.lstrip("-").replace("-", "_"), None) is None]
    if missing:
        raise ValueError(f"'{kind}' requires {', '.join('--' + m for m in missing)}")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _compute_value(args: argparse.Namespace) -> tuple[str, str, str]:
    """Returns (label, value string, method string) for the requested quantity."""
    kind = args.kind
    if kind in ("p_aa", "pbar_aa"):
        _require(args, ["A", "a", "n"], kind)
        if args.n < 0:
            raise ValueError("n must be non-negative")
        params = MexParams(args.A, args.a)
        method = args.method or ("enum" if args.n <= ENUMERATION_CAP else "series")
        barred = kind == "pbar_aa"
        if method == "enum":
            value = (mexcount.pbar_mex_enum if barred else mexcount.p_mex_enum)(params, args.n)
            method_name = "enumeration"
        elif method == "series":
            check_precision(args.n)
            value = mexcount.mex_series_at(params, args.n, barred)
            method_name = "series"
        elif method == "recurrence":
            value = (mexcount.pbar_mex_recurrence if barred else mexcount.p_mex_recurrence)(
                params, args.n
            )
            method_name = "recurrence"
        else:
            raise ValueError(f"unknown method {method!r}")
        name = "pbar" if barred else "p"
        return f"{name}_{{{args.A},{args.a}}}({args.n})", str(value), method_name
    if kind == "p":
        _require(args, ["n"], kind)
        if args.n < 0:
            raise ValueError("n must be non-negative")
        return f"p({args.n})", str(partitions.p_count(args.n)), "pentagonal recurrence"
    if kind == "spt":
        _require(args, ["n"], kind)
        return f"spt({args.n})", str(statistics.spt_direct(args.n)), "enumeration"
    if kind in ("rank", "crank"):
        _require(args, ["partition"], kind)
        fn = statistics.rank if kind == "rank" else statistics.crank
        label = f"{kind}({partitions.format_partition(args.partition)})"
        return label, str(fn(args.partition)), "direct"
    if kind == "mex":
        _require(args, ["partition", "A", "a"], kind)
        value = statistics.mex(args.partition, MexParams(args.A, args.a))
        return (
            f"mex_{{{args.A},{args.a}}}({partitions.format_partition(args.partition)})",
            str(value),
            "direct",
        )
    if kind in ("N", "M"):
        _require(args, ["m", "n"], kind)
        method = args.method or "combinatorial"
        if method not in ("combinatorial", "series"):
            raise ValueError(f"method for {kind} must be 'combinatorial' or 'series'")
        if method == "series":
            check_precision(args.n)
        fn = statistics.rank_count if kind == "N" else statistics.crank_count
        return f"{kind}({args.m},{args.n})", str(fn(args.m, args.n, method)), method
    if kind == "moment":
        _require(args, ["stat", "k", "n"], kind)
        if args.stat == "rank":
            value = statistics.rank_moment(args.k, args.n)
            method_name = "enumerated distribution"
        elif args.stat == "crank":
            check_precision(args.n)
            value = statistics.crank_moment(args.k, args.n)
            method_name = "series distribution"
        else:
            raise ValueError("--stat must be 'rank' or 'crank'")
        return f"{args.stat}_moment_{args.k}({args.n})", str(value), method_name
    if kind == "goe":
        _require(args, ["n"], kind)
        return f"goe({args.n})", str(statistics.goe_count(args.n)), "enumeration"
    raise ValueError(f"unknown compute kind {kind!r}")


def cmd_compute(args: argparse.Namespace) -> int:
    label, value, method = _compute_value(args)
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "label": label, "value": value, "method": method}))
    elif args.format == "csv":
        _print_csv([["kind", "label", "value", "method"], [args.kind, label, value, method]])
    else:
        print(f"{label} = {value}")
        print(f"method: {method}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    from . import tables

    if args.format == "csv":
        sys.stdout.write(tables.render_csv(args.table_id))
    elif args.format == "json":
        fields, rows = tables.table_fields_and_rows(args.table_id)
        print(json.dumps({"table": args.table_id, "fields": fields, "rows": rows}, indent=2))
    else:
        sys.stdout.write(tables.render_text(args.table_id))
    return 0


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def _build_series(args: argparse.Namespace) -> tuple[str, TruncatedSeries]:
    precision = args.precision
    check_precision(precision)
    if precision < 0:
        raise ValueError("precision must be non-negative")
    expr = args.expr
    if expr == "euler":
        return "euler", euler_product(precision)
    if expr in ("F", "Fbar"):
        _require(args, ["A", "a"], expr)
        numerator = mexcount.mex_numerator(MexParams(args.A, args.a), expr == "Fbar", precision)
        return f"{expr}_{{{args.A},{args.a}}}", theta_quotient(numerator, precision)
    if expr == "residue-product":
        _require(args, ["modulus", "residues"], expr)
        cond = ResidueCondition(
            args.modulus,
            frozenset(_parse_int_list(args.residues, "residues")),
            sign=args.sign,
            mode=args.mode,
        )
        return "residue-product", residue_product(cond, precision)
    if expr == "theta":
        _require(args, ["quadratic"], expr)
        coeffs = _parse_int_list(args.quadratic, "quadratic")
        if len(coeffs) != 3:
            raise ValueError("--quadratic needs exactly three integers P,Q,R")
        return "theta", alternating_theta(tuple(coeffs), args.n_start, precision)
    if expr == "jtp":
        _require(args, ["k", "i"], expr)
        return (
            f"jtp({args.k},{args.i},{args.parity},{args.side})",
            jtp_specialized(args.k, args.i, args.parity, args.side, precision),
        )
    raise ValueError(f"unknown series expression {expr!r}")


def cmd_series(args: argparse.Namespace) -> int:
    label, series = _build_series(args)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "expr": label,
                    "precision": series.precision,
                    "coefficients": series.to_decimal_strings(),
                }
            )
        )
    elif args.format == "csv":
        rows = [["exponent", "coefficient"]]
        rows += [[str(e), str(c)] for e, c in enumerate(series.coeffs)]
        _print_csv(rows)
    else:
        for e, c in enumerate(series.coeffs):
            print(f"q^{e}: {c}")
    return 0


# ---------------------------------------------------------------------------
# verify / list-identities
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    from . import identities

    if args.check_id == "all":
        n_series = args.max_n_series if args.max_n_series is not None else args.max_n
        check_precision(n_series)
        reports = identities.verify_all(args.max_n, n_series)
    else:
        if args.max_n_series is not None:
            raise ValueError("--max-n-series bounds 'verify all' only; bound one check with --max-n")
        check = identities.REGISTRY.get(args.check_id)
        if check is not None and not check.requires_enumeration:
            check_precision(args.max_n)
        reports = [identities.verify(args.check_id, args.max_n)]

    if args.format == "json":
        print(identities.reports_to_json(reports))
    elif args.format == "csv":
        _print_csv([identities.CSV_HEADER] + [r.csv_row() for r in reports])
    else:
        for r in reports:
            print(f"{r.status:4s}  {r.check_id:18s}  n={r.n_from}..{r.n_to}  ({r.elapsed_ms:.1f} ms)")
            for n, lhs, rhs in r.failures:
                print(f"      n={n}: lhs={lhs} rhs={rhs}")
    return 0 if all(r.status == "pass" for r in reports) else 1


def cmd_list_identities(args: argparse.Namespace) -> int:
    from . import identities

    catalog = identities.list_identities()
    if args.format == "json":
        print(json.dumps(catalog, indent=2))
    elif args.format == "csv":
        rows = [["id", "valid_from", "requires_enumeration", "description"]]
        rows += [
            [
                str(c["id"]),
                str(c["valid_from"]),
                str(c["requires_enumeration"]).lower(),
                str(c["description"]),
            ]
            for c in catalog
        ]
        _print_csv(rows)
    else:
        for c in catalog:
            print(f"{c['id']:18s}  n>={c['valid_from']}  {c['description']}")
    return 0


def _print_csv(rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    sys.stdout.write(buf.getvalue())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_FORMAT = ("--format", dict(choices=["text", "json", "csv"], default="text"))

# subcommand -> (help, handler, arguments), each argument its name and the
# keywords of its add_argument call: build_parser adds them, and the
# subcommand's _Plan reads them
_COMMANDS: dict[str, tuple] = {
    "compute": ("compute a single quantity", cmd_compute, [
        ("kind", dict(choices="p_aa pbar_aa p spt rank crank mex N M moment goe".split())),
        ("--A", dict(type=int)),
        ("--a", dict(type=int)),
        ("--n", dict(type=int)),
        ("--m", dict(type=int)),
        ("--k", dict(type=int)),
        ("--stat", dict(choices=["rank", "crank"])),
        ("--method", dict(help="p_aa/pbar_aa: enum|series|recurrence; N/M: combinatorial|series")),
        ("--partition", dict(type=_parse_partition)),
        _FORMAT,
    ]),
    "table": ("regenerate a reference table", cmd_table, [
        ("table_id", dict(type=int, choices=[1, 2, 3])),
        _FORMAT,
    ]),
    "series": ("expand a generating series", cmd_series, [
        ("expr", dict(choices=["euler", "F", "Fbar", "residue-product", "theta", "jtp"])),
        ("--precision", dict(type=int, default=20)),
        ("--A", dict(type=int)),
        ("--a", dict(type=int)),
        ("--modulus", dict(type=int)),
        ("--residues", dict(help="comma-separated residues, e.g. 2,8,12")),
        ("--sign", dict(choices=["minus", "plus"], default="minus")),
        ("--mode", dict(choices=["include", "exclude"], default="include")),
        ("--quadratic", dict(help="P,Q,R for exponent (P*n^2+Q*n+R)/2")),
        ("--n-start", dict(type=int, default=0)),
        ("--k", dict(type=int)),
        ("--i", dict(type=int)),
        ("--parity", dict(choices=["even", "odd"], default="odd")),
        ("--side", dict(choices=["sum", "product"], default="sum")),
        _FORMAT,
    ]),
    "verify": ("verify one identity or all of them", cmd_verify, [
        ("check_id", dict(metavar="id", help="identity id or 'all'")),
        ("--max-n", dict(type=int, default=50)),
        ("--max-n-series",
         dict(type=int, help="separate bound for series-only checks (verify all)")),
        _FORMAT,
    ]),
    "list-identities": ("list the identity catalog", cmd_list_identities, [_FORMAT]),
}


class _Parser(argparse.ArgumentParser):
    """Reads a plain subcommand argv -- the subcommand, its one positional, then
    ``--option value`` pairs -- by that subcommand's :class:`_Plan`, built on its
    first parse, into the namespace argparse would build.  Every other argv, and
    every argv argparse would refuse, takes argparse's own path, so help, usage
    and error messages stay argparse's."""

    # subcommand name -> its parser; empty in the subparsers (built as _Parsers
    # too), and an empty dict sends every argv through argparse's own path
    commands: dict[str, argparse.ArgumentParser] = {}
    plans: dict[str, _Plan | None]  # set by build_parser; None for argparse's path

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        if args and namespace is None and args[0] in self.commands:
            try:
                plan = self.plans[args[0]]
            except KeyError:
                plan = self.plans[args[0]] = _Plan.of(args[0])
            read = None if plan is None else plan.read(args[1:])
            if read is not None:
                return read, []
        return super().parse_known_args(args, namespace)


class _Plan:
    """How a plain argv of one subcommand becomes its namespace, read once from
    its ``_COMMANDS`` entry: ``positional``, the one positional as (dest, type,
    choices); ``options``, each option string to its (dest, type, choices); and
    ``defaults``, the namespace before any value (the subcommand name, each
    argument's default and the handler as ``func``).  No option string looks
    like a negative number, so argparse takes ``-`` then digits for a value."""

    __slots__ = ("positional", "options", "defaults")

    def __init__(self, positional: tuple, options: dict[str, tuple], defaults: dict) -> None:
        self.positional, self.options, self.defaults = positional, options, defaults

    @classmethod
    def of(cls, name: str) -> _Plan | None:
        """The plan of subcommand ``name``, or None when it has no positional
        and so takes argparse's path for every argv."""
        _, handler, arguments = _COMMANDS[name]
        positional, options, defaults = None, {}, {"command": name}
        for flag, keywords in arguments:
            dest = flag.lstrip("-").replace("-", "_")
            slot = (dest, keywords.get("type"), keywords.get("choices"))
            if flag[0] == "-":
                options[flag] = slot
            else:
                positional = slot
            defaults[dest] = keywords.get("default")
        defaults["func"] = handler
        return None if positional is None else cls(positional, options, defaults)

    def read(self, tokens: list[str]) -> argparse.Namespace | None:
        """The namespace of ``tokens``, the positional then ``--option value``
        pairs, each value one argparse takes as a value and one the argument's
        type and choices accept; None for any other argv."""
        if not len(tokens) & 1:
            return None
        namespace = argparse.Namespace()
        values = vars(namespace)
        values.update(self.defaults)
        slots = [self.positional, *map(self.options.get, tokens[1::2])]
        for slot, text in zip(slots, tokens[::2]):
            if slot is None or text[:1] == "-" and not text[1:].isdecimal():
                return None
            dest, convert, choices = slot
            if convert is not None:
                try:
                    text = convert(text)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if choices is not None and text not in choices:
                return None
            values[dest] = text
        return namespace


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mexstat",
        description="Exact computations and identity checks for mex-classified partition counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, handler, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=handler)
    parser.commands, parser.plans = sub.choices, {}
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--quadratic -1,0,0`` as ``--quadratic=-1,0,0``.

    argparse takes a value that starts with a minus sign, and is not a
    single number, for an unknown option and stops with "expected one
    argument" before the triple is validated.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--quadratic" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--quadratic={token}"
        else:
            out.append(token)
    return out


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # one parser per process, built on the first call: parse_args keeps no
    # state between calls, and building the tree costs more than parsing
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CapacityError, ValueError) as exc:
        print(f"mexstat: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
