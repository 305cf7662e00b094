"""Command-line front end: compute, table, series, verify, list-identities.

Exit codes: 0 success (all verifications pass), 1 verification failure,
2 usage error.  Every number printed is an exact decimal string.

Importing this module loads only what ``compute`` and ``series`` read; the
identity catalog (``verify``, ``list-identities``) and the reference tables
(``table``) are imported by their subcommands, since a point query is one
fresh process and their import would cost more than the query.

The parser is argparse's, built once per process.  A plain subcommand argv
(``compute p --n 5 --format json``: the positional, then exact ``--option
value`` pairs) is read by that subcommand's parse plan, built on its first
parse from the public attributes of the actions ``add_argument`` returned:
the positional, a map from each option string of a plain store action to
its dest, type and choices, and the default namespace.  Such a parse is
dict lookups, the values' ``type`` calls and one namespace, and reads no
private argparse name: about 4 us (``bench/layers.py``
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
import re
import sys

from . import mexcount, partitions, statistics
from .limits import ENUMERATION_CAP, CapacityError, check_precision
from .series import (
    ResidueCondition,
    TruncatedSeries,
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


class _Parser(argparse.ArgumentParser):
    """Reads a plain subcommand argv -- the subcommand, its one positional, then
    ``--option value`` pairs -- by that subcommand's :class:`_Plan`, built on its
    first parse, into the namespace argparse would build.  Every other argv, and
    every argv argparse would refuse, takes argparse's own path, so help, usage
    and error messages stay argparse's.

    A plan knows the arguments given to ``add_argument`` and ``set_defaults`` of
    the subcommand's parser itself, which is how :func:`build_parser` adds every
    argument: none through an argument group or a subparser."""

    # subcommand name -> its parser; empty in the subparsers (built as _Parsers
    # too), and an empty dict sends every argv through argparse's own path
    commands: dict[str, argparse.ArgumentParser] = {}

    def __init__(self, *args, **kwargs) -> None:
        self.added: list[tuple[argparse.Action, bool]] = []  # (action, plain store)
        self.preset: dict[str, object] = {}  # the set_defaults
        self.plans: dict[str, _Plan | None] = {}  # by subcommand, None for argparse's path
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs) -> argparse.Action:
        action = super().add_argument(*args, **kwargs)
        self.added.append((action, kwargs.get("action") in (None, "store")))
        return action

    def set_defaults(self, **kwargs) -> None:
        super().set_defaults(**kwargs)
        self.preset.update(kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        command = self.commands.get(args[0]) if args and namespace is None else None
        if command is not None:
            try:
                plan = self.plans[args[0]]
            except KeyError:
                plan = self.plans[args[0]] = _Plan.of(command, args[0])
            read = None if plan is None else plan.read(args[1:])
            if read is not None:
                return read, []
        return super().parse_known_args(args, namespace)


class _Plan:
    """How a plain argv of one subcommand becomes its namespace, taken once from
    the public attributes of the actions its ``add_argument`` calls returned:

    * ``positional``, the one positional as (dest, type, choices);
    * ``options``, each option string of a plain store action (no ``action`` or
      ``nargs`` given) to its (dest, type, choices);
    * ``defaults``, the namespace before any value: the subcommand name, the
      first default per dest (a string one passed through its type) and then
      ``set_defaults``, in the order argparse sets them;
    * ``prefix_chars``, and ``negatives``: whether ``-`` then decimal digits is
      a value (argparse reads such a value as a negative number).
    """

    __slots__ = ("positional", "options", "defaults", "prefix_chars", "negatives")

    def __init__(
        self,
        positional: tuple,
        options: dict[str, tuple],
        defaults: dict[str, object],
        prefix_chars: str,
        negatives: bool,
    ) -> None:
        self.positional, self.options, self.defaults = positional, options, defaults
        self.prefix_chars, self.negatives = prefix_chars, negatives

    @classmethod
    def of(cls, command: _Parser, name: str) -> _Plan | None:
        """The plan of ``command``, or None when it takes argparse's path for
        every argv: not one plain positional, a required option, or a string
        default its type refuses."""
        positional, options, defaults = [], {}, {"command": name}
        for action, store in command.added:
            slot = (action.dest, action.type, action.choices)
            plain = store and action.nargs is None and not isinstance(action.choices, str)
            if not action.option_strings:
                positional.append(slot if plain else None)
            elif action.required:
                return None
            elif plain:
                options.update(dict.fromkeys(action.option_strings, slot))
            default = action.default
            if argparse.SUPPRESS in (action.dest, default) or action.dest in defaults:
                continue
            if isinstance(default, str) and action.type is not None:
                try:
                    default = action.type(default)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            defaults[action.dest] = default
        if len(positional) != 1 or positional[0] is None:
            return None
        for dest, value in command.preset.items():
            defaults.setdefault(dest, value)
        # with an option string argparse could take for a negative number (every
        # form any argparse version reads as one starts r"-\.?\d"), no value may
        # start with "-"
        strings = [s for action, _ in command.added for s in action.option_strings]
        negatives = not any(re.match(r"-\.?\d", s) for s in strings)
        return cls(positional[0], options, defaults, command.prefix_chars, negatives)

    def read(self, tokens: list[str]) -> argparse.Namespace | None:
        """The namespace of ``tokens``, the positional then ``--option value``
        pairs of plain store actions, each value one argparse takes as a value
        and one the action's type and choices accept; None for any other argv."""
        if not len(tokens) & 1:
            return None
        namespace = argparse.Namespace()
        values = vars(namespace)
        values.update(self.defaults)
        slots = [self.positional, *map(self.options.get, tokens[1::2])]
        for slot, text in zip(slots, tokens[::2]):
            if slot is None:
                return None
            if text[:1] in self.prefix_chars and not (
                self.negatives and text[:1] == "-" and text[1:].isdecimal()
            ):
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
    parser.commands = sub.choices

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p_compute = sub.add_parser("compute", help="compute a single quantity")
    p_compute.add_argument(
        "kind",
        choices=["p_aa", "pbar_aa", "p", "spt", "rank", "crank", "mex", "N", "M", "moment", "goe"],
    )
    p_compute.add_argument("--A", type=int)
    p_compute.add_argument("--a", type=int)
    p_compute.add_argument("--n", type=int)
    p_compute.add_argument("--m", type=int)
    p_compute.add_argument("--k", type=int)
    p_compute.add_argument("--stat", choices=["rank", "crank"])
    p_compute.add_argument(
        "--method",
        help="p_aa/pbar_aa: enum|series|recurrence; N/M: combinatorial|series",
    )
    p_compute.add_argument("--partition", type=_parse_partition)
    add_format(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_table = sub.add_parser("table", help="regenerate a reference table")
    p_table.add_argument("table_id", type=int, choices=[1, 2, 3])
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_series = sub.add_parser("series", help="expand a generating series")
    p_series.add_argument(
        "expr", choices=["euler", "F", "Fbar", "residue-product", "theta", "jtp"]
    )
    p_series.add_argument("--precision", type=int, default=20)
    p_series.add_argument("--A", type=int)
    p_series.add_argument("--a", type=int)
    p_series.add_argument("--modulus", type=int)
    p_series.add_argument("--residues", help="comma-separated residues, e.g. 2,8,12")
    p_series.add_argument("--sign", choices=["minus", "plus"], default="minus")
    p_series.add_argument("--mode", choices=["include", "exclude"], default="include")
    p_series.add_argument("--quadratic", help="P,Q,R for exponent (P*n^2+Q*n+R)/2")
    p_series.add_argument("--n-start", type=int, default=0)
    p_series.add_argument("--k", type=int)
    p_series.add_argument("--i", type=int)
    p_series.add_argument("--parity", choices=["even", "odd"], default="odd")
    p_series.add_argument("--side", choices=["sum", "product"], default="sum")
    add_format(p_series)
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="verify one identity or all of them")
    p_verify.add_argument("check_id", metavar="id", help="identity id or 'all'")
    p_verify.add_argument("--max-n", type=int, default=50)
    p_verify.add_argument(
        "--max-n-series",
        type=int,
        default=None,
        help="separate bound for series-only checks (verify all)",
    )
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list-identities", help="list the identity catalog")
    add_format(p_list)
    p_list.set_defaults(func=cmd_list_identities)

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
