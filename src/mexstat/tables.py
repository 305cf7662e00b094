"""Reference tables regenerated from first principles.

Three fixed tables back the CLI's ``table`` subcommand: the mex_{2,3}
classification of the partitions of 6, the rank/crank comparison columns
for n <= 8, and the spt decomposition columns for n <= 5.  The csv
renderings are golden-file stable; the text renderings are free to evolve.
"""

from __future__ import annotations

import csv
import io

from . import census, partitions, statistics
from .statistics import MexParams

TABLE2_N_MAX = 8
TABLE3_N_MAX = 5


def table1_rows() -> list[dict[str, str]]:
    """Partitions of 6 with their mex_{2,3} value and which counter they feed."""
    params = MexParams(2, 3)
    rows = []
    for parts in partitions.enumerate_partitions(6):
        m = statistics.mex(parts, params)
        in_p = m % (2 * params.A) == params.a % (2 * params.A)
        rows.append(
            {
                "partition": partitions.format_partition(parts),
                "mex_2_3": str(m),
                "p_2_3": "x" if in_p else "",
                "pbar_2_3": "" if in_p else "x",
            }
        )
    return rows


def table2_rows() -> list[dict[str, str]]:
    """For n = 1..8: the four counter columns plus the rank>=2 / crank>=2 partition lists."""
    counts = census.mex_census_rows(TABLE2_N_MAX, [(3, 1), (3, 2), (3, 3), (1, 2)])
    rows = []
    for n in range(1, TABLE2_N_MAX + 1):
        rank_list, crank_list = [], []
        for p in partitions.enumerate_partitions(n):
            if statistics.rank(p) >= 2:
                rank_list.append(partitions.format_partition(p))
            if statistics.crank(p) >= 2:
                crank_list.append(partitions.format_partition(p))
        rows.append(
            {
                "n": str(n),
                "p_3_1": str(counts[3, 1][0][n]),
                "p_3_2": str(counts[3, 2][0][n]),
                "pbar_3_3": str(counts[3, 3][1][n]),
                "pbar_1_2": str(counts[1, 2][1][n]),
                "rank_ge_2": " ".join(rank_list) if rank_list else "-",
                "crank_ge_2": " ".join(crank_list) if crank_list else "-",
            }
        )
    return rows


_TABLE3_PARAMS = [(3, 2), (1, 1), (3, 3), (1, 2), (3, 4), (1, 3), (3, 5), (1, 4), (3, 6), (1, 5)]


def table3_rows() -> list[dict[str, str]]:
    """For n = 1..5: the ten interleaved counter columns and spt(n)."""
    counts = census.mex_census_rows(TABLE3_N_MAX, _TABLE3_PARAMS)
    rows = []
    for n in range(1, TABLE3_N_MAX + 1):
        row = {"n": str(n)}
        for A, a in _TABLE3_PARAMS:
            row[f"p_{A}_{a}"] = str(counts[A, a][0][n])
        row["spt"] = str(statistics.spt_direct(n))
        rows.append(row)
    return rows


_TABLES = {1: table1_rows, 2: table2_rows, 3: table3_rows}


def table_fields_and_rows(table_id: int) -> tuple[list[str], list[dict[str, str]]]:
    """The column names of a table, in order, read off the keys of its rows, and the rows."""
    if table_id not in _TABLES:
        raise ValueError(f"table id must be 1, 2 or 3, got {table_id}")
    rows = _TABLES[table_id]()
    return list(rows[0]), rows


def render_csv(table_id: int) -> str:
    """Byte-deterministic csv rendering (the golden-file format)."""
    fields, rows = table_fields_and_rows(table_id)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_text(table_id: int) -> str:
    fields, rows = table_fields_and_rows(table_id)
    widths = {f: max(len(f), *(len(r[f]) for r in rows)) for f in fields}
    lines = ["  ".join(f.ljust(widths[f]) for f in fields)]
    lines.append("  ".join("-" * widths[f] for f in fields))
    for r in rows:
        lines.append("  ".join(r[f].ljust(widths[f]) for f in fields))
    if table_id == 1:
        p_total = sum(1 for r in rows if r["p_2_3"] == "x")
        lines.append(f"totals: p_2_3(6) = {p_total}, pbar_2_3(6) = {len(rows) - p_total}")
    return "\n".join(lines) + "\n"
