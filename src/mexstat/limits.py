"""Every size limit of the package, and the error raised past one.

* ``ENUMERATION_CAP`` bounds n on the enumeration route: the literal
  :func:`partitions.enumerate_partitions` and the counting DPs that stand
  in for it (the rank, crank and spt rows, the restricted-mex rows).  The
  DPs take milliseconds at the cap, so it bounds a contract -- the
  over-limit answers the command line and its tests pin -- not a walk.
  It also sizes the rank, crank and spt census that every process builds once
  over all n <= the cap and holds as int rows: 4-7 ms and 289 KiB at 70,
  65-125 ms and 3 MiB at 200 (2-core host, CPython 3.11).
* ``P_TABLE_CAP`` bounds how far the shared pentagonal p(n) table grows;
  ``p_count(50000)`` takes 0.7-0.8 s from cold (2-core host, CPython 3.11).
* The series precision cap, ``MEXSTAT_MAX_PRECISION`` (default 2000),
  bounds what the command line asks of the series routes; library series
  functions take any precision.
"""

from __future__ import annotations

import os

#: Largest n accepted by the enumeration route.
ENUMERATION_CAP = 70

#: Largest n to which the pentagonal p(n) table is grown.
P_TABLE_CAP = 50_000

DEFAULT_PRECISION_CAP = 2000
PRECISION_CAP_ENV = "MEXSTAT_MAX_PRECISION"


class CapacityError(ValueError):
    """An argument exceeds what the requested method can handle."""


def check_enumeration(n: int) -> None:
    """Raise CapacityError when n is past the enumeration cap."""
    if n > ENUMERATION_CAP:
        raise CapacityError(
            f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}; "
            "use a series or recurrence method"
        )


def check_p_table(n: int) -> None:
    """Raise CapacityError when p(n) would grow the table past its cap."""
    if n > P_TABLE_CAP:
        raise CapacityError(f"p({n}) is past the cap {P_TABLE_CAP} of the p(n) table")


def check_precision(precision: int) -> None:
    """Raise CapacityError past the series precision cap (``MEXSTAT_MAX_PRECISION``)."""
    raw = os.environ.get(PRECISION_CAP_ENV)
    try:
        cap = DEFAULT_PRECISION_CAP if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{PRECISION_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 0:
        raise ValueError(f"{PRECISION_CAP_ENV} must be non-negative")
    if precision > cap:
        raise CapacityError(
            f"series precision {precision} exceeds the cap {cap} (set {PRECISION_CAP_ENV})"
        )
