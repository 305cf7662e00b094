"""mexstat: exact mex-classified partition counts, partition statistics, and identity checks.

The names of the identity catalog are loaded on first use (module
``__getattr__``), so that ``import mexstat`` and the CLI's point queries do
not build the catalog.
"""

from .limits import ENUMERATION_CAP, CapacityError
from .mexcount import (
    mex_census,
    p_mex_enum,
    p_mex_recurrence,
    p_mex_series,
    pbar_mex_enum,
    pbar_mex_recurrence,
    pbar_mex_series,
)
from .partitions import (
    Partition,
    as_partition,
    count_parts_restricted,
    enumerate_partitions,
    p_count,
    p_even_parts,
    p_odd_parts,
)
from .series import (
    ResidueCondition,
    TruncatedSeries,
    alternating_theta,
    alternating_theta_bilateral,
    euler_product,
    jtp_specialized,
    partition_generating_series,
    pochhammer_finite,
    residue_product,
    symmetric_residues,
)
from .statistics import (
    MexParams,
    crank,
    crank_count,
    crank_moment,
    goe_count,
    mex,
    rank,
    rank_count,
    rank_moment,
    spt_direct,
)

__version__ = "0.1.0"

_IDENTITY_NAMES = frozenset(
    {
        "IdentityCheck",
        "IdentityReport",
        "REGISTRY",
        "build_registry",
        "list_identities",
        "verify",
        "verify_all",
    }
)


def __getattr__(name: str):
    if name in _IDENTITY_NAMES:
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CapacityError",
    "ENUMERATION_CAP",
    "IdentityCheck",
    "IdentityReport",
    "MexParams",
    "Partition",
    "REGISTRY",
    "ResidueCondition",
    "TruncatedSeries",
    "alternating_theta",
    "alternating_theta_bilateral",
    "as_partition",
    "build_registry",
    "count_parts_restricted",
    "crank",
    "crank_count",
    "crank_moment",
    "enumerate_partitions",
    "euler_product",
    "goe_count",
    "jtp_specialized",
    "list_identities",
    "mex",
    "mex_census",
    "p_count",
    "p_even_parts",
    "p_mex_enum",
    "p_mex_recurrence",
    "p_mex_series",
    "p_odd_parts",
    "partition_generating_series",
    "pbar_mex_enum",
    "pbar_mex_recurrence",
    "pbar_mex_series",
    "pochhammer_finite",
    "rank",
    "rank_count",
    "rank_moment",
    "residue_product",
    "spt_direct",
    "symmetric_residues",
    "verify",
    "verify_all",
]
