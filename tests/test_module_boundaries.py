"""Each module of ``mexstat`` reads the others only through their public names.

A read of another module's underscore attribute (``partitions._p_table``), or
an import of one (``from .series import _name``), ties the reader to that
module's private layout, so the owner can no longer change it alone.  The
sources are parsed, not imported: a name counts as a module of the package
where ``from . import x`` or ``from mexstat import x`` binds it.  The catalog
names each row builder as a string beside its owner module, which no parse
sees, so its declared requests are read off the registry instead.
"""

import ast
from functools import partial
from pathlib import Path

import mexstat
from mexstat import identities, statistics

SRC = Path(mexstat.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")}
PACKAGE = ((1, None), (0, "mexstat"))  # (level, module) of the imports that bind a module


def _module_names(tree: ast.AST) -> set[str]:
    # the local names bound to modules of the package, wherever the import sits
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in PACKAGE
        for alias in node.names
        if alias.name in MODULES
    }


def _from_module(node: ast.ImportFrom) -> str | None:
    # the package module whose names ``from .x import ...`` or ``from mexstat.x
    # import ...`` reads
    if node.level == 1:
        return node.module
    if node.level == 0 and node.module.startswith("mexstat."):
        return node.module.split(".", 1)[1]
    return None


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    modules = _module_names(tree)
    reads = [
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _private(node.attr)
    ]
    reads += [
        (node.lineno, f"{_from_module(node)}.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _from_module(node) in MODULES
        for alias in node.names
        if _private(alias.name)
    ]
    return [f"{path.name}:{line} {read}" for line, read in sorted(reads)]


def test_no_module_reads_a_private_name_of_another_through_the_module():
    assert MODULES >= {"identities", "mexcount", "partitions", "series", "statistics"}
    reads = [read for path in sorted(SRC.glob("*.py")) for read in _private_reads(path)]
    assert reads == []


def test_the_check_sees_a_private_read(tmp_path):
    source = tmp_path / "reader.py"
    source.write_text("from . import partitions as parts\n\ndef f():\n    return parts._p_table\n")
    assert _private_reads(source) == ["reader.py:4 parts._p_table"]
    source.write_text(
        "from .series import PackedRows, _gather\n"
        "from mexstat.series import _gather as g\n"
        "from statistics import _sum\n"  # the standard library's, not the package's
        "from .series import __doc__\n"
    )
    assert _private_reads(source) == ["reader.py:1 series._gather", "reader.py:2 series._gather"]


def _private_requests(registry) -> list[str]:
    # the builders on modules other than identities that the declared columns name
    named = set()
    for check in registry.values():
        for members, side in (check.make_lhs.args, check.make_rhs.args):
            scalar = isinstance(members[0], identities._Column)
            columns = [members[side]] if scalar else [member[side] for member in members]
            named |= {column.request[:2] for column in columns}
    return sorted(
        f"{owner.__name__.rsplit('.', 1)[1]}.{name}"
        for owner, name in named
        if owner is not identities and (_private(name) or not callable(getattr(owner, name)))
    )


def test_the_catalog_names_only_public_builders_of_other_modules():
    assert _private_requests(identities.REGISTRY) == []


def test_the_check_sees_a_private_builder():
    column = partial(identities._Column, statistics)
    planted = identities.IdentityCheck(
        "planted", "a census row read by its private name", 0,
        *identities._sides((column("_census_row", "rank"), column("spt_row"))),
    )
    assert _private_requests({**identities.REGISTRY, "planted": planted}) == [
        "statistics._census_row"
    ]
