"""The north star's invariants, checked on the sources of ``mexstat`` as parsed.

* Exact integers: no float literal, no true division ``/``, no ``float(``, no
  ``round`` to digits and no function of ``math`` that returns a float, except
  on the timing lines of the identity reports (their wall time in
  milliseconds).
* No third-party runtime dependency: every import is of the standard library
  or of the package itself.
* ``requires-python = ">=3.10"``: every file parses with the 3.10 grammar and
  names none of a short list of standard-library additions of 3.11 and later.

The sources are parsed, not imported, in the idiom of
``test_module_boundaries.py``; each gate also has a test that it catches a
planted case in a file of its own.
"""

import ast
import sys
from pathlib import Path

import mexstat

SRC = Path(mexstat.__file__).resolve().parent
# the timing lines of ``identities``, by file and stripped source text
FLOAT_LINES = {
    "identities.py": {
        "elapsed_ms: float = 0.0",
        '"elapsed_ms": round(self.elapsed_ms, 3),',
        "elapsed = (time.perf_counter() - start) * 1000.0",
    },
}
# the functions of math that take and return integers only
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}
# standard-library names added in Python 3.11 or later, as (module, name)
NEWER_NAMES = {
    ("tomllib", None),
    ("typing", "Self"),
    ("enum", "StrEnum"),
    ("builtins", "ExceptionGroup"),
    ("builtins", "BaseExceptionGroup"),
    ("itertools", "batched"),
}


def _sources() -> list[Path]:
    return sorted(SRC.glob("*.py"))


def _math_names(tree: ast.AST) -> tuple[set[str], set[str]]:
    # the local names bound to the math module, and to functions from it
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "math":
            functions |= {a.asname or a.name for a in node.names if a.name not in INTEGER_MATH}
    return modules, functions


def _float_uses(path: Path) -> list[str]:
    """Each line of ``path`` with a float literal, a ``/``, a ``float(`` call, a
    ``round`` to digits or a float function of math, as 'file:line text', less
    the allowed lines."""
    text = path.read_text()
    tree = ast.parse(text, str(path))
    modules, functions = _math_names(tree)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.add(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            lines.add(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            digits = node.func.id == "round" and len(node.args) + len(node.keywords) > 1
            if node.func.id == "float" or node.func.id in functions or digits:
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr not in INTEGER_MATH:
                lines.add(node.lineno)
    source = text.splitlines()
    allowed = FLOAT_LINES.get(path.name, set())
    return [
        f"{path.name}:{line} {source[line - 1].strip()}"
        for line in sorted(lines)
        if source[line - 1].strip() not in allowed
    ]


def _foreign_imports(path: Path) -> list[str]:
    """Each absolute import of ``path`` that is neither the standard library nor mexstat."""
    tree = ast.parse(path.read_text(), str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.lineno, node.module))
    return [
        f"{path.name}:{line} {name}"
        for line, name in names
        if name.split(".")[0] not in sys.stdlib_module_names | {"mexstat"}
    ]


def _newer_than_310(path: Path) -> list[str]:
    """A syntax error under the 3.10 grammar, or each use of a name of NEWER_NAMES."""
    text = path.read_text()
    try:
        tree = ast.parse(text, str(path), feature_version=(3, 10))
    except SyntaxError as error:
        return [f"{path.name}:{error.lineno} syntax: {error.msg}"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.append((node.lineno, node.value.id, node.attr))
        elif isinstance(node, ast.Name):
            found.append((node.lineno, "builtins", node.id))
    return [
        f"{path.name}:{line} {module}{'.' + name if name else ''}"
        for line, module, name in sorted(found, key=lambda f: f[0])
        if (module, name) in NEWER_NAMES or (module, None) in NEWER_NAMES
    ]


def test_no_float_in_the_sources():
    assert [use for path in _sources() for use in _float_uses(path)] == []


def test_every_allowed_float_line_is_still_there():
    for name, allowed in FLOAT_LINES.items():
        lines = {line.strip() for line in (SRC / name).read_text().splitlines()}
        assert allowed <= lines, allowed - lines


def test_the_float_gate_sees_each_kind_of_float(tmp_path):
    source = tmp_path / "planted.py"
    source.write_text(
        "import math as m\n"
        "from math import isqrt, sqrt\n"
        "a = 1 / 2\n"
        "b = 0.5\n"
        "c = float(3)\n"
        "d = sqrt(4)\n"
        "e = m.log(2)\n"
        "f = m.isqrt(9) + isqrt(16) + 7 // 2\n"
        "g = 1e3\n"
        "a /= 2\n"
        "h = round(a, 3) + round(7)\n"
    )
    assert [use.split()[0] for use in _float_uses(source)] == [
        "planted.py:3", "planted.py:4", "planted.py:5", "planted.py:6", "planted.py:7",
        "planted.py:9", "planted.py:10", "planted.py:11",
    ]


def test_every_import_is_the_standard_library_or_the_package():
    assert [name for path in _sources() for name in _foreign_imports(path)] == []


def test_the_import_gate_sees_a_third_party_package(tmp_path):
    source = tmp_path / "planted.py"
    source.write_text(
        "import os.path\n"
        "import numpy as np\n"
        "from . import series\n"
        "from mexstat.series import PackedRows\n"
        "from sympy.core import Integer\n"
    )
    assert _foreign_imports(source) == ["planted.py:2 numpy", "planted.py:5 sympy.core"]


def test_every_source_reads_as_python_3_10():
    assert [found for path in _sources() for found in _newer_than_310(path)] == []


def test_the_version_gate_sees_newer_syntax_and_names(tmp_path):
    source = tmp_path / "planted.py"
    source.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    (found,) = _newer_than_310(source)
    assert found.startswith("planted.py:") and " syntax: " in found
    source.write_text(
        "import tomllib\n"
        "import itertools\n"
        "from typing import Self\n"
        "from enum import Enum, StrEnum\n"
        "rows = itertools.batched(range(4), 2)\n"
        "error = ExceptionGroup\n"
        "fine = itertools.chain\n"
    )
    assert _newer_than_310(source) == [
        "planted.py:1 tomllib",
        "planted.py:3 typing.Self",
        "planted.py:4 enum.StrEnum",
        "planted.py:5 itertools.batched",
        "planted.py:6 builtins.ExceptionGroup",
    ]

