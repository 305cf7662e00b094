"""``bench/layers.py`` must keep importing against ``src/``.

The layer script imports functions of ``mexstat`` by name, reads more of its
module attributes inside its layers, and takes the queries workload from
``perfbench/worker.py``; a name removed from ``src/`` breaks it without
failing any other test.  The script is loaded from its file, read only, and
the import path and the ``worker`` and ``tracer`` modules it adds are put
back afterwards.
"""

import ast
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers_module():
    path, held = list(sys.path), {name: sys.modules.get(name) for name in ("worker", "tracer")}
    try:
        spec = importlib.util.spec_from_file_location("bench_layers_drift", LAYERS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path[:] = path
        for name, value in held.items():
            if value is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = value


def test_the_layer_script_imports_and_every_module_attribute_it_reads_resolves():
    layers = _layers_module()
    assert callable(layers.main)
    modules = {
        name: value
        for name, value in vars(layers).items()
        if isinstance(value, ModuleType) and value.__name__.startswith("mexstat")
    }
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(LAYERS.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert read
    for name, attr in read:
        assert hasattr(modules[name], attr), (name, attr)
