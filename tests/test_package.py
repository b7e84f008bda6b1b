import ast
import inspect
from types import ModuleType

import ovbkit
import ovbkit.cli

LAYERS = (ovbkit.adjustment, ovbkit.dag, ovbkit.scm, ovbkit.sensitivity, ovbkit.stats)


def test_star_import_gives_every_public_name_and_no_modules():
    namespace: dict = {}
    exec("from ovbkit import *", namespace)
    del namespace["__builtins__"]
    public = {
        name for name, value in vars(ovbkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(namespace) == public == set(ovbkit.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


def test_the_package_exports_each_layers_all_once():
    assert ovbkit.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(ovbkit.__all__)) == len(ovbkit.__all__)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(ovbkit, name) is getattr(layer, name), name


def test_the_cli_imports_only_public_names_from_the_layers():
    layers = {layer.__name__.rpartition(".")[2]: layer for layer in LAYERS}
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(inspect.getsource(ovbkit.cli)))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in layers
        for alias in node.names
        if not alias.name.startswith("_")
    ]
    assert imported
    assert [(module, name) for module, name in imported
            if name not in layers[module].__all__] == []
