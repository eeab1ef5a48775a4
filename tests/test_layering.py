"""Import layering, read from the source: format code depends only on data types.

The modules are parsed with ``ast`` rather than imported, because importing
any ``xckit`` submodule runs the package ``__init__``, which loads every module.
"""

import ast
import os

import xckit

SRC = os.path.dirname(os.path.abspath(xckit.__file__))
DATA_TYPE_MODULES = {"attribution", "autodiff", "errors", "geometry", "matching"}


def relative_imports(module):
    """Names of the package modules that ``module`` imports relatively."""
    with open(os.path.join(SRC, f"{module}.py")) as f:
        tree = ast.parse(f.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                names.add(node.module.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
    return names


def test_io_formats_imports_only_data_type_modules():
    imports = relative_imports("io_formats")
    assert imports and imports <= DATA_TYPE_MODULES, imports - DATA_TYPE_MODULES


def test_synth_does_not_import_meta():
    imports = relative_imports("synth")
    assert imports and "meta" not in imports
