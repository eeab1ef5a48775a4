"""Layering, read from the source: format code depends only on data types, and only
``io_formats.atomic_write`` opens a file for writing.

The modules are parsed with ``ast`` rather than imported, because importing
any ``xckit`` submodule runs the package ``__init__``, which loads every module.
"""

import ast
import os

import xckit

SRC = os.path.dirname(os.path.abspath(xckit.__file__))
DATA_TYPE_MODULES = {"attribution", "autodiff", "errors", "geometry", "matching"}


def parse(module):
    with open(os.path.join(SRC, f"{module}.py")) as f:
        return ast.parse(f.read())


def relative_imports(module):
    """Names of the package modules that ``module`` imports relatively."""
    names = set()
    for node in ast.walk(parse(module)):
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



def writing_opens(module):
    """Names of the functions in ``module`` ("<module>" for its top level) that call
    ``open`` with a w, a, x or + mode, or with a mode that is not a string literal."""
    names = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                names.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(parse(module), "<module>")
    return names


def test_only_atomic_write_opens_files_for_writing():
    modules = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))
    found = {module: writing_opens(module) for module in modules}
    assert {m: names for m, names in found.items() if names} == {"io_formats": {"atomic_write"}}
