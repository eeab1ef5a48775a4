"""Layering, read from the source: format code depends only on data types, only
``io_formats.atomic_write`` opens a file for writing, no module reads the
environment, only ``pipeline`` reads a config file, so each input has one source,
and only ``cli.main`` turns an error into an exit code.

The modules are parsed with ``ast`` rather than imported, because importing
any ``xckit`` submodule runs the package ``__init__``, which loads every module.
"""

import ast
import os

import xckit

SRC = os.path.dirname(os.path.abspath(xckit.__file__))
DATA_TYPE_MODULES = {"attribution", "autodiff", "errors", "geometry", "matching"}
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


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



def owned(module, kind=ast.Call):
    """(owner, node) for every ``kind`` node in ``module``; the owner is the name of the
    top-level function around it, nested functions included, or "<module>"."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        if isinstance(node, kind):
            yield owner, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return visit(parse(module), "<module>")


def writing_opens(module):
    """Names of the functions in ``module`` ("<module>" for its top level) that call
    ``open`` with a w, a, x or + mode, or with a mode that is not a string literal."""
    names = set()
    for owner, call in owned(module):
        if "open" in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
            modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                names.add(owner)
    return names


def test_only_atomic_write_opens_files_for_writing():
    found = {module: writing_opens(module) for module in MODULES}
    assert {m: names for m, names in found.items() if names} == {"io_formats": {"atomic_write"}}


def environment_reads(module):
    """Line numbers in ``module`` that name ``os.environ`` or ``os.getenv``, as an
    attribute, a bare name or an import from ``os``."""
    env = {"environ", "environb", "getenv", "getenvb"}
    lines = []
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
        else:
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
        if names & env:
            lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    # a flag's value comes from the command line or its config key, never from the environment
    found = {module: environment_reads(module) for module in MODULES}
    assert {m: lines for m, lines in found.items() if lines} == {}


def test_only_pipeline_reads_a_config():
    # every other subcommand takes its flags from its command line alone
    readers = {owner for owner, call in owned("cli")
               if getattr(call.func, "id", None) == "load_json"}
    assert readers == {"_cmd_pipeline"}


def test_only_main_decides_exit_codes():
    # a handler's checks and its call raise XckitError; main alone tells a usage error
    # (raised by the checks) from a data error (raised by the call), so cli adds no class
    assert [node.name for _, node in owned("cli", ast.ClassDef)] == []
    catchers = {owner for owner, handler in owned("cli", ast.ExceptHandler)
                if "XckitError" in {getattr(n, "id", None) for n in ast.walk(handler.type)}}
    assert catchers == {"main"}
