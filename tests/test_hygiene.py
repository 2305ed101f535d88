"""Source hygiene: every name a module of the package imports is used there,
every module-level private function or class is read somewhere in the
package, every field of a dataclass is read as an attribute, every public
re-export, every public module-level function that is
not re-exported and every public method is read by the package or has a
stated reason to stay,
package modules are imported at module level and only by their public
names, no float enters the exact arithmetic, and the command line writes
its documents in ``main`` only.

Stdlib only: each ``src/nabext/*.py`` is parsed with ``ast``.  The package
``__init__.py`` is exempt from the import check, since its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nabext"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree: ast.Module):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            yield from (p.annotation for p in params if p is not None and p.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module):
    """Every name the module reads, forward references in annotations
    (such as ``-> "MultilinearMap"``) included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_package_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _private_defs(tree: ast.Module):
    """(name, line) of every module-level ``_private`` function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno


def _reads(tree: ast.Module):
    """Every name the module reads, as a bare name or as an attribute."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_no_unread_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    dead = [
        f"{name}: {helper} (line {line})"
        for name, tree in trees.items()
        for helper, line in _private_defs(tree)
        if helper not in read
    ]
    assert not dead, f"private helpers nothing in the package reads: {', '.join(dead)}"


def test_private_helper_scan_sees_reads_only():
    tree = ast.parse(
        "def _called(): pass\n"
        "class _Attr: pass\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "def __dunder__(): pass\n"
        "def api(m):\n"
        "    _dead = 1\n"
        "    return _called(), m._Attr\n"
    )
    assert [name for name, _ in _private_defs(tree) if name not in _reads(tree)] == ["_dead", "_Gone"]


# Re-exports that no module of the package reads, and why each stays.
UNREAD_EXPORTS = {
    "QQ": "the field constants are the way callers name a field",
    "GF2": "the field constants are the way callers name a field",
    "GF3": "the field constants are the way callers name a field",
    "delta_as_bracket": "delta = (-1)^(n-1) [m, .]: the independent side of the sign gate (criterion 2)",
    "circ_i": "the paper's ∘_i; tests hold circ to the signed sum of circ_i",
    "is_mc": "the Maurer-Cartan test the benchmark traces as a span",
    "enumerate_sections": "the section side of 'moving the section is the gauge action' (criterion 7)",
    "section_difference": "the section side of 'moving the section is the gauge action' (criterion 7)",
    "theta_from_gauge": "the independent side of 'a gauge transform is an equivalent extension'",
    "module_coboundary": "the curvature shift of an abelian gauge move (criterion 8); H^2 fibres build on it",
}


def _exports(tree: ast.Module):
    """(name, line) of every name the package ``__init__`` re-exports."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_export_is_read_or_has_a_reason():
    init = PACKAGE / "__init__.py"
    loaded = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    exports = dict(_exports(ast.parse(init.read_text(), filename=str(init))))
    unread = [f"{name} (line {line})" for name, line in exports.items() if name not in loaded | UNREAD_EXPORTS.keys()]
    assert not unread, f"exported, read by no package module and given no reason: {', '.join(unread)}"
    stale = sorted((UNREAD_EXPORTS.keys() - exports.keys()) | (UNREAD_EXPORTS.keys() & loaded))
    assert not stale, f"reasons for names that are not unread exports: {', '.join(stale)}"


# Module-level public functions that the package neither re-exports nor
# reads, and why each stays.
UNREAD_FUNCTIONS = {
    "gauge_to_json": "the write side of the gauge schema, read back by the round-trip tests",
    "extension_to_json": "the write side of the extension schema, read back by the round-trip tests",
    "section_to_json": "the write side of the section schema, read back by the round-trip tests",
}


def _public_functions(tree: ast.Module):
    """(name, line) of every module-level public function."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno


def test_every_unexported_function_is_read_or_has_a_reason():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    exports = dict(_exports(trees["__init__.py"]))
    defined = {name for path in MODULES for name, _ in _public_functions(trees[path.name])}
    unread = [
        f"{path.name}: {name} (line {line})"
        for path in MODULES
        for name, line in _public_functions(trees[path.name])
        if name not in exports and name not in read | UNREAD_FUNCTIONS.keys()
    ]
    assert not unread, f"not exported, read by no package module and given no reason: {', '.join(unread)}"
    stale = sorted(UNREAD_FUNCTIONS.keys() - (defined - exports.keys() - read))
    assert not stale, f"reasons for names that are not unread functions: {', '.join(stale)}"


def test_public_function_scan_sees_module_level_functions_only():
    tree = ast.parse(
        "def api(): pass\n"
        "def _private(): pass\n"
        "class Kind:\n"
        "    def method(self): pass\n"
        "def outer():\n"
        "    def inner(): pass\n"
    )
    assert [name for name, _ in _public_functions(tree)] == ["api", "outer"]


# Public methods that no module of the package reads, and why each stays.
UNREAD_METHODS = {
    "MultilinearMap.from_function": "builds the tests' hand-written maps; the benchmark traces it as a layer",
    "MultilinearMap.apply": "evaluation on vectors, the oracle the tests hold the flat cochain kernels to",
    "Rationals.div": "division belongs to the field interface; tests/test_fields.py pins it",
    "PrimeField.div": "division belongs to the field interface; tests/test_fields.py pins it",
    "GaugeParam.negate": "the inverse gauge move, which the acceptance tests apply",
}


def _public_methods(tree: ast.Module):
    """(``Class.method``, method, line) of every public method, property
    included, of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def test_every_public_method_is_read_or_has_a_reason():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = {
        qualified: f"{path.name}: {qualified} (line {line})"
        for path in MODULES
        for qualified, name, line in _public_methods(trees[path.name])
        if name not in read
    }
    missing = [where for qualified, where in unread.items() if qualified not in UNREAD_METHODS]
    assert not missing, f"read by no package module and given no reason: {', '.join(missing)}"
    stale = sorted(UNREAD_METHODS.keys() - unread.keys())
    assert not stale, f"reasons for names that are not unread methods: {', '.join(stale)}"


def test_public_method_scan_sees_methods_of_module_level_classes_only():
    tree = ast.parse(
        "class Kind:\n"
        "    def method(self): pass\n"
        "    @property\n"
        "    def size(self): pass\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "def api():\n"
        "    class Local:\n"
        "        def inner(self): pass\n"
    )
    assert [qualified for qualified, _, _ in _public_methods(tree)] == ["Kind.method", "Kind.size"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields(tree: ast.Module):
    """(``Class.field``, field, line) of every field of a module-level
    dataclass: its annotated class attributes, ``ClassVar`` ones left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if "ClassVar" not in ast.unparse(item.annotation):
                        yield f"{node.name}.{item.target.id}", item.target.id, item.lineno


def _attribute_reads(tree: ast.Module):
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    # a field that nothing reads as an attribute is bookkeeping that the
    # package writes and never uses
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    read = set().union(*(_attribute_reads(tree) for tree in trees.values()))
    unread = [
        f"{path.name}: {qualified} (line {line})"
        for path in MODULES
        for qualified, name, line in _dataclass_fields(trees[path.name])
        if name not in read
    ]
    assert not unread, f"dataclass fields no package module reads: {', '.join(unread)}"


def test_dataclass_field_scan_sees_fields_read_as_attributes_only():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "@dataclass(frozen=True)\n"
        "class Kept:\n"
        "    used: int\n"
        "    written: int\n"
        "    named: int = 0\n"
        "    LIMIT: ClassVar[int] = 3\n"
        "    def method(self):\n"
        "        return self.used\n"
        "@dataclass\n"
        "class Plain:\n"
        "    size: int = field(default=1)\n"
        "class NotData:\n"
        "    hidden: int\n"
        "def api(k):\n"
        "    k.written = 1\n"
        "    named = 2\n"
        "    return Plain(size=named).size\n"
    )
    fields = [qualified for qualified, _, _ in _dataclass_fields(tree)]
    assert fields == ["Kept.used", "Kept.written", "Kept.named", "Plain.size"]
    read = _attribute_reads(tree)
    assert [q for q, name, _ in _dataclass_fields(tree) if name not in read] == ["Kept.written", "Kept.named"]


def _package_imports(tree: ast.Module):
    """(module, names, inside a function) of every import of a package
    module: a relative import, or one of ``nabext`` itself."""
    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            inner = local or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if isinstance(child, ast.ImportFrom) and (child.level or (child.module or "").startswith("nabext")):
                yield "." * child.level + (child.module or ""), [alias.name for alias in child.names], inner
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("nabext"):
                        yield alias.name, [], inner
            yield from visit(child, inner)

    yield from visit(tree, False)


def _import_faults(tree: ast.Module):
    """Function-local imports of package modules, and imported ``_private``
    names of another module."""
    for module, names, local in _package_imports(tree):
        if local:
            yield f"local import of {module}"
        yield from (f"{module}.{n} is private" for n in names if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_are_top_level_and_public(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    faults = list(_import_faults(tree))
    assert not faults, f"{path.name}: {', '.join(faults)}"


def test_import_scan_sees_local_and_private_imports():
    tree = ast.parse(
        "import random\n"
        "from .linalg import solve\n"
        "def f():\n"
        "    import json\n"
        "    from .io_json import _reader, loads\n"
        "    from nabext.fields import QQ\n"
    )
    assert list(_import_faults(tree)) == [
        "local import of .io_json",
        ".io_json._reader is private",
        "local import of nabext.fields",
    ]


def _floats(tree: ast.Module):
    """(what, line) of every float or complex literal and ``float(...)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield repr(node.value), node.lineno
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield "float(...)", node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    # the arithmetic is exact: int or Fraction over Q, int over F_p
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{what} (line {line})" for what, line in _floats(tree)]
    assert not found, f"{path.name} uses floats: {', '.join(found)}"


def test_float_scan_sees_literals_and_calls():
    tree = ast.parse("x = 0.5\ny = float(1)\nz = 2j\nw = 3\n")
    assert [what for what, _ in _floats(tree)] == ["0.5", "float(...)", "2j"]


def _callers(tree: ast.Module, callee: str):
    """Names of the module-level functions whose bodies call ``callee``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = (n for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name))
            if any(call.func.id == callee for call in calls):
                yield node.name


def test_the_cli_writes_its_documents_in_main_only():
    # handlers return (document, verdict); main writes the document once
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_callers(tree, "_emit")) == ["main"]


def test_caller_scan_sees_calls_in_nested_bodies():
    tree = ast.parse(
        "def a():\n"
        "    if x:\n"
        "        _emit(1)\n"
        "def b():\n"
        "    m._emit(1)\n"
        "def c():\n"
        "    return [_emit(y) for y in z]\n"
    )
    assert list(_callers(tree, "_emit")) == ["a", "c"]
