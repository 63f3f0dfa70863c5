"""Structural checks on the package source."""
import ast
import sys
from collections import Counter
from pathlib import Path

import jamoparse

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jamoparse"


def public_definitions(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def names_imported_from(module, tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == module)
                or (node.level == 0 and node.module == "jamoparse." + module)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_autograd_name_is_imported_by_the_package():
    # ops only tests build belong in tests/graph_ops.py, not in the package
    defined = public_definitions(ast.parse((PACKAGE / "autograd.py").read_text("utf-8")))
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "autograd.py":
            used |= names_imported_from("autograd", ast.parse(path.read_text("utf-8")))
    assert defined, "no public names found in autograd.py"
    assert not defined - used, "autograd defines names no package module imports: %s" % (
        sorted(defined - used))


def imported_names(tree):
    """Names a module binds by import, except ``from __future__`` ones."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_no_package_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text("utf-8"))
            names = imported_names(tree) - {node.id for node in ast.walk(tree)
                                            if isinstance(node, ast.Name)}
            if names:
                unused[path.name] = sorted(names)
    assert not unused, "unused imports: %s" % unused


def referenced_names(tree):
    """Counts of the names a tree reads, as plain names or as attributes."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def test_every_public_function_and_class_is_used_or_exported():
    # a name only tests call belongs in tests/, not in the package
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in PACKAGE.glob("*.py")}
    exported = set(jamoparse.__all__)
    references = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unused = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in exported
                    and references[node.name] == referenced_names(node)[node.name]):
                unused.append("%s.%s" % (name[:-3], node.name))
    assert not unused, "defined, never used by the package, not in __all__: %s" % unused


def attribute_names(tree):
    """Counts of the attribute names a tree reads, as in ``obj.name``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def test_every_public_method_is_used():
    # a method is reached as an attribute; the benchmark outside its own tests is a real
    # caller (it reads ParameterStore.count)
    bench = PACKAGE.parent.parent / "perfbench"
    callers = list(PACKAGE.glob("*.py")) + [path for path in bench.rglob("*.py")
                                             if bench / "tests" not in path.parents]
    references = sum((attribute_names(ast.parse(path.read_text("utf-8"))) for path in callers),
                     Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text("utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                unused.extend("%s.%s.%s" % (path.stem, cls.name, node.name) for node in cls.body
                              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                              and not node.name.startswith("_")
                              and references[node.name] == attribute_names(node)[node.name])
    assert not unused, "public methods nothing outside tests calls: %s" % unused


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the package's one dependency (pyproject.toml)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            if roots - allowed:
                foreign.setdefault(path.name, set()).update(roots - allowed)
    assert not foreign, "imports outside the standard library and numpy: %s" % foreign
