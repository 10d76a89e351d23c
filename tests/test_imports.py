"""The library's modules reach one another only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmsyndrome"


def _private_imports(path: Path):
    """(line, module, name) for every underscore-prefixed name that the
    module at path imports from a module of the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "rmsyndrome":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, node.module, alias.name


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{line}: {name} from {module}"
             for path in modules for line, module, name in _private_imports(path)]
    assert found == []


def _parents_readers(path: Path):
    """The qualified name of each function or class body in the module at
    path that reads an attribute named parents (a call of
    MonomialIndex.parents or the bound method itself)."""
    tree = ast.parse(path.read_text(), str(path))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr == "parents":
                found.append(".".join((path.stem,) + scope))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_the_monomial_walk_reads_parents():
    # every walk down the monomial index is MonomialIndex.values
    found = [name for path in sorted(PACKAGE.glob("*.py")) for name in _parents_readers(path)]
    assert found == ["polynomials.MonomialIndex.values"]


# The decoders' modules and what they build on; none of them may factor
# a field order (the derandomized vectors are powers of X, not of a
# primitive element).
DECODE_PATH = ("code", "jennrich", "polyspace", "polynomials", "linalg")
FACTORING = {"factorize", "find_primitive_element", "OrderFactorizationError"}


def _factoring_imports(package: Path):
    """module.py:line: name for every import of a FACTORING name by a
    DECODE_PATH module of the package at package."""
    for module in DECODE_PATH:
        path = package / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name in FACTORING:
                        yield f"{module}.py:{node.lineno}: {alias.name}"


def test_no_decode_path_module_imports_factoring():
    assert list(_factoring_imports(PACKAGE)) == []
