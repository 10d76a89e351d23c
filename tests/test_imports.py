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
