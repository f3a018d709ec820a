"""Every public name in ``src/measrep`` has a caller in the program.

A public function, class or method counts as used when some module of
``src/`` or some script in ``benchmarks/`` reads its name, as a bare
name or as an attribute. Its own definition and the package's
``__init__`` re-export do not count, and neither do the tests: an API
that only a test calls is dead weight.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "measrep"


def _public_definitions(tree):
    """Qualified and bare names of the public functions and classes of a
    module, and of the public methods of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """Every name the module reads, as a name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    read = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{path.stem}.{qualified}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for qualified, name in _public_definitions(tree) if name not in read]
    assert len(sources) > 10
    assert not unused, f"public but never called from src/ or benchmarks/: {unused}"
