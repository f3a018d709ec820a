"""Every public name in ``src/measrep`` has a reader.

A public function, class or method counts as used when some module of
``src/`` or some script in ``benchmarks/`` reads its name, as a bare
name or as an attribute. Its own definition and the package's
``__init__`` re-export do not count, and neither do the tests: an API
that only a test calls is dead weight.

A public field of a public class (an annotated name in its body) counts
as used when some module of ``src/``, script in ``benchmarks/`` or test
reads it as an attribute; a field that nothing reads is dead weight too.

A defaulted parameter of a public function or method counts as used when
some call in ``src/`` or ``benchmarks/`` passes it, by keyword or by
position; a default that no caller overrides is a constant. It must also
be left out by some call there: a default that every call overrides
serves only the tests, and the parameter should be required.

A private module-level function, class or constant counts as used when
some module of ``src/`` reads it outside its own definition; the tests
do not count, so a helper that a deletion left behind fails the check.

A module-level function, class or constant of ``tests/oracles.py`` counts
as used when some test module, or another oracle, reads it; a reference
that a change left behind fails the check.
"""

import ast
from collections import Counter
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


def _public_fields(tree):
    """Qualified and bare names of the annotated public fields of a
    module's public classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name[0] != "_":
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id[0] != "_"):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _attribute_reads(tree):
    """Every attribute name the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_field_is_read():
    sources = sorted(path for folder in (PACKAGE, ROOT / "benchmarks", ROOT / "tests",
                                         ROOT / "benchmarks" / "tests")
                     for path in folder.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    read = {name for tree in trees.values() for name in _attribute_reads(tree)}
    fields = [(f"{path.stem}.{qualified}", name)
              for path, tree in trees.items() if path.parent == PACKAGE
              for qualified, name in _public_fields(tree)]
    unread = [qualified for qualified, name in fields if name not in read]
    assert fields
    assert not unread, f"public fields that nothing reads: {unread}"


def _defaulted_parameters(tree):
    """(qualified name, callee name, parameter, position) of each defaulted
    parameter of a module's public functions, and of the public methods
    and ``__init__`` of its public classes. A call of class C calls
    ``C.__init__``; a method's positions skip ``self``, and a
    keyword-only parameter has no position."""
    def defaults(fn, qualified, callee, skip):
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for pos, arg in enumerate(args[first:], first):
            yield qualified, callee, arg.arg, pos - skip
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualified, callee, arg.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
            yield from defaults(node, node.name, node.name, 0)
        if isinstance(node, ast.ClassDef) and node.name[0] != "_":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name[0] != "_"
                                                          or item.name == "__init__"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    callee = node.name if item.name == "__init__" else item.name
                    yield from defaults(item, f"{node.name}.{item.name}", callee,
                                        0 if static else 1)


def _calls(trees):
    """Callee name -> one set per call of the positions and keywords it
    passes; "*" and "**" stand for a starred positional or keyword argument."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(
                {"*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args)}
                | {"**" if kw.arg is None else kw.arg for kw in node.keywords})
    return calls


def _defaulted_parameter_calls():
    """(qualified parameter, [whether it passes the parameter, per call])
    for each defaulted parameter of ``src/measrep``, over the calls in
    ``src/`` and ``benchmarks/*.py`` of a callable of the same name."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    calls = _calls(trees.values())
    for path, tree in trees.items():
        if path.parent == PACKAGE:
            for qualified, callee, param, pos in _defaulted_parameters(tree):
                yield f"{path.stem}.{qualified}({param})", [
                    bool(call & {param, "**"}) or (pos is not None and bool(call & {pos, "*"}))
                    for call in calls.get(callee, [])]


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    params = list(_defaulted_parameter_calls())
    never = [param for param, passes in params if not any(passes)]
    assert params
    assert not never, f"defaulted parameters that no call passes: {never}"


def test_no_defaulted_parameter_is_passed_by_every_call():
    always = [param for param, passes in _defaulted_parameter_calls()
              if passes and all(passes)]
    assert not always, f"defaulted parameters that every call passes: {always}"


def _module_definitions(tree):
    """(name, node) of each module-level function, class and constant (an
    assigned name) of a module, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("__"):
                yield name, node


def test_every_private_name_is_read_in_src():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _references(tree))
    private = [(f"{path.stem}.{name}", name, node)
               for path, tree in trees.items()
               for name, node in _module_definitions(tree) if name[0] == "_"]
    unread = [qualified for qualified, name, node in private
              if reads[name] == Counter(_references(node))[name]]
    assert private
    assert not unread, f"private names that nothing in src/ reads: {unread}"


def test_every_oracle_is_read_by_a_test_or_another_oracle():
    tests = ROOT / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    readers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(tests.glob("test_*.py"))] + [oracles]
    reads = Counter(name for tree in readers for name in _references(tree))
    definitions = list(_module_definitions(oracles))
    unread = [name for name, node in definitions
              if reads[name] == Counter(_references(node))[name]]
    assert len(definitions) > 30
    assert not unread, f"oracles that no test or other oracle reads: {unread}"
