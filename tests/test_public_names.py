"""Every public name of the library has a caller outside the tests.

A module-level function, class or UPPER_CASE constant of ``src/assortopt``
whose name has no leading underscore must be referenced by code outside its
own definition: in the library itself (``__init__.py``, which only
re-exports, aside), in ``perfbench`` or in the CI workflow.  In Python
source a reference is a name, an attribute or an import; in ``perfbench``
a non-docstring string constant also counts, since its tracer names the
functions it wraps as strings.  A word in a docstring or comment is no
reference.  In the CI workflow any whole word counts.  A name only the
tests use belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "assortopt"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _public_definitions(tree: ast.Module):
    """(name, first line, last line) of each public module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring constants of the module and its definitions."""
    owners = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(owner.body[0].value) for owner in owners
            if owner.body and isinstance(owner.body[0], ast.Expr) and isinstance(owner.body[0].value, ast.Constant)}


def references(source: str, strings: bool = False) -> list:
    """(name, line) of each reference in ``source``: names, attributes and
    imported names, and with ``strings`` the identifiers in every string
    constant that is not a docstring."""
    tree = ast.parse(source)
    skip = _docstrings(tree) if strings else set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            found += [(part, node.lineno) for part in node.name.split(".")]
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            found += [(word, node.lineno) for word in IDENTIFIER.findall(node.value)]
    return found


def uncalled(modules: dict, perfbench: list, workflow: str) -> list:
    """The public names defined in ``modules`` (file name to source) that no
    code references outside their own definition; ``perfbench`` holds
    further Python sources and ``workflow`` the CI text."""
    named = {module: references(source) for module, source in modules.items()}
    elsewhere = {name for source in perfbench for name, _ in references(source, strings=True)}
    elsewhere |= set(IDENTIFIER.findall(workflow))
    flagged = []
    for module, source in sorted(modules.items()):
        called = elsewhere | {name for other, refs in named.items() if other != module for name, _ in refs}
        for name, first, last in _public_definitions(ast.parse(source)):
            if name not in called | {ref for ref, line in named[module] if not first <= line <= last}:
                flagged.append(name)
    return flagged


def _sources():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"}
    perfbench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    return modules, perfbench, workflow


def test_every_public_name_has_a_caller():
    assert uncalled(*_sources()) == []


def test_a_public_function_nothing_calls_is_flagged():
    modules, perfbench, workflow = _sources()
    modules["udp.py"] += "\n\ndef price_nothing(instance):\n    return price_nothing(instance)\n"
    assert uncalled(modules, perfbench, workflow) == ["price_nothing"]


def test_a_name_only_a_docstring_mentions_is_flagged():
    modules, perfbench, workflow = _sources()
    modules["udp.py"] += "\n\ndef price_nothing(instance):\n    return instance\n"
    modules["models.py"] += '\n\ndef _helper():\n    """Unlike price_nothing, this helper ..."""\n'
    perfbench.append('"""price_nothing is not timed here."""\n')
    assert uncalled(modules, perfbench, workflow) == ["price_nothing"]
