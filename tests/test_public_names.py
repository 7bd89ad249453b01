"""Every public name of the library has a caller outside the tests.

A module-level function, class or UPPER_CASE constant of ``src/assortopt``
whose name has no leading underscore must appear, as a whole word and
outside its own definition, in the library itself (``__init__.py``, which
only re-exports, aside), in ``perfbench`` or in the CI workflow.  A name
only the tests use belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "assortopt"


def _public_definitions(source: str):
    """(name, first line, last line) of each public module-level definition."""
    for node in ast.parse(source).body:
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


def uncalled(modules: dict, others: list) -> list:
    """The public names defined in ``modules`` (file name to source) that no
    text names outside their own definition; ``others`` are the further
    texts that count as callers."""
    flagged = []
    for module, source in sorted(modules.items()):
        lines = source.splitlines()
        for name, first, last in _public_definitions(source):
            word = re.compile(rf"\b{re.escape(name)}\b")
            outside = "\n".join(lines[:first - 1] + lines[last:])
            texts = [outside] + [text for other, text in modules.items() if other != module] + others
            if not any(word.search(text) for text in texts):
                flagged.append(name)
    return flagged


def _sources():
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(LIBRARY.glob("*.py")) if path.name != "__init__.py"}
    others = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))]
    others.append((ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8"))
    return modules, others


def test_every_public_name_has_a_caller():
    assert uncalled(*_sources()) == []


def test_a_public_function_nothing_calls_is_flagged():
    modules, others = _sources()
    modules["udp.py"] += "\n\ndef price_nothing(instance):\n    return price_nothing(instance)\n"
    assert uncalled(modules, others) == ["price_nothing"]
