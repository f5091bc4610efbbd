"""Every function and method under src/wildcycle is referenced somewhere.

A reference is a bare name, an attribute name, an imported name, or a
dotted segment of a string constant (the tracer names its targets as
strings such as ``"LPoly.divmod"``).  Uses inside a definition's own body
(recursion) do not count.  Dunder methods are called by the language and
are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wildcycle"
SCANNED = [PACKAGE, ROOT / "tests", ROOT / "perfbench"]
_SEGMENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _references(tree):
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                found[part] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in node.value.split("."):
                if _SEGMENT.fullmatch(part):
                    found[part] += 1
    return found


def _definitions(tree, module):
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{module}.{prefix}{child.name}", child))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_no_unreferenced_definitions():
    total = Counter()
    trees = {}
    for base in SCANNED:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            total.update(_references(tree))
            if base == PACKAGE:
                trees[path.stem] = tree
    dead = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(_references(stmt)[name] for stmt in node.body)
            if total[name] - own <= 0:
                dead.append(qualname)
    assert not dead, "unreferenced definitions: " + ", ".join(sorted(dead))
