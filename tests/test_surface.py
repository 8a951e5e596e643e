"""The package's public surface is no larger than what is reached.

A public top-level name of ``src/capmeter`` stays only if something other
than its own definition and ``__all__`` reaches it: another package module
or its own module, a perfbench script (which names its traced boundaries by
string), or an acceptance criterion.  A name that only its own unit tests
call fails this test, which names it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "capmeter").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_all(node):
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))


def defined_names(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def used_names(node):
    """Every name a statement loads, reaches as an attribute, imports, or
    spells as a string (perfbench binds its traced boundaries by string)."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.add(sub.value)
    return used


def test_every_public_name_is_reached():
    # (file, top-level statement, the names it uses) over every reader
    uses = [(path, node, used_names(node))
            for path in READERS for node in parse(path).body]
    orphans = []
    for path in PACKAGE:
        for node in parse(path).body:
            for name in defined_names(node):
                if name.startswith("_"):
                    continue
                if not any(name in names for reader, stmt, names in uses
                           if not (reader == path and (
                               is_all(stmt) or name in defined_names(stmt)))):
                    orphans.append(f"{path.stem}.{name}")
    assert orphans == [], (
        f"reached only by their own unit tests: {', '.join(orphans)}; no "
        "package module, perfbench script or acceptance criterion uses them")
