"""The library keeps only what a route runs.

Every top-level function and class in `src/staromega` must be referenced
outside its own body by the library, the CLI, `checks` or the benchmark:
by a name, by an attribute, or (in `perfbench/`, whose span table names the
functions it wraps as strings) by an identifier string.  Every method,
property and class-level field must be read by an attribute load there,
outside its own definition.  A definition that only tests call belongs in
`tests/`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _references(tree: ast.AST, strings: bool) -> Counter:
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs[node.value] += 1
    return refs


def test_every_top_level_definition_in_src_is_referenced():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in ROOT.glob("src/staromega/*.py")}
    assert trees, "no library sources found"
    refs = sum((_references(t, strings=False) for t in trees.values()), Counter())
    for p in ROOT.glob("perfbench/*.py"):
        refs += _references(ast.parse(p.read_text(encoding="utf-8")), strings=True)
    unused = []
    for path, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = _references(node, strings=False)[node.name]
                if refs[node.name] - own <= 0:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "defined in src/ but referenced by no route: " + ", ".join(unused)


def _attribute_loads(tree: ast.AST) -> Counter:
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _members(cls: ast.ClassDef):
    """(name, node) of each method, property and class-level field."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_class_member_in_src_is_read():
    # a name shared by two members counts a read of either as a read of
    # both, so this cannot see a member whose name another one's readers use
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in ROOT.glob("src/staromega/*.py")}
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in ROOT.glob("perfbench/*.py")]
    loads = sum((_attribute_loads(t) for t in [*trees.values(), *bench]), Counter())
    unread = []
    for path, tree in sorted(trees.items()):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in _members(cls):
                if name.startswith("__") and name.endswith("__"):
                    continue
                if loads[name] - _attribute_loads(node)[name] <= 0:
                    unread.append(f"{path.name}:{node.lineno} {cls.name}.{name}")
    assert not unread, "class members in src/ that no route reads: " + ", ".join(unread)
