"""Every function, class, method and module-level name under src/tauseq/
is used in src/.

A definition counts as used when its name occurs, as a name or as an
attribute, somewhere in src/tauseq/ outside its own body; a module-level
name (a constant or a type alias) outside the statement that assigns it.
Dunders are used by Python itself, and cli.main is the console entry point.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tauseq"
ENTRY_POINTS = {"cli.main"}


def referenced_names(tree: ast.AST) -> Counter:
    """How often each identifier occurs as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def definitions(tree: ast.AST, prefix: str):
    """(qualified name, short name, node) of every def and class, nested
    ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            yield name, node.name, node
            yield from definitions(node, name)
        else:
            yield from definitions(node, prefix)


def module_names(tree: ast.Module, module: str):
    """(qualified name, short name, statement) of every name a module-level
    assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id, node


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Qualified names of the definitions no other code refers to."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((referenced_names(tree) for tree in trees.values()),
                     Counter())
    unused = []
    for module, tree in trees.items():
        for name, short, node in [*definitions(tree, module),
                                  *module_names(tree, module)]:
            if short.startswith("__") and short.endswith("__"):
                continue
            if everywhere[short] - referenced_names(node)[short] == 0 \
                    and name not in ENTRY_POINTS:
                unused.append(name)
    return sorted(unused)


def test_every_definition_is_used_in_src():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert unused_definitions(sources) == []


def test_unused_definition_is_found():
    sources = {
        "a": "class Box:\n"
             "    def used(self):\n        return helper()\n"
             "    def spare(self):\n        return self.spare()\n"
             "def helper():\n    return 1\n",
        "b": "from a import Box\nBox().used()\n",
    }
    assert unused_definitions(sources) == ["a.Box.spare"]


def test_unused_module_name_is_found():
    sources = {
        "a": "__version__ = '1'\n"
             "LIMIT = 3\n"
             "Alias = dict[str, int]\n"
             "SPARE: int = 4\n"
             "LEFT, RIGHT = 1, 2\n"
             "def f(x: Alias):\n    LOCAL = 5\n    return LIMIT + LEFT\n",
        "b": "from a import f\nf({})\n",
    }
    assert unused_definitions(sources) == ["a.RIGHT", "a.SPARE"]
