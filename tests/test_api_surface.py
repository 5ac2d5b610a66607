"""Every function, class, method and module-level name under src/tauseq/
is used in src/.

A definition counts as used when its name occurs, as a name or as an
attribute, somewhere in src/tauseq/ outside its own body; a module-level
name (a constant or a type alias) outside the statement that assigns it.
Dunders are used by Python itself, and cli.main is the console entry point.
By the same count over tests/, every definition in a reference path
(tests/reference_*.py) and every reference_* helper of a test module is
used: a reference that no test reaches checks nothing.

Every parameter default of a function under src/tauseq/ is relied on:
some direct call in src/ or perfbench/ whose callee has the function's
name leaves that argument out.  A function no direct call names, such as
an oracle reached through verify.ORACLES or scan_slice through pool.map,
is left out, and so is the entry point cli.main.

No module under src/tauseq/ or tests/ binds one top-level def or class
name twice: the later definition would silently replace the earlier one.

No reference path (tests/reference_*.py) imports a _-prefixed name from
tauseq, or reads one as an attribute of a name it imported from tauseq: a
reference that shares a private helper of the code it checks cannot catch
that helper's faults.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tauseq"
PERFBENCH = TESTS.parent / "perfbench"
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


def unused_references(sources: dict[str, str]) -> list[str]:
    """The unused definitions of the reference modules, and the unused
    reference_* definitions of any module."""
    return [name for name in unused_definitions(sources)
            if name.startswith("reference_")
            or name.rpartition(".")[2].startswith("reference_")]


def test_every_reference_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(TESTS.glob("*.py"))}
    assert unused_references(sources) == []


def test_unused_reference_is_found():
    sources = {
        "reference_a": "def reference_used():\n    return helper()\n"
                       "def helper():\n    return 1\n"
                       "def reference_spare():\n    return 2\n"
                       "def spare():\n    return 3\n",
        "test_b": "from reference_a import reference_used\n"
                  "def test_x():\n    assert reference_used()\n"
                  "def reference_local():\n    return 4\n",
    }
    assert unused_references(sources) == [
        "reference_a.reference_spare", "reference_a.spare",
        "test_b.reference_local"]


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


def defaulted_parameters(node: ast.FunctionDef, method: bool):
    """(position or None, name) of each parameter with a default; a
    method's position counts from after self or cls."""
    args = node.args
    positional = [*args.posonlyargs, *args.args][method:]
    for i, arg in enumerate(positional):
        if i >= len(positional) - len(args.defaults):
            yield i, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def leaves_out(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether the call leaves the parameter to its default; a call that
    unpacks *args or **kwargs may leave out any of them."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or \
            any(keyword.arg is None for keyword in call.keywords):
        return True
    if position is not None and position < len(call.args):
        return False
    return all(keyword.arg != name for keyword in call.keywords)


def unrelied_defaults(sources: dict[str, str],
                      callers: dict[str, str]) -> list[str]:
    """"module.function(parameter)" of each default in sources that every
    direct call in sources or callers, matched by the callee's name,
    passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *map(ast.parse, callers.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    unrelied = []
    for module, tree in trees.items():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for qualified, short, node in definitions(tree, module):
            if not isinstance(node, ast.FunctionDef) \
                    or qualified in ENTRY_POINTS or short not in calls:
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            method = id(node) in methods and not static
            for position, name in defaulted_parameters(node, method):
                if not any(leaves_out(call, position, name)
                           for call in calls[short]):
                    unrelied.append(f"{qualified}({name})")
    return sorted(unrelied)


def test_every_default_is_relied_on():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    callers = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PERFBENCH.glob("*.py"))}
    assert unrelied_defaults(sources, callers) == []


def test_unrelied_default_is_found():
    sources = {
        "a": "class Box:\n"
             "    def put(self, item, count=1, *, tag=None):\n"
             "        return item\n"
             "def dispatched(x=0):\n    return x\n"
             "def spread(x, y=0, z=0):\n    return x\n"
             "TABLE = {'d': dispatched}\n",
        "cli": "def main(argv=None):\n    return argv\n",
    }
    callers = {
        "b": "from a import Box, spread\n"
             "Box().put(1, 2)\nBox().put(1, tag='t', count=3)\n"
             "spread(*[1, 2])\n"
             "import cli\ncli.main(['x'])\n",
    }
    assert unrelied_defaults(sources, callers) == ["a.Box.put(count)"]


def redefined_names(source: str) -> list[str]:
    """The top-level def and class names a module binds more than once."""
    names = Counter(node.name for node in ast.parse(source).body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef)))
    return sorted(name for name, count in names.items() if count > 1)


def test_no_module_defines_a_name_twice():
    redefined = {}
    for path in sorted([*SRC.rglob("*.py"), *TESTS.rglob("*.py")]):
        names = redefined_names(path.read_text(encoding="utf-8"))
        if names:
            redefined[str(path.relative_to(TESTS.parent))] = names
    assert redefined == {}


def test_redefined_name_is_found():
    source = ("def f():\n    return 1\n"
              "class Box:\n    def f(self):\n        return 2\n"
              "    def g(self):\n        return 3\n"
              "    def g(self):\n        return 4\n"
              "class Box:\n    pass\n"
              "def f():\n    return 5\n")
    assert redefined_names(source) == ["Box", "f"]


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list[str]:
    """"module.name" of each _-prefixed name the source imports from the
    tauseq package, and "module.name._attr" of each _-prefixed attribute
    it reads off a name so imported."""
    tree = ast.parse(source)
    found, imported = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.partition(".")[0] == "tauseq":
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = qualified
                if private(alias.name):
                    found.append(qualified)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "tauseq":
                    bound = alias.asname or alias.name.partition(".")[0]
                    imported[bound] = alias.name if alias.asname else bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            path, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                path.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in imported:
                found.append(".".join([imported[value.id], *reversed(path)]))
    return sorted(found)


def test_reference_paths_import_no_private_name():
    found = {}
    for path in sorted(TESTS.glob("reference_*.py")):
        names = private_imports(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}


def test_private_import_is_found():
    source = ("from tauseq.fock import (Window,\n    _wedge_slots)\n"
              "from tauseq import _hidden as shown, oeis, kp as poly\n"
              "from tauseqx import _other\n"
              "from fractions import _helper\n"
              "import tauseq.fock\n"
              "import tauseq.scan as sc\n"
              "import fractions\n"
              "def f():\n    from tauseq.scan import _inner\n"
              "oeis._canonical_term, oeis.A_NUMBER_RE, poly.add.__name__\n"
              "Window._cache, tauseq.fock._slot, sc._key, fractions._gcd\n")
    assert private_imports(source) == ["tauseq._hidden",
                                       "tauseq.fock.Window._cache",
                                       "tauseq.fock._slot",
                                       "tauseq.fock._wedge_slots",
                                       "tauseq.oeis._canonical_term",
                                       "tauseq.scan._inner",
                                       "tauseq.scan._key"]
