"""Every import under src/tauseq/ and tests/ is used by the module that
makes it, every annotation under src/tauseq/ names something the module can
resolve, and only the two modules with a rational end import fractions.
A fresh `import tauseq.cli` loads no stdlib module that only one branch
uses (the process pool, gzip, Unicode digits, the internal-error
traceback) and no other module of tauseq, and a run of a subcommand loads
only the modules of tauseq that it reads."""

import ast
import importlib
import inspect
import subprocess
import sys
import typing
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tauseq"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path", [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))],
    ids=lambda path: (path.name if path.parent == SRC
                      else f"tests/{path.name}"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from typing import Iterable, Sequence\nx: Sequence[int] = ()\n"
    assert unused_imports(source) == ["Iterable"]


# recurrence: generate's tail after a division with a remainder;
# kp: schur and kp_bilinear_residual take and return Fraction coefficients
FRACTION_MODULES = {"recurrence", "kp"}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules an import statement brings in."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_rational_ends_import_fractions():
    users = {path.stem for path in SRC.glob("*.py")
             if "fractions" in imported_modules(
                 path.read_text(encoding="utf-8"))}
    assert users <= FRACTION_MODULES


def test_fractions_import_is_found():
    assert "fractions" in imported_modules("from fractions import Fraction\n")
    assert "fractions" in imported_modules("import fractions as fr\n")
    assert "fractions" not in imported_modules("from .fractions import x\n")


def annotated_callables(module):
    """The module's own functions, classes and the methods of its classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_annotations_resolve(path):
    module = importlib.import_module(f"tauseq.{path.stem}")
    for obj in annotated_callables(module):
        typing.get_type_hints(obj)  # raises NameError on an unknown name


# the modules of tauseq each module imports; cli, on top, imports any of
# them and no module imports cli.  The scan keys cycles from minors it
# computes itself, so it never reaches lattice.  The package itself
# (__init__) holds exact_int_str, which cli and oeis share.
LAYERS = {
    "__init__": set(),
    "intlinalg": set(),
    "lattice": set(),
    "maya": set(),
    "oeis": {"__init__"},
    "recurrence": {"lattice"},
    "scan": {"oeis", "recurrence"},
    "fock": {"intlinalg", "recurrence"},
    "kp": {"maya"},
    "verify": {"fock", "kp", "maya", "recurrence"},
}


def package_imports(source: str) -> set[str]:
    """The tauseq modules a module's from-imports name, relative
    ("from .lattice import ...") or absolute ("from tauseq import lattice");
    a name of the package itself ("from . import exact_int_str") counts as
    __init__."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.level > 1:
            continue
        module = node.module or ""
        if node.level == 0:
            package, _, module = module.partition(".")
            if package != "tauseq":
                continue
        found |= ({module.split(".")[0]} if module
                  else {alias.name if alias.name in modules else "__init__"
                        for alias in node.names})
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == {*LAYERS, "cli"}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_package_imports_follow_the_layers(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) == LAYERS[module]


def test_package_imports_are_found():
    source = "from . import oeis, scan\nfrom .lattice import minors\n"
    assert package_imports(source) == {"oeis", "scan", "lattice"}
    source = "from tauseq import lattice\nfrom tauseq.kp import schur\n"
    assert package_imports(source) == {"lattice", "kp"}
    assert package_imports("from fractions import Fraction\n") == set()
    assert package_imports("from . import exact_int_str, maya\n") == \
        {"__init__", "maya"}


# each is imported inside the one branch that uses it: scan.run_scan's
# pool, load_stripped's gzip input, _canonical_term's non-ASCII digits and
# cli._fail's exit 70
DEFERRED = ("concurrent.futures", "multiprocessing", "gzip", "unicodedata",
            "traceback")


def test_cli_import_defers_branch_only_modules():
    # -S keeps site's own imports out of sys.modules
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import tauseq.cli; "
            f"print(sorted(set({DEFERRED!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# runs argv, if any, after a fresh `import tauseq.cli` and prints the
# modules of tauseq then loaded
LOADED_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import tauseq.cli
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert tauseq.cli.main(sys.argv[2:]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "tauseq")))
"""

# the modules of tauseq beyond the package and cli that each run loads:
# each subcommand imports only what it runs (data is the package of the
# vendored OEIS fixture, which match and scan read)
SQUARE = "5,-2,-2,-1;1,1,-1,-1"
LOADED = [
    ([], set()),
    (["maya", "--young", "2,1"], {"maya"}),
    (["derive", "--matrix", SQUARE], {"lattice", "recurrence"}),
    (["generate", "--matrix", SQUARE, "--terms", "24"],
     {"lattice", "recurrence"}),
    (["match", "--terms-list", "2,3,4,5,9,18,34,93,180,348"],
     {"oeis", "data"}),
    (["scan", "--bound", "1"],
     {"scan", "oeis", "recurrence", "lattice", "data"}),
    (["verify", "octahedron", "--trials", "1"],
     {"verify", "fock", "kp", "maya", "intlinalg", "recurrence", "lattice"}),
]


@pytest.mark.parametrize("argv,modules", LOADED,
                         ids=[argv[0] if argv else "import"
                              for argv, _ in LOADED])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    out = subprocess.run(
        [sys.executable, "-S", "-c", LOADED_CHILD, str(SRC.parent), *argv],
        cwd=tmp_path, check=True, capture_output=True, text=True).stdout
    assert set(out.split()) == \
        {"tauseq", "tauseq.cli", *(f"tauseq.{m}" for m in modules)}
