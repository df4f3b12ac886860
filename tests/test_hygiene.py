"""Source hygiene of ``src/qmeasure``, checked with ``ast`` alone.

Every name a module imports is used in that module (``__init__.py`` is
exempt: it imports to re-export), every parameter of every function is read
in its body (the receivers ``self`` and ``cls`` are exempt: Python binds
them, not the caller), every private top-level name is read somewhere in
the package, ``qmeasure.__all__`` is exactly what ``__init__.py``
imports, each name resolving, and every exception class of ``errors.py`` is
raised (constructed) somewhere else in the package, each judging error with
its records, and only ``linalg.judge`` asks ``within_tol``: every verdict is a
record of that one judge. Only ``measurement.py``, which stores a projector set, reads
its spectral factor ``_factor``. The package stays within
its line cap, a ratchet: lower ``LINE_CAP`` when the package shrinks, so that
growth needs a visible edit here. ``ERRSTATE_CAP`` is the same ratchet on its
``np.errstate`` entries (each costs a few microseconds a call): one per public
call, which runs its kernels inside it. No module calls ``np.linalg.norm``:
``linalg._norm`` and ``linalg.frobenius_norms`` give its values, bit for bit,
without its dispatch. Every private name the README puts in backticks, outside
its ``## Removed names`` section, is a name in the package. No module binds a
float literal at its top level outside ``FIXED_FLOATS``: every other threshold
is a residual judged at the caller's ``tol`` against a stated scale.
"""

import ast
import pathlib
import re

import pytest

import qmeasure

PACKAGE = pathlib.Path(qmeasure.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
RECEIVERS = {"self", "cls"}
LINE_CAP = 2189  # lines in src/qmeasure/*.py, as ``wc -l`` counts them
ERRSTATE_CAP = 9  # np.errstate calls in src/qmeasure/*.py, decorators and with blocks alike
# the module-level float literals whose judges take no tol (README, Tolerances)
FIXED_FLOATS = {"DEFAULT_TOL", "NORM_TOL", "PROB_FLOOR", "UNIMODULAR_TOL"}


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name read, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def unread_parameters(tree: ast.AST) -> list[str]:
    """``function:parameter`` for each parameter its function body never reads."""
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            reads = {n.id for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}:{p}" for p in params if p not in reads | RECEIVERS]
    return unread


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_parameter_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert unread_parameters(tree) == []


def test_every_exported_name_resolves():
    assert [name for name in qmeasure.__all__ if not hasattr(qmeasure, name)] == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: functions, classes, assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_private_top_level_name_is_read():
    trees = [ast.parse((PACKAGE / m).read_text(encoding="utf-8")) for m in ALL_MODULES]
    private = {name for tree in trees for name in top_level_names(tree) if name.startswith("_")}
    reads = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)  # linalg._require_square
            elif isinstance(node, ast.ImportFrom):
                reads.update(a.name for a in node.names)  # from .measurement import _x
    assert sorted(private - reads - {"__all__", "__version__"}) == []


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = set(qmeasure.__all__)
    assert sorted(exported ^ imported_names(tree)) == []
    assert len(qmeasure.__all__) == len(exported)  # no name listed twice


def test_every_exception_class_is_constructed_outside_errors():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    constructed = set()
    for module in ALL_MODULES:
        if module == "errors.py":
            continue
        for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                constructed.add(func.attr if isinstance(func, ast.Attribute) else
                                getattr(func, "id", None))
    assert sorted(classes - constructed) == []


# every QmeasureError but these judges a residual, so its construction passes its ``records``
UNJUDGING_ERRORS = {"DimensionMismatch", "UnknownOutcome", "ParseError"}


def constructions_without_records(tree: ast.AST, judging: set[str]) -> list[str]:
    """``line:call`` for each call constructing a judging error (by name, or by either
    branch of a conditional) with neither a second argument nor ``records=``: its residuals
    are its records' own, or the judged object's map beside them."""
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.func)
                      if isinstance(n, (ast.Name, ast.Attribute))}
            passes = len(node.args) >= 2 or any(k.arg == "records" for k in node.keywords)
            if called & judging and not passes:
                missing.append(f"{node.lineno}:{ast.unparse(node.func)}")
    return missing


def test_constructions_without_residuals_are_found():
    tree = ast.parse("NotMirror('m')\n(IncompleteSet if p else NotPositive)('m', ())\n"
                     "errors.NotHermitian('m', records=())\nParseError('m')\n"
                     "NotUnitary('m', residuals={})\n")
    judging = {"NotMirror", "IncompleteSet", "NotPositive", "NotHermitian", "NotUnitary"}
    assert constructions_without_records(tree, judging) == ["1:NotMirror", "5:NotUnitary"]


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "errors.py"])
def test_every_judging_error_is_constructed_with_its_residuals(module):
    """Every judging error carries the records it was judged with."""
    judging = {name for name, cls in vars(qmeasure.errors).items() if isinstance(cls, type)
               and issubclass(cls, qmeasure.errors.QmeasureError)} - UNJUDGING_ERRORS
    assert "QmeasureError" in judging and len(judging) == 10
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert constructions_without_records(tree, judging) == []


def within_tol_calls(tree: ast.AST) -> list[str]:
    """``line:function`` for each call of ``within_tol`` (by name or as an attribute) made
    outside a function named ``judge``."""
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) \
                    == "within_tol" and owner != "judge":
                calls.append(f"{child.lineno}:{owner}")
            visit(child, owner)
    visit(tree, None)
    return calls


def test_within_tol_calls_are_found():
    tree = ast.parse("def judge(v):\n    return within_tol(v, 1.0)\n"
                     "def f(v):\n    return linalg.within_tol(v, 1.0)\n"
                     "ok = within_tol(1.0, 1.0)\n"
                     "def g():\n    def judge():\n        within_tol(0, 1)\n    within_tol(0, 1)\n")
    assert within_tol_calls(tree) == ["4:f", "5:None", "9:g"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_the_judge_asks_within_tol(module):
    assert within_tol_calls(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))) == []


def factor_reads(tree: ast.AST) -> list[int]:
    """Lines that read ``_factor``: as an attribute, or by name as a string."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "_factor"
            or isinstance(node, ast.Constant) and node.value == "_factor"]


def test_factor_reads_are_found():
    tree = ast.parse("pset._factor\ngetattr(pset, '_factor', None)\nfactor = 1\n")
    assert factor_reads(tree) == [1, 2]


@pytest.mark.parametrize("module", [m for m in ALL_MODULES if m != "measurement.py"])
def test_only_measurement_reads_the_spectral_factor(module):
    assert factor_reads(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))) == []


def test_package_stays_within_its_line_cap():
    lines = sum(len((PACKAGE / m).read_text(encoding="utf-8").splitlines()) for m in ALL_MODULES)
    assert lines <= LINE_CAP


def errstate_uses(tree: ast.AST) -> int:
    """How many ``np.errstate(...)`` calls a module makes, as decorators or ``with`` items."""
    return sum(isinstance(node, ast.Call) and ast.unparse(node.func) == "np.errstate"
               for node in ast.walk(tree))


def test_errstate_uses_are_found():
    tree = ast.parse("@np.errstate(over='ignore')\ndef f():\n    with np.errstate(invalid='ignore'):\n"
                     "        return 'np.errstate'  # np.errstate\n")
    assert errstate_uses(tree) == 2


def test_package_stays_within_its_errstate_cap():
    uses = sum(errstate_uses(ast.parse((PACKAGE / m).read_text(encoding="utf-8"))) for m in ALL_MODULES)
    assert uses <= ERRSTATE_CAP


def numpy_norm_calls(tree: ast.AST) -> list[int]:
    """Lines that call ``np.linalg.norm`` (or ``numpy.linalg.norm``); naming it in a string is no call."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.linalg.norm", "numpy.linalg.norm")]


def test_numpy_norm_calls_are_found():
    tree = ast.parse('"""np.linalg.norm(a)"""\nx = np.linalg.norm(a) ** 2\n'
                     "y = numpy.linalg.norm\nz = linalg._norm(a)  # np.linalg.norm(a)\n")
    assert numpy_norm_calls(tree) == [2]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_calls_numpy_norm(module):
    assert numpy_norm_calls(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))) == []


def module_float_literals(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements bind to a float literal, signed or not."""
    names = []
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
            value = value.operand
        if isinstance(value, ast.Constant) and isinstance(value.value, float):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return names


def test_module_float_literals_are_found():
    tree = ast.parse("A = 1e-8\nB: float = -1e-10\nC = 8192\nD = E = 0.5\nF = 2.0 ** -52\n"
                     "def f():\n    G = 1.0\nH = 'x'\n")
    assert module_float_literals(tree) == ["A", "B", "D", "E"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_binds_an_unlisted_float_literal(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(set(module_float_literals(tree)) - FIXED_FLOATS) == []


def readme_private_names(text: str) -> set[str]:
    """The private parts (``_x``, no dunder) of the dotted names in the backticked spans of
    ``text``, outside its fenced code and its ``## Removed names`` section; ``_F`` after
    ``||`` is a subscript."""
    kept = re.sub(r"^```.*?^```$|^## Removed names$.*?(?=^## |\Z)", "", text, flags=re.M | re.S)
    dotted = (name for span in re.findall(r"`([^`]+)`", kept)
              for name in re.findall(r"(?<![\w|)\]])[A-Za-z_]\w*(?:\.\w+)*", span))
    return {part for name in dotted for part in name.split(".") if re.fullmatch(r"_[A-Za-z]\w*", part)}


def package_names() -> set[str]:
    """Every name the package binds or reads: definitions, arguments, names, attributes,
    imported names, and identifier strings (``vars(self)["_stack"]``)."""
    names = set()
    for module in ALL_MODULES:
        for node in ast.walk(ast.parse((PACKAGE / module).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            names.add(getattr(node, "id", None) or getattr(node, "attr", None))
    return names


def test_readme_private_names_are_found():
    text = ("`linalg._norm(a)` and `||A||_F` and `[U, P]_F` and `__all__`\n```\nx = 1  # `\n```\n"
            "## Removed names\n`_gone`\n## File formats\n`pset._stack` and `_Family._proves_mirror`\n")
    assert readme_private_names(text) == {"_norm", "_stack", "_Family", "_proves_mirror"}


def test_every_private_name_in_the_readme_is_in_the_package():
    text = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    assert sorted(readme_private_names(text) - package_names()) == []
