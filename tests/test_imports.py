"""Every module-level import in the package sources is used, and no module
caches through ``functools``.

No linter ships with the project, so this parses each module with ``ast``:
a name bound by a top-level ``import`` must be read somewhere else in that
module, in code or in a quoted annotation.  ``__init__.py`` is left out
because its imports are the public re-exports.  The package has one explicit
cache of results, ``frames.memo``, so ``functools.lru_cache``,
``functools.cache`` and ``functools.cached_property`` are refused everywhere,
and the only module-level table filled at run time is the table of shapes
``tensors._GATHERS``.  It has one pass/fail
result path, ``frames.check_result``, so every other ``CheckResult(...)`` call
builds a skip entry.  It has one cancellation, in ``scalars``, so no other
module calls the gcd or the exact divisions.  The tensor storage form lives
behind ``tensors``, so no other module imports its storage helpers or reads
a tensor's numerators and denominator.  A frame's data are the Tensors
``brackets``, ``metric`` and ``product``: no module reads the nested view
``FrameAlgebra.c``, and the views ``.g`` and ``.p`` are read only by the
functions of ``frames`` that need rows: ``validate`` and ``killing_check``
(their ``map_slot`` calls) and the spec writer ``frame_to_dict``.  The
eliminations of ``metric_minors`` and ``metric_inv`` read ``metric``.  Frame
data move as tensors, so the Scalar matrix product ``mat_mul`` is named only
where it is defined, ``tensors``, and exported, ``__init__``.  Input is parsed in one place,
``frames._parse_entry``, which parses each distinct text once per file, so
no other code in the package reads ``parse_expression``.  A frame's
matrices are the Tensors ``metric`` and ``product``, cleared once, when the
frame is built, so no ``coefficient_tensor(...)`` call takes a frame's
nested views ``.g`` or ``.p`` outside the argument of a ``mat_inv(...)``,
whose inverse is a new matrix.  They and ``metric_inv`` are what reaches the
tensor kernel, so no call of ``lower_slot``, ``raise_slot``, ``map_slots``,
``arranged`` or ``tensor_contract`` takes an attribute ``g`` or ``p``.  ``map_slot`` is the
one exception: ``validate`` and ``killing_check`` pass it the nested
``fa.p``, as the benchmark's tracer, which reads that argument as rows,
requires.  Scalar arithmetic has one path: ``Scalar.__add__``, ``__mul__``
and ``__truediv__`` read no attribute ``value``, so a constant operand
takes no branch of its own and every quotient cancels in ``_make``.  Each
kernel choice is made in one place: only ``tensors._eliminated`` calls an
elimination loop, ``_gauss_jordan`` or ``_bareiss``, and a ``_passed`` call
takes one argument, the slot matrices, so the pass never permutes.  A
connection holds both of its forms, g(nabla_x y, z) and the coefficients
raised from it once, so outside the class ``Connection`` no ``lower_slot``
or ``raise_slot`` call takes an attribute ``coeffs`` or ``lowered`` as its
receiver.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "rptgeo"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FUNCTOOLS_CACHES = {"lru_cache", "cache", "cached_property"}
SHAPE_TABLES = {("tensors.py", "_GATHERS")}
CANCELLATION_CALLS = {"_poly_gcd", "_divexact", "_content"}
STORAGE_IMPORTS = {"_mul", "_scalars", "_times", "_cleared", "_joint", "_as_poly"}
STORAGE_ATTRIBUTES = {"_values", "_nums", "_den"}


def _imported_names(tree: ast.Module) -> dict:
    """Top-level imported name -> line of its import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "Tensor" or "list[Scalar]"
            try:
                used |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read_names(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in sorted(_imported_names(tree).items()) if name not in used]
    assert not unused, "%s imports unused names: %s" % (path.name, ", ".join(unused))


def _functools_caches(tree: ast.Module) -> list:
    """Uses of a ``functools`` cache in FUNCTOOLS_CACHES, imported by name or read
    as an attribute of the module (under any alias), with their lines."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += ["%s (line %d)" % (alias.name, node.lineno)
                      for alias in node.names if alias.name in FUNCTOOLS_CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append("functools.%s (line %d)" % (node.attr, node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_cache(path):
    found = _functools_caches(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s caches outside frames.memo: %s" % (path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n",
    "from functools import cache, wraps\n",
    "import functools\n@functools.lru_cache(None)\ndef f(): pass\n",
    "import functools as ft\nf = ft.cache(len)\n",
    "from functools import cached_property\n",
    "import functools\nclass A:\n    @functools.cached_property\n    def f(self): pass\n",
])
def test_functools_cache_is_detected(source):
    assert _functools_caches(ast.parse(source))


def test_other_functools_names_are_allowed():
    assert not _functools_caches(ast.parse("from functools import partial, wraps\n"))


def _module_tables(tree: ast.Module) -> list:
    """Names bound at module level to an empty dict, ``{}`` or ``dict()``,
    which only run time can fill, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and not value.args and not value.keywords
            and "dict" in (getattr(value.func, "id", None), getattr(value.func, "attr", None)))
        if empty:
            found += [(name.id, node.lineno) for target in targets
                      for name in ast.walk(target) if isinstance(name, ast.Name)]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_shape_tables_fill_at_run_time(path):
    found = ["%s (line %d)" % (name, line)
             for name, line in _module_tables(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, name) not in SHAPE_TABLES]
    assert not found, "%s keeps a module-level table outside %s: %s" % (
        path.name, sorted(name for _, name in SHAPE_TABLES), ", ".join(found))


def test_the_shape_tables_are_found():
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name, _ in _module_tables(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == SHAPE_TABLES


@pytest.mark.parametrize("source", [
    "_CACHE = {}\n",
    "_CACHE: dict = {}\n",
    "_CACHE = dict()\n",
    "_A = _B = {}\n",
    "import builtins\n_CACHE = builtins.dict()\n",
])
def test_module_table_is_detected(source):
    assert _module_tables(ast.parse(source))


def test_constant_and_local_dicts_are_allowed():
    source = ('_VARS = {"x": 0}\n_PAIRS = dict(a=1)\n'
              "def f():\n    seen = {}\n    return seen\n")
    assert not _module_tables(ast.parse(source))


def _forked_results(tree: ast.Module, constructor=None) -> list:
    """``CheckResult(...)`` calls outside the function named constructor whose
    status is not the literal "skip", with their lines."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not inside and (
                    getattr(child.func, "id", None) == "CheckResult"
                    or getattr(child.func, "attr", None) == "CheckResult"):
                status = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "status"), None)
                if not (isinstance(status, ast.Constant) and status.value == "skip"):
                    found.append("line %d" % child.lineno)
            visit(child, inside or (isinstance(child, ast.FunctionDef)
                                    and child.name == constructor))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_constructor_decides_pass_or_fail(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = _forked_results(tree, "check_result" if path.name == "frames.py" else None)
    assert not found, "%s builds a pass/fail CheckResult outside frames.check_result: %s" % (
        path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    'r = CheckResult("x", "pass")\n',
    'def f(w):\n    return CheckResult("x", "fail" if w else "pass", w)\n',
    'r = frames.CheckResult("x", status="fail")\n',
    'r = CheckResult(*args)\n',
    'def check_result():\n    pass\ndef g():\n    return CheckResult("x", "pass")\n',
])
def test_forked_result_is_detected(source):
    assert _forked_results(ast.parse(source), "check_result")


def test_skip_entries_and_the_constructor_are_allowed():
    source = ('def check_result(i, w):\n    return CheckResult(i, "fail" if w else "pass")\n'
              'def skip(i):\n    return CheckResult(i, "skip", reason="r")\n'
              'def other(i):\n    return CheckResult(i, status="skip")\n')
    assert not _forked_results(ast.parse(source), "check_result")


def _cancellation_calls(tree: ast.Module) -> list:
    """Calls of a routine in CANCELLATION_CALLS, by name or as an attribute,
    with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in CANCELLATION_CALLS:
                found.append("%s (line %d)" % (name, node.lineno))
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "scalars.py"], ids=lambda p: p.name)
def test_only_scalars_cancels(path):
    found = _cancellation_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s cancels outside scalars: %s" % (path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "g = _poly_gcd(f, d)\n",
    "from .scalars import _divexact\nq = _divexact(f, d)\n",
    "from . import scalars\nk = scalars._content(f)\n",
])
def test_cancellation_call_is_detected(source):
    assert _cancellation_calls(ast.parse(source))


def test_the_shared_cancellation_is_allowed():
    source = "from .scalars import _canonical\n(x,), d = _canonical([x], d)\n"
    assert not _cancellation_calls(ast.parse(source))


def _storage_reads(tree: ast.Module) -> list:
    """Imports of a name in STORAGE_IMPORTS and reads of an attribute in
    STORAGE_ATTRIBUTES, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += ["import %s (line %d)" % (alias.name, node.lineno)
                      for alias in node.names if alias.name in STORAGE_IMPORTS]
        elif isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRIBUTES:
            found.append(".%s (line %d)" % (node.attr, node.lineno))
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "tensors.py"], ids=lambda p: p.name)
def test_only_tensors_reads_the_storage_form(path):
    found = _storage_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s reads the tensor storage form: %s" % (path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "from .tensors import Tensor, _mul\n",
    "from rptgeo.tensors import _as_poly as lift\n",
    "values, den = t._values()\n",
    "n = t._nums\n",
    "d = t._den\n",
])
def test_storage_read_is_detected(source):
    assert _storage_reads(ast.parse(source))


def test_the_tensor_api_is_allowed():
    source = ("from .tensors import Tensor, _rows, jacobi_residuals\n"
              "x = t.ints, t.comps, t.den\n")
    assert not _storage_reads(ast.parse(source))


# the functions that may read the nested rows fa.g and fa.p: the map_slot
# calls of validate and killing_check, which the benchmark's tracer reads as
# rows, and the spec writer
VIEW_READERS = ("validate", "killing_check", "frame_to_dict")


def _view_readers(name: str) -> tuple:
    return VIEW_READERS if name == "frames.py" else ()


def _nested_view_reads(tree: ast.Module, readers=()) -> list:
    """Reads of an attribute ``c``, and of ``g`` or ``p`` outside the
    functions named in readers, with their lines."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr in ("c", "g", "p")
                    and isinstance(child.ctx, ast.Load) and (child.attr == "c" or not inside)):
                found.append("%s at line %d" % (child.attr, child.lineno))
            visit(child, inside or (isinstance(child, ast.FunctionDef)
                                    and child.name in readers))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_spec_writer_reads_the_nested_brackets(path):
    """No module reads the nested brackets fa.c, and only the row readers of
    frames.py read fa.g or fa.p."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = _nested_view_reads(tree, _view_readers(path.name))
    assert not found, "%s reads a nested view fa.c, fa.g or fa.p: %s" % (
        path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "lam = fa.c[0][1][0]\n",
    "def substitute(self):\n    return [row for row in self.c]\n",
    "def frame_to_dict(fa):\n    pass\ndef other(fa):\n    return fa.c\n",
    "same = a.c == b.c\n",
])
def test_nested_view_read_is_detected(source):
    assert _nested_view_reads(ast.parse(source), _view_readers("frames.py"))


@pytest.mark.parametrize("name, source", [
    ("frames.py", "def frame_to_dict(fa):\n    return fa.c[0]\n"),
    ("frames.py", "def adapted_frame(fa):\n    return mat_identity(len(fa.g), ())\n"),
    ("frames.py", "def _eigenbasis(fa):\n    return fa.p[0][0]\n"),
    ("frames.py", "class FrameAlgebra:\n    def metric_minors(self):\n"
                  "        return leading_minors(self.g)\n"),
    ("frames.py", "class FrameAlgebra:\n    def metric_inv(self):\n"
                  "        return mat_inv(self.g)\n"),
    ("example.py", "if fa.p != swap_product_matrix(4, fa.params):\n    pass\n"),
    ("example.py", "def validate(fa):\n    return fa.g\n"),
    ("theorems.py", "def killing_check(fa):\n    return fa.p\n"),
])
def test_a_nested_view_read_outside_the_row_readers_is_detected(name, source):
    assert _nested_view_reads(ast.parse(source), _view_readers(name))


def test_the_spec_writer_and_the_view_itself_are_allowed():
    source = ("class FrameAlgebra:\n    @property\n    def c(self):\n"
              "        return self.brackets\n"
              "    @property\n    def metric_inv(self):\n        return mat_inv(self.metric)\n"
              "def validate(fa):\n    return p.map_slot(fa.p, 1), fa.g[:1]\n"
              "def killing_check(fa):\n    return low.map_slot(fa.p, 2)\n"
              "def frame_to_dict(fa):\n    return [fa.g, fa.p]\n"
              "c = fa.brackets\n")
    assert not _nested_view_reads(ast.parse(source), _view_readers("frames.py"))


def _matrix_products(tree: ast.Module) -> list:
    """Names, attributes and imports of ``mat_mul``, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += ["import (line %d)" % node.lineno
                      for alias in node.names if alias.name == "mat_mul"]
        elif (isinstance(node, ast.Name) and node.id == "mat_mul") or (
                isinstance(node, ast.Attribute) and node.attr == "mat_mul"):
            found.append("line %d" % node.lineno)
    return found


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name not in ("tensors.py", "__init__.py")],
                         ids=lambda p: p.name)
def test_no_scalar_matrix_product_outside_the_kernel(path):
    found = _matrix_products(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s names mat_mul outside tensors.py: %s" % (path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "from .tensors import mat_mul\n",
    "from .tensors import mat_mul as product\n",
    "from . import tensors\ngp = tensors.mat_mul(g, p)\n",
    "gp = mat_mul(g, p)\n",
    "product = mat_mul\n",
])
def test_matrix_product_is_detected(source):
    assert _matrix_products(ast.parse(source))


def test_the_other_matrix_helpers_are_allowed():
    source = ("from .tensors import mat_identity, mat_inv, mat_transpose\n"
              "from . import tensors\nm = tensors.mat_det(mat_inv(a))\n")
    assert not _matrix_products(ast.parse(source))


def _parse_reads(tree: ast.Module, reader=None) -> list:
    """Reads of ``parse_expression``, by name or as an attribute, outside the
    function named reader, and imports that rename it, with their lines."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                found.extend("import as %s (line %d)" % (alias.asname, child.lineno)
                             for alias in child.names
                             if alias.name == "parse_expression" and alias.asname)
            elif not inside and ((isinstance(child, ast.Name) and child.id == "parse_expression")
                                 or (isinstance(child, ast.Attribute)
                                     and child.attr == "parse_expression")):
                found.append("line %d" % child.lineno)
            visit(child, inside or (isinstance(child, ast.FunctionDef)
                                    and child.name == reader))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_entry_reader_parses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = _parse_reads(tree, "_parse_entry" if path.name == "frames.py" else None)
    assert not found, "%s parses outside frames._parse_entry: %s" % (path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "v = parse_expression(text, params)\n",
    "from . import parser\nv = parser.parse_expression(text, ())\n",
    "def _parse_entry():\n    pass\ndef other(text):\n    return parse_expression(text, ())\n",
    "from .parser import parse_expression as parse\n",
    "parse = parse_expression\n",
    "def _read_table(d):\n    return {k: parse_expression(v, ()) for k, v in d.items()}\n",
])
def test_parse_outside_the_entry_reader_is_detected(source):
    assert _parse_reads(ast.parse(source), "_parse_entry")


def test_the_entry_reader_and_the_export_are_allowed():
    source = ("from .parser import ParseError, parse_expression\n"
              "def _parse_entry(text, params, path, parsed):\n"
              "    return parse_expression(text, params)\n"
              "v = _parse_entry(text, (), 'x', {})\n")
    assert not _parse_reads(ast.parse(source), "_parse_entry")


def _called(node) -> str:
    """The name of the routine a call node calls, by name or as an attribute."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def _reads_frame_matrix(node, skip=frozenset()) -> bool:
    """Whether node reads an attribute ``g`` or ``p``, outside the arguments
    of a call of a routine in skip."""
    if isinstance(node, ast.Call) and _called(node) in skip:
        return False
    if isinstance(node, ast.Attribute) and node.attr in ("g", "p"):
        return True
    return any(_reads_frame_matrix(child, skip) for child in ast.iter_child_nodes(node))


def _frame_matrix_clears(tree: ast.Module) -> list:
    """``coefficient_tensor(...)`` calls, by name or as an attribute, that
    read an attribute ``g`` or ``p`` in their arguments, outside a
    ``mat_inv(...)`` call there, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "coefficient_tensor":
            args = node.args + [k.value for k in node.keywords]
            if any(_reads_frame_matrix(arg, {"mat_inv"}) for arg in args):
                found.append("line %d" % node.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_a_frame_matrix_is_cleared_once(path):
    found = _frame_matrix_clears(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s clears a frame's g or p again, not its metric or product: %s" % (
        path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "g = coefficient_tensor(fa.g, 'dd')\n",
    "p = coefficient_tensor(self.p, 'ud')\n",
    "from . import tensors\ng = tensors.coefficient_tensor(source.g, 'dd')\n",
    "p = coefficient_tensor([row[:] for row in fa.p], 'dd')\n",
    "g = coefficient_tensor(nested=fa.g, variance='dd')\n",
    "g = coefficient_tensor(mat_transpose(fa.g), 'dd')\n",
])
def test_a_second_clear_of_a_frame_matrix_is_detected(source):
    assert _frame_matrix_clears(ast.parse(source))


def test_the_frame_tensors_and_other_clears_are_allowed():
    source = ("brackets = coefficient_tensor(c)\nmetric = coefficient_tensor(g, 'dd')\n"
              "ident = coefficient_tensor(mat_identity(n, fa.params), 'ud')\n"
              "g, p = fa.metric, fa.product\nlow = fa.brackets.lower_slot(2, fa.g)\n"
              'inv = coefficient_tensor(mat_inv(self.g), "uu")\n')
    assert not _frame_matrix_clears(ast.parse(source))


KERNEL_MATRIX_CALLS = {"lower_slot", "raise_slot", "map_slots", "arranged", "tensor_contract"}


def _nested_matrix_args(tree: ast.Module) -> list:
    """Calls of a routine in KERNEL_MATRIX_CALLS, by name or as an attribute,
    that read an attribute ``g`` or ``p`` in their arguments, with their
    lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) in KERNEL_MATRIX_CALLS:
            args = node.args + [k.value for k in node.keywords]
            if any(_reads_frame_matrix(arg) for arg in args):
                found.append("line %d" % node.lineno)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_frame_matrices_reach_the_kernel_as_tensors(path):
    found = _nested_matrix_args(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s passes a frame's nested g or p to the tensor kernel: %s" % (
        path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "low = fa.brackets.lower_slot(2, fa.g)\n",
    "up = t.raise_slot(0, self.frame.g)\n",
    "s = arranged(f, 'x,y,Pz', fa.p)\n",
    "from . import tensors\ns = tensors.arranged(f, 'Px,y', product=fa.p)\n",
    "r = tensor_contract(t, 0, 1, metric=[row[:] for row in fa.g])\n",
    "u = t.map_slots([fa.g, None, fa.metric_inv])\n",
])
def test_a_nested_frame_matrix_in_the_kernel_is_detected(source):
    assert _nested_matrix_args(ast.parse(source))


def test_the_frame_tensors_and_the_validate_slot_map_are_allowed():
    source = ("low = fa.brackets.lower_slot(2, fa.metric)\n"
              "up = low.raise_slot(2, fa.metric_inv)\n"
              "s = arranged(f, 'x,y,Pz', fa.product)\n"
              "r = tensor_contract(t, 0, 3, fa.metric_inv)\n"
              "m = fa.metric.map_slot(fa.p, 0)\n")
    assert not _nested_matrix_args(ast.parse(source))


ELIMINATION_LOOPS = {"_gauss_jordan", "_bareiss"}


def _kernel_choices(tree: ast.Module) -> list:
    """Calls of a loop in ELIMINATION_LOOPS outside a function named
    ``_eliminated``, and ``_passed`` calls with more than one argument or a
    starred one, by name or as an attribute, with their lines."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name, args = _called(child), child.args + child.keywords
                unpacked = any(isinstance(a, ast.Starred) for a in child.args) or any(
                    k.arg is None for k in child.keywords)
                if name in ELIMINATION_LOOPS and not inside:
                    found.append("%s (line %d)" % (name, child.lineno))
                elif name == "_passed" and (len(args) > 1 or unpacked):
                    found.append("_passed with %d arguments (line %d)" % (len(args), child.lineno))
            visit(child, inside or (isinstance(child, ast.FunctionDef)
                                    and child.name == "_eliminated"))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_each_kernel_choice_is_made_in_one_place(path):
    found = _kernel_choices(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s chooses a kernel outside its one place: %s" % (path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "def mat_inv(m):\n    return _bareiss(rows)\n",
    "def pivot_columns(m):\n    return (_gauss_jordan(rows) if d is None else _bareiss(rows))[2]\n",
    "from . import tensors\nr = tensors._gauss_jordan(rows)\n",
    "def _eliminated(rows, d):\n    pass\ndef other(rows):\n    return _bareiss(rows)\n",
    "t = t._passed(cleared, perm)\n",
    "t = t._passed(cleared, perm=perm)\n",
    "t = t._passed(*args)\n",
    "t = t._passed(**kwargs)\n",
])
def test_a_second_kernel_choice_is_detected(source):
    assert _kernel_choices(ast.parse(source))


def test_the_one_dispatch_and_the_one_argument_pass_are_allowed():
    source = ("def _eliminated(rows, d):\n"
              "    return _gauss_jordan(rows) if d is None else _bareiss(rows)\n"
              "def pivot_columns(m):\n    return _eliminated(*_operand(m)[:2])[2]\n"
              "t = t._passed([cleared if k in flagged else None for k in range(rank)])\n")
    assert not _kernel_choices(ast.parse(source))


CONNECTION_FORMS = {"coeffs", "lowered"}


def _connection_slot_maps(tree: ast.Module) -> list:
    """``lower_slot`` and ``raise_slot`` calls whose receiver is an attribute
    in CONNECTION_FORMS, outside a class named ``Connection``, with their
    lines."""
    found = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and not inside
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("lower_slot", "raise_slot")
                    and isinstance(child.func.value, ast.Attribute)
                    and child.func.value.attr in CONNECTION_FORMS):
                found.append("%s.%s (line %d)" % (
                    child.func.value.attr, child.func.attr, child.lineno))
            visit(child, inside or (isinstance(child, ast.ClassDef)
                                    and child.name == "Connection"))

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_connection_lowers_or_raises_its_forms(path):
    found = _connection_slot_maps(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, "%s lowers or raises a connection outside Connection: %s" % (
        path.name, ", ".join(found))


@pytest.mark.parametrize("source", [
    "low = conn.coeffs.lower_slot(2, fa.metric)\n",
    "a = levi_civita(fa).lowered.raise_slot(2, fa.metric_inv)\n",
    "def curvature(conn):\n    return conn.coeffs.lower_slot(2, conn.frame.metric)\n",
    "class ConnectionPack:\n    def f(self):\n        return self.rpt.lowered.raise_slot(2, g)\n",
    "class Connection:\n    pass\nlow = self.coeffs.lower_slot(slot=2, metric=g)\n",
])
def test_a_connection_slot_map_outside_the_class_is_detected(source):
    assert _connection_slot_maps(ast.parse(source))


def test_the_class_and_other_slot_maps_are_allowed():
    source = ("class Connection:\n    def __post_init__(self):\n"
              "        self.coeffs = self.lowered.raise_slot(2, self.frame.metric_inv)\n"
              "pair = fa.brackets.lower_slot(2, fa.metric)\n"
              "b = (a - fa.brackets).raise_slot(0, fa.metric_inv)\n"
              "up = t.raise_slot(2, fa.metric_inv)\n"
              "low = conn.lowered + q\n")
    assert not _connection_slot_maps(ast.parse(source))


ARITHMETIC = {"__add__", "__mul__", "__truediv__"}


def _constant_branches(tree: ast.Module) -> tuple:
    """Reads of an attribute ``value`` in the methods ARITHMETIC of class
    ``Scalar``, with their lines; and the ARITHMETIC methods it defines."""
    found, methods = [], set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Scalar":
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ARITHMETIC:
                    methods.add(fn.name)
                    found.extend("%s line %d" % (fn.name, sub.lineno) for sub in ast.walk(fn)
                                 if isinstance(sub, ast.Attribute) and sub.attr == "value")
    return found, methods


def test_scalar_arithmetic_takes_one_path():
    found, methods = _constant_branches(
        ast.parse((PACKAGE / "scalars.py").read_text(encoding="utf-8")))
    assert methods == ARITHMETIC
    assert not found, "Scalar arithmetic branches on a constant value: %s" % ", ".join(found)


def test_a_constant_branch_is_detected():
    source = ("class Scalar:\n    def __mul__(self, o):\n"
              "        if self.value is not None and o.value is not None:\n"
              "            return Scalar._of_value(self.params, self.value * o.value)\n")
    assert _constant_branches(ast.parse(source))[0]


def test_negation_equality_hashing_and_printing_read_the_value():
    source = ("class Scalar:\n    def __neg__(self):\n        return -self.value\n"
              "    def __eq__(self, other):\n        return self.value == other\n"
              "    def __hash__(self):\n        return hash(self.value)\n"
              "    def __str__(self):\n        return str(self.value)\n")
    assert _constant_branches(ast.parse(source)) == ([], set())
