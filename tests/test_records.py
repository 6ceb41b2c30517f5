"""The package's value types are plain slotted records (``scalars.Record``):
equal by class and fields, hashed and printed as dataclasses are, and
assigned only in their own ``__init__``."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
from fractions import Fraction

import pytest

import ncdiff
from ncdiff.algebra import AlgebraSpec, FreePoly, FreeSpec, FuncElem, FunctionSpec, MatElem, MatrixSpec
from ncdiff.frame import SubsetIndex
from ncdiff.jets import Jet1, Jet2, Poly2
from ncdiff.leibniz import LeibnizForm
from ncdiff.parser import Delta, Lit, Odot, Sum, Sym, _Tok
from ncdiff.scalars import ONE, ZERO, Record, Scalar
from ncdiff.verify import CheckResult

FREE = AlgebraSpec.free(("f", "g"))
COMM = AlgebraSpec.free(("f", "g"), commutative=True)
TWO = AlgebraSpec.function(("L", "R"), {"x": (1, 0)})
OTHER_TWO = AlgebraSpec.function(("L", "R"), {"y": (1, 0)})
MAT = AlgebraSpec.matrix(1, {"m": [[1]]})
F, G = FREE.symbol("f"), FREE.symbol("g")
SYM = Sym(1, 4, "f")

# class -> (constructor arguments, {argument index: another value}); each
# change on its own still passes the constructor's checks
CASES = {
    Scalar: ((1, Fraction(1, 2)), {0: 2, 1: 0}),
    FreeSpec: ((("f", "g"), False), {0: ("f",), 1: True}),
    FunctionSpec: ((("x",), ("L", "R"), ((ONE, ZERO),)), {0: ("y",), 1: ("L", "S"), 2: ((ZERO, ONE),)}),
    MatrixSpec: ((("m",), 1, (((ONE,),),)), {0: ("n",), 2: (((ZERO,),),)}),
    FreePoly: ((FREE, ((("f",), ONE),)), {0: COMM, 1: ((("g",), ONE),)}),
    FuncElem: ((TWO, (ONE, ZERO)), {0: OTHER_TWO, 1: (ZERO, ONE)}),
    MatElem: ((MAT, (ONE,)), {1: (ZERO,)}),
    SubsetIndex: ((3, (2, 0)), {0: 4, 1: (1,)}),
    LeibnizForm: ((FREE, 1, ()), {0: COMM, 1: 2, 2: ((F, ((1, G),)),)}),
    Poly2: (((((0, 0), 1),),), {0: (((0, 0), 2),)}),
    Jet2: ((1, 2, 3, 4, 5, 6), {i: 7 for i in range(6)}),
    Jet1: ((1, 2), {0: 3, 1: 3}),
    CheckResult: (("name", True, ""), {0: "other", 1: False, 2: "why"}),
    _Tok: (("int", "1", 1, 1), {0: "name", 1: "2", 2: 2, 3: 2}),
    Lit: ((1, 2, Fraction(1, 2)), {0: 2, 1: 3, 2: Fraction(1, 3)}),
    Sym: ((1, 2, "f"), {0: 2, 1: 3, 2: "g"}),
    Odot: ((1, 2, (SYM,)), {2: (SYM, SYM)}),
    Delta: ((1, 2, 1, SYM), {2: 2, 3: Sym(1, 4, "g")}),
    Sum: ((1, 2, ((1, SYM),)), {2: ((1, SYM), (-1, SYM))}),
}
# bases that hold no value of their own
ABSTRACT = {"AlgebraSpec", "_DenseSpec", "AlgElem", "_DenseElem", "Node"}
CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def package_classes() -> list[type]:
    """Every class defined in an ncdiff module."""
    modules = [ncdiff] + [importlib.import_module(f"ncdiff.{m.name}") for m in pkgutil.iter_modules(ncdiff.__path__)]
    return [
        cls
        for module in modules
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__
    ]


def test_every_value_type_is_a_record_with_a_case():
    records = {cls.__name__ for cls in package_classes() if issubclass(cls, Record) and cls is not Record}
    assert records - ABSTRACT == {cls.__name__ for cls in CASES}


@CLASSES
def test_equal_fields_are_equal_and_hash_alike(cls):
    args, changes = CASES[cls]
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert changes
    for i, value in changes.items():
        changed = cls(*args[:i], value, *args[i + 1 :])
        assert changed != a and not changed == a, f"field {cls._fields[i]} ignored"


def test_records_of_different_classes_are_unequal():
    assert Jet1(1, 2) != Scalar(1, 2)
    assert Lit(1, 2, "f") != Sym(1, 2, "f")
    assert FuncElem(TWO, (ONE, ZERO)) != MatElem(TWO, (ONE, ZERO))
    # a record is no tuple: it neither equals its fields nor repeats under *
    assert Scalar(1, 0) != (1, 0) and Jet1(1, 2) != (1, 2)
    with pytest.raises(TypeError):
        3 * Jet1(1, 2)


@CLASSES
def test_repr_keeps_the_dataclass_format(cls):
    args, _ = CASES[cls]
    params = list(inspect.signature(cls).parameters)
    assert list(cls._fields) == params
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(params, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(Scalar(1, Fraction(1, 2))) == "Scalar(re=1, im=Fraction(1, 2))"
    assert repr(Scalar()) == "Scalar(re=0, im=0)"
    assert repr(Sym(1, 2, "f")) == "Sym(line=1, col=2, name='f')"
    assert repr(FREE) == "FreeSpec(symbols=('f', 'g'), commutative=False)"
    assert repr(CheckResult("c", True)) == "CheckResult(name='c', ok=True, detail='')"


@CLASSES
def test_slotted_records_refuse_new_attributes(cls):
    obj = cls(*CASES[cls][0])
    if issubclass(cls, AlgebraSpec):  # specs keep a __dict__ for functools.cached_property
        assert obj.unit_label() == obj.unit_label() and hasattr(obj, "__dict__")
        return
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_only_tensor_poly_and_frame_elem_stay_dataclasses():
    """perfbench/test_perfbench.py builds altered copies of these two with
    ``dataclasses.replace``; every other value type is a plain record."""
    dataclass_names = {cls.__name__ for cls in package_classes() if dataclasses.is_dataclass(cls)}
    assert dataclass_names == {"TensorPoly", "FrameElem"}


def attribute_writes(tree: ast.AST):
    """(enclosing class, enclosing function, node) for every attribute
    assigned or deleted, and for every mention of ``__setattr__``,
    ``setattr`` or ``delattr``."""

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and (
                isinstance(child.ctx, (ast.Store, ast.Del)) or child.attr in ("__setattr__", "__delattr__")
            ):
                yield cls, fn, child
            elif isinstance(child, ast.Name) and child.id in ("setattr", "delattr"):
                yield cls, fn, child
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, cls, child.name)
            else:
                yield from visit(child, cls, fn)

    yield from visit(tree, None, None)


def test_record_fields_are_set_only_in_their_own_init():
    """Fields are set once, in ``__init__``, by convention; this pins the
    convention for every module of the package."""
    classes = package_classes()
    records = {(cls.__module__, cls.__name__): cls for cls in classes if issubclass(cls, Record)}
    fields = {name for cls in records.values() for name in cls._fields}
    bad = []
    for path in sorted(pathlib.Path(ncdiff.__file__).parent.glob("*.py")):
        module = "ncdiff" if path.stem == "__init__" else f"ncdiff.{path.stem}"
        for cls_name, fn, node in attribute_writes(ast.parse(path.read_text(encoding="utf-8"))):
            record = records.get((module, cls_name))
            on_self = isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self"
            if not isinstance(node, ast.Attribute) or not isinstance(node.ctx, (ast.Store, ast.Del)):
                ok = False  # setattr, delattr or __setattr__
            elif on_self and record is not None:
                ok = fn == "__init__" and node.attr in record._fields and isinstance(node.ctx, ast.Store)
            else:
                ok = on_self or node.attr not in fields
            if not ok:
                bad.append(f"{path.name}:{node.lineno}")
    assert not bad
    assert len(records) > 20 and {"re", "im", "spec", "terms", "line"} <= fields


def unread_parameters(tree: ast.AST) -> list[str]:
    """'function.parameter' for every parameter of a function or lambda that
    its body never reads; ``self``, ``cls`` and the parameters of a stub
    whose body, past its docstring, only raises are left out."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and len(body) > 1:
            body = body[1:]
        if all(isinstance(stmt, ast.Raise) for stmt in body):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        out += [f"{name}.{p.arg}" for p in params if p.arg not in ("self", "cls") and p.arg not in read]
    return out


def test_every_parameter_is_read():
    """A parameter that nothing reads is a value the caller passes for nothing."""
    unread = [
        f"{path.name}: {name}"
        for path in sorted(pathlib.Path(ncdiff.__file__).parent.glob("*.py"))
        for name in unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


#: calls of the functions of ``re`` that take a pattern, which they look up in ``re``'s cache on every call
RE_PATTERN_CALLS = {f"re.{name}" for name in ("compile", "search", "match", "fullmatch", "split", "findall", "finditer", "sub", "subn")}


def patterns_in_functions(node: ast.AST, where: str = "") -> list[str]:
    """The innermost function or lambda around each call in ``RE_PATTERN_CALLS``;
    calls outside every function (module or class level) run once."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            out += patterns_in_functions(child, getattr(child, "name", "<lambda>"))
            continue
        if where and isinstance(child, ast.Call) and ast.unparse(child.func) in RE_PATTERN_CALLS:
            out.append(where)
        out += patterns_in_functions(child, where)
    return out


def test_every_pattern_is_compiled_at_module_level():
    """Functions match through module-level compiled patterns, never a pattern given to ``re``."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(pathlib.Path(ncdiff.__file__).parent.glob("*.py"))
        for name in patterns_in_functions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
