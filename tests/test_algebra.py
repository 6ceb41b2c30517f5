import ast
import functools
import itertools
import pathlib
import random
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from ncdiff import algebra
from ncdiff.algebra import (
    AlgebraMismatchError,
    AlgebraSpec,
    FreePoly,
    FuncElem,
    _DenseElem,
    _DenseSpec,
    MatElem,
    func_as_diagonal,
)
from ncdiff.scalars import ONE, Scalar
from ncdiff.tensor import _common_denominator, left_products

FREE = AlgebraSpec.free(("f", "g", "h"))
COMM = AlgebraSpec.free(("f", "g", "h"), commutative=True)
TWO_POINT = AlgebraSpec.function(("L", "R"), {"x": (1, 0), "y": (0, 1)})
MAT = AlgebraSpec.matrix(2, {"f": [[3, 1], [2, 7]], "g": [[0, 1], [1, 0]]})

small_scalars = st.builds(
    Scalar, st.fractions(min_value=-6, max_value=6, max_denominator=3), st.just(Fraction(0))
)


def elems(spec):
    unit = st.just(spec.unit())
    syms = st.sampled_from([spec.symbol(s) for s in spec.symbols])
    pair = st.tuples(syms, syms).map(lambda ab: ab[0].mul(ab[1]))
    combo = st.tuples(syms, small_scalars, pair, small_scalars).map(
        lambda t: t[0].scale(t[1]).add(t[2].scale(t[3]))
    )
    return st.one_of(unit, syms, pair, combo)


@pytest.mark.parametrize("spec", [FREE, COMM, TWO_POINT, MAT], ids=["free", "comm", "func", "mat"])
def test_algebra_laws(spec):
    @settings(max_examples=60, deadline=None)
    @given(elems(spec), elems(spec), elems(spec))
    def check(a, b, c):
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.add(b).mul(c) == a.mul(c).add(b.mul(c))
        assert spec.unit().mul(a) == a
        assert a.mul(spec.unit()) == a
        assert a.add(a.scale(Scalar.of(-1))).is_zero()

    check()


@pytest.mark.parametrize("spec", [FREE, COMM, TWO_POINT, MAT], ids=["free", "comm", "func", "mat"])
def test_add_takes_any_number_of_summands(spec):
    @settings(max_examples=40, deadline=None)
    @given(elems(spec), st.lists(elems(spec), max_size=6))
    def check(x, ys):
        assert x.add(*ys) == functools.reduce(lambda a, b: a.add(b), ys, x)
        assert x.add(*ys, *(y.neg() for y in ys)) == x

    check()
    x = spec.symbol(spec.symbols[0])
    assert x.add() == x
    foreign = (COMM if spec is FREE else FREE).unit()
    for at in range(4):
        operands = [x] * 4
        operands[at] = foreign
        with pytest.raises(AlgebraMismatchError):
            operands[0].add(*operands[1:])


@pytest.mark.parametrize("spec", [FREE, COMM, TWO_POINT, MAT], ids=["free", "comm", "func", "mat"])
def test_a_monic_element_is_its_own_content_split(spec):
    """``content`` of a monic element is ``(ONE, x)`` with x itself, not a
    rescaled copy; a non-monic one splits off its leading coefficient."""
    syms = [spec.symbol(s) for s in spec.symbols]
    for elem in [spec.unit(), *syms, syms[0].add(syms[1].scale(Scalar.of(3)))]:
        _, x = elem.content()
        c, same = x.content()
        assert c == ONE and same is x
        k = Scalar.of(Fraction(-2, 3), 1)
        assert x.scale(k).content() == (k, x)


def test_two_point_relations():
    x, y = TWO_POINT.symbol("x"), TWO_POINT.symbol("y")
    assert x.mul(y).is_zero()
    assert y.mul(x).is_zero()
    assert x.mul(x) == x
    assert y.mul(y) == y
    assert x.add(y) == TWO_POINT.unit()


def test_free_words_do_not_commute():
    f, g = FREE.symbol("f"), FREE.symbol("g")
    assert f.mul(g) != g.mul(f)
    assert f.mul(g).terms == ((("f", "g"), ONE),)


def test_commutative_mode_sorts_words():
    f, g = COMM.symbol("f"), COMM.symbol("g")
    assert f.mul(g) == g.mul(f)
    assert g.mul(f).terms[0][0] == ("f", "g")


def test_canonical_form_idempotent():
    e = FreePoly.of(FREE, [(("f", "g"), Scalar.of(2)), (("g",), Scalar.of(-1)), (("h",), Scalar.of(0))])
    again = FreePoly.of(FREE, e.terms)
    assert e == again
    assert all(not c.is_zero() for _, c in e.terms)


def test_backend_mismatch_raises():
    with pytest.raises(AlgebraMismatchError):
        FREE.symbol("f").mul(COMM.symbol("f"))
    with pytest.raises(AlgebraMismatchError):
        TWO_POINT.symbol("x").add(FREE.symbol("f"))


def test_func_as_diagonal_examples():
    x, y = TWO_POINT.symbol("x"), TWO_POINT.symbol("y")
    lam, mu = Scalar.of(4), Scalar.of(Fraction(-3, 2))
    d = func_as_diagonal(x.scale(lam).add(y.scale(mu)))
    assert d.rows == ((lam, Scalar.of(0)), (Scalar.of(0), mu))
    ident = func_as_diagonal(TWO_POINT.unit())
    assert ident.unit_multiple() == ONE
    assert func_as_diagonal(x.mul(y)).is_zero()
    with pytest.raises(AlgebraMismatchError, match="func_as_diagonal needs a function-backend element"):
        func_as_diagonal(FREE.symbol("f"))


def test_func_as_diagonal_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        a = TWO_POINT.symbol("x").scale(Scalar.of(rng.randint(-3, 3))).add(
            TWO_POINT.symbol("y").scale(Scalar.of(rng.randint(-3, 3)))
        )
        b = TWO_POINT.symbol("x").scale(Scalar.of(rng.randint(-3, 3))).add(
            TWO_POINT.symbol("y").scale(Scalar.of(rng.randint(-3, 3)))
        )
        assert func_as_diagonal(a.mul(b)) == func_as_diagonal(a).mul(func_as_diagonal(b))
        assert func_as_diagonal(a.add(b)) == func_as_diagonal(a).add(func_as_diagonal(b))


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec.free(("f", "f"))
    with pytest.raises(ValueError):
        AlgebraSpec.function(("L", "R"), {"x": (1,)})
    with pytest.raises(ValueError):
        AlgebraSpec.matrix(2, {"f": [[1, 0]]})
    with pytest.raises(KeyError):
        FREE.symbol("nope")
    with pytest.raises(ValueError, match="function backend needs a point list"):
        AlgebraSpec.function(())
    with pytest.raises(ValueError, match="point names must be unique"):
        AlgebraSpec.function(("L", "L"))
    with pytest.raises(ValueError, match="matrix backend needs a positive dimension"):
        AlgebraSpec.matrix(0)


def test_spec_json_round_trip():
    for spec in (FREE, COMM, TWO_POINT, MAT):
        assert AlgebraSpec.from_json(spec.to_json()) == spec


def test_spec_json_documented_shape():
    doc = {
        "backend": "function",
        "points": ["L", "R"],
        "values": {"x": {"L": [[1, 1], [0, 1]], "R": [[0, 1], [0, 1]]}},
    }
    spec = AlgebraSpec.from_json(doc)
    assert spec.symbol("x").values == (ONE, Scalar.of(0))


def test_backend_dispatch_stays_in_the_algebra_module():
    """The tensor, frame, Leibniz and parser layers never ask which backend
    a spec has and never name a backend's element class.  The tensor layer
    reads a label only through the spec (never indexing or enumerating its
    0/1 pattern), and the frame layer builds lifts and slot embeddings by
    moving keys, never through concatenation or a tuple of elements."""
    src = pathlib.Path(func_as_diagonal.__code__.co_filename).parent
    trees = {}
    for name in ("tensor.py", "frame.py", "leibniz.py", "parser.py"):
        text = (src / name).read_text(encoding="utf-8")
        assert ".backend" not in text, name
        trees[name] = ast.parse(text)
        imported = {
            alias.name
            for node in ast.walk(trees[name])
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert not imported & {"FreePoly", "FuncElem", "MatElem"}, name
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(trees["frame.py"])
    }
    assert not names & {"tensor_concat", "elementary"}
    is_label = lambda node: isinstance(node, ast.Name) and node.id == "label"
    for node in ast.walk(trees["tensor.py"]):
        assert not (isinstance(node, ast.Subscript) and is_label(node.value)), ast.unparse(node)
        enumerated = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "enumerate"
        assert not (enumerated and any(map(is_label, node.args))), ast.unparse(node)


def _dense_specs():
    """Seeded random 2x2 and 3x3 matrix specs (the 3x3 with a complex
    entry), 2- and 3-point function specs, and a 1x1 matrix and a 1-point
    function spec, whose one cell is the last and whose basis is the unit
    alone, each with its tables."""
    rng = random.Random(11)
    rat = lambda: Scalar.of(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))
    out = []
    for n in (2, 3):
        tables = {s: [[rat() for _ in range(n)] for _ in range(n)] for s in "ab"}
        if n == 3:
            tables["a"][0][1] = Scalar.of(Fraction(1, 2), -2)
        out.append((AlgebraSpec.matrix(n, tables), tables))
    for points in (("L", "R"), ("p", "q", "r")):
        tables = {s: [rat() for _ in points] for s in "ab"}
        out.append((AlgebraSpec.function(points, tables), tables))
    tables = {s: [[rat()]] for s in "ab"}
    out.append((AlgebraSpec.matrix(1, tables), tables))
    tables = {s: [rat()] for s in "ab"}
    out.append((AlgebraSpec.function(("o",), tables), tables))
    return out


DENSE_IDS = ["mat2", "mat3", "func2", "func3", "mat1", "func1"]


def _dense_elems(spec):
    a, b = spec.symbol("a"), spec.symbol("b")
    cells = len(spec.unit_label())
    basis = [spec.basis_elem(tuple(int(i == p) for i in range(cells))) for p in range(cells)]
    half = Scalar.of(Fraction(-1, 2))
    return [a, b, a.mul(b), b.mul(a), a.add(b), a.scale(half), spec.unit(), spec.zero(), *basis]


@pytest.mark.parametrize("spec, tables", _dense_specs(), ids=DENSE_IDS)
def test_dense_elements_keep_order_views_and_decomposition(spec, tables):
    elems = _dense_elems(spec)
    if isinstance(spec.unit(), MatElem):
        old_key = lambda m: tuple(tuple(e.key() for e in row) for row in m.rows)
        for name, table in tables.items():
            assert spec.symbol(name).rows == tuple(map(tuple, table))
    else:
        old_key = lambda f: tuple(v.key() for v in f.values)
        for name, table in tables.items():
            assert spec.symbol(name).values == tuple(table)
            assert [spec.symbol(name).values[spec.point_index(p)] for p in spec.points] == table
    assert [e.sort_key() for e in sorted(elems, key=lambda e: e.sort_key())] == [
        e.sort_key() for e in sorted(elems, key=old_key)
    ]
    for x in elems:
        for y in elems:
            assert (x.sort_key() < y.sort_key()) == (old_key(x) < old_key(y))
            assert (x == y) == (old_key(x) == old_key(y))
        rebuilt = spec.zero()
        for c, label in x.basis_decomposition():
            rebuilt = rebuilt.add(spec.basis_elem(label).scale(c))
        assert rebuilt == x


def _assert_rows_are_products(g, labels):
    """Every row of g at labels is g times the label's basis element, expanded
    over the basis again, read as ``Scalar``s through ``left_products`` and, for a
    real g scaled by its denominator, as the ``int`` view; the denominator is
    that of g's basis coefficients.  Rows and decompositions share one rule on
    a dense spec, so each row is also rebuilt as an element, Σ c·basis_elem(l),
    and compared with the product itself."""
    spec = g.spec
    by_key = lambda row: sorted((c.key(), label) for c, label in row)
    product = lambda h, label: h.mul(spec.basis_elem(label)).basis_decomposition()
    rebuilt = lambda row: spec.zero().add(*(spec.basis_elem(label).scale(c) for c, label in row))
    assert g.denominator() == _common_denominator(g.basis_decomposition())[0]
    assert g.is_real() == all(not c.im for c, _ in g.basis_decomposition())
    rows = left_products(g)
    for label in labels:
        assert by_key(g.left_row(label)) == by_key(rows[label]) == by_key(product(g, label))
        assert rebuilt(g.left_row(label)) == g.mul(spec.basis_elem(label))
    if g.is_real():
        h = g.scale(Scalar.of(g.denominator()))
        assert h.denominator() == 1
        ints = left_products(h, attrgetter("re"))
        for label in labels:
            assert all(type(c) is int for c, _ in ints[label])
            assert sorted(ints[label]) == sorted((c.re, lp) for c, lp in product(h, label))


@pytest.mark.parametrize("spec, tables", _dense_specs(), ids=DENSE_IDS)
def test_dense_rows_and_denominators_match_the_product(spec, tables):
    """The rows of each symbol and of a random sum, at every basis label (the
    unit and the one-hot pattern of each cell but the last), equal the
    backend product's decomposition."""
    rng = random.Random(41)
    rat = lambda: Scalar.of(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4))))
    a, b = spec.symbol("a"), spec.symbol("b")
    cells = len(spec.unit_label())
    labels = [spec.unit_label(), *(tuple(int(i == p) for i in range(cells)) for p in range(cells - 1))]
    total = a.scale(rat()).add(b.scale(rat()), a.mul(b).scale(rat()), spec.scalar(rat()))
    for g in (a, b, total, spec.unit(), spec.zero()):
        _assert_rows_are_products(g, labels)


@pytest.mark.parametrize("commutative", [False, True], ids=["free", "comm"])
def test_free_rows_and_denominators_match_the_product(commutative):
    """Free elements of 1-3 terms with fractional, and some complex,
    coefficients, against every label of a word of length at most 2."""
    spec = AlgebraSpec.free(("x", "y"), commutative)
    rng = random.Random(43)
    words = [w for n in range(3) for w in itertools.product(spec.symbols, repeat=n)]
    labels = [w for w in words if not commutative or list(w) == sorted(w)]
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(1, 3)):
            im = Fraction(rng.randint(-2, 2), 3) if rng.random() < 0.2 else 0
            terms.append((rng.choice(words), Scalar.of(Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 2, 5))), im)))
        g = FreePoly.of(spec, terms)
        _assert_rows_are_products(g, labels)


def test_dense_elements_print_rows():
    f, g = MAT.symbol("f"), MAT.symbol("g")
    assert str(f.add(g)) == "[3, 2; 3, 7]"
    assert str(f) == "f" and str(MAT.scalar(3)) == "3"
    x, y = TWO_POINT.symbol("x"), TWO_POINT.symbol("y")
    assert str(x.scale(Scalar.of(2)).add(y.scale(Scalar.of(Fraction(-1, 2))))) == "[2, -1/2]"
    spec, tables = _dense_specs()[1]
    m = spec.symbol("a").add(spec.symbol("b"))
    want = [[str(p + q) for p, q in zip(r, s)] for r, s in zip(tables["a"], tables["b"])]
    assert str(m) == "[" + "; ".join(", ".join(row) for row in want) + "]"
    assert "i)" in str(m)


def test_traced_members_stay_in_the_class_bodies():
    """perfbench/tracing.py wraps these by looking them up in each class's
    own ``__dict__``; inherited members would only fail when it installs."""
    traced = {"mul", "add", "scale", "content", "sort_key", "basis_decomposition"}
    for cls in (FreePoly, FuncElem, MatElem):
        missing = sorted(traced - set(vars(cls)))
        assert not missing, f"{cls.__name__} must define {missing} in its class body"
    assert isinstance(AlgebraSpec.__dict__["from_json"], staticmethod)


def test_matrix_product_is_the_row_by_column_product():
    """``MatElem.mul`` equals the dense row-by-column triple loop on random
    matrices with zero, fractional and complex entries, on a dense matrix
    times each one-hot basis matrix, and on zero times a dense matrix and back."""
    rng = random.Random(30)

    def entry():
        if rng.random() < 0.4:
            return Scalar.of(0)
        part = lambda: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        return Scalar.of(part(), part() if rng.random() < 0.4 else 0)

    for n in (1, 2, 3, 4):
        spec = AlgebraSpec.matrix(n)
        one_hot = lambda p: MatElem(spec, tuple(Scalar.of(int(q == p)) for q in range(n * n)))
        dense = MatElem(spec, tuple(Scalar.of(rng.randint(1, 4), rng.randint(-2, 2)) for _ in range(n * n)))
        sparse = lambda: MatElem(spec, tuple(entry() for _ in range(n * n)))
        pairs = [(sparse(), sparse()) for _ in range(12)]
        pairs += [(dense, one_hot(p)) for p in range(n * n)] + [(dense, spec.zero()), (spec.zero(), dense)]
        for a, b in pairs:
            x, y = a.entries, b.entries
            want = tuple(
                sum((x[i * n + k] * y[k * n + j] for k in range(n)), Scalar.of(0)) for i in range(n) for j in range(n)
            )
            assert a.mul(b).entries == want


def test_the_dense_basis_is_stated_once():
    """``_DenseSpec._decompose`` is the one statement of the dense basis: the
    dense element classes define no rows of their own, their decomposition is
    ``_DenseElem``'s (bound in their own bodies, where the tracer looks), and
    no code outside ``_DenseSpec`` builds a 0/1 pattern: a ``(1,)`` tuple, an
    ``int`` of a comparison, or a name with ``one_hot`` in it."""
    for cls in (FuncElem, MatElem):
        assert "left_row" not in vars(cls), cls.__name__
        assert vars(cls)["basis_decomposition"] is _DenseElem.basis_decomposition, cls.__name__
    assert "basis_elem" in vars(_DenseSpec) and "_decompose" in vars(_DenseSpec)
    assert all("basis_elem" not in vars(cls) for cls in (algebra.FunctionSpec, algebra.MatrixSpec))
    tree = ast.parse(pathlib.Path(algebra.__file__).read_text(encoding="utf-8"))
    spec_class = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_DenseSpec")
    inside = {id(n) for n in ast.walk(spec_class)}
    named = lambda n: "one_hot" in str(getattr(n, "id", None) or getattr(n, "name", None) or getattr(n, "attr", ""))
    one = lambda n: isinstance(n, ast.Tuple) and ast.unparse(n) == "(1,)"
    bit = lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) == "int" and any(isinstance(a, ast.Compare) for a in n.args)
    outside = [ast.unparse(n) for n in ast.walk(tree) if id(n) not in inside and (named(n) or one(n) or bit(n))]
    assert not outside
