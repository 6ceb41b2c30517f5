import ast
import copy
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ncdiff
from ncdiff import cli, verify
from ncdiff.algebra import MATRIX_SPEC_CELL_CAP, AlgebraSpec
from ncdiff.cli import build_arg_parser, main
from ncdiff.frame import rho
from ncdiff.jets import MAX_JET_BITS, composite_jet_bits, parse_poly2
from ncdiff.leibniz import LeibnizForm, embed
from ncdiff.parser import lower, parse
from ncdiff.scalars import Scalar, scalar_json, scalar_str
from ncdiff.tensor import TensorPoly, _table_cells, dumps, tensor_eval, tensor_eval_all, tensor_to_matrix

TWO_POINT_DOC = {
    "backend": "function",
    "points": ["L", "R"],
    "values": {
        "x": {"L": [[1, 1], [0, 1]], "R": [[0, 1], [0, 1]]},
        "y": {"L": [[0, 1], [0, 1]], "R": [[1, 1], [0, 1]]},
    },
}

FREE_DOC = {"backend": "free", "commutative": False, "symbols": ["f", "g", "h"]}

MAT_DOC = {
    "backend": "matrix",
    "dim": 2,
    "matrices": {"f": [[[[0, 1], [0, 1]], [[1, 1], [0, 1]]], [[[0, 1], [0, 1]], [[0, 1], [0, 1]]]]},
}

# one value of 601 digits: its eighth power passes Python's 4300-digit limit for printing
HUGE = [[10**600, 1], [0, 1]]
HUGE_TWO_POINT_DOC = {**TWO_POINT_DOC, "values": {"x": {"L": HUGE, "R": [[0, 1], [0, 1]]}}}
HUGE_MAT_DOC = {**MAT_DOC, "matrices": {"f": [[HUGE, [[1, 1], [0, 1]]], [[[0, 1], [0, 1]], [[1, 1], [0, 1]]]]}}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_free_differential(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, out, _ = run(capsys, "expand", "--algebra", path, "--expr", "d(f)", "--out", "pretty")
    assert code == 0
    assert out.strip() == "1⊗f - f⊗1"


def test_expand_json_is_deterministic(spec_file, capsys):
    path = spec_file(TWO_POINT_DOC)
    code1, out1, _ = run(capsys, "expand", "--algebra", path, "--expr", "x@d2(x)")
    code2, out2, _ = run(capsys, "expand", "--algebra", path, "--expr", "x@d2(x)")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["level"] == 2
    assert len(doc["tensor"]["terms"]) == 4


def test_expand_generator_basis(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, out, _ = run(
        capsys, "expand", "--algebra", path, "--expr", "d(f)", "--basis", "generators"
    )
    assert code == 0
    doc = json.loads(out)
    assert {"coeff": "1", "product": ["(d{}(f) + d{0}(f))"]} in doc["generators"]
    assert {"coeff": "-1", "product": ["d{}(f)"]} in doc["generators"]


def test_expand_rejects_mixed_orders_without_split(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, _, err = run(capsys, "expand", "--algebra", path, "--expr", "f + d(f)")
    assert code == 2
    assert "mixes orders" in err
    code, out, _ = run(capsys, "expand", "--algebra", path, "--expr", "f + d(f)", "--split")
    assert code == 0
    assert len(json.loads(out)["parts"]) == 2


def test_eval_two_point_values(spec_file, capsys):
    path = spec_file(TWO_POINT_DOC)
    code, out, _ = run(
        capsys,
        "eval",
        "--algebra",
        path,
        "--expr",
        "x@d2(x)",
        "--tuples",
        "L,R,R,L",
        "L,L,L,R",
        "L,L,R,R",
    )
    assert code == 0
    values = {tuple(v["args"]): v["value"] for v in json.loads(out)["values"]}
    assert values[("L", "R", "R", "L")] == [[2, 1], [0, 1]]
    assert values[("L", "L", "L", "R")] == [[-1, 1], [0, 1]]
    assert values[("L", "L", "R", "R")] == [[0, 1], [0, 1]]


def test_eval_all_nonzero(spec_file, capsys):
    path = spec_file(TWO_POINT_DOC)
    code, out, _ = run(
        capsys, "eval", "--algebra", path, "--expr", "x@d(x)", "--all", "--nonzero"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == [{"args": ["L", "R"], "value": [[-1, 1], [0, 1]]}]


def test_eval_all_row_cap(spec_file, capsys):
    three = {**TWO_POINT_DOC, "points": ["L", "R", "S"]}
    three["values"] = {"x": {"L": [1, 1], "R": [0, 1], "S": [2, 1]}}
    # 3^(2^4) = 43046721 rows: refused before anything is embedded or listed
    code, out, err = run(capsys, "eval", "--algebra", spec_file(three), "--expr", "d4(x)", "--all")
    assert code == 2 and out == ""
    assert "eval --all would list 43046721 rows, over the cap 65536" in err and "--tuples" in err
    code, out, _ = run(capsys, "eval", "--algebra", spec_file(TWO_POINT_DOC), "--expr", "d3(x)", "--all")
    assert code == 0 and len(json.loads(out)["values"]) == 256


def test_eval_arity_mismatch(spec_file, capsys):
    path = spec_file(TWO_POINT_DOC)
    code, _, err = run(
        capsys, "eval", "--algebra", path, "--expr", "x@d(x)", "--tuples", "L,R,L"
    )
    assert code == 2 and "expected 2" in err


@pytest.mark.parametrize(
    "doc, argv, needed",
    [
        (FREE_DOC, ["eval", "--expr", "d(f)", "--all"], "function-backend"),
        (MAT_DOC, ["eval", "--expr", "d(f)", "--all"], "function-backend"),
        (TWO_POINT_DOC, ["matrix", "--expr", "d(x)"], "matrix-backend"),
        (FREE_DOC, ["matrix", "--expr", "d(f)"], "matrix-backend"),
    ],
    ids=["eval-free", "eval-matrix", "matrix-function", "matrix-free"],
)
def test_eval_requires_function_backend(spec_file, capsys, doc, argv, needed):
    code, _, err = run(capsys, argv[0], "--algebra", spec_file(doc), *argv[1:])
    assert code == 2 and needed in err


@pytest.mark.parametrize("tuples", [["L,R"], []], ids=["with-values", "bare"])
def test_eval_refuses_all_with_tuples(spec_file, capsys, tuples):
    argv = ["eval", "--algebra", spec_file(TWO_POINT_DOC), "--expr", "d(x)", "--all", "--tuples", *tuples]
    assert run(capsys, *argv) == (2, "", "ncdiff: pass --tuples or --all, not both\n")
    # the backend is checked first
    argv = ["eval", "--algebra", spec_file(FREE_DOC), "--expr", "d(f)", "--all", "--tuples", *tuples]
    assert run(capsys, *argv) == (2, "", "ncdiff: eval needs a function-backend algebra spec\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**TWO_POINT_DOC, "values": {"x": {"L": True, "R": 0}}}, "bad scalar: True"),
        ({**TWO_POINT_DOC, "values": {"x": {"L": [False, 0], "R": 0}}}, "bad rational: False"),
        ({**TWO_POINT_DOC, "values": {"x": {"L": [0, True], "R": 0}}}, "bad rational: True"),
        ({**TWO_POINT_DOC, "values": {"x": {"L": 1, "R": 0, "Q": 3}}}, "value table for 'x' names unknown point 'Q'"),
        ({"backend": "matrix", "dim": 1, "matrices": {"f": [[False]]}}, "bad scalar: False"),
    ],
    ids=["bool", "bool-real-part", "bool-imaginary-part", "unknown-point", "matrix-bool"],
)
def test_spec_refuses_booleans_and_undeclared_points(spec_file, capsys, doc, message):
    path = spec_file(doc)
    want = (2, "", f"ncdiff: bad algebra spec {path}: {message}\n")
    assert run(capsys, "expand", "--algebra", path, "--expr", "1") == want


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**TWO_POINT_DOC, "values": {"x": {"L": [[1, 1], [0, 1]]}}}, "value table for 'x' has no value at point 'R'"),
        ({"backend": "matrix", "matrices": {}}, "matrix spec has no dim"),
    ],
    ids=["missing-point", "missing-dim"],
)
def test_spec_refusals_name_what_is_missing(spec_file, capsys, doc, message):
    path = spec_file(doc)
    assert run(capsys, "eval", "--algebra", path, "--expr", "1", "--all") == (2, "", f"ncdiff: bad algebra spec {path}: {message}\n")


def test_matrix_of_first_differential(spec_file, capsys):
    path = spec_file(MAT_DOC)
    code, out, _ = run(capsys, "matrix", "--algebra", path, "--expr", "d(f)")
    assert code == 0
    doc = json.loads(out)
    entries = [[e[0][0] / e[0][1] for e in row] for row in doc["matrix"]]
    assert entries == [[0, -1, 1, 0], [0, 0, 0, 1], [0, 0, 0, -1], [0, 0, 0, 0]]


def test_matrix_of_unit_differential_is_zero(spec_file, capsys):
    path = spec_file(MAT_DOC)
    code, out, _ = run(capsys, "matrix", "--algebra", path, "--expr", "d(1)", "--out", "pretty")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert all(e == "0" for row in rows for e in row)


def test_matrix_dimension_cap(spec_file, capsys):
    path = spec_file(MAT_DOC)
    code, _, err = run(
        capsys, "matrix", "--algebra", path, "--expr", "d3(f)", "--max-dim", "100"
    )
    assert code == 2 and "result dimension 256 exceeds the cap 100" in err
    # checked before embedding, and without squaring past 2^64
    code, _, err = run(capsys, "matrix", "--algebra", path, "--expr", "d8(f)")
    assert code == 2 and "result dimension 2^(2^8) exceeds the cap 256" in err


def test_generators_table(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, out, _ = run(capsys, "generators", "--algebra", path, "--level", "2")
    assert code == 0
    doc = json.loads(out)
    assert [g["index"] for g in doc["generators"]] == ["{}", "{0}", "{1}", "{1,0}"]
    assert doc["inversion"][3]["sum"] == ["d{}(f)", "d{0}(f)", "d{1}(f)", "d{1,0}(f)"]
    # every level lists its subsets smallest first, then by rising members
    for p in range(6):
        code, out, _ = run(capsys, "generators", "--algebra", path, "--level", str(p))
        rising = [tuple(s for s in range(p) if (mask >> s) & 1) for mask in range(2**p)]
        want = ["{" + ",".join(map(str, reversed(m))) + "}" for m in sorted(rising, key=lambda m: (len(m), m))]
        assert code == 0 and [g["index"] for g in json.loads(out)["generators"]] == want


def test_verify_suites(spec_file, capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and any(c["check"] == "order3.row3" for c in doc["checks"])
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 2 and "unknown suite" in err


def test_key_error_inside_a_check_is_not_an_unknown_suite(monkeypatch, capsys):
    def broken():
        yield "broken.lookup", {}["missing"], None

    monkeypatch.setitem(verify.SUITES, "jets", broken)
    for suite in ("jets", "all"):
        with pytest.raises(KeyError, match="missing"):
            main(["verify", suite])
        assert "unknown suite" not in capsys.readouterr().err


# SHA-256 of the full stdout of `verify <suite> --out <mode>`
VERIFY_DIGESTS = {
    ("generators", "json"): "aef4f9f448ac9b34041f2d03b04f493d02f49392a0f502a7c73ae215d5f6c97f",
    ("generators", "pretty"): "148907da77037eb5bc6c8f7061a8f2b42e2029e3737d153de957f34476d3b982",
    ("leibniz", "json"): "038e36ff222548e0e8d26ab8de9ce2de4fa18bd7478a4c68a4c5c2a8a3d1fff5",
    ("leibniz", "pretty"): "14dfd28e0216c521fa1ff1118ed4689f97f25287d12532aba10fdf9ba80e1b23",
    ("d2", "json"): "5de3cffcb07edd5530136973ba2f51941bfb722e2b415c954c0b851707188075",
    ("d2", "pretty"): "926e25e0198c2d6e1d7e2113d35d2a6e62b0fa88c249f8d18cb8b394519d3e5a",
    ("tables", "json"): "8a3584a5e303a440befe8264d706358af547391c2b15cca4c8e4fd37088b6a4d",
    ("tables", "pretty"): "433e123f40c83c1706ea0fd04bb4218bd80d6002e8be58f162254e37a54f1f35",
    ("odot", "json"): "01ddc765be19cc140d3bd9c6db4e963086f8432fcbc4a05f553bbf832f5d0163",
    ("odot", "pretty"): "0bd17e2c18efc36c78ffc4797ea187c4d52435978d07e9437390255a4bd5371f",
    ("jets", "json"): "36c90619719e0f1c815829af0d54236530a4ccafb2b9a1bdc30693ef4251a46d",
    ("jets", "pretty"): "a70aaa53b23a45dec122a280292b1d50d79aa8cc3cbf1982de20601beb0ef4b6",
    ("all", "json"): "f80b80320101fd556e07dbc9429c41de8d712972bef6680234f28bb9c5b5d48a",
    ("all", "pretty"): "cb96a394020b36e46dc0ac5a366ac3a49663bde1f9f97f8246746cb2639187f2",
}


@pytest.mark.parametrize("suite, mode", list(VERIFY_DIGESTS), ids=[f"{s}-{m}" for s, m in VERIFY_DIGESTS])
def test_verify_output_is_pinned(capsys, suite, mode):
    code, out, err = run(capsys, "verify", suite, "--out", mode)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite, mode]


@pytest.mark.parametrize("mode", ["json", "pretty"])
def test_verify_names_the_failing_instance(capsys, monkeypatch, mode):
    """With lam replaced by rho, only the checks that use lam fail; each
    FAIL line names its check and first failing instance, and every other
    line is unchanged."""
    _, good, _ = run(capsys, "verify", "all", "--out", mode)
    monkeypatch.setattr(verify, "lam", rho)
    code, bad, _ = run(capsys, "verify", "all", "--out", mode)
    assert code == 1
    # first failing instance of each broken check; rho(d(h)) is the lhs of the first
    broken = {"lam.generator.identity": "instance 0: 1⊗h⊗1⊗1 - h⊗1⊗1⊗1 != "}
    broken.update({f"derivation.level{n}": f"instance {int(n == 1)}: " for n in range(4)})
    failed = {}
    if mode == "json":
        good, bad = json.loads(good)["checks"], json.loads(bad)["checks"]
        for before, after in zip(good, bad, strict=True):
            if after["ok"]:
                assert after == before
            else:
                assert after.keys() == {"check", "ok", "detail"} and after["check"] == before["check"]
                failed[after["check"]] = after["detail"]
    else:
        for before, after in zip(good.splitlines(), bad.splitlines(), strict=True):
            if after != before:
                name = before.removeprefix("PASS ")
                assert after.startswith(f"FAIL {name}: ")
                failed[name] = after.removeprefix(f"FAIL {name}: ")
    assert list(failed) == list(broken)
    for name, detail in failed.items():
        assert detail.startswith(broken[name]) and " != " in detail


def test_jet_command(capsys):
    code, out, _ = run(
        capsys, "jet", "--f", "x^2*y", "--x", "u+v", "--y", "u*v", "--at", "1,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["jet"] == {
        "f": [18, 1],
        "fu": [30, 1],
        "fv": [21, 1],
        "fuu": [28, 1],
        "fuv": [31, 1],
        "fvv": [16, 1],
    }
    assert doc["invariant"] is True


def test_jet_rational_point(capsys):
    code, out, _ = run(capsys, "jet", "--f", "x", "--x", "u^2", "--y", "v", "--at", "1/2,0")
    assert code == 0
    assert json.loads(out)["jet"]["f"] == [1, 4]


def test_jet_point_exponent_is_bounded_before_fraction_computes_it():
    """``Fraction("1e100000000")`` computes 10**100000000 before any bit cap
    can look at it (over 100 s); the exponent is bounded first.  The child
    runs under a 20 s CPU limit, so a regression fails instead of hanging."""
    limit = lambda: resource.setrlimit(resource.RLIMIT_CPU, (20, 20))
    argv = ["jet", "--f", "1", "--x", "u", "--y", "v", "--at", "1e100000000,1"]
    code, out, cpu, _ = measured_child(*argv, stdout=subprocess.PIPE, preexec_fn=limit)
    assert code == 2 and out == b""
    assert cpu < 1.0


@pytest.mark.parametrize(
    "at, message",
    [
        ("-1e100000000,1", "coefficient cap 4096 bits"),
        ("1,5e-4098", "coefficient cap 4096 bits"),
        ("1e1234,1", "coefficient cap 4096 bits"),
        ("0.001e4100,1", "coefficient cap 4096 bits"),
        ("1e100000000,x", "bad rational point: Invalid literal for Fraction: 'x'"),
        ("1e100000000,1/0", "bad rational point"),
        ("1,3/0", "bad rational point: '3/0' has a zero denominator"),
        ("-2/00 ,1", "bad rational point: '-2/00' has a zero denominator"),
        ("1e" + "9" * 5000 + ",1", "bad rational point: Exceeds the limit (4300 digits)"),
        ("1." + "0" * 5000 + "1e99999999,1", "bad rational point: Exceeds the limit (4300 digits)"),
    ],
)
def test_jet_point_past_the_cap_exits_2(capsys, at, message):
    code, out, err = run(capsys, "jet", "--f", "1", "--x", "u", "--y", "v", f"--at={at}")
    assert code == 2 and out == ""
    assert err.startswith("ncdiff: ") and message in err


def test_jet_point_with_a_zero_mantissa_is_zero(capsys):
    jet = ["jet", "--f", "x*y + x", "--x", "u + v", "--y", "u*v"]
    _, want, _ = run(capsys, *jet, "--at", "0,1")
    for at in ("0e10000000,1", "-0.000e-10000000,1", ".0E+99999999,1"):
        assert run(capsys, *jet, f"--at={at}") == (0, want, "")


def test_jet_point_just_inside_the_cap_is_accepted(capsys):
    """10**1233 takes 4096 bits, the cap; 10**1234 would take 4100."""
    for at, want in [
        ("1e1233,1", [[10**1233, 1], [1, 1]]),
        ("1,-1e-1233", [[1, 1], [-1, 10**1233]]),
        ("0.1e1234,2.5E-1", [[10**1233, 1], [1, 4]]),
        ("1" + "0" * 1233 + "e-2466,1", [[1, 10**1233], [1, 1]]),
    ]:
        code, out, _ = run(capsys, "jet", "--f", "x", "--x", "u", "--y", "v", f"--at={at}")
        assert code == 0 and json.loads(out)["at"] == want


def test_jet_cost_is_refused_before_it_composes(capsys):
    """x^100 + y^100 after x = u^100 at a 2001-bit point builds a jet of about
    20 million bits (about 25 s) that then cannot print; its estimate, from the
    degrees and bits alone, is refused at once and names the cap."""
    argv = ["jet", "--f=x^100+y^100", "--x=u^100", "--y=v", f"--at={2**2000 + 1},1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"ncdiff: jet result would take about 20412351 bits, over the cap {MAX_JET_BITS}\n"


def test_jet_cap_bounds_each_variable_by_its_own_coordinate(capsys):
    """x^17 after x = u at (1, 2^4000): v's 4001 bits enter only through y = v,
    which f does not use, so the jet is a few bits and the request is answered
    (one bound for every variable estimated it at 68,097 bits)."""
    code, out, _ = run(capsys, "jet", "--f=x^17", "--x=u", "--y=v", f"--at=1,{2**4000}")
    jet = {"f": [1, 1], "fu": [17, 1], "fuu": [272, 1], "fuv": [0, 1], "fv": [0, 1], "fvv": [0, 1]}
    assert code == 0
    assert out == json.dumps({"at": [[1, 1], [2**4000, 1]], "invariant": True, "jet": jet}, separators=(",", ":")) + "\n"


def test_jet_estimate_is_not_below_the_bits_the_jet_takes(capsys):
    """On random jets the estimate bounds every printed numerator and
    denominator; the slowest request found inside the cap, (x+y+1)^100 at a
    318-bit point, is admitted."""
    rng, uv = random.Random(5), ("u", "v")
    poly = lambda a, b: " + ".join(
        f"{rng.randint(-60, 60)}*{a}^{rng.randint(0, 5)}*{b}^{rng.randint(0, 5)}" for _ in range(rng.randint(1, 4))
    )
    for _ in range(60):
        f, x, y = poly("x", "y"), poly("u", "v"), poly("u", "v")
        v = rng.choice((rng.randint(-9, 9), 2 ** rng.randint(9, 300) + 1))  # a large v on a variable f may barely use
        at = f"{rng.randint(-500, 500)}/{rng.randint(1, 500)},{v}"
        code, out, _ = run(capsys, "jet", f"--f={f}", f"--x={x}", f"--y={y}", f"--at={at}")
        assert code == 0
        bits = max(abs(n).bit_length() for n in itertools.chain(*json.loads(out)["jet"].values()))
        point = tuple(Fraction(q) for q in at.split(","))
        assert bits <= composite_jet_bits(parse_poly2(f, ("x", "y")), parse_poly2(x, uv), parse_poly2(y, uv), point)
    at = (Fraction(2**318 - 1), Fraction(1))
    f, x, y = parse_poly2("(x+y+1)^100", ("x", "y")), parse_poly2("u", uv), parse_poly2("v", uv)
    assert composite_jet_bits(f, x, y, at) <= MAX_JET_BITS


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "expand", "--algebra", "/no/such/file.json", "--expr", "d(f)")
    assert code == 2 and "not found" in err


def test_parse_error_exit_code(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, _, err = run(capsys, "expand", "--algebra", path, "--expr", "d(")
    assert code == 2 and "column 3" in err


JET_AT = ["--x", "u", "--y", "v", "--at", "1,1"]
TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["expand", "--expr", "(" * 330 + "f" + ")" * 330], "line 1, column 101: parentheses nest deeper than 100"),
        (["expand", "--expr", "d(" * 250 + "f" + ")" * 250], "line 1, column 202: parentheses nest deeper than 100"),
        (["jet", "--f", "(" * 400 + "x" + ")" * 400, *JET_AT], "line 1, column 101: parentheses nest deeper than 100"),
        (["jet", "--f=" + "-" * 2000, *JET_AT], "line 1, column 2001: expected expression"),
        (["expand", "--expr", TOO_LONG + "*d(f)"], "line 1, column 1: integer literal longer than"),
        (["expand", "--expr", "d^" + TOO_LONG + "(f)"], "line 1, column 3: integer literal longer than"),
        (["jet", "--f", "x + " + TOO_LONG, *JET_AT], "line 1, column 5: integer literal longer than"),
        (["jet", "--f", "x^" + TOO_LONG, *JET_AT], "line 1, column 3: integer literal longer than"),
        (["expand", "--expr", "1/"], "line 1, column 3: expected denominator"),
    ],
    ids=[
        "parens", "differentials", "jet-parens", "jet-minus-signs", "literal", "power", "jet-literal", "jet-exponent",
        "denominator",
    ],
)
def test_deep_or_long_input_is_a_parse_error_at_its_position(spec_file, capsys, argv, message):
    spec = ["--algebra", spec_file(FREE_DOC)] if argv[0] == "expand" else []
    code, out, err = run(capsys, argv[0], *spec, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"ncdiff: {message}") and "Traceback" not in err


def test_unreadable_spec_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "expand", "--algebra", str(tmp_path), "--expr", "d(f)")
    assert code == 2 and err == f"ncdiff: cannot read algebra spec {tmp_path}: Is a directory\n"
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "expand", "--algebra", str(deep), "--expr", "d(f)")
    assert code == 2 and err.startswith(f"ncdiff: bad algebra spec {deep}: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "doc, argv",
    [
        ([FREE_DOC], ["expand", "--expr", "d(f)"]),
        (
            {**TWO_POINT_DOC, "values": {"x": {"L": [[1, 0], [0, 1]], "R": [[0, 1], [0, 1]]}}},
            ["expand", "--expr", "d(x)"],
        ),
        ({**MAT_DOC, "dim": [2]}, ["expand", "--expr", "d(f)"]),
        (
            {**TWO_POINT_DOC, "values": {"x": [[[1, 1], [0, 1]], [[0, 1], [0, 1]]]}},
            ["expand", "--expr", "d(x)"],
        ),
        (FREE_DOC, ["generators", "--level", "-1"]),
        (FREE_DOC, ["generators", "--symbol", "q"]),
        (FREE_DOC, ["generators", "--symbol", ""]),
        (TWO_POINT_DOC, ["eval", "--expr", "d(x)", "--tuples", "L,Q"]),
        ({**TWO_POINT_DOC, "values": [1]}, ["expand", "--expr", "d(x)"]),
        ({**MAT_DOC, "matrices": []}, ["expand", "--expr", "d(f)"]),
        ({**MAT_DOC, "matrices": {"f": [5]}}, ["expand", "--expr", "d(f)"]),
        ({**FREE_DOC, "symbols": 5}, ["expand", "--expr", "d(f)"]),
        ({**TWO_POINT_DOC, "points": 5}, ["expand", "--expr", "d(x)"]),
        ({**FREE_DOC, "symbols": [["f"]]}, ["expand", "--expr", "d(f)"]),
        (
            {"backend": "matrix", "dim": True, "matrices": {"f": [[[2, 1]]]}},
            ["expand", "--expr", "d(f)"],
        ),
        ({**FREE_DOC, "symbols": "fg"}, ["expand", "--expr", "d(f)"]),
        (FREE_DOC, ["expand", "--expr", "1/0*f"]),
        ({**FREE_DOC, "commutative": "false"}, ["expand", "--expr", "d(f*g - g*f)"]),
        ({**FREE_DOC, "commutative": 1}, ["expand", "--expr", "d(f)"]),
        ({**TWO_POINT_DOC, "points": ["L", "L"]}, ["eval", "--expr", "x", "--all"]),
        (FREE_DOC, ["expand", "--expr", "f**g"]),
        (FREE_DOC, ["expand", "--expr=--"]),
        (None, ["jet", "--f=--", "--x", "u", "--y", "v", "--at", "1,1"]),
        (None, ["jet", "--f", "x^200000", "--x", "u", "--y", "v", "--at", "1,1"]),
        (None, ["jet", "--f", "(x+y)^1000", "--x", "u", "--y", "v", "--at", "1,1"]),
        (None, ["jet", "--f", "x^100", "--x", "u", "--y", "v", "--at", "9" * 44 + ",1"]),
        (None, ["jet", "--f", "x^100", "--x", "u", "--y", "v", "--at", "9" * 44 + ",1", "--out", "pretty"]),
        (None, ["jet", "--f", "((2^100)^100)^100", "--x", "u", "--y", "v", "--at", "1,1"]),
        (HUGE_TWO_POINT_DOC, ["eval", "--expr", "x*x*x*x*x*x*x*x", "--all"]),
        (HUGE_TWO_POINT_DOC, ["expand", "--expr", "x*x*x*x*x*x*x*x", "--out", "pretty"]),
        (HUGE_MAT_DOC, ["matrix", "--expr", "f*f*f*f*f*f*f*f"]),
        (HUGE_TWO_POINT_DOC, ["eval", "--expr", "x*x*x*x*x*x*x*x", "--all", "--out", "pretty"]),
        (HUGE_MAT_DOC, ["matrix", "--expr", "f*f*f*f*f*f*f*f", "--out", "pretty"]),
        (FREE_DOC, ["expand", "--expr", "d^40(f)"]),
        (FREE_DOC, ["expand", "--expr", "d^1000000000(f)"]),
        (FREE_DOC, ["expand", "--expr", "d^5(f)@d^5(g)"]),
        (TWO_POINT_DOC, ["eval", "--expr", "d^9(x)", "--tuples", ",".join(["L", "R"] * 256)]),
        (FREE_DOC, ["generators", "--level", "8"]),
        (FREE_DOC, ["generators", "--level", "40"]),
        ({**FREE_DOC, "symbols": []}, ["generators"]),
        (TWO_POINT_DOC, ["eval", "--expr", "d(x)"]),
        (None, ["jet", "--f", "x", "--x", "u", "--y", "v", "--at", "1"]),
        (None, ["jet", "--f", "x", "--x", "u", "--y", "v", "--at", "1/0,1"]),
        (None, ["jet", "--f", "1", "--x", "u", "--y", "v", "--at", f"{2**5000},1"]),
        (MAT_DOC, ["matrix", "--expr", "d5(f)", "--max-dim", "10000000000"]),
        ({"backend": "matrix", "dim": 10**9}, ["expand", "--expr", "1"]),
        ({"backend": "matrix", "dim": 257}, ["expand", "--expr", "1"]),
        ({"backend": "matrix", "dim": 4096}, ["expand", "--expr", "1"]),
    ],
    ids=[
        "non-object",
        "zero-denominator",
        "dim-list",
        "table-list",
        "negative-level",
        "unknown-symbol",
        "empty-symbol",
        "unknown-point",
        "values-list",
        "matrices-list",
        "matrix-row-not-list",
        "symbols-number",
        "points-number",
        "symbol-not-string",
        "dim-bool",
        "symbols-string",
        "literal-zero-denominator",
        "commutative-string",
        "commutative-number",
        "duplicate-points",
        "double-star",
        "expr-double-dash",
        "jet-double-dash",
        "jet-exponent-cap",
        "jet-binomial-exponent-cap",
        "jet-digit-limit",
        "jet-digit-limit-pretty",
        "jet-coefficient-cap",
        "eval-digit-limit",
        "expand-digit-limit",
        "matrix-digit-limit",
        "eval-digit-limit-pretty",
        "matrix-digit-limit-pretty",
        "order-40",
        "order-billion",
        "odot-order-10",
        "eval-order-9",
        "generators-level-8",
        "generators-level-40",
        "generators-no-symbols",
        "eval-no-rows",
        "jet-point-one-coordinate",
        "jet-point-zero-denominator",
        "jet-point-cap",
        "matrix-dim-ceiling",
        "spec-dim-cap",
        "spec-cell-cap",
        "spec-cell-cap-4096",
    ],
)
def test_malformed_input_exits_2_without_traceback(spec_file, capsys, doc, argv):
    spec = ["--algebra", spec_file(doc)] if doc is not None else []
    code, _, err = run(capsys, argv[0], *spec, *argv[1:])
    assert code == 2
    assert any(line.startswith("ncdiff: ") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("max_dim", ["0", "-3"])
def test_matrix_max_dim_below_one_is_a_usage_error(spec_file, capsys, tmp_path, max_dim):
    """``--max-dim`` below 1 names the option, before the spec is read: a
    missing spec file gives the same message."""
    for path in (spec_file(MAT_DOC, "mat.json"), str(tmp_path / "missing.json")):
        code, out, err = run(capsys, "matrix", "--algebra", path, "--expr", "d(f)", "--max-dim", max_dim)
        assert (code, out, err) == (2, "", f"ncdiff: --max-dim must be at least 1, got {max_dim}\n")


@pytest.mark.parametrize("dim", [math.isqrt(MATRIX_SPEC_CELL_CAP) + 1, cli.MATRIX_DIM_CAP + 1, 10**9])
def test_spec_dim_above_the_cap_is_refused_when_read(spec_file, dim):
    """A matrix spec with more than ``MATRIX_SPEC_CELL_CAP`` dense cells is
    refused before any cell is built."""
    with pytest.raises(cli.UsageError, match=f"exceeds the cap {MATRIX_SPEC_CELL_CAP}"):
        cli._load_spec(spec_file({"backend": "matrix", "dim": dim}))


def test_spec_at_the_cell_cap_loads(spec_file, capsys):
    """dim 256, dim² at the cap, is read and expanded (about 0.7 s on Python 3.11)."""
    dim = math.isqrt(MATRIX_SPEC_CELL_CAP)
    assert dim * dim == MATRIX_SPEC_CELL_CAP
    code, out, err = run(capsys, "expand", "--algebra", spec_file({"backend": "matrix", "dim": dim}), "--expr", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["pretty"] == "1"


def test_order_cap_admits_order_8(spec_file, capsys):
    args = ["L" if i % 3 == 0 else "R" for i in range(256)]
    argv = ["eval", "--algebra", spec_file(TWO_POINT_DOC), "--expr", "d^8(x)", "--tuples", ",".join(args)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = sum((-1) ** (8 - bin(j).count("1")) for j in range(256) if args[j] == "L")
    assert json.loads(out)["values"] == [{"args": args, "value": [[want, 1], [0, 1]]}]


def test_split_prints_each_parts_generator_basis(spec_file, capsys):
    """Split generator output is each part's own unsplit expansion, in order."""
    expand = ["expand", "--algebra", spec_file(FREE_DOC), "--basis", "generators"]
    pieces = ["f", "2*d(f)", "d(f)@d(g)"]
    for mode in ("json", "pretty"):
        code, whole, _ = run(capsys, *expand, "--expr", " + ".join(pieces), "--split", "--out", mode)
        alone = [run(capsys, *expand, "--expr", p, "--out", mode)[1] for p in pieces]
        assert code == 0
        if mode == "json":
            parts = json.loads(whole)["parts"]
            assert parts == [json.loads(a) for a in alone] and all(p["generators"] for p in parts)
        else:
            assert whole == "".join(alone) and len(whole.splitlines()) > 2 * len(pieces)


@pytest.mark.parametrize("split", [[], ["--split"]], ids=["whole", "split"])
def test_a_zero_forms_generator_expansion_prints_0_alone(spec_file, capsys, split):
    """A zero form has no generator rows: pretty output is its tensor's ``0``
    with no blank line after it, and JSON lists no rows."""
    expand = ["expand", "--algebra", spec_file(FREE_DOC), "--expr", "f - f", "--basis", "generators", *split]
    code, out, _ = run(capsys, *expand, "--out", "pretty")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, *expand)
    docs = json.loads(out)["parts"] if split else [json.loads(out)]
    assert code == 0 and [d["generators"] for d in docs] == [[]]


def child(*argv, program=("-m", "ncdiff.cli"), **kwargs) -> subprocess.Popen:
    """Start ``python <program> argv``, the CLI by default, in a child process
    that imports this ncdiff."""
    src = os.path.dirname(os.path.dirname(ncdiff.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, *program, *argv], env=env, **kwargs)


# Run by a child in place of the measured program: fork, exec Python on the same
# arguments, and report its exit code, CPU seconds and peak RSS on stderr.
SPAWN_AND_MEASURE = """import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss, file=sys.stderr)
"""


def measured_child(*argv, stdout, program=("-m", "ncdiff.cli"), **popen) -> tuple[int, bytes | None, float, int]:
    """Run ``python program argv``, the CLI by default, in a fresh process and
    return its exit code, its stdout if piped, its CPU seconds and its peak
    RSS in kilobytes.  The process is a grandchild, forked from a small
    interpreter: exec keeps the peak RSS of the image it replaces, so a child
    started straight from the test runner would report the runner's peak.
    ``popen`` goes to the interpreter's ``subprocess.Popen``."""
    proc = child(*program, *argv, program=("-c", SPAWN_AND_MEASURE), stdout=stdout, stderr=subprocess.PIPE, **popen)
    out, err = proc.communicate(timeout=120)
    code, cpu, rss = err.splitlines()[-1].split()  # the program's own stderr comes first
    return int(code), out, float(cpu), int(rss)


def test_closed_pipe_exits_141_without_traceback(spec_file):
    # about 300 kB of JSON, more than a pipe buffers
    argv = ["generators", "--algebra", spec_file(FREE_DOC), "--level", "5"]
    proc = child(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"Error" not in err


# complex and fractional entries, so values print in their (a+bi) and p/q forms
MIXED_TWO_POINT_DOC = {
    **TWO_POINT_DOC,
    "values": {
        "x": {"L": [[1, 1], [2, 1]], "R": [[-3, 1], [0, 1]]},
        "y": {"L": [[1, 2], [0, 1]], "R": [[5, 1], [0, 1]]},
    },
}
MIXED_MAT_DOC = {
    "backend": "matrix",
    "dim": 2,
    "matrices": {"f": [[[[1, 2], [0, 1]], [[1, 1], [1, 1]]], [[[-2, 1], [0, 1]], [[3, 1], [0, 1]]]]},
}


@pytest.mark.parametrize("flags", [[], ["--nonzero"]], ids=["all", "nonzero"])
def test_eval_pretty_prints_each_json_row(spec_file, capsys, flags):
    argv = ["eval", "--algebra", spec_file(MIXED_TWO_POINT_DOC), "--expr", "x*d(y)@d(x)", "--all"]
    _, out, _ = run(capsys, *argv, *flags)
    rows = json.loads(out)["values"]
    assert 0 < len(rows) <= 16 and (len(rows) < 16) == bool(flags)
    code, pretty, _ = run(capsys, *argv, *flags, "--out", "pretty")
    assert code == 0
    want = [f"[{','.join(r['args'])}] = {Scalar.from_json(r['value'])}" for r in rows]
    assert pretty.splitlines() == want


def test_matrix_pretty_renders_the_json_cells(spec_file, capsys):
    argv = ["matrix", "--algebra", spec_file(MIXED_MAT_DOC), "--expr", "f*d(f)"]
    _, out, _ = run(capsys, *argv)
    cells = json.loads(out)["matrix"]
    code, pretty, _ = run(capsys, *argv, "--out", "pretty")
    assert code == 0 and len(cells) == 4
    assert pretty == "\n".join("  ".join(str(Scalar.from_json(e)) for e in row) for row in cells) + "\n"


# fractional entries with coprime denominators, so cells sum over a common denominator
MIXED_MAT3_DOC = {
    "backend": "matrix",
    "dim": 3,
    "matrices": {
        "f": [
            [[[1, 2], [0, 1]], [[0, 1], [0, 1]], [[-2, 3], [0, 1]]],
            [[[0, 1], [0, 1]], [[3, 1], [0, 1]], [[0, 1], [0, 1]]],
            [[[1, 1], [0, 1]], [[0, 1], [0, 1]], [[5, 7], [0, 1]]],
        ],
        "g": [
            [[[0, 1], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [0, 1]]],
            [[[1, 5], [0, 1]], [[0, 1], [0, 1]], [[-1, 1], [0, 1]]],
            [[[0, 1], [0, 1]], [[2, 1], [0, 1]], [[0, 1], [0, 1]]],
        ],
    },
}
# SHA-256 of the full stdout of eval --all (256 rows, 37 distinct complex and
# fractional values) and of an 81 x 81 matrix, recorded before the
# realization kernels summed over a common denominator
REALIZE_DIGESTS = {
    ("eval", "json"): "c886f37153cd106d3be7c6475684a08a53491b1dcc59bda4970c7fcb8c9c0530",
    ("eval", "pretty"): "c94975def54abf7ec98a0fa1a9fb030b480af6cb3d1a68771a9b5e050620409a",
    ("eval-nonzero", "json"): "fa8b79c1dfb77af9fcea3a267eeae2ab0ee8b9692bd98cdd1c4018275408e162",
    ("eval-nonzero", "pretty"): "31eff17adf7c0dbccf044cbc427640f255386e4c6afaf52862d53a21d58343e9",
    ("matrix", "json"): "eb8eb7560ad9c02b35ada2efd5715fc81ccaf82040f8274ea572ef0cf2b2d7e6",
    ("matrix", "pretty"): "eeb86d304fcc257610073d79d5d0b8ec11d49f9a95ac186ad04fd40290afd9b6",
}
REALIZE_ARGV = {
    "eval": (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--all"]),
    "eval-nonzero": (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--all", "--nonzero"]),
    "matrix": (MIXED_MAT3_DOC, ["matrix", "--expr", "g*d(f)@d(g)"]),
}


@pytest.mark.parametrize("command, mode", list(REALIZE_DIGESTS), ids=[f"{c}-{m}" for c, m in REALIZE_DIGESTS])
def test_realization_output_is_pinned(spec_file, capsys, command, mode):
    doc, argv = REALIZE_ARGV[command]
    code, out, err = run(capsys, *argv, "--algebra", spec_file(doc), "--out", mode)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == REALIZE_DIGESTS[command, mode]


def random_rational(rng):
    """A Gaussian rational as JSON: fractional, integral or zero parts, a third of them complex."""
    part = lambda: [rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 5, 7])] if rng.random() < 0.8 else [0, 1]
    return [part(), part() if rng.random() < 0.35 else [0, 1]]


def imaginary_rational(rng):
    """A nonzero imaginary Gaussian rational as JSON: a product of two is real, so
    tables mix real, imaginary and complex cells, and signs of both kinds."""
    return [[0, 1], [rng.choice([-1, 1]) * rng.randint(1, 6), rng.choice([1, 2, 3, 5])]]


# (spec kind, size, expressions, entry maker): tables of at most 256 rows and matrices of at most 16 x 16
ORACLE_KINDS = [
    ("function", 2, ["x", "d(x)", "y*d(x)", "d2(y) + x*d(x)@d(y)", "x*d(y)@d2(x)", "d3(x) - y*d(y)@d(x)@d(y)"], random_rational),
    ("function", 3, ["y", "d(x) + 2*d(y)", "x*d2(y)", "d(x)@d(y) - y*d(x)@d(x)"], random_rational),
    ("matrix", 2, ["f", "g*d(f)", "d2(f) + f*d(g)@d(f)", "d(f)@d(g) - d(g)@d(f)"], random_rational),
    ("matrix", 3, ["g*f", "d(f)", "g*d(f) - d(g)"], random_rational),
    ("function", 2, ["x + 1/2", "d(x) + y*d(y)", "x*d(y)@d(x) - 1/3*d2(y)"], imaginary_rational),
    ("function", 3, ["y*d(x) - d(y)"], imaginary_rational),
    ("matrix", 2, ["f - 2/3", "d(f) + g*d(g)", "f*d(g)@d(f) + d2(g)"], imaginary_rational),
    ("matrix", 3, ["g*d(f) - 1/2*d(g)"], imaginary_rational),
]
# zero forms, listed as zero values everywhere; their --nonzero tables are empty
ZERO_EXPRS = {"function": ["x - x", "d(x)@d(y) - d(x)@d(y)"], "matrix": ["f - f", "d(f) - d(f)"]}


def oracle_cli_cases(seed):
    """(spec document, argv, expected stdout) over seeded random specs: the
    expected text is built from ``tensor_eval_all``, ``tensor_eval`` and
    ``tensor_to_matrix`` of ``embed(form).body``, with ``Scalar.to_json``,
    ``dumps`` and ``str``."""
    rng = random.Random(seed)
    for backend, size, exprs, entry in ORACLE_KINDS:
        if backend == "function":
            points = ["L", "R", "é"][:size]
            doc = {"backend": "function", "points": points, "values": {s: {p: entry(rng) for p in points} for s in "xy"}}
        else:
            mat = lambda: [[entry(rng) for _ in range(size)] for _ in range(size)]
            doc = {"backend": "matrix", "dim": size, "matrices": {"f": mat(), "g": mat()}}
        spec = AlgebraSpec.from_json(doc)
        for expr in exprs + ZERO_EXPRS[backend]:
            parts = lower(parse(expr), spec)
            form = next(iter(parts.values())) if parts else LeibnizForm.from_alg(spec.zero())
            body, head = embed(form).body, {"order": form.order}
            if backend == "matrix":
                mat = tensor_to_matrix(body)
                cells = {"json": [[e.to_json() for e in row] for row in mat], "pretty": [[str(e) for e in row] for row in mat]}
                want = dumps({**head, "dim": len(mat), "matrix": cells["json"]})
                yield doc, ["matrix", "--expr", expr, "--out", "json"], want + "\n"
                yield doc, ["matrix", "--expr", expr, "--out", "pretty"], "\n".join(map("  ".join, cells["pretty"])) + "\n"
                continue
            head["arity"] = body.degree
            table = list(zip(itertools.product(spec.points, repeat=body.degree), tensor_eval_all(body)))
            picked = [tuple(rng.choice(spec.points) for _ in range(body.degree)) for _ in range(rng.randint(1, 4))]
            listings = [
                (["--all"], table),
                (["--all", "--nonzero"], [(t, v) for t, v in table if not v.is_zero()]),
                (["--tuples", *map(",".join, picked)], [(t, tensor_eval(body, t)) for t in picked]),
            ]
            for flags, rows in listings:
                values = [{"args": list(t), "value": v.to_json()} for t, v in rows]
                yield doc, ["eval", "--expr", expr, *flags, "--out", "json"], dumps({**head, "values": values}) + "\n"
                pretty = "\n".join(f"[{','.join(t)}] = {v}" for t, v in rows)
                yield doc, ["eval", "--expr", expr, *flags, "--out", "pretty"], pretty + "\n"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_realization_output_matches_the_library_oracles(spec_file, capsys, seed):
    """eval --all, with and without --nonzero, eval --tuples and matrix print,
    byte for byte, what the library's Scalar kernels give, as JSON and as
    pretty text, over random function and matrix specs with complex and
    fractional values; zero forms list zero everywhere, and their --nonzero
    tables are empty."""
    empty = 0
    for doc, argv, want in oracle_cli_cases(seed):
        code, out, err = run(capsys, *argv, "--algebra", spec_file(doc))
        assert (code, err) == (0, "") and out == want, argv
        empty += out == "\n" or out.endswith('"values":[]}\n')
    assert empty >= 4 * 2  # the function zero forms' --nonzero tables, in both modes


def test_the_read_path_divides_nothing_after_lowering(spec_file, capsys, monkeypatch):
    """eval and matrix over fractional values realize the integer body that
    ``embed`` scales to, with its denominator: once the expression is
    lowered, no Scalar is divided, in the embedding, the kernels or the
    rendering."""
    div, lower_expr, divisions = Scalar.__truediv__, cli._lower_expr, []

    def lowered(*args):
        parts = lower_expr(*args)
        divisions.clear()
        return parts

    monkeypatch.setattr(Scalar, "__truediv__", lambda a, b: divisions.append(a) or div(a, b))
    monkeypatch.setattr(cli, "_lower_expr", lowered)
    cases = [
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--all"]),
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--tuples", "L,R,R,L,R,L,L,R"]),
        (MIXED_MAT3_DOC, ["matrix", "--expr", "g*d(f)@d(g)"]),
    ]
    for doc, argv in cases:
        for mode in ("json", "pretty"):
            code, out, _ = run(capsys, *argv, "--algebra", spec_file(doc), "--out", mode)
            assert code == 0 and divisions == [], argv


def expected_cell_text(re, im):
    """The JSON and the pretty text of re + im·i, two Fractions, built from
    ``Fraction`` and ``json.dumps`` alone."""
    doc = json.dumps([[re.numerator, re.denominator], [im.numerator, im.denominator]], separators=(",", ":"))
    if im == 0:
        return doc, str(re)
    if re == 0:
        return doc, f"{im}i"
    return doc, f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


@pytest.mark.parametrize("d", [1, 2, 6, 35, 10**30])
def test_cell_text_matches_fraction_and_json(d):
    """Each cell of an integer table, (re + im·i)/d over a shared positive d,
    prints as ``Fraction`` and ``json.dumps`` give it: zero, integral,
    negative and proper parts, real cells and complex ones with a zero real
    or imaginary part, each distinct value rendered once."""
    rng = random.Random(d)
    nums = [0, d, -d, 2 * d, 1, -1, d - 1, -(d + 1), *(rng.randint(-3 * d, 3 * d) for _ in range(20))]
    re = [0, 0, d, -1, *(rng.choice(nums) for _ in range(300))]
    im = [0, -d, 0, 1, *(rng.choice([0, *nums]) for _ in range(300))]
    for table, pairs in [((d, re, None), [(x, 0) for x in re]), ((d, re, im), list(zip(re, im)))]:
        want = [expected_cell_text(Fraction(x, d), Fraction(y, d)) for x, y in pairs]
        assert list(_table_cells(table, scalar_json)) == [j for j, _ in want]
        assert list(_table_cells(table, scalar_str)) == [p for _, p in want]


@pytest.mark.parametrize(
    "doc, argv",
    [
        (HUGE_TWO_POINT_DOC, ["eval", "--expr", "x*x*x*x*x*x*x*x", "--all"]),
        (HUGE_TWO_POINT_DOC, ["eval", "--expr", "x*x*x*x*x*x*x*x", "--all", "--out", "pretty"]),
        (HUGE_TWO_POINT_DOC, ["eval", "--expr", "x*x*x*x*x*x*x*x", "--tuples", "L"]),
        (HUGE_MAT_DOC, ["matrix", "--expr", "f*f*f*f*f*f*f*f"]),
        (HUGE_MAT_DOC, ["matrix", "--expr", "f*f*f*f*f*f*f*f", "--out", "pretty"]),
        *(
            (HUGE_TWO_POINT_DOC, ["expand", "--expr", expr, "--basis", "generators", *flags])
            for expr, split in [("x*x*x*x*x*x*x*x*d(x)", []), ("x + x*x*x*x*x*x*x*x*d(x)", ["--split"])]
            for flags in (split, [*split, "--out", "pretty"])
        ),
    ],
    ids=[
        "eval-json", "eval-pretty", "eval-tuples", "matrix-json", "matrix-pretty",
        "expand-generators-json", "expand-generators-pretty", "expand-generators-split-json", "expand-generators-split-pretty",
    ],
)
def test_cell_past_the_digit_limit_exits_2(spec_file, capsys, doc, argv):
    """A realization cell or a generator-basis coefficient with an integer
    over Python's 4300-digit limit for printing is refused by ``_emit``:
    exit 2, its message, and nothing printed."""
    code, out, err = run(capsys, argv[0], "--algebra", spec_file(doc), *argv[1:])
    what = f"{argv[0]} result has an integer over {sys.get_int_max_str_digits()} digits"
    assert (code, out) == (2, "") and err.startswith(f"ncdiff: {what}") and "Traceback" not in err


def test_rendering_a_table_builds_no_fraction_or_scalar(spec_file, capsys, monkeypatch):
    """Once the embedding's fold has returned its integer image, eval --all,
    eval --tuples and matrix build no ``Fraction`` and no ``Scalar``, per cell
    or per distinct value: the kernels sum integers and each distinct cell
    becomes text from its integers.  Once the expression is lowered, no
    ``TensorPoly`` is built at all: the kernels read the image as it is."""
    new, init, made, tensors = Fraction.__new__, Scalar.__init__, [], []
    integer_image, lower_expr = cli._integer_image, cli._lower_expr

    def imaged(form):
        out = integer_image(form)
        made.clear()
        return out

    def lowered(*args):
        parts = lower_expr(*args)
        tensors.clear()
        return parts

    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: made.append(cls) or new(cls, *a, **k)))
    monkeypatch.setattr(Scalar, "__init__", lambda self, re=0, im=0: made.append(Scalar) or init(self, re, im))
    monkeypatch.setattr(TensorPoly, "__post_init__", lambda self: tensors.append(self))
    monkeypatch.setattr(cli, "_integer_image", imaged)
    monkeypatch.setattr(cli, "_lower_expr", lowered)
    every_tuple = [",".join(t) for t in itertools.product("LR", repeat=8)]
    cases = [
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--all"]),
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--all", "--nonzero"]),
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "y*d(x)@d2(x) + x*d3(y)", "--tuples", *every_tuple]),
        (MIXED_MAT3_DOC, ["matrix", "--expr", "g*d(f)@d(g)"]),
    ]
    for doc, argv in cases:
        for mode in ("json", "pretty"):
            code, out, _ = run(capsys, *argv, "--algebra", spec_file(doc), "--out", mode)
            assert code == 0 and len(out) > 2000 and made == [] and tensors == [], argv


def test_one_parser_serves_every_call(spec_file, capsys):
    """main builds its argument parser once per process; no option value
    of one call reaches the next, so every call prints what it prints on
    a freshly built parser."""
    fn, free = spec_file(TWO_POINT_DOC), spec_file(FREE_DOC, "free.json")
    evaluate = ["eval", "--algebra", fn, "--expr", "d(x)"]
    calls = [
        evaluate + ["--all", "--nonzero"],
        evaluate + ["--all"],
        evaluate + ["--tuples", "L,R", "R,R"],
        evaluate + ["--all"],
        ["expand", "--algebra", free, "--expr=--"],
        ["eval", "--algebra", fn, "--all"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        build_arg_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 2]
    assert fresh[0][1] != fresh[1][1]
    build_arg_parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert build_arg_parser.cache_info().misses == 1


def parse_path_corpus(free: str, fn: str, mat: str) -> tuple[list[list[str]], list[list[str]]]:
    """(well-formed requests, one for every command plus the abbreviated and
    separated spellings; requests that exit in argparse or print its errors)."""
    jet = ["jet", "--f=x*y - 2*x^2", "--x=u + v", "--y=u*v - 1", "--at=1/2,-3"]
    good = [
        ["expand", "--algebra", free, "--expr", "d(f)@d(g)", "--out", "pretty"],
        ["eval", "--algebra", fn, "--expr", "d(x)", "--tuples", "L,R", "R,R"],
        ["matrix", "--algebra", mat, "--expr", "d(f)", "--max-dim", "4"],
        ["generators", "--algebra", free, "--level", "1", "--symbol", "g"],
        ["verify", "jets", "--out", "pretty"],
        jet,
        ["expand", "--alg", free, "--ex", "d2(f)", "--split"],
        ["verify", "--out", "pretty", "--", "jets"],
        ["expand", "--algebra=--", "--expr", "d(f)"],
    ]
    bad = [
        [],
        ["-h"],
        ["expand", "-h"],
        ["expnd", "--algebra", free, "--expr", "d(f)"],
        ["expand", "--algebra", free],
        ["expand", "--algebra", free, "--expr", "d(f)", "--out", "xml"],
        ["matrix", "--algebra", mat, "--expr", "d(f)", "--max-dim", "x"],
        ["expand", "--algebra", free, "--expr", "d(f)", "--bogus"],
        ["verify", "d2", "extra"],
        ["--", "verify", "jets"],
        jet + ["--", "extra"],
        ["eval", "--algebra", fn, "--expr", "d(x)", "--all", "--"],
    ]
    return good, bad


def test_one_argparse_pass_prints_what_the_full_parser_prints(spec_file, capsys, monkeypatch):
    """main reads a well-formed request with its command's parser alone and
    falls back to the full parser otherwise: every exit code, stdout and
    stderr is what parsing with ``build_arg_parser().parse_args`` gives, and
    a well-formed request gets the same Namespace."""
    good, bad = parse_path_corpus(spec_file(FREE_DOC, "free.json"), spec_file(TWO_POINT_DOC), spec_file(MAT_DOC, "mat.json"))

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    for argv in good:
        assert cli._parse_args(list(argv)) == build_arg_parser().parse_args(list(argv)), argv
    one_pass = [outcome(argv) for argv in good + bad]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: build_arg_parser().parse_args(argv))
    full = [outcome(argv) for argv in good + bad]
    for argv, got, want in zip(good + bad, one_pass, full):
        assert got == want, argv
    assert [code for code, _, _ in one_pass] == [0] * 8 + [2] + [2, 0, 0] + [2] * 9
    assert "usage: ncdiff [-h]" in one_pass[len(good) + 7][2]  # --bogus: the full parser's usage


def test_sparse_jet_at_a_large_point_builds_only_the_powers_it_needs():
    """x^100 at x = 2^40000 (the value of u^100 at u = 2^400): the jet needs
    three powers of x, the largest of 4 million bits, not all 101 below it
    (which peaked near 95 MB)."""
    script = "\n".join([
        "from ncdiff.jets import Jet2, Poly2",
        "jet = Jet2.of_poly(Poly2.of({(100, 0): 1}), (2**40000, 1))",
        "assert (jet.f, jet.fx, jet.fxx) == (2**4000000, 100 * 2**3960000, 9900 * 2**3920000)",
    ])
    code, _, _, rss = measured_child("-c", script, program=(), stdout=subprocess.PIPE)
    assert code == 0
    assert rss < 60 * 1024  # kilobytes on Linux


def test_jet_past_the_cap_is_refused_in_bounded_memory():
    """The same x^100 after x = u^100 through the CLI: its estimate, about 4
    million bits, passes the jet cap, so it exits 2 before any power is built."""
    at = f"--at={2**400},1"
    code, _, _, rss = measured_child("jet", "--f=x^100", "--x=u^100", "--y=v", at, stdout=subprocess.PIPE)
    assert code == 2
    assert rss < 60 * 1024  # kilobytes on Linux


def test_large_expansion_prints_in_bounded_time_and_memory(spec_file, tmp_path):
    """d^4(f)⊙d^4(g) has 752 terms of 256 slots; each distinct slot label is
    encoded once, not once per slot (which took 2.2 s of CPU and 162 MB)."""
    path, out = spec_file(FREE_DOC), tmp_path / "out.json"
    with out.open("wb") as fh:
        code, _, cpu, rss = measured_child("expand", "--algebra", path, "--expr", "d4(f)@d4(g)", stdout=fh)
    assert code == 0
    assert rss < 100 * 1024  # kilobytes on Linux
    assert cpu < 1.5
    spec = AlgebraSpec.from_json(FREE_DOC)
    (form,) = lower(parse("d4(f)@d4(g)"), spec).values()
    frame = embed(form)
    head = f'{{"level":{frame.level},"order":{form.order},"pretty":{dumps(str(frame.body))},"tensor":'
    assert out.read_bytes() == f"{head}{frame.body.json_text()}}}\n".encode()  # every byte, no parse


def test_cold_verify_all_runs_in_bounded_time_and_memory():
    """The whole check battery in one fresh process: about 0.3 s of CPU and
    19 MB on Python 3.11."""
    code, out, cpu, rss = measured_child("verify", "all", stdout=subprocess.PIPE)
    assert code == 0
    assert out.startswith(b'{"checks":') and out.endswith(b'"ok":true,"suite":"all"}\n')
    assert cpu < 1.5
    assert rss < 60 * 1024  # kilobytes on Linux


def test_eval_all_at_the_row_cap_runs_in_bounded_time_and_memory(spec_file):
    """d^4(x) over two points lists 65,536 rows: 0.22-0.31 s of CPU and 44 MB
    on Python 3.11, rendered from the kernel's integer table; 0.34-0.48 s and
    59 MB with a Scalar per cell, and 0.8-1.5 s and 67-69 MB with a Scalar
    sum and a hashed render per cell."""
    argv = ["eval", "--algebra", spec_file(TWO_POINT_DOC), "--expr", "d4(x)", "--all"]
    code, out, cpu, rss = measured_child(*argv, stdout=subprocess.PIPE)
    assert code == 0
    assert out.count(b'"args"') == cli.EVAL_ALL_ROW_CAP
    assert cpu < 1.0
    assert rss < 80 * 1024  # kilobytes on Linux


MIXED_MAT_FG_DOC = {
    "backend": "matrix",
    "dim": 2,
    "matrices": {
        **MIXED_MAT_DOC["matrices"],
        "g": [[[[0, 1], [2, 3]], [[1, 1], [0, 1]]], [[[1, 5], [0, 1]], [[-1, 1], [1, 2]]]],
    },
}


def test_matrix_at_the_default_cap_runs_in_bounded_time_and_memory(spec_file):
    """g·d(f)⊙d^2(g) over 2×2 matrices with complex and fractional entries is
    a 256×256 matrix, the default --max-dim: 0.15-0.23 s of CPU and 22 MB on
    Python 3.11 (0.19-0.26 s and 21 MB with a Scalar per cell), nearly all of
    it interpreter start-up; the bounds leave room for a slower host."""
    argv = ["matrix", "--algebra", spec_file(MIXED_MAT_FG_DOC), "--expr", "g*d(f)@d2(g)"]
    code, out, cpu, rss = measured_child(*argv, stdout=subprocess.PIPE)
    assert code == 0
    rows = json.loads(out)["matrix"]
    assert len(rows) == 256 and {len(row) for row in rows} == {256}
    assert cpu < 1.0
    assert rss < 40 * 1024  # kilobytes on Linux


@pytest.mark.parametrize(
    "doc, argv",
    [
        (FREE_DOC, ["expand", "--expr", "d(f)@d2(g) + f*d3(h)"]),
        (FREE_DOC, ["expand", "--expr", "f + d(f)", "--split", "--basis", "generators"]),
        (FREE_DOC, ["expand", "--expr", "1 + f", "--basis", "generators"]),
        (FREE_DOC, ["generators", "--level", "3"]),
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "x*d(y)@d(x)", "--all"]),
        (MIXED_TWO_POINT_DOC, ["eval", "--expr", "d(x)", "--tuples", "L,R"]),
        (MIXED_MAT_DOC, ["matrix", "--expr", "f*d(f)"]),
        (MIXED_MAT_DOC, ["expand", "--expr", "f*d(f)"]),
    ],
    ids=["expand", "split-generators", "unit-generators", "generators", "eval-all", "eval-tuples", "matrix", "expand-matrix"],
)
def test_pretty_output_encodes_no_json(spec_file, capsys, monkeypatch, doc, argv):
    def refuse(*args):
        raise AssertionError("JSON encoded for --out pretty")

    argv = [*argv, "--algebra", spec_file(doc)]
    _, out, _ = run(capsys, *argv)
    assert json.loads(out)
    for target, name in [(TensorPoly, "json_text"), (Scalar, "to_json"), (cli, "dumps")]:
        monkeypatch.setattr(target, name, refuse)
    code, pretty, _ = run(capsys, *argv, "--out", "pretty")
    assert code == 0 and pretty.strip()


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(doc=JSON_DOCS)
def test_dumps_writes_sorted_compact_json(doc):
    """``dumps``, which ``verify`` and ``jet`` print through, writes sorted compact JSON."""
    assert cli.dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(doc=st.dictionaries(st.text("ab_z", min_size=1, max_size=3), JSON_DOCS, max_size=3), data=st.data())
def test_dumps_splices_encoded_values_as_they_are(doc, data):
    """An object joined by ``_json_object`` from its fields' JSON text, with
    objects joined the same way at any depth, is the document ``json.dumps``
    writes: each field's text is spliced as it is."""
    text = lambda d: json.dumps(d, sort_keys=True, separators=(",", ":"))

    def splice(d):
        if isinstance(d, dict) and data.draw(st.booleans()):
            return cli._json_object(**{k: splice(v) for k, v in d.items()})
        return text(d)

    assert cli._json_object(**{k: splice(v) for k, v in doc.items()}) == text(doc)


def test_cli_prints_through_emit_alone():
    """cli.py writes standard output in ``_emit`` alone, with one ``print``,
    and only ``_emit`` reads the digit limit, in its ``ValueError`` handler:
    no command can print around the guard."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    prints, limits = [], []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and "get_int_max_str_digits" in ast.unparse(node):
                limits.append((owner, ast.unparse(node.type)))
            if not isinstance(node, ast.Call):
                continue
            call = ast.unparse(node.func)
            assert call != "sys.stdout.write"
            if call == "print" and "sys.stderr" not in [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]:
                prints.append(owner)
    assert prints == ["_emit"] and limits == [("_emit", "ValueError")]
    assert ast.unparse(tree).count("get_int_max_str_digits") == 1


# Tokens of the expression grammar, joined with spaces so digits never merge
# into a large differential power; eight tokens reach order 4 at most.  The
# text goes in as --expr=TEXT so that argparse never reads it as an option.
EXPR_TOKENS = ("f", "g", "q", "d", "d2", "(", ")", "+", "-", "*", "@", "/", "^", "0", "1", "2")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text("fxL0", max_size=2),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("fxL", max_size=1), inner, max_size=2),
    max_leaves=4,
)
SPEC_FIELDS = [
    (FREE_DOC, "d(f)", ("backend",)),
    (FREE_DOC, "d(f)", ("symbols",)),
    (FREE_DOC, "d(f)", ("symbols", 0)),
    (FREE_DOC, "d(f)", ("commutative",)),
    (TWO_POINT_DOC, "d(x)", ("points",)),
    (TWO_POINT_DOC, "d(x)", ("points", 1)),
    (TWO_POINT_DOC, "d(x)", ("values",)),
    (TWO_POINT_DOC, "d(x)", ("values", "x")),
    (TWO_POINT_DOC, "d(x)", ("values", "x", "L")),
    (MAT_DOC, "d(f)", ("dim",)),
    (MAT_DOC, "d(f)", ("matrices",)),
    (MAT_DOC, "d(f)", ("matrices", "f")),
    (MAT_DOC, "d(f)", ("matrices", "f", 0)),
    (MAT_DOC, "d(f)", ("matrices", "f", 0, 0)),
]


@pytest.fixture(scope="module")
def fuzz_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"

    def write(doc):
        path.write_text(json.dumps(doc))
        return str(path)

    return write


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tokens=st.lists(st.sampled_from(EXPR_TOKENS), max_size=8))
@example(tokens=["1/0*f"])
def test_fuzzed_expressions_exit_0_or_2(fuzz_spec, tokens):
    assert main(["expand", "--algebra", fuzz_spec(FREE_DOC), "--expr=" + " ".join(tokens)]) in (0, 2)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(field=st.sampled_from(SPEC_FIELDS), value=JSON_VALUES)
def test_fuzzed_spec_documents_exit_0_or_2(fuzz_spec, field, value):
    doc, expr, path = field
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert main(["expand", "--algebra", fuzz_spec(doc), "--expr", expr]) in (0, 2)
