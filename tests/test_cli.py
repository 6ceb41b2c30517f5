import copy
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import ncdiff
from ncdiff.cli import build_arg_parser, main
from ncdiff.scalars import Scalar

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


def test_verify_suites(spec_file, capsys):
    code, out, _ = run(capsys, "verify", "tables")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and any(c["check"] == "order3.row3" for c in doc["checks"])
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 2 and "unknown suite" in err


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


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "expand", "--algebra", "/no/such/file.json", "--expr", "d(f)")
    assert code == 2 and "not found" in err


def test_parse_error_exit_code(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, _, err = run(capsys, "expand", "--algebra", path, "--expr", "d(")
    assert code == 2 and "column 3" in err


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
    ],
    ids=[
        "non-object",
        "zero-denominator",
        "dim-list",
        "table-list",
        "negative-level",
        "unknown-symbol",
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
    ],
)
def test_malformed_input_exits_2_without_traceback(spec_file, capsys, doc, argv):
    spec = ["--algebra", spec_file(doc)] if doc is not None else []
    code, _, err = run(capsys, argv[0], *spec, *argv[1:])
    assert code == 2
    assert any(line.startswith("ncdiff: ") for line in err.splitlines())
    assert "Traceback" not in err


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


def test_closed_pipe_exits_141_without_traceback(spec_file):
    src = os.path.dirname(os.path.dirname(ncdiff.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # about 300 kB of JSON, more than a pipe buffers
    argv = [sys.executable, "-m", "ncdiff.cli", "generators", "--algebra", spec_file(FREE_DOC), "--level", "5"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
