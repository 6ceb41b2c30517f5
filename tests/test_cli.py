import json

import pytest

from ncdiff.cli import main

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


def test_eval_arity_mismatch(spec_file, capsys):
    path = spec_file(TWO_POINT_DOC)
    code, _, err = run(
        capsys, "eval", "--algebra", path, "--expr", "x@d(x)", "--tuples", "L,R,L"
    )
    assert code == 2 and "expected 2" in err


def test_eval_requires_function_backend(spec_file, capsys):
    path = spec_file(FREE_DOC)
    code, _, err = run(capsys, "eval", "--algebra", path, "--expr", "d(f)", "--all")
    assert code == 2 and "function-backend" in err


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
    assert code == 2 and "exceeds" in err


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
    ],
    ids=[
        "non-object",
        "zero-denominator",
        "dim-list",
        "table-list",
        "negative-level",
        "unknown-symbol",
        "unknown-point",
    ],
)
def test_malformed_input_exits_2_without_traceback(spec_file, capsys, doc, argv):
    path = spec_file(doc)
    code, _, err = run(capsys, argv[0], "--algebra", path, *argv[1:])
    assert code == 2
    assert any(line.startswith("ncdiff: ") for line in err.splitlines())
    assert "Traceback" not in err
