"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ncdiff.cli  # noqa: E402,F401
import ops  # noqa: E402
import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def golden():
    return ops.load_golden()


def run_all(op_list):
    return [op.check(op.run()) for op in op_list]


def test_span_and_leaf_return_the_callee_value_unchanged():
    t = Tracer()
    marker = object()
    fn = lambda *args, **kwargs: (marker, args, kwargs)
    assert t.span("x", fn)(1, k=2) == (marker, (1,), {"k": 2})
    assert t.span("x", fn)(1)[0] is marker
    assert t.leaf("y", fn)(3)[0] is marker
    assert t.stats["x"][0] == 2 and t.stats["y"][0] == 1


def test_installed_wrappers_return_what_the_library_returns(tmp_path):
    nc = sys.modules["ncdiff"]
    spec = nc.AlgebraSpec.free(("f", "g"))
    f, g = spec.symbol("f"), spec.symbol("g")
    form = nc.odot(nc.symbolic_delta(nc.LeibnizForm.from_alg(f)), nc.symbolic_delta(nc.LeibnizForm.from_alg(g)))
    plain = (nc.Scalar.of(2, 1) * nc.Scalar.of(3), f.mul(g), nc.embed(form), str(nc.embed(form).body))
    t = Tracer()
    t.install()
    try:
        traced = (nc.Scalar.of(2, 1) * nc.Scalar.of(3), f.mul(g), nc.embed(form), str(nc.embed(form).body))
        assert ncdiff.leibniz.embed is nc.embed and hasattr(nc.embed, "__wrapped__")
    finally:
        t.uninstall()
    assert traced == plain
    assert t.stats["scalars.mul"][0] >= 1 and t.stats["leibniz.embed"][0] >= 1
    assert ncdiff.leibniz.embed is nc.embed and not hasattr(nc.embed, "__wrapped__")


def test_traced_and_untraced_runs_give_identical_digests(tmp_path, golden):
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    _, plain_ops = ops.make_ops("cli-short", 7, 0, str(plain_dir), golden)
    plain = run_all(plain_ops)
    t = Tracer()
    t.install()
    try:
        _, traced_ops = ops.make_ops("cli-short", 7, 0, str(traced_dir), golden)
        traced = [op.run() for op in traced_ops]
    finally:
        t.uninstall()
    checked = [op.check(raw) for op, raw in zip(traced_ops, traced)]
    assert all(ok for ok, _ in plain), [op.label for op, (ok, _) in zip(plain_ops, plain) if not ok]
    assert [d for _, d in checked] == [d for _, d in plain]
    layers = t.layer_metrics()
    assert layers["cli.self_s"] > 0 and layers["parser.parse.self_s"] > 0


def test_embed_digest_ignores_the_fresh_symbol_names(golden):
    a = ops.embed_op((2, 1, 2), "_x1", golden)
    b = ops.embed_op((2, 1, 2), "_other99", golden)
    ra, rb = a.check(a.run()), b.check(b.run())
    assert ra[0] and rb[0] and ra[1] == rb[1]


def test_flipped_coefficient_in_an_embed_is_a_failed_operation(golden):
    op = ops.embed_op((1, 2, 2), "_f", golden)
    frame = op.run()
    coeff, factors = frame.body.terms[0]
    body = dataclasses.replace(frame.body, terms=((-coeff, factors),) + frame.body.terms[1:])
    assert op.check(frame)[0]
    assert not op.check(dataclasses.replace(frame, body=body))[0]


def flip_first_value(res: ops.CliResult) -> ops.CliResult:
    doc = json.loads(res.out)
    cell = doc["values"][0]["value"] if "values" in doc else doc["matrix"][0][0]
    cell[0][0] = -cell[0][0] if cell[0][0] else 1
    return dataclasses.replace(res, out=oracles.cli_text(doc))


@pytest.mark.parametrize("label", ["eval-all 2pt", "matrix 2x2"])
def test_flipped_value_in_realize_output_is_a_failed_operation(tmp_path, golden, label):
    _, op_list = ops.make_ops("realize", 3, 0, str(tmp_path), golden)
    op = next(o for o in op_list if o.label.startswith(label))
    res = op.run()
    assert op.check(res)[0]
    assert not op.check(flip_first_value(res))[0]


def test_altered_cli_short_outputs_are_failed_operations(tmp_path, golden):
    _, op_list = ops.make_ops("cli-short", 5, 0, str(tmp_path), golden)
    by_kind = {}
    for op in op_list:
        by_kind.setdefault(op.label.split()[0].split("|")[0], op)
    for kind, op in by_kind.items():
        res = op.run()
        assert op.check(res)[0], op.label
        if res.out:
            old, new = ("1", "2") if "1" in res.out else ("true", "false")
            altered = dataclasses.replace(res, out=res.out.replace(old, new, 1))
        else:
            altered = dataclasses.replace(res, code=1)
        assert not op.check(altered)[0], op.label
    assert {"free", "comm", "func", "mat", "-", "jet", "eval-tuples", "malformed"} <= set(by_kind)


def test_closed_forms_match_the_recursive_difference():
    values = {"g": {"L": Fraction(2), "R": Fraction(-1, 3)}}
    terms = oracles.slot_expansion(None, [(2, "g")])
    g = values["g"]
    for t in oracles.all_tuples(("L", "R"), 4):
        diff1 = lambda a, b: g[b] - g[a]
        want = diff1(t[2], t[3]) - diff1(t[0], t[1])
        assert oracles.function_value(terms, values, t) == want


def test_jet_oracle_renders_what_the_cli_parses():
    f = {(2, 1): Fraction(-3), (0, 0): Fraction(1)}
    x = {(1, 0): Fraction(1), (0, 2): Fraction(2)}
    y = {(1, 1): Fraction(-1)}
    res = ops.run_cli(
        ["jet", f"--f={oracles.poly_text(f, ('x', 'y'))}", f"--x={oracles.poly_text(x, ('u', 'v'))}",
         f"--y={oracles.poly_text(y, ('u', 'v'))}", "--at=-1,1/2"]
    )
    assert res.code == 0
    assert res.out == oracles.jet_text(f, x, y, (Fraction(-1), Fraction(1, 2)))


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
