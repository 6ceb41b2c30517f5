"""The workloads: seeded operation lists, how an operation runs, and its oracle.

Every operation starts cold.  Each one gets its own algebra spec, either
through fresh symbol names, fresh random values, or an unused padding
symbol with random values, so no cached ``ncdiff`` result computed for
one operation is ever reused by another.  A padding symbol never appears
in the output, which is what lets its digest be recorded once.

An operation is a ``run`` closure, timed by the caller, and a ``check``
closure, run afterwards outside the timed region.  ``check`` returns
whether the output matched its oracle and a digest of the raw output,
which a traced and an untraced run must agree on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

WORKLOADS = ("embed-o5", "realize", "verify-all", "cli-short")

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


@dataclass
class CliResult:
    code: Optional[int]
    out: str
    err: str
    error: str = ""  # repr of an exception that escaped cli.main

    def digest(self) -> str:
        return oracles.sha256(f"{self.code}\n{self.error}\n{self.out}")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv: list[str]) -> CliResult:
    """``ncdiff.cli.main`` in process, with stdout and stderr captured."""
    cli = sys.modules["ncdiff.cli"]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            error = repr(exc)
    return CliResult(code, out.getvalue(), err.getvalue(), error)


def _rand_rat(rng: random.Random) -> Fraction:
    # never zero: a zero entry drops tensor terms and makes the cost depend on the seed
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def _scalar(q: Fraction) -> list:
    return [[q.numerator, q.denominator], [0, 1]]


def _rand_function(rng: random.Random, points) -> dict[str, Fraction]:
    # never constant: d of a constant is zero and the form would drop to order 0
    while True:
        values = {p: _rand_rat(rng) for p in points}
        if len(set(values.values())) > 1:
            return values


def _rand_matrix(rng: random.Random, dim: int) -> list[list[Fraction]]:
    # never a multiple of the identity, for the same reason
    while True:
        rows = [[_rand_rat(rng) for _ in range(dim)] for _ in range(dim)]
        diagonal = {rows[i][i] for i in range(dim)}
        if len(diagonal) > 1 or any(rows[i][j] for i in range(dim) for j in range(dim) if i != j):
            return rows


def _odd_rat(rng: random.Random) -> Fraction:
    # far from 0 and 1, so a padding element never equals a printed basis element
    return Fraction(rng.randint(1000, 9000), rng.choice((997, 991, 983)))


class SpecWriter:
    """Writes one algebra spec file per operation into a scratch directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def write(self, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"spec{self.count:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def function_spec(points, values: dict[str, dict[str, Fraction]]) -> dict:
    return {
        "backend": "function",
        "points": list(points),
        "values": {s: {p: _scalar(v) for p, v in table.items()} for s, table in values.items()},
    }


def matrix_spec(dim: int, matrices: dict[str, list[list[Fraction]]]) -> dict:
    return {
        "backend": "matrix",
        "dim": dim,
        "matrices": {s: [[_scalar(e) for e in row] for row in rows] for s, rows in matrices.items()},
    }


# -- embed-o5 ----------------------------------------------------------------

LETTERS = "abcde"


def compositions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(n, 0, -1) for rest in compositions(n - k)]


def type_key(composition: tuple[int, ...]) -> str:
    return ",".join(map(str, composition))


def canonical_tensor_json(frame, names: tuple[str, ...]) -> str:
    """The frame body's JSON with the operation's fresh symbols renamed to a, b, c, ...

    All fresh names share one suffix, so renaming keeps every sort order
    and the text equals what canonical names would have produced.
    """
    rename = {name: LETTERS[i] for i, name in enumerate(names)}
    doc = frame.body.to_json()
    for term in doc["terms"]:
        for factor in term["factors"]:
            for word, _ in factor["words"]:
                word[:] = [rename[s] for s in word]
    return json.dumps({"level": frame.level, "body": doc}, sort_keys=True, separators=(",", ":"))


def embed_op(composition: tuple[int, ...], suffix: str, golden: Optional[dict]) -> Op:
    names = tuple(f"{LETTERS[i]}{suffix}" for i in range(len(composition)))

    def run():
        nc = sys.modules["ncdiff"]
        spec = nc.AlgebraSpec.free(names)
        form = None
        for k, name in zip(composition, names):
            part = nc.LeibnizForm.from_alg(spec.symbol(name))
            for _ in range(k):
                part = nc.leibniz.symbolic_delta(part)
            form = part if form is None else nc.leibniz.odot(form, part)
        return nc.leibniz.embed(form)

    def check(frame):
        digest = oracles.sha256(canonical_tensor_json(frame, names))
        return golden is not None and digest == golden["embed-o5"][type_key(composition)], digest

    return Op(f"embed {type_key(composition)}", run, check)


def embed_ops(tag: str, golden: dict) -> tuple[Op, list[Op]]:
    types = compositions(5)
    warmup = embed_op((1, 1, 1, 1, 1), f"{tag}w", golden)
    return warmup, [embed_op(t, f"{tag}o{i:02d}", golden) for i, t in enumerate(types)]


# -- shared CLI operations -----------------------------------------------------


def digest_op(label: str, argv: list[str], want: Optional[str]) -> Op:
    def check(res: CliResult):
        digest = oracles.sha256(res.out)
        return res.code == 0 and not res.error and digest == want, res.digest()

    return Op(label, lambda: run_cli(argv), check)


def text_op(label: str, argv: list[str], expected: Callable[[], str]) -> Op:
    def check(res: CliResult):
        ok = res.code == 0 and not res.error and oracles.sha256(res.out) == oracles.sha256(expected())
        return ok, res.digest()

    return Op(label, lambda: run_cli(argv), check)


def usage_error_op(label: str, argv: list[str]) -> Op:
    def check(res: CliResult):
        ok = res.code == 2 and not res.error and res.out == "" and res.err.startswith("ncdiff: ")
        return ok, res.digest()

    return Op(label, lambda: run_cli(argv), check)


def eval_op(label, specs: SpecWriter, rng, points, coeff, factors, tuples=None) -> Op:
    symbols = sorted({g for _, g in factors} | ({coeff} if coeff else set()) | {"x", "y"})
    values = {s: _rand_function(rng, points) for s in symbols}
    path = specs.write(function_spec(points, values))
    expr = oracles.expr_text(coeff, factors)
    arity = 2 ** sum(k for k, _ in factors)
    if tuples is None:
        argv = ["eval", "--algebra", path, "--expr", expr, "--all"]
        tuples = oracles.all_tuples(points, arity)
    else:
        argv = ["eval", "--algebra", path, "--expr", expr, "--tuples", *(",".join(t) for t in tuples)]
    return text_op(f"{label} {expr}", argv, lambda: oracles.eval_text(coeff, factors, values, tuples))


def matrix_op(label, specs: SpecWriter, rng, dim, coeff, factors) -> Op:
    mats = {s: _rand_matrix(rng, dim) for s in ("f", "g")}
    path = specs.write(matrix_spec(dim, mats))
    expr = oracles.expr_text(coeff, factors)
    argv = ["matrix", "--algebra", path, "--expr", expr]
    return text_op(f"{label} {expr}", argv, lambda: oracles.matrix_text(coeff, factors, mats, dim))


# -- realize --------------------------------------------------------------------

REALIZE_EVAL2 = [
    (None, [(3, "x")]),
    ("x", [(3, "y")]),
    (None, [(1, "x"), (2, "y")]),
    (None, [(1, "x"), (1, "y"), (1, "x")]),
    (None, [(2, "x"), (1, "y")]),
]
REALIZE_EVAL3 = [(None, [(2, "x")]), ("y", [(2, "x")]), (None, [(1, "x"), (1, "y")])]
REALIZE_MATRIX2 = [(None, [(2, "f")]), ("g", [(2, "f")]), (None, [(1, "f"), (1, "g")])]
REALIZE_MATRIX3 = [(None, [(2, "f")]), (None, [(1, "f"), (1, "g")])]


def realize_ops(rng: random.Random, specs: SpecWriter) -> tuple[Op, list[Op]]:
    two, three = ("L", "R"), ("P", "Q", "S")
    warmup = eval_op("eval-all 3pt", specs, rng, three, None, [(2, "x")])
    # the mid-cost 2-point evaluations appear twice, so the median operation
    # lies inside that group rather than on the edge between cheap and costly ones
    ops = [eval_op("eval-all 2pt", specs, rng, two, c, f) for c, f in REALIZE_EVAL2 * 2]
    ops += [eval_op("eval-all 3pt", specs, rng, three, c, f) for c, f in REALIZE_EVAL3]
    ops += [matrix_op("matrix 2x2", specs, rng, 2, c, f) for c, f in REALIZE_MATRIX2]
    ops += [matrix_op("matrix 3x3", specs, rng, 3, c, f) for c, f in REALIZE_MATRIX3]
    return warmup, ops


# -- cli-short ------------------------------------------------------------------

FREE_EXPRS = [
    "d(f)",
    "f*d(g)",
    "d2(f)",
    "d(f)@d(g)",
    "f*d(g)@d(h)",
    "d3(f)",
    "d(f)@d2(g)",
    "d2(f)@d(g)",
    "d(f)@d(g)@d(h)",
    "2*d(f) - g*d(h)",
    "d(f*g)",
    "g*d3(f)",
    "d(f)@d(g)@d(f)",
]
FREE_FLAGGED = [
    ["--expr", "d2(f)@d(g)", "--basis", "generators"],
    ["--expr", "f + d(g) + d2(h)", "--split"],
    ["--expr", "d(f)@d2(g)", "--out", "pretty"],
]
FUNC_EXPRS = ["d(x)", "x*d2(y)", "d(x)@d(y)", "d3(x)", "d2(x)@d(y)"]
MAT_EXPRS = ["d(f)", "d2(f)", "f*d(g)", "d(f)@d(g)", "d3(f)"]
GENERATOR_ARGS = [
    ["--level", str(level), "--symbol", sym] + (["--out", "pretty"] if pretty else [])
    for level in (2, 3, 4)
    for sym in ("f", "g", "h")
    for pretty in (False, True)
]
VERIFY_SUITES = ("jets", "generators", "d2")
EVAL_TUPLE_FORMS = [
    (None, [(1, "x")]),
    ("y", [(1, "x")]),
    (None, [(2, "y")]),
    (None, [(1, "x"), (1, "y")]),
    (None, [(1, "y"), (2, "x")]),
    (None, [(2, "x"), (1, "y")]),
    (None, [(3, "x")]),
]
CLI_MATRIX_FORMS = [(None, [(1, "f")]), ("g", [(1, "f")])]
# (spec kind, arguments after --algebra); all exit 2 with a message
MALFORMED = [
    ("free", ["expand", "--expr", "d(f"]),
    ("free", ["expand", "--expr", "f @@ g"]),
    ("free", ["expand", "--expr", "d^(f)"]),
    ("free", ["expand", "--expr", "d(q)"]),
    ("free", ["expand", "--expr", "f + d(g)"]),
    ("free", ["eval", "--expr", "d(f)", "--all"]),
    ("mat", ["matrix", "--expr", "d2(f)", "--max-dim", "4"]),
    (None, ["jet", "--f", "x", "--x", "u", "--y", "v", "--at", "1,x"]),
]
JETS_PER_REP = 12


def catalogue() -> list[tuple[str, str, list[str]]]:
    """Operations with recorded digests: (key, spec kind or None, argv tail)."""
    out = []
    for kind in ("free", "comm"):
        for expr in FREE_EXPRS:
            out.append((kind, ["expand", "--expr", expr]))
        for flags in FREE_FLAGGED:
            out.append((kind, ["expand"] + flags))
    out += [("func", ["expand", "--expr", e]) for e in FUNC_EXPRS]
    out += [("mat", ["expand", "--expr", e]) for e in MAT_EXPRS]
    out += [("free", ["generators"] + args) for args in GENERATOR_ARGS]
    out += [(None, ["verify", suite]) for suite in VERIFY_SUITES]
    return [(f"{kind or '-'}|{' '.join(tail)}", kind, tail) for kind, tail in out]


def padded_spec(kind: str, rng: random.Random) -> dict:
    """The fixed spec of a catalogue kind plus one unused random symbol."""
    if kind in ("free", "comm"):
        pad = f"p{rng.randrange(10**9)}"
        return {"backend": "free", "commutative": kind == "comm", "symbols": ["f", "g", "h", pad]}
    if kind == "func":
        values = {
            "x": {"L": Fraction(1), "R": Fraction(0)},
            "y": {"L": Fraction(1, 2), "R": Fraction(3)},
            "w": {"L": _odd_rat(rng), "R": _odd_rat(rng)},
        }
        return function_spec(("L", "R"), values)
    mats = {
        "f": [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
        "g": [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
        "w": [[_odd_rat(rng), _odd_rat(rng)], [_odd_rat(rng), _odd_rat(rng)]],
    }
    return matrix_spec(2, mats)


def with_spec(tail: list[str], path: Optional[str]) -> list[str]:
    return tail if path is None else tail[:1] + ["--algebra", path] + tail[1:]


def random_poly(rng: random.Random) -> dict:
    poly = {}
    for _ in range(rng.randint(1, 3)):
        poly[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return poly


def jet_op(rng: random.Random) -> Op:
    f, x, y = random_poly(rng), random_poly(rng), random_poly(rng)
    at = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
    # "--opt=value" because a value may start with "-"
    argv = [
        "jet",
        f"--f={oracles.poly_text(f, ('x', 'y'))}",
        f"--x={oracles.poly_text(x, ('u', 'v'))}",
        f"--y={oracles.poly_text(y, ('u', 'v'))}",
        f"--at={at[0]},{at[1]}",
    ]
    return text_op("jet", argv, lambda: oracles.jet_text(f, x, y, at))


def cli_short_ops(rng: random.Random, specs: SpecWriter, golden: dict) -> tuple[Op, list[Op]]:
    digests = golden["cli-short"]

    def catalogue_op(key, kind, tail):
        path = specs.write(padded_spec(kind, rng)) if kind else None
        return digest_op(key, with_spec(tail, path), digests.get(key))

    entries = catalogue()
    warmup = catalogue_op(*next(e for e in entries if e[0] == "free|expand --expr d2(f)"))
    expands = [e for e in entries if e[2][0] != "generators"]
    generators = [e for e in entries if e[2][0] == "generators"]
    ops = [catalogue_op(*e) for e in expands]
    # two per level; the symbol and output mode do not change the work
    for level in (2, 3, 4):
        picks = [e for e in generators if e[2][2] == str(level)]
        ops += [catalogue_op(*rng.choice(picks)) for _ in range(2)]
    ops += [jet_op(rng) for _ in range(JETS_PER_REP)]
    for coeff, factors in EVAL_TUPLE_FORMS * 2:
        arity = 2 ** sum(k for k, _ in factors)
        tuples = [tuple(rng.choice("LR") for _ in range(arity)) for _ in range(3)]
        ops.append(eval_op("eval-tuples", specs, rng, ("L", "R"), coeff, factors, tuples))
    ops += [matrix_op("matrix 2x2", specs, rng, 2, c, f) for c, f in CLI_MATRIX_FORMS]
    for kind, tail in MALFORMED:
        path = specs.write(padded_spec(kind, rng)) if kind else None
        ops.append(usage_error_op(f"malformed {' '.join(tail)}", with_spec(tail, path)))
    return warmup, ops


# -- entry point ------------------------------------------------------------------


def rep_rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rep}")


def make_ops(workload: str, seed: int, rep: int, directory: str, golden: dict) -> tuple[Op, list[Op]]:
    """The warm-up operation and the fixed operation list of one repetition."""
    rng = rep_rng(workload, seed, rep)
    specs = SpecWriter(directory)
    if workload == "embed-o5":
        return embed_ops(f"_{seed % 100000:05d}_{rep:03d}_", golden)
    if workload == "realize":
        return realize_ops(rng, specs)
    if workload == "cli-short":
        return cli_short_ops(rng, specs, golden)
    raise ValueError(f"{workload!r} does not run in process")
