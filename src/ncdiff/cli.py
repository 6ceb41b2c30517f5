"""Command-line front end.

Subcommands expand a parsed form into tensors, evaluate it over a
finite function algebra, realize it as a dense matrix, print generator
tables, run the built-in verification suites, and transform 2-jets.
Output is JSON by default and deterministic: identical inputs produce
byte-identical documents.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 the
reader closed standard output (as a shell reports a tool ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import AlgebraSpec
from .frame import FrameElem, SubsetIndex, delta_I, generator_str, slot_in_generators
from .jets import MAX_COEFF_BITS, MAX_JET_BITS, ChangeOfVars2, Jet2, composite_jet_bits, parse_poly2, transform_jet2
from .jets import delta2_invariance_check
from .leibniz import LeibnizForm, _integer_embed, embed
from .parser import LoweringError, MAX_ORDER, ParseError, lower, parse
from .scalars import scalar_json, scalar_str
from .tensor import _eval_table, _matrix_table, _table_cells, dumps, tensor_eval
from .verify import SUITES, run_suite


#: rows ``eval --all`` may list: |points| ** 2**order grows doubly exponentially
EVAL_ALL_ROW_CAP = 65536
#: the largest dimension ``matrix`` builds, whatever ``--max-dim`` allows: a complex
#: 1024 x 1024 matrix peaks near 90 MB as JSON, and 4096 x 4096 has 16 times its cells
MATRIX_DIM_CAP = 4096
#: a decimal literal with an exponent, in the ASCII subset of what ``Fraction(str)`` reads
_EXPONENT_LITERAL = re.compile(r"[-+]?(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?[eE]([-+]?[0-9]+)")


class UsageError(ValueError):
    pass


def _capped_power(base: int, order: int, cap: int, message: str) -> int:
    """base ** 2**order if it is at most cap, else a UsageError built by
    message.format(size, cap); squaring stops once past the cap and 2**64."""
    size = base
    for _ in range(order):
        if size > max(cap, 2**64):
            raise UsageError(message.format(f"{base}^(2^{order})", cap))
        size *= size
    if size > cap:
        raise UsageError(message.format(size, cap))
    return size


def _load_spec(path: str) -> AlgebraSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return AlgebraSpec.from_json(json.load(fh))
    except FileNotFoundError:
        raise UsageError(f"algebra spec not found: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read algebra spec {path}: {exc.strerror}") from None
    except (ValueError, KeyError, RecursionError) as exc:
        raise UsageError(f"bad algebra spec {path}: {exc}") from None


def _lower_expr(text: str, spec: AlgebraSpec) -> dict[int, LeibnizForm]:
    parts = lower(parse(text), spec)
    if not parts:
        return {0: LeibnizForm.from_alg(spec.zero())}
    return parts


def _single_part(parts: dict[int, LeibnizForm]) -> LeibnizForm:
    if len(parts) != 1:
        orders = ", ".join(str(o) for o in parts)
        raise UsageError(f"expression mixes orders {orders}; pass --split to expand each part")
    return next(iter(parts.values()))


def _json_object(**fields: str) -> str:
    """The JSON object of fields, each value already JSON text, keys sorted as ``dumps`` sorts them."""
    return "{" + ",".join(f"{dumps(k)}:{v}" for k, v in sorted(fields.items())) + "}"


def _emit(args, json_text: Callable[[], str], pretty_text: Callable[[], str]) -> None:
    """Print the text that json_text or, for --out pretty, pretty_text builds;
    only the printed form is built.  Building it is where every integer of a
    command becomes text, so a ValueError there is Python's int-to-str digit
    limit and exits 2.  Flushing makes a closed pipe fail here, inside
    ``main``, and not in the interpreter's flush at exit."""
    try:
        text = pretty_text() if args.out == "pretty" else json_text()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"{args.command} result has an integer over {limit} digits, Python's limit for printing one"
        raise UsageError(message + " (PYTHONINTMAXSTRDIGITS raises it)") from None
    print(text, flush=True)


def cmd_expand(args) -> int:
    spec = _load_spec(args.algebra)
    parts = _lower_expr(args.expr, spec)
    forms = [f for _, f in sorted(parts.items())] if args.split else [_single_part(parts)]
    frames = [(form.order, embed(form)) for form in forms]
    generators = args.basis == "generators"

    def json_text() -> str:
        docs = []
        for order, frame in frames:
            fields = {"order": str(order), "level": str(frame.level), "pretty": dumps(str(frame.body))}
            if generators:
                fields["generators"] = dumps(_generator_basis_doc(frame))
            docs.append(_json_object(**fields, tensor=frame.body.json_text()))
        return _json_object(parts=f"[{','.join(docs)}]") if args.split else docs[0]

    def pretty_text() -> str:
        lines = []
        for _, frame in frames:
            lines.append(str(frame.body))
            if generators:
                rows = (f"{t['coeff']} x " + " · ".join(t["product"]) for t in _generator_basis_doc(frame))
                lines.append("\n".join(rows))
        return "\n".join(lines)

    _emit(args, json_text, pretty_text)
    return 0


def _generator_basis_doc(frame: FrameElem) -> list[dict]:
    """Factor every elementary tensor of the expansion over the generator
    family: each occupied slot contributes the subset-sum of generators
    that assembles its slot embedding."""
    out = []
    for coeff, key in frame.body.print_order():
        slots = []
        for j, label in key:
            elem = frame.spec.basis_elem(label)
            subsets = slot_in_generators(j, frame.level)
            rendered = " + ".join(generator_str(ix, str(elem)) for ix in subsets)
            slots.append(f"({rendered})" if len(subsets) > 1 else rendered)
        if not slots:
            slots = ["1"]
        out.append({"coeff": str(coeff), "product": slots})
    return out


def cmd_eval(args) -> int:
    spec = _load_spec(args.algebra)
    if spec.backend != "function":
        raise UsageError("eval needs a function-backend algebra spec")
    form = _single_part(_lower_expr(args.expr, spec))
    arity = 2**form.order
    if args.all:
        message = "eval --all would list {} rows, over the cap {}; pick rows with --tuples"
        _capped_power(len(spec.points), form.order, EVAL_ALL_ROW_CAP, message)
    else:
        if not args.tuples:
            raise UsageError("pass --tuples or --all")
        tuples = []
        for text in args.tuples:
            parts = tuple(p.strip() for p in text.split(","))
            if len(parts) != arity:
                raise UsageError(f"tuple {text!r} has {len(parts)} points, expected {arity}")
            for point in parts:
                if point not in spec.points:
                    raise UsageError(f"tuple {text!r} names unknown point {point!r}")
            tuples.append(parts)
    body, den = _integer_embed(form)
    if args.all:
        table = _eval_table(body, den)
    else:
        values = [tensor_eval(body, t) for t in tuples]
        table = den, [v.re for v in values], [v.im for v in values]

    def rendered(render: Callable, names: Sequence[str]) -> Iterator[tuple[str, str]]:
        """(row's points, value text) for every listed row; names holds the text of each of spec.points."""
        if args.all:
            listed = names
            for _ in range(arity - 1):  # itertools.product order: each prefix joined once
                listed = [f"{p},{q}" for p in listed for q in names]
        else:
            name = dict(zip(spec.points, names))
            listed = (",".join(map(name.__getitem__, t)) for t in tuples)
        rows = zip(listed, _table_cells(table, render))
        if args.nonzero:
            zero = render(0, 1, 0, 1)
            rows = ((t, v) for t, v in rows if v != zero)
        return rows

    def json_text() -> str:
        cells = [f'{{"args":[{t}],"value":{v}}}' for t, v in rendered(scalar_json, [dumps(p) for p in spec.points])]
        return _json_object(order=str(form.order), arity=str(arity), values=f"[{','.join(cells)}]")

    _emit(args, json_text, lambda: "\n".join([f"[{t}] = {v}" for t, v in rendered(scalar_str, spec.points)]))
    return 0


def cmd_matrix(args) -> int:
    spec = _load_spec(args.algebra)
    if spec.backend != "matrix":
        raise UsageError("matrix needs a matrix-backend algebra spec")
    form = _single_part(_lower_expr(args.expr, spec))
    message = "result dimension {} exceeds the cap {}"
    size = _capped_power(spec.dim, form.order, min(args.max_dim, MATRIX_DIM_CAP), message)
    table = _matrix_table(*_integer_embed(form))

    def rows(render: Callable) -> Iterator[Iterable[str]]:
        """The cells' text, one row at a time: a list with one entry per cell would raise the peak."""
        cells = _table_cells(table, render)
        return (itertools.islice(cells, size) for _ in range(size))

    def json_text() -> str:
        text = (f"[{','.join(row)}]" for row in rows(scalar_json))
        return _json_object(order=str(form.order), dim=str(size), matrix=f"[{','.join(text)}]")

    _emit(args, json_text, lambda: "\n".join("  ".join(row) for row in rows(scalar_str)))
    return 0


def cmd_generators(args) -> int:
    spec = _load_spec(args.algebra)
    name = args.symbol if args.symbol is not None else (spec.symbols[0] if spec.symbols else None)
    if name is None:
        raise UsageError("the algebra spec declares no symbols")
    if name not in spec.symbols:
        raise UsageError(f"unknown symbol {name!r}")
    f = spec.symbol(name)
    p = args.level
    if p < 0:
        raise UsageError(f"--level must be nonnegative, got {p}")
    if p >= MAX_ORDER:  # a level-p table holds 3^p * 2^p slot labels, more than an order-p form
        raise UsageError(f"--level must be below {MAX_ORDER}, got {p}")
    # every subset of {0..p-1}, smallest first, then by ascending members
    indices = [SubsetIndex(p, c) for r in range(p + 1) for c in itertools.combinations(range(p), r)]
    gens = [(ix, generator_str(ix, name), delta_I(f, ix).body) for ix in indices]
    sums = [[generator_str(ix, name) for ix in slot_in_generators(j, p)] for j in range(2**p)]

    def json_text() -> str:
        tables = (
            _json_object(index=dumps(str(ix)), name=dumps(g), pretty=dumps(str(body)), tensor=body.json_text())
            for ix, g, body in gens
        )
        inversion = dumps([{"slot": j, "sum": s} for j, s in enumerate(sums)])
        return _json_object(level=str(p), symbol=dumps(name), generators=f"[{','.join(tables)}]", inversion=inversion)

    def pretty_text() -> str:
        lines = [f"{g} = {body}" for _, g, body in gens]
        return "\n".join(lines + [f"slot {j}: " + " + ".join(s) for j, s in enumerate(sums)])

    _emit(args, json_text, pretty_text)
    return 0


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}")
    results = run_suite(args.suite)
    checks = [{"check": r.name, "ok": r.ok} | ({} if r.ok else {"detail": r.detail}) for r in results]
    ok = all(r.ok for r in results)
    doc = {"suite": args.suite, "ok": ok, "checks": checks}
    lines = (f"PASS {r.name}" if r.ok else f"FAIL {r.name}: {r.detail}" for r in results)
    _emit(args, lambda: dumps(doc), lambda: "\n".join(lines))
    return 0 if ok else 1


def _rational(text: str) -> Fraction | None:
    """``Fraction(text)``, or None past the coefficient cap.  ``Fraction`` computes 10**e
    first, so e is bounded before it runs: a nonzero mantissa of k digits is past
    the cap once |e| passes the cap plus k, and a zero one is 0 whatever e is."""
    m = _EXPONENT_LITERAL.fullmatch(text)
    if m:
        num, dec = m.group(1) or "0", m.group(2) or ""
        whole, part, e = int(num), int(dec or "0"), int(m.group(3))  # Fraction's order, so its errors
        if abs(e) > MAX_COEFF_BITS + len(num) + len(dec):
            return None if whole or part else Fraction(0)
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None
    return q if max(q.numerator.bit_length(), q.denominator.bit_length()) <= MAX_COEFF_BITS else None


def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("evaluation point must be 'u,v'")
    try:
        point = _rational(parts[0].strip()), _rational(parts[1].strip())
    except ValueError as exc:
        raise UsageError(f"bad rational point: {exc}") from None
    if None in point:
        raise UsageError(f"evaluation point exceeds the coefficient cap {MAX_COEFF_BITS} bits")
    return point


def cmd_jet(args) -> int:
    at = _parse_point(args.at)
    f = parse_poly2(args.f, ("x", "y"))  # a ParseError exits 2 in main
    x = parse_poly2(args.x, ("u", "v"))
    y = parse_poly2(args.y, ("u", "v"))
    bits = composite_jet_bits(f, x, y, at)
    if bits > MAX_JET_BITS:
        raise UsageError(f"jet result would take about {bits} bits, over the cap {MAX_JET_BITS}")
    cv = ChangeOfVars2(Jet2.of_poly(x, at), Jet2.of_poly(y, at))
    fj = Jet2.of_poly(f, (cv.xj.f, cv.yj.f))
    out = transform_jet2(fj, cv)
    rat = lambda q: [q.numerator, q.denominator]
    jet = dict(zip(("f", "fu", "fv", "fuu", "fuv", "fvv"), map(rat, out._values())))
    doc = {"at": [rat(at[0]), rat(at[1])], "jet": jet, "invariant": delta2_invariance_check(fj, cv)}
    _emit(args, lambda: dumps(doc), lambda: "\n".join(f"{k} = {v[0]}/{v[1]}" for k, v in jet.items()))
    return 0


@functools.cache  # parse_args only reads the parser, so one serves every call
def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ncdiff", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra=True, expr=True):
        if algebra:
            p.add_argument("--algebra", required=True, help="path to an algebra spec JSON")
        if expr:
            p.add_argument("--expr", required=True, help="form expression, e.g. 'x@d2(x)'")
        p.add_argument("--out", choices=("json", "pretty"), default="json")

    p = sub.add_parser("expand", help="tensor expansion of a form")
    common(p)
    p.add_argument("--basis", choices=("tensors", "generators"), default="tensors")
    p.add_argument("--split", action="store_true", help="expand each homogeneous part")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("eval", help="evaluate over a finite function algebra")
    common(p)
    p.add_argument("--tuples", nargs="*", help="point tuples like L,R,R,L")
    p.add_argument("--all", action="store_true", help="every tuple")
    p.add_argument("--nonzero", action="store_true", help="drop zero values")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("matrix", help="dense matrix realization")
    common(p)
    p.add_argument("--max-dim", type=int, default=256)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("generators", help="generator table and slot inversion")
    common(p, expr=False)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--symbol", help="symbol to expand (default: first declared)")
    p.set_defaults(func=cmd_generators)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", help="generators|leibniz|d2|tables|odot|jets|all")
    p.add_argument("--out", choices=("json", "pretty"), default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("jet", help="transform a 2-jet under a change of variables")
    p.add_argument("--f", required=True, help="polynomial in x, y")
    p.add_argument("--x", required=True, help="x as a polynomial in u, v")
    p.add_argument("--y", required=True, help="y as a polynomial in u, v")
    p.add_argument("--at", required=True, help="rational point 'u,v'")
    p.add_argument("--out", choices=("json", "pretty"), default="json")
    p.set_defaults(func=cmd_jet)

    top.commands = sub.choices  # name -> the command's parser, for _parse_args
    return top


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The full parser's Namespace for argv.  A well-formed request costs one pass,
    by its command's parser; argv that names no command or leaves arguments over
    is read again by the full parser, which prints every usage text and error."""
    top = build_arg_parser()
    command = top.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return top.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # argparse reads --name=-- as an empty list; only --tuples takes lists
        for name, value in vars(args).items():
            if value == [] and name != "tuples":
                raise UsageError(f"--{name.replace('_', '-')} needs a value")
        return args.func(args)
    except (UsageError, ParseError, LoweringError) as exc:
        print(f"ncdiff: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
