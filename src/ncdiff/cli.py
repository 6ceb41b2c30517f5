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
import contextlib
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from typing import Callable

from .algebra import AlgebraSpec
from .frame import FrameElem, delta_I, generator_str, slot_in_generators
from .jets import ChangeOfVars2, Jet2, parse_poly2, transform_jet2, delta2_invariance_check
from .leibniz import LeibnizForm, embed
from .parser import LoweringError, MAX_ORDER, ParseError, lower, parse
from .tensor import tensor_eval, tensor_eval_all, tensor_to_matrix
from .verify import run_suite


#: rows ``eval --all`` may list: |points| ** 2**order grows doubly exponentially
EVAL_ALL_ROW_CAP = 65536


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
    except (ValueError, KeyError) as exc:
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


@contextlib.contextmanager
def _digit_limit(what: str):
    """Exit 2 when printing refuses an integer past Python's int-to-str digit limit."""
    try:
        yield
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"{what} has an integer over {limit} digits, Python's limit for printing one"
        raise UsageError(message + " (PYTHONINTMAXSTRDIGITS raises it)") from None


def _emit(doc, render_pretty: Callable[[], str], out_mode: str) -> None:
    """Print doc as JSON, or the text render_pretty builds for --out pretty;
    only the printed form is built.  Flushing makes a closed pipe fail here,
    inside ``main``, and not in the interpreter's flush at exit."""
    if out_mode == "pretty":
        print(render_pretty(), flush=True)
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")), flush=True)


def _form_doc(form: LeibnizForm, frame: FrameElem) -> dict:
    return {
        "order": form.order,
        "level": frame.level,
        "tensor": frame.body.to_json(),
        "pretty": str(frame.body),
    }


def cmd_expand(args) -> int:
    spec = _load_spec(args.algebra)
    parts = _lower_expr(args.expr, spec)
    forms = [f for _, f in sorted(parts.items())] if args.split else [_single_part(parts)]
    frames = [embed(f) for f in forms]
    docs, lines = [], []
    with _digit_limit("expand result"):
        for form, frame in zip(forms, frames):
            doc = _form_doc(form, frame)
            lines.append(doc["pretty"])
            if args.basis == "generators":
                doc["generators"] = _generator_basis_doc(frame)
                rows = (f"{t['coeff']} x " + " · ".join(t["product"]) for t in doc["generators"])
                lines.append("\n".join(rows))
            docs.append(doc)
        _emit({"parts": docs} if args.split else docs[0], lambda: "\n".join(lines), args.out)
    return 0


def _generator_basis_doc(frame: FrameElem) -> list[dict]:
    """Factor every elementary tensor of the expansion over the generator
    family: each occupied slot contributes the subset-sum of generators
    that assembles its slot embedding."""
    spec = frame.spec
    out = []
    for coeff, labels in frame.body.terms:
        slots = []
        for j, label in enumerate(labels):
            if label == spec.unit_label():
                continue
            elem = spec.basis_elem(label)
            subsets = slot_in_generators(elem, j, frame.level)
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
        tuples = itertools.product(spec.points, repeat=arity)
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
    body = embed(form).body
    values = tensor_eval_all(body) if args.all else [tensor_eval(body, t) for t in tuples]
    rows = [(t, v) for t, v in zip(tuples, values) if not (args.nonzero and v.is_zero())]
    doc = {
        "order": form.order,
        "arity": arity,
        "values": [{"args": list(t), "value": v.to_json()} for t, v in rows],
    }
    with _digit_limit("eval result"):
        _emit(doc, lambda: "\n".join(f"[{','.join(t)}] = {v}" for t, v in rows), args.out)
    return 0


def cmd_matrix(args) -> int:
    spec = _load_spec(args.algebra)
    if spec.backend != "matrix":
        raise UsageError("matrix needs a matrix-backend algebra spec")
    form = _single_part(_lower_expr(args.expr, spec))
    message = "result dimension {} exceeds the cap {}"
    size = _capped_power(spec.dim, form.order, args.max_dim, message)
    mat = tensor_to_matrix(embed(form).body)
    doc = {
        "order": form.order,
        "dim": size,
        "matrix": [[e.to_json() for e in row] for row in mat],
    }
    with _digit_limit("matrix result"):
        _emit(doc, lambda: "\n".join("  ".join(str(e) for e in row) for row in mat), args.out)
    return 0


def cmd_generators(args) -> int:
    spec = _load_spec(args.algebra)
    name = args.symbol or (spec.symbols[0] if spec.symbols else None)
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
    gens = []
    # every subset of {0..p-1}, smallest first, then by ascending members
    subsets = slot_in_generators(f, 2**p - 1, p)
    for index in sorted(subsets, key=lambda ix: (len(ix.members), ix.members[::-1])):
        elem = delta_I(f, index)
        gens.append(
            {
                "index": str(index),
                "name": generator_str(index, name),
                "tensor": elem.body.to_json(),
                "pretty": str(elem.body),
            }
        )
    inversion = []
    for j in range(2**p):
        subsets = slot_in_generators(f, j, p)
        inversion.append(
            {"slot": j, "sum": [generator_str(ix, name) for ix in subsets]}
        )
    doc = {"level": p, "symbol": name, "generators": gens, "inversion": inversion}
    lines = [f"{g['name']} = {g['pretty']}" for g in gens]
    lines += [f"slot {r['slot']}: " + " + ".join(r["sum"]) for r in inversion]
    _emit(doc, lambda: "\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}") from None
    checks = [{"check": r.name, "ok": r.ok} for r in results]
    ok = all(r.ok for r in results)
    doc = {"suite": args.suite, "ok": ok, "checks": checks}
    lines = (f"{'PASS' if c['ok'] else 'FAIL'} {c['check']}" for c in checks)
    _emit(doc, lambda: "\n".join(lines), args.out)
    return 0 if ok else 1


def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("evaluation point must be 'u,v'")
    try:
        return Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational point: {exc}") from None


def cmd_jet(args) -> int:
    at = _parse_point(args.at)
    try:
        f = parse_poly2(args.f, ("x", "y"))
        x = parse_poly2(args.x, ("u", "v"))
        y = parse_poly2(args.y, ("u", "v"))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    cv = ChangeOfVars2(Jet2.of_poly(x, at), Jet2.of_poly(y, at))
    base_point = (x.eval(*at), y.eval(*at))
    fj = Jet2.of_poly(f, base_point)
    out = transform_jet2(fj, cv)
    rat = lambda q: [q.numerator, q.denominator]
    doc = {
        "at": [rat(at[0]), rat(at[1])],
        "jet": {
            "f": rat(out.f),
            "fu": rat(out.fx),
            "fv": rat(out.fy),
            "fuu": rat(out.fxx),
            "fuv": rat(out.fxy),
            "fvv": rat(out.fyy),
        },
        "invariant": delta2_invariance_check(fj, cv),
    }
    with _digit_limit("jet result"):
        lines = (f"{k} = {v[0]}/{v[1]}" for k, v in doc["jet"].items())
        _emit(doc, lambda: "\n".join(lines), args.out)
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

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
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
