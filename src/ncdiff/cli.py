"""Command-line front end.

Subcommands expand a parsed form into tensors, evaluate it over a
finite function algebra, realize it as a dense matrix, print generator
tables, run the built-in verification suites, and transform 2-jets.
Output is JSON by default and deterministic: identical inputs produce
byte-identical documents.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .algebra import AlgebraSpec
from .frame import SubsetIndex, delta_I, generator_str, slot_in_generators
from .jets import ChangeOfVars2, Jet2, parse_poly2, transform_jet2, delta2_invariance_check
from .leibniz import LeibnizForm, embed
from .parser import LoweringError, ParseError, lower, parse
from .scalars import Scalar
from .tensor import tensor_eval, tensor_to_matrix
from .verify import run_suite


class UsageError(ValueError):
    pass


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


def _emit(doc, pretty_text: str | None, out_mode: str) -> None:
    if out_mode == "pretty" and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _form_doc(form: LeibnizForm) -> dict:
    frame = embed(form)
    return {
        "order": form.order,
        "level": frame.level,
        "tensor": frame.body.to_json(),
        "pretty": str(frame.body),
    }


def cmd_expand(args) -> int:
    spec = _load_spec(args.algebra)
    parts = _lower_expr(args.expr, spec)
    if args.split:
        docs = [_form_doc(f) for _, f in sorted(parts.items())]
        doc: object = {"parts": docs}
        pretty = "\n".join(d["pretty"] for d in docs)
    else:
        form = _single_part(parts)
        d = _form_doc(form)
        pretty = d["pretty"]
        if args.basis == "generators":
            d["generators"] = _generator_basis_doc(form)
            pretty += "\n" + "\n".join(
                f"{t['coeff']} x " + " · ".join(t["product"]) for t in d["generators"]
            )
        doc = d
    _emit(doc, pretty, args.out)
    return 0


def _generator_basis_doc(form: LeibnizForm) -> list[dict]:
    """Factor every elementary tensor of the expansion over the generator
    family: each occupied slot contributes the subset-sum of generators
    that assembles its slot embedding."""
    frame = embed(form)
    out = []
    for coeff, factors in frame.body.terms:
        slots = []
        for j, elem in enumerate(factors):
            if elem.unit_multiple() is not None and elem.unit_multiple().is_one():
                continue
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
    body = embed(form).body
    arity = body.degree
    if args.all:
        tuples = [tuple(t) for t in itertools.product(spec.points, repeat=arity)]
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
    rows = []
    for t in tuples:
        value = tensor_eval(body, t)
        if args.nonzero and value.is_zero():
            continue
        rows.append({"args": list(t), "value": value.to_json()})
    doc = {"order": form.order, "arity": arity, "values": rows}
    pretty = "\n".join(f"[{','.join(r['args'])}] = {Scalar.from_json(r['value'])}" for r in rows)
    _emit(doc, pretty, args.out)
    return 0


def cmd_matrix(args) -> int:
    spec = _load_spec(args.algebra)
    if spec.backend != "matrix":
        raise UsageError("matrix needs a matrix-backend algebra spec")
    form = _single_part(_lower_expr(args.expr, spec))
    body = embed(form).body
    size = spec.dim**body.degree
    if size > args.max_dim:
        raise UsageError(f"result dimension {size} exceeds the cap {args.max_dim}")
    mat = tensor_to_matrix(body)
    doc = {
        "order": form.order,
        "dim": size,
        "matrix": [[e.to_json() for e in row] for row in mat],
    }
    pretty = "\n".join("  ".join(str(e) for e in row) for row in mat)
    _emit(doc, pretty, args.out)
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
    gens = []
    members_list = []
    for mask in range(1 << p):
        members_list.append(tuple(s for s in range(p) if (mask >> s) & 1))
    members_list.sort(key=lambda ms: (len(ms), ms))
    for members in members_list:
        index = SubsetIndex.of(p, members)
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
    pretty_lines = [f"{g['name']} = {g['pretty']}" for g in gens]
    pretty_lines += [f"slot {r['slot']}: " + " + ".join(r["sum"]) for r in inversion]
    _emit(doc, "\n".join(pretty_lines), args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}") from None
    checks = [{"check": r.name, "ok": r.ok} for r in results]
    ok = all(r.ok for r in results)
    doc = {"suite": args.suite, "ok": ok, "checks": checks}
    pretty = "\n".join(f"{'PASS' if c['ok'] else 'FAIL'} {c['check']}" for c in checks)
    _emit(doc, pretty, args.out)
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
    pretty = "\n".join(f"{k} = {v[0]}/{v[1]}" for k, v in doc["jet"].items())
    _emit(doc, pretty, args.out)
    return 0


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
        return args.func(args)
    except UsageError as exc:
        print(f"ncdiff: {exc}", file=sys.stderr)
        return 2
    except (ParseError, LoweringError) as exc:
        print(f"ncdiff: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
