"""Per-layer tracing installed from outside the library.

``Tracer.install`` replaces the public functions and methods of each
``ncdiff`` module with wrappers that count calls and measure time.  A
module-level function is replaced under every name that refers to it in
any loaded ``ncdiff`` module, so callers that imported it by name are
traced too.  Self time is a span's duration minus the time covered by
the spans it caused; a garbage-collection pause counts as a child span of
whatever was running, so it lands in ``runtime.gc_s`` and not in a layer.
Scalar arithmetic is traced as leaves: counted and timed, with no span
pushed, because it runs millions of times per operation.

Wrappers pass arguments and return values through untouched.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
from time import perf_counter

LEVELS = range(6)

# span name -> (module, "function" or "Class.method" targets)
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "algebra.mul": ("algebra", ("FreePoly.mul", "FuncElem.mul", "MatElem.mul")),
    "algebra.basis_decomposition": (
        "algebra",
        ("FreePoly.basis_decomposition", "FuncElem.basis_decomposition", "MatElem.basis_decomposition"),
    ),
    "algebra.other": (
        "algebra",
        tuple(
            f"{cls}.{m}"
            for cls in ("FreePoly", "FuncElem", "MatElem")
            for m in ("add", "scale", "content", "sort_key")
        )
        + ("AlgebraSpec.from_json", "func_as_diagonal"),
    ),
    "tensor.of": ("tensor", ("TensorPoly.of",)),
    "tensor.eval": ("tensor", ("tensor_eval",)),
    "tensor.to_matrix": ("tensor", ("tensor_to_matrix",)),
    "tensor.serialize": ("tensor", ("TensorPoly.to_json", "TensorPoly.__str__")),
    "tensor.other": (
        "tensor",
        (
            "tensor_concat",
            "componentwise_product",
            "t_algebra_product",
            "mult_map",
            "omega_to_tensor",
            "omega_product",
        ),
    ),
    "frame.lift": ("frame", ("rho", "lam")),
    "frame.delta": ("frame", ("frame_delta",)),
    "frame.other": (
        "frame",
        (
            "lift_to",
            "delta_iter",
            "delta_I",
            "slot_embed",
            "slot_in_generators",
            "generator_sum",
            "module_left",
            "module_right",
            "is_universal_one_form",
            "FrameElem.mul",
            "FrameElem.add",
            "FrameElem.sub",
            "FrameElem.scale",
        ),
    ),
    "leibniz.odot": ("leibniz", ("odot",)),
    "leibniz.embed": ("leibniz", ("embed",)),
    "leibniz.normalize": ("leibniz", ("LeibnizForm.of",)),
    "leibniz.other": (
        "leibniz",
        ("symbolic_delta", "module_mul", "generator_monomial_eval", "enumerate_types"),
    ),
    "jets.transform": ("jets", ("transform_jet2",)),
    "jets.other": (
        "jets",
        ("parse_poly2", "Jet2.of_poly", "delta2_invariance_check", "chain2_1d", "transfer_compose"),
    ),
    "parser.parse": ("parser", ("parse",)),
    "parser.lower": ("parser", ("lower",)),
    "cli.main": ("cli", ("main",)),
    "verify.run_suite": ("verify", ("run_suite",)),
}

LEAVES: dict[str, tuple[str, tuple[str, ...]]] = {
    "scalars.mul": ("scalars", ("Scalar.__mul__",)),
    "scalars.add": ("scalars", ("Scalar.__add__",)),
    "scalars.other": ("scalars", ("Scalar.__sub__", "Scalar.__neg__", "Scalar.__truediv__")),
}

# spans whose results are FrameElem: their term counts feed frame.max_terms.L*
FRAME_RESULTS = ("frame.lift", "frame.delta", "frame.other")


class Tracer:
    """Counts, total and self time per span name, plus a few counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.max_terms = {level: 0 for level in LEVELS}
        self._stack = [0.0]  # child time accumulated by each open span
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- wrappers -----------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, fn):
        st = self._stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def leaf(self, name: str, fn):
        st = self._stat(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            st[0] += 1
            st[1] += dt
            st[2] += dt
            stack[-1] += dt
            return out

        return wrapper

    def _count_terms(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(spec, degree, terms):
            terms = list(terms)
            out = fn(spec, degree, terms)
            counters["tensor.of.terms_in"] = counters.get("tensor.of.terms_in", 0) + len(terms)
            counters["tensor.of.terms_out"] = counters.get("tensor.of.terms_out", 0) + len(out.terms)
            return out

        return wrapper

    def _track_frame(self, fn):
        max_terms = self.max_terms

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            level = getattr(out, "level", None)
            if level in max_terms and len(out.body.terms) > max_terms[level]:
                max_terms[level] = len(out.body.terms)
            return out

        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        dt = perf_counter() - self._gc_start
        st = self._stat("runtime.gc")
        st[0] += 1
        st[1] += dt
        st[2] += dt
        self._stack[-1] += dt
        if info.get("generation") == 2:
            self.counters["runtime.gc.gen2_collections"] = (
                self.counters.get("runtime.gc.gen2_collections", 0) + 1
            )

    def exclude(self, seconds: float) -> None:
        """Treat ``seconds`` of the open span as spent by a child, not by the span."""
        self._stack[-1] += seconds

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every listed target; the library must already be imported."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ncdiff" or n.startswith("ncdiff.")]
        for table, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for name, (modname, targets) in table.items():
                module = importlib.import_module(f"ncdiff.{modname}")
                for target in targets:
                    self._wrap(modules, module, target, lambda fn: self._decorate(name, make, fn))
        gc.callbacks.append(self._gc_callback)

    def _decorate(self, name: str, make, fn):
        if name == "tensor.of":
            fn = self._count_terms(fn)
        elif name in FRAME_RESULTS:
            fn = self._track_frame(fn)
        return make(name, fn)

    def _wrap(self, modules, module, target: str, decorate) -> None:
        if "." in target:
            cls_name, attr = target.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(decorate(raw.__func__)))
            else:
                setattr(cls, attr, decorate(raw))
            self._patched.append((cls, attr, raw))
            return
        original = getattr(module, target)
        wrapped = decorate(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def reset(self) -> None:
        """Forget everything recorded so far (used after the warm-up)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.counters.clear()
        for level in LEVELS:
            self.max_terms[level] = 0

    # -- report -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures, each a plain number."""
        s = self.stats
        calls = lambda n: s.get(n, [0, 0.0, 0.0])[0]
        self_s = lambda *names: sum(s.get(n, [0, 0.0, 0.0])[2] for n in names)
        layer_self = lambda prefix: sum(v[2] for k, v in s.items() if k.startswith(prefix + "."))
        terms_in = self.counters.get("tensor.of.terms_in", 0)
        terms_out = self.counters.get("tensor.of.terms_out", 0)
        out = {
            "scalars.mul.calls": calls("scalars.mul"),
            "scalars.add.calls": calls("scalars.add"),
            "scalars.self_s": layer_self("scalars"),
            "algebra.mul.calls": calls("algebra.mul"),
            "algebra.basis_decomposition.calls": calls("algebra.basis_decomposition"),
            "algebra.self_s": layer_self("algebra"),
            "tensor.of.calls": calls("tensor.of"),
            "tensor.of.terms_in": terms_in,
            "tensor.of.terms_out": terms_out,
            "tensor.of.out_per_in": terms_out / terms_in if terms_in else 0.0,
            "tensor.of.self_s": self_s("tensor.of"),
            "tensor.eval.calls": calls("tensor.eval"),
            "tensor.eval.self_s": self_s("tensor.eval"),
            "tensor.to_matrix.self_s": self_s("tensor.to_matrix"),
            "tensor.serialize.self_s": self_s("tensor.serialize"),
            "frame.lift.calls": calls("frame.lift"),
            "frame.delta.calls": calls("frame.delta"),
            "frame.self_s": layer_self("frame"),
        }
        for level in LEVELS:
            out[f"frame.max_terms.L{level}"] = self.max_terms[level]
        out.update(
            {
                "leibniz.odot.self_s": self_s("leibniz.odot"),
                "leibniz.embed.calls": calls("leibniz.embed"),
                "leibniz.embed.self_s": self_s("leibniz.embed"),
                "leibniz.normalize.calls": calls("leibniz.normalize"),
                "jets.transform.calls": calls("jets.transform"),
                "jets.self_s": layer_self("jets"),
                "parser.parse.self_s": self_s("parser.parse"),
                "parser.lower.self_s": self_s("parser.lower"),
                "cli.self_s": self_s("cli.main"),
                "verify.self_s": self_s("verify.run_suite"),
                "runtime.gc_s": self_s("runtime.gc"),
                "runtime.gc.gen2_collections": self.counters.get("runtime.gc.gen2_collections", 0),
            }
        )
        return out


def cache_totals() -> tuple[int, int]:
    """Hits and misses summed over the ``lru_cache`` wrappers in ``ncdiff.leibniz``."""
    leibniz = sys.modules["ncdiff.leibniz"]
    hits = misses = 0
    for value in vars(leibniz).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses
