"""Fresh-process side of the benchmark.

``worker.py rep`` runs one repetition of an in-process workload: it
imports the library, generates the repetition's inputs and spec files,
runs one untimed warm-up operation (all of that is the set-up time),
then times each operation of the fixed list and checks every output
afterwards.  ``worker.py child`` is the per-operation process of the
``verify-all`` workload: it runs ``ncdiff.cli.main`` on its arguments
exactly as the ``ncdiff`` command would.  Both write their figures as
JSON to the file named by ``--out``; with ``--trace 1`` they install the
tracing wrappers first.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_library(trace: bool):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ncdiff.cli  # noqa: F401  (loads every module the wrappers patch)

    from tracing import Tracer

    tracer = Tracer()
    if trace:
        tracer.install()
    return tracer


def _hit_ratio(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


def rep(args) -> dict:
    t0 = perf_counter()
    tracer = _import_library(args.trace)
    import ops as workloads
    from reference import ReferenceSampler
    from tracing import cache_totals

    golden = workloads.load_golden()
    spec_dir = tempfile.mkdtemp(prefix="specs", dir=args.tmp)
    warmup, op_list = workloads.make_ops(args.workload, args.seed, args.rep, spec_dir, golden)
    warmup_ok, _ = warmup.check(warmup.run())
    setup_s = perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s, "warmup_ok": warmup_ok}

    tracer.reset()
    cache_before = cache_totals()
    results = []
    with ReferenceSampler(tracer.exclude if args.trace else None) as sampler:
        for op in op_list:
            start = perf_counter()
            raw = op.run()
            results.append((op, raw, start, perf_counter()))
    cache_after = cache_totals()
    rss = peak_rss_mb()
    layers = tracer.layer_metrics() if args.trace else {}
    tracer.uninstall()

    records = []
    for op, raw, start, end in results:
        ok, digest = op.check(raw)
        seconds, ref = sampler.net(start, end), sampler.ref(start, end)
        records.append({"label": op.label, "seconds": seconds, "ref": ref, "ok": ok, "digest": digest})
    return {
        "setup_s": setup_s,
        "warmup_ok": warmup_ok,
        "ops": records,
        "peak_rss_mb": rss,
        "cache_hit_ratio": _hit_ratio(cache_before, cache_after),
        "layers": layers,
    }


def child(args) -> tuple[dict, int]:
    tracer = _import_library(args.trace)
    from reference import ReferenceSampler
    from tracing import cache_totals

    with ReferenceSampler(tracer.exclude if args.trace else None) as sampler:
        code = sys.modules["ncdiff.cli"].main(args.cli_args)
    sys.stdout.flush()
    stats = {
        "burst_s": sum(s for _, s in sampler.samples),
        "ref": sampler.ref(0.0, perf_counter()),
        "peak_rss_mb": peak_rss_mb(),
        "cache_hit_ratio": _hit_ratio((0, 0), cache_totals()),
        "layers": tracer.layer_metrics() if args.trace else {},
    }
    return stats, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("rep")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rep", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("child")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "child":
        if args.cli_args[:1] == ["--"]:
            args.cli_args = args.cli_args[1:]
        doc, code = child(args)
    else:
        doc, code = rep(args), 0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
