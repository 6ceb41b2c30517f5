"""ncdiff benchmark: one command, cold-start workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a single-process
closed loop: one caller sends the next request only when the previous
one has returned, with no threads.  Every repetition runs in a fresh
process with a fixed, seeded operation list, so cache growth inside the
library is the same in every run.  Repetitions start while at least half
of one still fits in ``--seconds``.

Workloads:
  embed-o5    the 16 order-5 ⊙ types, each built with odot from fresh
              symbols and embedded into level 5 (the tower's write path)
  cli-short   a mix of millisecond-scale ``cli.main`` requests, about 10%
              of them malformed and expected to exit 2
  realize     ``eval --all`` and ``matrix`` through ``cli.main`` over
              random rational function and matrix algebras (the read path)
  verify-all  ``ncdiff verify all`` in a fresh child process per operation

Timings are reported in reference units: each operation's wall time is
divided by the time of a fixed Fraction kernel sampled every 0.25 s
while it runs (``reference.ReferenceSampler``), which cancels the host's speed
swings.
The raw ``ops_per_s``, ``op_p50_ms`` and, where a run has 100
operations, ``op_p90_ms`` are printed in the report.

With ``--trace 0`` the result line holds the end-to-end metrics; with
``--trace 1`` pairs of an untraced and a traced repetition of the same
operations give the per-layer metrics and the tracing overhead.  The
last line of stdout is the JSON result; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import oracles
from ops import WORKLOADS, load_golden

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TIME_LIMIT_S = 170  # every run must end within 180 s
MIN_SETUPS = 3
WARMUP_SUITE = "jets"
# one embed-o5 repetition holds only 16 operations; two give a steady median
MIN_REPETITIONS = {"embed-o5": 2}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes and keeps the run inside its time limit."""

    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = perf_counter()
        self.calls = 0

    def _run(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, dict]:
        self.calls += 1
        out = os.path.join(self.tmp, f"result{self.calls:04d}.json")
        remaining = TIME_LIMIT_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, *argv[:1], "--out", out, *argv[1:]],
                cwd=ROOT,
                env={**os.environ, "PYTHONHASHSEED": "0"},
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {argv[:1]} ran past the time limit") from None
        if not os.path.exists(out):
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(out, encoding="utf-8") as fh:
            return proc, json.load(fh)

    def rep(self, index: int, trace: bool = False, setup_only: bool = False) -> dict:
        argv = ["rep", "--workload", self.workload, "--seed", str(self.seed), "--rep", str(index)]
        argv += ["--tmp", self.tmp, "--trace", str(int(trace))]
        if setup_only:
            argv.append("--setup-only")
        proc, doc = self._run(argv)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return doc

    def verify(self, suite: str = "all", trace: bool = False) -> dict:
        """One ``verify`` child; the operation's time is the process's wall time."""
        start = perf_counter()
        proc, stats = self._run(["child", "--trace", str(int(trace)), "--", "verify", suite])
        # the child samples the reference while it runs; its bursts are not its work
        seconds = perf_counter() - start - stats.pop("burst_s")
        ref = stats.pop("ref")
        try:
            doc_ok = json.loads(proc.stdout).get("ok") is True
        except ValueError:
            doc_ok = False
        golden = load_golden()
        want = golden["verify-all"] if suite == "all" else golden["cli-short"][f"-|verify {suite}"]
        digest = oracles.sha256(proc.stdout)
        ok = proc.returncode == 0 and doc_ok and digest == want
        record = {"label": f"verify {suite}", "seconds": seconds, "ref": ref, "ok": ok, "digest": digest}
        return {"ops": [record], **stats}


def keep_going(start: float, done: int, seconds: float, minimum: int = 1) -> bool:
    """Start another repetition while at least half of it fits in ``seconds``."""
    if done < minimum:
        return True
    elapsed = perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def run_untraced(runner: Runner, seconds: float) -> dict:
    reps, setups = [], []
    if runner.workload == "verify-all":
        # set-up: a short suite in a child loads and compiles every module
        warmups = [runner.verify(WARMUP_SUITE) for _ in range(MIN_SETUPS)]
        setups = [w["ops"][0]["seconds"] for w in warmups]
        warmup_ok = all(w["ops"][0]["ok"] for w in warmups)
        start = perf_counter()
        while keep_going(start, len(reps), seconds):
            reps.append(runner.verify())
    else:
        start = perf_counter()
        while keep_going(start, len(reps), seconds, MIN_REPETITIONS.get(runner.workload, 1)):
            reps.append(runner.rep(len(reps)))
        setups = [r["setup_s"] for r in reps]
        warmup_ok = all(r["warmup_ok"] for r in reps)
        index = len(reps)
        while len(setups) < MIN_SETUPS:
            extra = runner.rep(index, setup_only=True)
            setups.append(extra["setup_s"])
            warmup_ok = warmup_ok and extra["warmup_ok"]
            index += 1
    records = [r for rep in reps for r in rep["ops"]]
    times = [r["seconds"] for r in records]
    norm = [r["seconds"] / r["ref"] for r in records]
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "ops_per_ref": len(norm) / sum(norm),
        "op_p50_ref": statistics.median(norm),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setups),
    }
    report = {
        "repetitions": len(reps),
        "setups": len(setups),
        "op_fail_ratio": failed / len(records),
        "failed operations": sorted({r["label"] for r in records if not r["ok"]}),
        "reference burst ms (median)": statistics.median(r["ref"] for r in records) * 1000,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
    }
    if len(times) >= 100:
        report["op_p90_ms"] = statistics.quantiles(times, n=10)[-1] * 1000
        report["op_p90_ref"] = statistics.quantiles(norm, n=10)[-1]
    return {
        "correct": failed == 0 and warmup_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def run_traced(runner: Runner, seconds: float) -> dict:
    """Pairs of an untraced and a traced repetition of the same operations.

    The layer figures come from the first traced repetition; the overhead
    ratio is summed over every pair.
    """
    pairs = []
    if runner.workload == "verify-all":
        runner.verify(WARMUP_SUITE)
    start = perf_counter()
    while keep_going(start, len(pairs), seconds):
        if runner.workload == "verify-all":
            pairs.append((runner.verify(), runner.verify(trace=True)))
        else:
            pairs.append((runner.rep(0), runner.rep(0, trace=True)))
    failed = attempted = 0
    for plain, traced in pairs:
        records = plain["ops"] + traced["ops"]
        attempted += len(records)
        failed += sum(not r["ok"] for r in records)
        # both repetitions ran the same operations, so their outputs must agree
        failed += sum(a["digest"] != b["digest"] for a, b in zip(plain["ops"], traced["ops"]))
    seconds_of = lambda side: sum(r["seconds"] / r["ref"] for pair in pairs for r in pair[side]["ops"])
    first = pairs[0][1]
    metrics = dict(first["layers"])
    metrics["leibniz.cache.hit_ratio"] = first["cache_hit_ratio"]
    metrics["trace.overhead_ratio"] = seconds_of(1) / seconds_of(0)
    return {
        "correct": failed == 0 and all(len(p["ops"]) == len(t["ops"]) for p, t in pairs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {"pairs": len(pairs), "operations per repetition": len(first["ops"])},
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def library_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "ncdiff", "__init__.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not library_present():
        print(f"perfbench: no ncdiff sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, tmp)
        result = (run_traced if args.trace else run_untraced)(runner, args.seconds)
        units = declared_units(bool(args.trace))
        if set(result["metrics"]) != set(units):
            raise BenchError(f"metrics {sorted(set(result['metrics']) ^ set(units))} disagree with BENCHMARK.json")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"python {platform.python_version()} nproc {os.cpu_count()}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for key, value in result["report"].items():
        print(f"  {key}: {value}")
    for name, value in result["metrics"].items():
        print(f"  {name}: {value} {units[name]}")
    doc = {key: result[key] for key in ("correct", "attempted", "failed")}
    doc["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in result["metrics"].items()}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
