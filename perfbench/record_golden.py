"""Record the output digests the benchmark's oracles compare against.

Run from the repository root as ``python3 perfbench/record_golden.py``.
It writes ``perfbench/golden.json``: the canonical tensor digest of each
order-5 ⊙ type, the stdout digest of ``ncdiff verify all`` and of every
fixed ``cli-short`` request.  Outputs must stay byte-identical, so this
is rerun only when an output format is changed on purpose.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import oracles
import ops
from ops import SpecWriter, catalogue, compositions, embed_op, padded_spec, run_cli, type_key, with_spec
from worker import ROOT


def record() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ncdiff.cli  # noqa: F401

    golden: dict = {"embed-o5": {}, "cli-short": {}}
    for composition in compositions(5):
        op = embed_op(composition, "_0", None)
        golden["embed-o5"][type_key(composition)] = op.check(op.run())[1]
    res = run_cli(["verify", "all"])
    if res.code != 0:
        raise SystemExit(f"verify all failed: {res.err or res.error}")
    golden["verify-all"] = oracles.sha256(res.out)
    rng = ops.rep_rng("record", 0, 0)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        specs = SpecWriter(tmp)
        for key, kind, tail in catalogue():
            path = specs.write(padded_spec(kind, rng)) if kind else None
            res = run_cli(with_spec(tail, path))
            if res.code != 0 or res.error:
                raise SystemExit(f"{key}: exit {res.code} {res.err or res.error}")
            golden["cli-short"][key] = oracles.sha256(res.out)
    return golden


if __name__ == "__main__":
    with open(ops.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
