"""Record the reference report hashes and verdicts of every workload.

    python3 perfbench/record_references.py

Writes references.json next to this file: per workload, the report hash and
verdicts of one call on the reference seed and on the held-out seed, and,
under "default_config", what the lab's runners give on their own default
configs at the reference seed (about 90 s on one core).
"""

from __future__ import annotations

import json
import sys
import tempfile

from run import ROOT, bootstrap


def main() -> int:
    bootstrap()
    from workloads import (DEFAULT_CONFIGS, HELD_OUT_SEED, REFERENCE_SEED, REFERENCES,
                           WORKLOADS)

    refs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            ctx = workload.prepare(tmp)
            refs[name] = {}
            for seed in (REFERENCE_SEED, HELD_OUT_SEED):
                out = workload.call(ctx, seed)
                refs[name][str(seed)] = {"report_hash": out.report_hash,
                                         "verdicts": out.verdicts}
                print(name, seed, out.report_hash[:12], out.verdicts, flush=True)
        refs["default_config"] = {}
        for name, workload in DEFAULT_CONFIGS.items():
            out = workload.call(tmp, REFERENCE_SEED)
            refs["default_config"][name] = {str(REFERENCE_SEED): {
                "report_hash": out.report_hash, "verdicts": out.verdicts}}
            print("default", name, out.report_hash[:12], out.verdicts, flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
