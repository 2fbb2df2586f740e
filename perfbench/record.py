#!/usr/bin/env python3
"""Record the reference outputs of every workload instance.

    python3 perfbench/record.py [WORKLOAD ...]

Run once, at the commit whose outputs are the reference; writes
perfbench/expected/<workload>.json.  Refuses to record an instance whose
operations raise or fail their independent re-validation.
"""

from __future__ import annotations

import json
import sys

import env


def record(wl) -> dict:
    import workloads

    instances = {}
    for seed in wl.seeds:
        lg = wl.build(seed)
        ops = {}
        for op, value, validate in wl.run(lg, seed):
            if validate is not None and not validate():
                raise SystemExit(f"{wl.name} seed {seed} {op}: re-validation failed")
            ops[op] = value
        instances[str(seed)] = ops
        print(f"{wl.name} seed {seed}: {json.dumps(ops)[:160]}", file=sys.stderr)
    doc = workloads.describe(wl)
    doc["commit"] = env.git_commit()
    doc["source_sha256"] = env.source_digest()
    doc["instances"] = instances
    return doc


def main(argv: list[str]) -> int:
    env.bootstrap()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    for name in names:
        wl = workloads.WORKLOADS[name]
        doc = record(wl)
        workloads.expected_path(wl).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
