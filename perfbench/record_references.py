"""Record the reference outputs the benchmark checks against.

Usage: python3 perfbench/record_references.py

Runs every distinct invocation of every workload for seeds 0..31 once,
untraced, and writes their CSV outputs to references.json, keyed by the
command line.  Run it only on a commit whose outputs are trusted; the
benchmark compares later commits against these.
"""

import itertools
import json
import sys
import time

import run


SEEDS = range(32)


def main():
    invocations = {}
    for name, seed in itertools.product(run.WORKLOADS, SEEDS):
        for args in run.workload(name, seed):
            invocations.setdefault(run.reference_key(args), args)
    counter = itertools.count()
    references = {}
    for key, args in sorted(invocations.items()):
        inv = run.run_invocation(args, False, next(counter),
                                 time.monotonic() + run.RUN_LIMIT_S)
        if inv["rc"] != 0:
            print(f"error: `{key}` exited {inv['rc']}:\n{inv['stderr']}",
                  file=sys.stderr)
            return 1
        run.parse_csv(inv["output"])
        references[key] = inv["output"]
        print(f"recorded {key}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
