"""One bdhvar CLI invocation, as the `bdhvar` console script runs it.

Usage: python3 child.py SIDECAR TRACE CLI-ARGS...

The child imports `bdhvar.cli` (from PYTHONPATH), stamps the moment it is
ready to parse arguments, and calls `bdhvar.cli.main` with CLI-ARGS, exiting
with its return code.  With TRACE = 1 it first wraps the public functions
listed in PATCHES at run time, so every call records a span.  Nothing in the
package's source changes.

Once `bdhvar.cli` is imported it writes SIDECAR with `ready` alone, so that
a child killed later still shows that it started.  On exit it rewrites
SIDECAR as JSON:
    ready   -- time.monotonic() once `bdhvar.cli` was imported;
    spans   -- [id, parent_id, name, start, end, extra] per traced call
               (parent_id -1 at the root, times from time.perf_counter);
    cache   -- [hits, misses] of `character_group`'s lru_cache (traced only);
    missing -- patch targets that no longer exist (traced only).
"""

import sys
import time

import bdhvar.cli

READY = time.monotonic()

import functools  # noqa: E402  (kept out of the set-up interval above)
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402


def _value_table_bytes(args, kwargs, result):
    return {"bytes": result.size * 16}


def _class_sums_bytes(args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    q = args[2] if len(args) > 2 else kwargs["q"]
    return {"bytes": -(-len(values) // q) * q * 32}


def _route_gap(args, kwargs, result):
    return {"gap": result.cross_check_rel}


# (where the name is looked up, span name, extra hook).  A name is patched
# in the module that looks it up: `variance_report` binds `character_group`
# at definition time, so group builds are counted at `CharacterGroup.__init__`
# and cache hits come from `cache_info()`.
PATCHES = [
    ("bdhvar.cli:main", "cli.self", None),
    ("bdhvar.cli:build_prime_table", "arith.sieve", None),
    ("bdhvar.variance:build_prime_table", "arith.sieve", None),
    ("bdhvar.variance:build_lambda_table", "arith.lambda", None),
    ("bdhvar.cli:ps_array", "psprimes.generator", None),
    ("bdhvar.variance:ps_array", "psprimes.generator", None),
    ("bdhvar.cli:ps_indicator_array", "psprimes.indicator", None),
    ("bdhvar.variance:phase_frac_array", "oscillatory.phase", None),
    ("bdhvar.oscillatory:phase_frac_array", "oscillatory.phase", None),
    ("bdhvar.variance:main_term_integral", "oscillatory.integral", None),
    ("bdhvar.cli:main_term_integral", "oscillatory.integral", None),
    ("bdhvar.cli:prime_exp_sum", "oscillatory.prime_sum", None),
    ("bdhvar.cli:saw_psi", "oscillatory.vaaler", None),
    ("bdhvar.cli:vaaler_expansion", "oscillatory.vaaler", None),
    ("bdhvar.cli:vaaler_eval", "oscillatory.vaaler", None),
    ("bdhvar.characters:CharacterGroup.__init__", "characters.group_build",
     None),
    ("bdhvar.characters:CharacterGroup.value_table", "characters.value_table",
     _value_table_bytes),
    ("bdhvar.characters:CharacterGroup.primitive_mask",
     "characters.primitive_mask", None),
    ("bdhvar.cli:build_weight_table", "variance.weight_build", None),
    ("bdhvar.variance:class_sums", "variance.class_sums", _class_sums_bytes),
    ("bdhvar.cli:variance_report", "variance.report_self", _route_gap),
    ("bdhvar.cli:large_sieve_check", "variance.large_sieve_self", None),
]


class Recorder:
    """In-memory span log.  Worker threads (the per-q thread pool) have no
    open span of their own, so their spans hang off the span the main
    thread has open, which is the call that started the pool."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = extra(args, kwargs, result) \
                    if extra is not None and result is not None else None
                self.spans.append([sid, parent, name, start, end, info])
        return traced


def install(recorder):
    """Wrap every PATCHES target; return the ones that are missing."""
    missing = []
    for target, name, extra in PATCHES:
        module, _, path = target.partition(":")
        *owners, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(target)
            continue
        setattr(owner, attr, recorder.wrap(fn, name, extra))
    return missing


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main():
    sidecar, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    doc = {"ready": READY}
    _write(sidecar, doc)
    recorder = None
    if trace:
        recorder = Recorder()
        doc["missing"] = install(recorder)
    try:
        return bdhvar.cli.main(argv)
    finally:
        if recorder is not None:
            doc["spans"] = recorder.spans
            info = bdhvar.characters.character_group.cache_info()
            doc["cache"] = [info.hits, info.misses]
        _write(sidecar, doc)


if __name__ == "__main__":
    sys.exit(main())
