"""Layered benchmark of the bdhvar command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed batch of `bdhvar` CLI invocations (see NOTES.md for
why each was chosen).  A pass runs them one after another (closed loop, one
client), each as its own process started from the repository checkout with
PYTHONPATH=src.  The run repeats passes for about S seconds and reports
medians over passes.  Every invocation's output is checked: exit code 0, a
well-formed CSV, and agreement within a relative 1e-9 with the recorded
reference output (references.json) when one exists for that exact command.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb).
--trace 1 alternates traced and untraced passes and prints the per-layer
metrics from the traced ones, plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"

RUN_LIMIT_S = 170.0       # every run must end within 180 s
REL_TOL = 1e-9            # admits rounding-order changes, not wrong answers
MB = 1e6
# The workloads run at most 2 program threads (the machine has 2 cores):
# numpy's BLAS must not add its own thread pool on top of `--threads`.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

WORKLOADS = ("classic_grid", "ps_grid", "checks")

# Largest admissible exponents E in `--t-rule x_pow:E` at c = 1.5,
# gamma = 9/10, rounded down: 2/3 - c and (4 gamma - 3 c - 1)/3.
CLASSIC_E_CAP = -0.83333334
PS_E_CAP = -0.63333334

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer time metrics are the summed self time of the spans child.py
# records under these names.
LAYER_SPANS = (
    "arith.sieve", "arith.lambda", "psprimes.generator", "psprimes.indicator",
    "oscillatory.phase", "oscillatory.integral", "oscillatory.prime_sum",
    "oscillatory.vaaler", "characters.group_build", "characters.value_table",
    "characters.primitive_mask", "variance.weight_build",
    "variance.class_sums", "variance.report_self",
    "variance.large_sieve_self", "cli.self",
)
# Counters that must repeat exactly between traced passes of one seed.
EXACT = {
    "characters.groups_built": "count",
    "characters.group_lookups": "count",
    "characters.value_table_mb": "MB_computed",
    "variance.class_sums_calls": "count",
    "variance.class_sums_mb": "MB_computed",
    "cli.invocations": "count",
    "cli.rows": "count",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **EXACT,
    "characters.group_hit_ratio": "ratio",
    "variance.route_gap_max": "rel",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The program under test could not be started at all."""


def workload(name, seed):
    """The CLI argument lists of one pass.  The seed picks E just inside the
    t-cap and the large-sieve trials; X, Q and gamma never change."""
    rng = random.Random(seed)

    def exponent(cap):
        return f"x_pow:{cap - 0.001 * rng.random():.10f}"

    if name == "classic_grid":
        return [["variance", "--kind", "classic_exp",
                 "--x-grid", "1e4,3e4,1e5", "--q-rule", "x_over_log_pow:2",
                 "--c", "1.5", "--mu", "0.5",
                 "--t-rule", exponent(CLASSIC_E_CAP), "--threads", "1"]]
    if name == "ps_grid":
        shared = ["--x-grid", "3e5", "--gamma", "9/10",
                  "--q-rule", "x_pow_gamma_over_log_pow:2",
                  "--c", "1.5", "--mu", "0.5", "--threads", "2"]
        return [["variance", "--kind", "ps_plain", *shared],
                ["variance", "--kind", "ps_exp", *shared,
                 "--t-rule", exponent(PS_E_CAP)]]
    if name == "checks":
        return [["ps-count", "--x-grid", "1e7", "--gamma", "9/10"],
                ["lemma3", "--x-grid", "1e6", "--t-count", "5"],
                ["large-sieve", "--trials", "30", "--n-max", "500",
                 "--q-max", "256", "--seed", str(seed)],
                ["vaaler"]]
    raise ValueError(f"unknown workload {name!r}")


def reference_key(argv):
    return " ".join(argv)


def load_references():
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------

def run_invocation(argv, trace, index, deadline):
    """Run one CLI process; peak RSS comes from its own rusage (wait4).

    The child writes its sidecar as soon as `bdhvar.cli` is imported, so a
    missing sidecar means the program could not even be imported.  A child
    killed later (deadline, out of memory) is a failed invocation."""
    WORK.mkdir(exist_ok=True)
    stem = WORK / f"{os.getpid()}-{index}"
    sidecar = stem.with_suffix(".json")
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    sidecar.unlink(missing_ok=True)
    env = dict(os.environ, **ONE_BLAS_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), str(sidecar),
           "1" if trace else "0", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if not sidecar.exists():
        raise SetupError(f"`{' '.join(argv)}` exited {proc.returncode} "
                         f"without writing its sidecar:\n{stderr[-2000:]}")
    side = json.loads(sidecar.read_text(encoding="utf-8"))
    for path in (sidecar, out_path, err_path):
        path.unlink()
    return {"argv": argv, "rc": proc.returncode, "start": start, "end": end,
            "setup": side["ready"] - start,
            "rss_mb": usage.ru_maxrss * 1024 / MB,
            "output": output, "stderr": stderr, "side": side}


def parse_csv(text):
    """Header plus rows, all the same width; numeric cells must be finite."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise ValueError("no data rows")
    width = len(rows[0])
    for row in rows[1:]:
        if len(row) != width:
            raise ValueError(f"ragged row {row}")
        if row[0] == "#PARTIAL":
            raise ValueError("partial report")
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                raise ValueError(f"non-finite cell {cell!r}")
    return rows


def _cells_agree(got, want):
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check(inv, references):
    """None when the invocation's output is correct, else the reason."""
    if inv["rc"] != 0:
        return f"exit code {inv['rc']}: {inv['stderr'][-500:]}"
    try:
        rows = parse_csv(inv["output"])
    except ValueError as exc:
        return f"unparseable output: {exc}"
    inv["rows"] = len(rows) - 1
    want = references.get(reference_key(inv["argv"]))
    if want is None:
        return None
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(rows) != len(want_rows) or rows[0] != want_rows[0]:
        return "shape differs from the reference"
    for got_row, want_row in zip(rows[1:], want_rows[1:]):
        for col, got, ref in zip(rows[0], got_row, want_row):
            if not _cells_agree(got, ref):
                return f"{col} = {got}, reference {ref}"
    return None


# ---------------------------------------------------------------------------
# Passes and metrics
# ---------------------------------------------------------------------------

def run_pass(invocations, trace, deadline, counter):
    runs = []
    for argv in invocations:
        runs.append(run_invocation(argv, trace, next(counter), deadline))
    return {"trace": trace, "invocations": runs,
            "wall": runs[-1]["end"] - runs[0]["start"]}


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(pass_):
    """Per-layer self times and exact counters of one traced pass."""
    vals = defaultdict(float)
    vals["variance.route_gap_max"] = 0.0
    hits = lookups = 0
    for inv in pass_["invocations"]:
        side = inv["side"]
        # A child killed before exit has no spans or cache counts.
        spans = side.get("spans", [])
        children = defaultdict(list)
        for sid, parent, name, start, end, extra in spans:
            children[parent].append((start, end))
        for sid, parent, name, start, end, extra in spans:
            vals[f"{name}_s"] += (end - start) - _covered(children[sid],
                                                          start, end)
            if name == "characters.group_build":
                vals["characters.groups_built"] += 1
            elif name == "characters.value_table" and extra:
                vals["characters.value_table_mb"] += extra["bytes"] / MB
            elif name == "variance.class_sums":
                vals["variance.class_sums_calls"] += 1
                if extra:
                    vals["variance.class_sums_mb"] += extra["bytes"] / MB
            elif name == "variance.report_self" and extra:
                vals["variance.route_gap_max"] = max(
                    vals["variance.route_gap_max"], extra["gap"])
        cache_hits, cache_misses = side.get("cache", (0, 0))
        hits += cache_hits
        lookups += cache_hits + cache_misses
        vals["cli.rows"] += inv.get("rows", 0)
        if side.get("missing"):
            print(f"warning: patch targets missing: {side['missing']}",
                  file=sys.stderr)
    vals["cli.invocations"] = len(pass_["invocations"])
    vals["characters.group_lookups"] = lookups
    vals["characters.group_hit_ratio"] = hits / lookups if lookups else 0.0
    vals["trace.wall_s"] = pass_["wall"]
    return vals


def measure(invocations, seconds, trace, references):
    """Run passes for about `seconds`; return the result object."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    counter = itertools.count()
    passes, failures, attempted, failed = [], [], 0, 0
    # Untraced runs take at least three passes for a median; traced runs
    # at least two traced passes (to compare exact counters) and one
    # untraced pass (for the overhead).
    while True:
        traced = trace and len(passes) % 2 == 0
        pass_ = run_pass(invocations, traced, deadline, counter)
        passes.append(pass_)
        for inv in pass_["invocations"]:
            attempted += 1
            reason = check(inv, references)
            if reason is not None:
                failed += 1
                failures.append(f"{' '.join(inv['argv'])}: {reason}")
        elapsed = time.monotonic() - started
        n_traced = sum(p["trace"] for p in passes)
        enough = (n_traced >= 2 and len(passes) - n_traced >= 1) if trace \
            else len(passes) >= 3
        if enough and elapsed + pass_["wall"] > seconds:
            break
        if elapsed + pass_["wall"] > RUN_LIMIT_S:
            break

    plain = [p for p in passes if not p["trace"]]
    summary = {"untraced_walls_s": [round(p["wall"], 3) for p in plain]}
    correct = failed == 0
    if trace:
        traced = [layer_metrics(p) for p in passes if p["trace"]]
        for name in EXACT:
            seen = {round(t[name], 9) for t in traced}
            if len(seen) > 1:
                correct = False
                failures.append(f"{name} differs between traced passes: "
                                f"{sorted(seen)}")
        values = {name: statistics.median(t[name] for t in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["variance.route_gap_max"] = max(
            t["variance.route_gap_max"] for t in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - \
            statistics.median(p["wall"] for p in plain)
        units = PER_LAYER
        summary["traced_passes"] = len(traced)
    else:
        values = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "setup_s": statistics.median(
                sum(i["setup"] for i in p["invocations"]) for p in plain),
            "peak_rss_mb": statistics.median(
                max(i["rss_mb"] for i in p["invocations"]) for p in plain),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics,
            "failures": failures, "summary": summary}


def report(title, result):
    """Print the result for people, then as the final JSON line."""
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(f"{title}: {result['summary']}; failed_frac = "
          f"{result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} invocations)")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bdhvar" / "cli.py").is_file():
        print(f"error: no bdhvar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        result = measure(workload(args.workload, args.seed), args.seconds,
                         bool(args.trace), load_references())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report(f"workload {args.workload} seed {args.seed}", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
