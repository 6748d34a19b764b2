"""Self-check of the benchmark harness at toy sizes (under a minute).

Usage: python3 perfbench/selfcheck.py

For each workload it runs a toy-sized version (X = 1e4, a few large-sieve
trials) untraced and traced, and checks that the printed result names every
end-to-end and per-layer metric of BENCHMARK.json with its unit, that the
outputs pass, and that the exact counters were compared.  It also checks that
the output check can fail: a nonzero exit and a value off its reference must
each count as a failed invocation.  Exits 1 on the first problem.
"""

import contextlib
import io
import json
import sys
import time

import run

TOY = {
    "classic_grid": [
        ["variance", "--kind", "classic_exp", "--x-grid", "1e4",
         "--t-rule", "x_pow:-0.8333333400", "--threads", "1"]],
    "ps_grid": [
        ["variance", "--kind", kind, "--x-grid", "1e4", "--gamma", "9/10",
         "--q-rule", "x_pow_gamma_over_log_pow:2", "--threads", "2",
         "--t-rule", "x_pow:-0.6333333400"]
        for kind in ("ps_plain", "ps_exp")],
    "checks": [
        ["ps-count", "--x-grid", "1e4", "--gamma", "9/10"],
        ["lemma3", "--x-grid", "1e4", "--t-count", "2"],
        ["large-sieve", "--trials", "3", "--n-max", "50", "--q-max", "30",
         "--seed", "1"],
        ["vaaler", "--h-list", "1,5"]],
}


def printed(result):
    """The final JSON line and the whole text run.report prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report("selfcheck", result)
    text = buf.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if set(TOY) != {w["name"] for w in spec["workloads"]}:
        problems.append("TOY does not cover the workloads of BENCHMARK.json")
    for name, invocations in TOY.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out, text = printed(run.measure(invocations, 0, trace, {}))
            if not out["correct"] or out["failed"]:
                problems.append(f"{name} trace {trace}: outputs failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: metrics {got} "
                                f"!= BENCHMARK.json {want}")
            for metric, unit in want.items():
                if not any(line.split()[:1] == [metric]
                           and line.split()[-1] == unit
                           for line in text.splitlines()):
                    problems.append(f"{name}: {metric} not printed with "
                                    f"its unit {unit}")

    bad_exit = run.measure([["variance", "--kind", "no_such_kind"]], 0, 0, {})
    if bad_exit["correct"] or not bad_exit["failed"] or not all(
            "exit code 2" in line for line in bad_exit["failures"]):
        problems.append("a nonzero exit was not counted as failed")
    vaaler = ["vaaler", "--h-list", "1"]
    good = run.run_invocation(vaaler, False, 0,
                              time.monotonic() + 60)["output"]
    off = good.replace("0.5,0,0,0", "0.5000001,0,0,0")
    if off == good:
        problems.append("could not perturb the vaaler reference")
    wrong = run.measure([vaaler], 0, 0, {run.reference_key(vaaler): off})
    right = run.measure([vaaler], 0, 0, {run.reference_key(vaaler): good})
    if wrong["correct"] or not right["correct"]:
        problems.append("the reference comparison does not tell "
                        "a wrong value from a right one")

    for line in problems:
        print(f"FAILED {line}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
