"""Command-line front end: config handling, schemas, exit codes, determinism."""

import argparse
import ast
import csv
import dataclasses
import hashlib
import importlib
import inspect
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import textwrap
import time
import types
import typing
import warnings
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import bdhvar
from bdhvar import cli, primes_segment, psprimes


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "x_grid = 500, 1000\n"
        "kind = raw_lambda   # trailing comment\n"
        "gamma = 9/10\n"
        "mu = 0.25\n"
        "seed = 3\n"
        "allow_out_of_range = true\n",
        encoding="utf-8")
    values = cli.load_config_file(str(cfgfile))
    assert values["x_grid"] == (500.0, 1000.0)
    assert values["kind"] == "raw_lambda"
    assert values["gamma"] == Fraction(9, 10)
    assert values["mu"] == 0.25
    assert values["seed"] == 3
    assert values["allow_out_of_range"] is True


def test_config_file_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("frobnicate = 7\n", encoding="utf-8")
    with pytest.raises(cli.ParameterError):
        cli.load_config_file(str(cfgfile))


def test_config_file_rejects_bad_line(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(cli.ParameterError):
        cli.load_config_file(str(cfgfile))


def error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines()
            if "error" in line.lower() or "Traceback" in line]


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "latin1.cfg"
    cfgfile.write_bytes(b"kind = raw_lambda  # caf\xe9\nx_grid = 500\xff\n")
    assert run_cli(["variance", "--config", str(cfgfile)]) == 2
    lines = error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert str(cfgfile) in lines[0]


def test_unwritable_out_is_config_error(tmp_path, capsys, monkeypatch):
    # refused before any row is computed, and no file is made
    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "build_weight_table", no_rows)
    for out in (tmp_path / "missing" / "v.csv", tmp_path):
        assert run_cli(["variance", "--kind", "raw_lambda", "--x-grid", "500",
                        "--out", str(out)]) == 2
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert str(out) in lines[0]
    assert list(tmp_path.iterdir()) == []


def test_flags_override_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("x_grid = 300\nkind = raw_lambda\nseed = 5\n",
                       encoding="utf-8")
    out = tmp_path / "r.csv"
    code = run_cli(["variance", "--config", str(cfgfile), "--seed", "9",
                    "--q-rule", "fixed:4", "--allow-out-of-range",
                    "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    seed_col = rows[0].index("seed")
    assert rows[1][seed_col] == "9"


def test_gamma_outside_unit_interval_is_config_error(capsys):
    for gamma in ("5/4", "0"):
        assert run_cli(["ps-count", "--x-grid", "100", "--gamma", gamma]) == 2
        err = capsys.readouterr().err
        assert "(0, 1)" in err, gamma


def test_unknown_gamma_text_is_config_error():
    assert run_cli(["ps-count", "--x-grid", "100", "--gamma", "wat"]) == 2


def test_parse_gamma_fraction_roundtrip(tmp_path):
    g = cli._coerce("gamma", "2426/2817")
    assert g == Fraction(2426, 2817)
    out = tmp_path / "g.csv"
    assert run_cli(["ps-count", "--x-grid", "100", "--gamma", "2426/2817",
                    "--out", str(out)]) == 0
    header, row = read_csv(out)
    assert row[header.index("gamma")] == "2426/2817"
    assert cli._coerce("gamma", "0.75") == 0.75
    # the range is checked once, by validate
    cfg = cli.ExperimentConfig(gamma=cli._coerce("gamma", "0"))
    with pytest.raises(cli.ParameterError):
        cfg.validate()


def test_rules():
    assert cli.eval_q_rule("fixed:17", 1e4, 0.9, 2.0) == 17
    assert cli.eval_q_rule("x_over_log_pow:2", 1e4, 0.9, 2.0) == \
        int(1e4 / (9.210340371976184 ** 2))
    assert cli.eval_q_rule("x_pow_gamma_over_log_pow:2", 1e4, 0.9, 2.0) >= 1
    with pytest.raises(cli.ParameterError):
        cli.eval_q_rule("nope:1", 1e4, 0.9, 2.0)
    with pytest.raises(cli.ParameterError):
        cli.eval_q_rule("fixed:0", 1e4, 0.9, 2.0)
    assert cli.eval_t_rule("fixed:0.25", 1e4, 0.05) == 0.25
    assert cli.eval_t_rule("x_pow:-0.8", 100.0, 0.05) == \
        pytest.approx(100.0 ** -0.85)
    with pytest.raises(cli.ParameterError):
        cli.eval_t_rule("nope", 1e4, 0.05)
    # arguments that give no finite Q or t: NaN, overflow, division by zero
    for rule, a in (("fixed:nan", 2.0), ("fixed:inf", 2.0),
                    ("x_over_log_pow:-1e6", 2.0), ("x_over_log_pow:1e6", 2.0),
                    ("x_over_log_pow:", float("nan"))):
        with pytest.raises(cli.ParameterError):
            cli.eval_q_rule(rule, 1e4, 0.9, a)
    for rule in ("fixed:", "x_pow:abc", "x_pow:1e6"):
        with pytest.raises(cli.ParameterError):
            cli.eval_t_rule(rule, 1e4, 0.05)


# ---------------------------------------------------------------------------
# variance command
# ---------------------------------------------------------------------------

def test_variance_csv_schema(tmp_path):
    out = tmp_path / "var.csv"
    code = run_cli(["variance", "--x-grid", "1000,2000", "--kind",
                    "classic_exp", "--t-rule", "fixed:0", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["X", "Q", "mu", "kind", "gamma", "c", "t", "direct",
                       "character", "ratio", "ratio_alt", "seed", "wall_ms"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] in ("1000", "2000")
        assert float(row[7]) > 0                      # direct
        assert float(row[8]) == pytest.approx(float(row[7]), rel=1e-8)
        assert row[4] == "9/10"                       # gamma echoed exactly
        assert row[12] == "0"                         # wall_ms pinned


def test_variance_json_schema(tmp_path):
    out = tmp_path / "var.json"
    code = run_cli(["variance", "--x-grid", "1000", "--t-rule", "fixed:0",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"config", "rows"}
    assert doc["config"]["gamma"] == "9/10"
    assert doc["config"]["x_grid"] == [1000.0]
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["kind"] == "classic_exp"
    assert row["wall_ms"] == 0
    assert row["character"] == pytest.approx(row["direct"], rel=1e-8)


def test_variance_out_of_range_is_config_error(tmp_path, capsys):
    # Q = 5 sits below X / (log X)^2 at X = 1000
    args = ["variance", "--x-grid", "1000", "--t-rule", "fixed:0",
            "--q-rule", "fixed:5", "--out", str(tmp_path / "x.csv")]
    assert run_cli(args) == 2
    assert "admissible" in capsys.readouterr().err
    assert run_cli(args + ["--allow-out-of-range"]) == 0


def test_variance_frequency_cap_enforced(tmp_path, capsys):
    args = ["variance", "--x-grid", "1000", "--t-rule", "fixed:1.0",
            "--out", str(tmp_path / "x.csv")]
    assert run_cli(args) == 2
    assert "cap" in capsys.readouterr().err


BUDGETED = {
    "variance": ["--x-grid", "1000,2000,3000", "--t-rule", "fixed:0"],
    "ps-count": ["--x-grid", "1000,2000"],
    "lemma3": ["--x-grid", "1e4", "--t-count", "2"],
    "large-sieve": ["--trials", "3", "--n-max", "20", "--q-max", "10"],
    "vaaler": ["--h-list", "1,5", "--grid-points", "200"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(BUDGETED))
def test_budget_partial(tmp_path, capsys, command, fmt):
    out = tmp_path / f"partial.{fmt}"
    code = run_cli([command, *BUDGETED[command], "--row-budget-s", "1e-9",
                    "--format", fmt, "--out", str(out)])
    assert code == 3
    if fmt == "csv":
        rows = read_csv(out)
        assert rows[-1][0] == "#PARTIAL"
        assert len(rows) == 3              # header, one data row, marker
    else:
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["partial"] is True
        assert doc["budget_exceeded_at_row"] == 1
        assert len(doc["rows"]) == 1


def test_variance_reports_cross_check_failures(tmp_path, monkeypatch, capsys):
    real = cli.variance_report

    def broken(w, Q):
        rep = real(w, Q)
        rep.character = (rep.direct[0] + 1e6,)
        return rep

    monkeypatch.setattr(cli, "variance_report", broken)
    code = run_cli(["variance", "--x-grid", "1000", "--t-rule", "fixed:0",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "cross-check FAILED" in capsys.readouterr().err


def test_variance_byte_determinism_across_reruns(tmp_path):
    # --threads has no effect, so the three runs take one path: this checks
    # that reruns of one configuration write identical bytes.
    outs = []
    for k, threads in enumerate(("1", "2", "8")):
        out = tmp_path / f"det{k}.csv"
        code = run_cli(["variance", "--x-grid", "800,1600", "--kind",
                        "classic_exp", "--t-rule", "x_pow:-0.9",
                        "--threads", threads, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------

def test_ps_count_csv(tmp_path):
    out = tmp_path / "ps.csv"
    code = run_cli(["ps-count", "--x-grid", "1000,10000", "--gamma", "9/10",
                    "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0][:5] == ["X", "gamma", "count", "main_term",
                           "normalized_error"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert int(row[2]) > 0
        assert float(row[4]) >= 0


def test_ps_count_blocks_do_not_change_counts(tmp_path, monkeypatch):
    # Sieve blocks of 997 n (each one window), windows of 1000 n in one
    # block, and windows of 7 n in blocks of 997, so seams fall everywhere.
    # The last makes one route call per 7 n, so it stops at X = 1e5.
    grid = ["1e4", "1e5", "1e6"]
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    argv = ["ps-count", "--gamma", "9/10", "--x-grid"]
    assert run_cli(argv + [",".join(grid), "--out", str(whole)]) == 0
    assert [r[2] for r in read_csv(whole)[1:]] == ["473", "3080", "19500"]
    lines = whole.read_bytes().splitlines(keepends=True)
    for block, window, n_rows in ((997, psprimes._BLOCK, 3),
                                  (psprimes._PS_COUNT_BLOCK, 1000, 3),
                                  (997, 7, 2)):
        monkeypatch.setattr(psprimes, "_PS_COUNT_BLOCK", block)
        monkeypatch.setattr(psprimes, "_BLOCK", window)
        assert run_cli(argv + [",".join(grid[:n_rows]),  # routes agree
                               "--out", str(blocked)]) == 0
        assert blocked.read_bytes() == b"".join(lines[:n_rows + 1]), (
            block, window)


def test_ps_count_gamma_just_below_one(tmp_path):
    # gamma = 1 - 2^-53 is inside (0, 1); below X = 1e3 every n is a
    # member, so the count is pi(X), and the two routes agree (exit 0)
    out = tmp_path / "ps.csv"
    assert run_cli(["ps-count", "--x-grid", "100,1000",
                    "--gamma", "0.9999999999999999", "--out", str(out)]) == 0
    assert [r[2] for r in read_csv(out)[1:]] == ["25", "168"]


@pytest.mark.parametrize("gamma", ["0.001", "1e-300", "0.03", "1/64"])
def test_ps_count_tiny_gamma_exits_3_without_warnings(gamma, capsys):
    # k^(1/gamma) leaves int64 (for 0.001 and 1e-300 float64 too) at the
    # generator's last k, 4: refused, naming gamma, before the float pass
    # can overflow or cast out of range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["ps-count", "--x-grid", "100,1000",
                        "--gamma", gamma]) == 3
    err = capsys.readouterr().err
    assert f"resource error: gamma = {gamma} is too small" in err


def test_ps_count_asks_the_indicator_at_primes_only(tmp_path, monkeypatch):
    # The indicator route is asked at every prime <= X and at nothing else.
    asked = []

    def record(ns, cfg):
        asked.append(np.array(ns, dtype=np.int64))
        return psprimes.ps_indicator_at(ns, cfg)

    monkeypatch.setattr(cli, "ps_indicator_at", record)
    assert run_cli(["ps-count", "--x-grid", "1e6", "--gamma", "9/10",
                    "--out", str(tmp_path / "ps.csv")]) == 0
    asked = np.concatenate(asked)
    primes = primes_segment(2, 10**6)
    assert np.all(np.isin(asked, primes))
    assert primes.size == 78_498 and np.array_equal(np.sort(asked), primes)


def test_ps_count_over_sieve_cap_exits_3(capsys):
    # refused before any block is counted, the 1e4 row included
    started = time.perf_counter()
    assert run_cli(["ps-count", "--x-grid", "1e4,2e9"]) == 3
    assert time.perf_counter() - started < 10
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["variance", "lemma3"])
def test_sieve_cap_exits_3_before_any_row(command, tmp_path, capsys):
    # refused before any row is computed, the 1e4 row included
    out = tmp_path / "r.csv"
    started = time.perf_counter()
    assert run_cli([command, "--x-grid", "1e4,2e9", "--out", str(out)]) == 3
    assert time.perf_counter() - started < 10
    assert not out.exists()
    err = capsys.readouterr().err
    assert "cap" in err and "row 1 of" not in err


def test_ps_count_requires_x_at_least_3(capsys):
    # the grid is checked before any row: the 1e6 row is not counted first
    for grid in ("2", "1e6,2"):
        assert run_cli(["ps-count", "--x-grid", grid]) == 2
        err = capsys.readouterr().err
        assert "error: ps-count needs X >= 3, got 2.0" in err
        assert "row 1 of" not in err


def _cap_address_space():
    # 1 GiB, set in the child only: a route that forms a huge power then
    # fails at once with MemoryError instead of filling the machine
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv", [
    ["ps-count", "--x-grid", "100"],
    ["variance", "--kind", "ps_plain", "--x-grid", "2000",
     "--allow-out-of-range"]])
def test_huge_exact_gamma_exits_3_before_any_row(argv):
    # 0.5000000000001 as the exact u/v: its exact powers m^u, k^v would
    # run to terabytes, so it is refused, naming gamma, before any row
    gamma = "5000000000001/10000000000000"
    proc = subprocess.run(
        [sys.executable, "-m", "bdhvar.cli", *argv, "--gamma", gamma],
        capture_output=True, text=True, env=_child_env(), timeout=120,
        preexec_fn=_cap_address_space)
    assert proc.returncode == 3, proc.stderr
    assert f"resource error: gamma = {gamma}" in proc.stderr
    assert "row 1 of" not in proc.stderr and not proc.stdout


@pytest.mark.parametrize("argv, message", [
    (["variance", "--x-grid", "1e4", "--kind", "classic_exp", "--mu", "0"],
     "mu must be in (0, 1), got 0.0"),
    (["lemma3", "--x-grid", "1e4", "--c", "2"],
     "c = 2 is excluded (quadratic phase)")])
def test_twist_refusals_exit_2(argv, message, capsys):
    assert run_cli(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_lemma3_rows(tmp_path):
    out = tmp_path / "l3.csv"
    code = run_cli(["lemma3", "--x-grid", "2000", "--t-count", "3",
                    "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0][0] == "X"
    assert len(rows) == 4
    ts = [float(r[2]) for r in rows[1:]]
    assert ts == sorted(ts)                # log-spaced up to the cap
    for r in rows[1:]:
        assert float(r[4]) < 1.0           # scaled_diff is o(1) territory


def test_large_sieve_rows_and_max(tmp_path):
    out = tmp_path / "ls.csv"
    code = run_cli(["large-sieve", "--trials", "10", "--n-max", "40",
                    "--q-max", "30", "--seed", "1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 12
    assert rows[-1][0] == "max"
    ratios = [float(r[4]) for r in rows[1:-1]]
    assert all(0.0 <= r <= 1.0 + 1e-9 for r in ratios)
    assert float(rows[-1][4]) == pytest.approx(max(ratios))


def test_large_sieve_deterministic_for_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(["large-sieve", "--trials", "5", "--seed", "11",
                        "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vaaler_rows(tmp_path):
    out = tmp_path / "v.csv"
    code = run_cli(["vaaler", "--h-list", "1,5", "--grid-points", "500",
                    "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["H", "max_error", "max_majorant", "violations",
                       "seed", "wall_ms"]
    assert [r[0] for r in rows[1:]] == ["1", "5"]
    for r in rows[1:]:
        assert r[3] == "0"
        assert float(r[2]) <= 0.5 + 1e-9


@pytest.mark.parametrize("h,points", [(10000, 4000), (30000, 10)])
def test_vaaler_large_h_meets_its_majorant(tmp_path, h, points):
    # x h is reduced mod 1 before its phase, so at the integers the error
    # stays exactly 1/2, the majorant there, however large x h grows
    out = tmp_path / "v.csv"
    assert run_cli(["vaaler", "--h-list", str(h), "--grid-points",
                    str(points), "--out", str(out)]) == 0
    (row,) = read_csv(out)[1:]
    assert row[1] == "0.5" and row[3] == "0"


def test_bad_subcommand_flags(capsys):
    assert run_cli(["variance", "--x-grid", "1"]) == 2        # X < 2
    assert run_cli(["variance", "--x-grid", "100", "--kind", "martian"]) == 2
    # custom tables come only from custom_weight_table: no such kind
    capsys.readouterr()
    assert run_cli(["variance", "--x-grid", "100", "--kind", "custom"]) == 2
    assert "unknown kind 'custom'" in capsys.readouterr().err
    assert run_cli(["large-sieve", "--n-max", "0"]) == 2
    assert run_cli(["large-sieve", "--n-max", "9999"]) == 2
    assert run_cli(["vaaler", "--grid-points", "3"]) == 2
    assert run_cli(["variance", "--x-grid", "100", "--threads", "0"]) == 2
    # values that fail to parse, and rule arguments with no finite result
    variance = ["variance", "--x-grid", "1e4"]
    for argv in ([*variance, "--q-rule", "fixed:nan"],
                 [*variance, "--q-rule", "fixed:inf"],
                 [*variance, "--q-rule", "x_over_log_pow:-1e6"],
                 [*variance, "--q-rule", "x_over_log_pow:", "--a", "nan"],
                 [*variance, "--t-rule", "fixed:"],
                 [*variance, "--kind", "raw_lambda", "--q-rule",
                  "fixed:2000000", "--allow-out-of-range"],  # Q > MAX_MODULUS
                 ["variance", "--x-grid", "abc"],
                 ["ps-count", "--x-grid", "100", "--gamma", "1/0"],
                 # a t cap, a theorem range or a gamma with no float value
                 ["lemma3", "--x-grid", "1e4", "--delta", "-1000"],
                 [*variance, "--delta", "-1000"],
                 [*variance, "--a", "-1000"],
                 ["ps-count", "--x-grid", "100", "--gamma",
                  f"{10**400}/3"],
                 ["vaaler", "--h-list", "1.5"],
                 ["vaaler", "--seed", "x"],
                 ["vaaler", "--h-list", "1,5", "--grid-points", "200",
                  "--row-budget-s", "nan"],
                 ["vaaler", "--h-list", ","],              # empty list
                 ["vaaler", "--format", "xml"]):
        capsys.readouterr()
        assert run_cli(argv) == 2, argv
        assert "error: " in capsys.readouterr().err, argv


def test_oversize_vaaler_exits_3(tmp_path, capsys):
    # the phase table would be 10^7 x 100 complex128: refused, not allocated
    out = tmp_path / "v.csv"
    started = time.perf_counter()
    assert run_cli(["vaaler", "--grid-points", "10000000", "--h-list", "100",
                    "--out", str(out)]) == 3
    assert time.perf_counter() - started < 10
    assert "GiB" in capsys.readouterr().err


def test_oversize_vaaler_refused_before_its_grid(monkeypatch, capsys):
    # 10^9 points would take about 32 GB for the grid alone
    def no_grid(*args, **kwargs):
        raise AssertionError("the x grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    assert run_cli(["vaaler", "--grid-points", "1000000000",
                    "--h-list", "100"]) == 3
    assert "GiB" in capsys.readouterr().err


def test_one_flag_per_config_field():
    renamed = {"output_path": "--out", "output_format": "--format"}
    flags = {f.name: renamed.get(f.name, "--" + f.name.replace("_", "-"))
             for f in dataclasses.fields(cli.ExperimentConfig)}
    subcommands, = [a.choices for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert set(subcommands) == set(cli.COMMANDS)
    for name, sub in subcommands.items():
        longs = {opt for a in sub._actions for opt in a.option_strings
                 if opt.startswith("--") and opt != "--help"}
        assert longs == {"--config", *flags.values()}, name
        for f in dataclasses.fields(cli.ExperimentConfig):
            if f.default is None:
                continue                   # output_path: no text for None
            if isinstance(f.default, bool):
                # a switch: absent it gives the default False, given True
                on = cli.resolve_config(sub.parse_args([flags[f.name]]))
                assert getattr(on, f.name) is True
                argv = []
            else:
                text = f.default
                if isinstance(text, tuple):
                    text = ",".join(str(v) for v in text)
                argv = [flags[f.name], str(text)]
            cfg = cli.resolve_config(sub.parse_args(argv))
            assert getattr(cfg, f.name) == f.default, (name, f.name)
            assert type(getattr(cfg, f.name)) is type(f.default), f.name


# sha256 of each report written by `<command line> --out report`.  Any
# change to these bytes must be deliberate: update the digest and say why.
# They were recorded with numpy 2.4.6.  To regenerate one, from the
# repository root:
#   PYTHONPATH=src python3 -m bdhvar.cli <command line> --out report \
#       && sha256sum report && rm report
PINNED_REPORTS = [
    ("variance --kind classic_exp --x-grid 1e4,3e4 --t-rule x_pow:-0.834",
     "bf589bc12ee86c8893e7cb11ef67d91df07a4a5b5ee43a70bf3371c99b1dd583"),
    ("variance --kind ps_plain --x-grid 3e4 --gamma 9/10 "
     "--q-rule x_pow_gamma_over_log_pow:2 --format json",
     "ed28350fa1089adf3b7726b4f6dbadfd1b40c72a85b31a5c3c023b2595599875"),
    ("variance --kind ps_exp --x-grid 3e4 --gamma 9/10 "
     "--q-rule x_pow_gamma_over_log_pow:2 --t-rule x_pow:-0.634",
     "64d28a834003230521c8ac6c2bd72100a47b5b774a25d41cf1e85c8a152e4fcd"),
    ("ps-count --x-grid 1e4,1e5,1e6 --gamma 9/10",
     "763bbe16323701a040ea0b4838af838a0faffd26f4c08f850b111e33413ff7a8"),
    ("ps-count --x-grid 1e4 --gamma 0.5000000000001",
     "a13d79066a0f4ce4725bdfdd95fe10fa7ab82a5c33488b111311d0471a0186a1"),
    ("lemma3 --x-grid 1e5 --t-count 3",
     "550698a8b28e3390f311a99db0ebc37d0b02669300c0c1e2b17d3c1e83a9a19c"),
    ("large-sieve --trials 10 --n-max 200 --q-max 64 --seed 3",
     "8426a74f94911730faef633761fe18ec02d265f8884741ff6406aeb98b169ae5"),
    ("vaaler",
     "617e8edb1a05c01d21d69715662df96cab2f508a9412936d8ce72929cc29911f"),
    # Q = 754: up to four cyclic factors, and 2^k with k >= 3
    ("variance --kind classic_exp --x-grid 1e5 --t-rule x_pow:-0.834",
     "5b5be739461d154f8a4d99afe4b1949a1e25e4fed2a174ccd8bef74a0829081b"),
    ("large-sieve --trials 30 --n-max 500 --q-max 256 --seed 3",
     "625574e14c0ce74a2e6b6b0da7df2b23422ff681081006b15e5239a722b36621"),
    # JSON renderings: a bool, threads and a tuple in the config echo, a
    # float gamma, the large-sieve max row, and two more commands' rows
    ("variance --kind raw_lambda --x-grid 2000 --q-rule fixed:40 "
     "--allow-out-of-range --threads 2 --format json",
     "c7f71a68445aac6f3d04f31b692b4e0bfe0a25d10e09f990df9fab09baaac5a1"),
    ("ps-count --x-grid 1e4 --gamma 0.5000000000001 --format json",
     "588f56b6a1ac482835a3a809b7fa43fa88c48516c36232b3d45edcac6e22a256"),
    ("large-sieve --trials 10 --n-max 200 --q-max 64 --seed 3 --format json",
     "b0af98981d1e9507306dfc3bc585fbcfcea804f7258139ac33f3c0df463edb88"),
    ("vaaler --h-list 1,5 --grid-points 500 --format json",
     "1d540e8ef9c1de922280171ffe06b9cc0ddb680a6a5379829edd46c0b78b6ef5"),
    ("lemma3 --x-grid 1e5 --t-count 3 --format json",
     "8212fca8ced6e964a3a33b333b39034feb49edc7a528cd025d737b8dc4d59a4b"),
    # the seed-0 classic_grid and ps_exp lines of perfbench/run.py
    ("variance --kind classic_exp --x-grid 1e4,3e4,1e5 "
     "--q-rule x_over_log_pow:2 --c 1.5 --mu 0.5 "
     "--t-rule x_pow:-0.8341777619 --threads 1",
     "9e8615161013acfb3486976de4eef74fa3911b36173ee3bba583f1417f735583"),
    ("variance --kind ps_exp --x-grid 3e5 --gamma 9/10 "
     "--q-rule x_pow_gamma_over_log_pow:2 --c 1.5 --mu 0.5 --threads 2 "
     "--t-rule x_pow:-0.6341777619",
     "7ef5bf3cf86d06b8b057ceed71af1a92df92b7d6303e6eef2d013fe7204f6e5a"),
    # 99999 points: many phase-table row blocks and a short last one
    ("vaaler --grid-points 99999 --h-list 3,77,100",
     "bcb9a57274b09b4c25d9d71795119316407fae9057d8f1b4d351b925c32cb600"),
]


def test_report_bytes_pinned(tmp_path, monkeypatch):
    # a relative --out keeps the JSON config echo (output_path) fixed
    monkeypatch.chdir(tmp_path)
    for line, digest in PINNED_REPORTS:
        assert run_cli([*shlex.split(line), "--out", "report"]) == 0, line
        got = hashlib.sha256(Path("report").read_bytes()).hexdigest()
        assert got == digest, line


def _child_env():
    """Environment that lets a child process import this checkout's bdhvar."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=str(src))


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# sha256 of each demo's stdout (numpy 2.4.6), so an edit that moves any
# printed digit shows here
DEMO_DIGESTS = {
    "01_sieve_and_lambda":
        "2e68953568853408f38f0a684b6ea5b3db9aa1d1e2cf114ac7d385d87801eb5b",
    "02_character_tables":
        "4d70524398c1133903372e5cfdbf666c2185c15902e16ca2aebb7b43f9fefd88",
    "03_ps_membership":
        "32d8157b74bb2b11174df1d559726e59559f003d9184d616d15bd56a596cea38",
    "04_sawtooth_majorant":
        "6ef3c50f99f76d47a24fe6f75612d01277aa5699945384cf34c59614157770c8",
    "05_variance_identity":
        "734f5c4e6eb5b4069c820b6c4263d571ec4b92777f3b45a89d7c2d82b2fe7d56",
    "06_theorem_scaling":
        "122ede25daa86e8a78eeb96f26d5014d7fe3cc2acee2fbecd70e86e07bd4010b",
    "07_large_sieve":
        "c8951bcb3aa9a83014002242964c5b8d0d93141524c0ce34cd69d195a32d1701",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.stem]


def test_public_names_are_used_by_package_or_demos():
    # The public surface is what the package's own modules and the demos
    # call.  Only code counts (a name, an attribute or an import), not text
    # in docstrings or messages, so an export that only tests call fails.
    src = Path(cli.__file__).resolve().parent
    used = set()
    for path in [*sorted(src.glob("*.py")), *DEMOS]:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    public = {name for name, value in vars(bdhvar).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - used) == []


def test_cli_names_no_weight_kind_member():
    # variance is the one module that knows the weight kinds: the CLI takes
    # a kind by its value and leaves every per-kind decision to variance,
    # so it reads no WeightKind.<member> (bare or as variance.WeightKind)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    named = [node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and (getattr(node.value, "id", None) == "WeightKind"
                  or getattr(node.value, "attr", None) == "WeightKind")]
    assert named == []


def test_modules_read_no_private_name_of_another():
    # Each module owns its underscore names: no bdhvar module reads one of
    # another's, as an attribute of it (psprimes._BLOCK) or by importing it
    # (from .psprimes import _BLOCK).
    src = Path(cli.__file__).resolve().parent
    stems = {path.stem for path in src.glob("*.py")}
    reads = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # local names bound to a bdhvar module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "bdhvar"):
                package = node.module in (None, "bdhvar")
                for alias in node.names:
                    if package and alias.name in stems:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        reads.append((path.name, alias.name))
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.asname
                               and alias.name.startswith("bdhvar."))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")):
                continue
            owner = node.value
            if (getattr(owner, "id", None) in modules
                    or (getattr(owner, "attr", None) in stems
                        and getattr(owner.value, "id", None) == "bdhvar")):
                reads.append((path.name, node.attr))
    assert reads == []


# The targets of perfbench/child.py's PATCHES that no longer resolve; each
# of their metrics reads 0 until the benchmark's tracer is retargeted.
KNOWN_MISSING_TRACE_TARGETS = {
    "bdhvar.cli:build_prime_table",
    "bdhvar.variance:build_prime_table",
    "bdhvar.variance:build_lambda_table",
    "bdhvar.variance:ps_array",
    "bdhvar.cli:ps_indicator_array",
    "bdhvar.characters:CharacterGroup.value_table",
    "bdhvar.variance:class_sums",
}


def benchmark_trace_patches():
    """perfbench/child.py's PATCHES, read without importing the child, as
    (target, hook name or None, the resolved function or None), plus the
    child's module-level function definitions by name."""
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    tree = ast.parse(child.read_text(encoding="utf-8"))
    patches, = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["PATCHES"]]
    entries = []
    for entry in patches.elts:
        target = entry.elts[0].value
        # resolve as the child's install() does
        module, _, path = target.partition(":")
        *owners, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in owners:
            owner = getattr(owner, part, None)
        entries.append((target, getattr(entry.elts[2], "id", None),
                        getattr(owner, attr, None)))
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    return entries, defs


def test_benchmark_trace_targets_stay_functions():
    # The benchmark's child wraps each PATCHES target at run time, so a
    # target that stops being a plain function (a cached attribute, say)
    # breaks traced runs, and one that vanishes zeroes its metric.  Hold the
    # missing ones to the known set.
    entries, _ = benchmark_trace_patches()
    missing = []
    for target, _, fn in entries:
        if fn is None:
            missing.append(target)
        else:
            assert isinstance(fn, types.FunctionType), target
    assert len(entries) > len(missing)
    assert set(missing) <= KNOWN_MISSING_TRACE_TARGETS


def test_benchmark_trace_hooks_read_existing_attributes():
    # A hook reads attributes of what its target returns (its third
    # parameter).  Renaming one breaks traced runs only, so hold each read
    # to the target's return annotation: a dataclass field or attribute.
    entries, defs = benchmark_trace_patches()
    checked = 0
    for target, hook, fn in entries:
        if hook is None or fn is None:
            continue
        result = defs[hook].args.args[2].arg
        reads = {node.attr for node in ast.walk(defs[hook])
                 if isinstance(node, ast.Attribute)
                 and getattr(node.value, "id", None) == result}
        if not reads:
            continue
        returned = typing.get_type_hints(fn)["return"]
        fields = getattr(returned, "__dataclass_fields__", {})
        for attr in reads:
            assert attr in fields or hasattr(returned, attr), (target, attr)
        checked += 1
    assert checked >= 1


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath serves only the escalation tiers, and is imported on first use
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bdhvar.cli; sys.exit('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_variance_rows_leave_numpy_submodules_unloaded(tmp_path):
    # numpy.polynomial serves only the panel integral, on first use, and
    # no route needs numpy.ma
    script = textwrap.dedent("""
        import sys
        from bdhvar import cli
        lazy = ("mpmath", "numpy.polynomial", "numpy.ma")
        print([m for m in lazy if m in sys.modules])
        cli.main(["variance", "--kind", "classic_exp", "--x-grid", "2000",
                  "--t-rule", "x_pow:-0.9", "--out", "a.csv"])
        cli.main(["variance", "--kind", "ps_plain", "--x-grid", "3000",
                  "--gamma", "9/10", "--q-rule", "x_pow_gamma_over_log_pow:2",
                  "--out", "b.csv"])
        print("numpy.ma" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "False"]


def test_module_entry_point(tmp_path):
    out = tmp_path / "v.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bdhvar.cli", "vaaler", "--h-list", "1",
         "--grid-points", "200", "--out", str(out)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_console_script_installed():
    """The console script that pyproject.toml declares runs the CLI.

    The script is run the way pip's generated wrapper runs it, against this
    checkout, so no install is needed.  Where an installed ``bdhvar`` is on
    PATH, it is run as well and must pass the same checks.
    """
    try:
        import tomllib
    except ModuleNotFoundError:          # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bdhvar"]
    ep = EntryPoint(name="bdhvar", value=target, group="console_scripts")
    assert callable(ep.load())

    wrapper = ("import sys; sys.argv[0] = 'bdhvar'; "
               f"from {ep.module} import {ep.attr}; sys.exit({ep.attr}())")
    runs = [subprocess.run([sys.executable, "-c", wrapper, "--help"],
                           capture_output=True, text=True, env=_child_env())]
    exe = shutil.which("bdhvar")
    if exe is not None:
        runs.append(subprocess.run([exe, "--help"], capture_output=True,
                                   text=True))
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: bdhvar ")
        choices = re.search(r"\{([^}]*)\}", proc.stdout).group(1)
        assert set(choices.split(",")) == {
            "variance", "ps-count", "lemma3", "large-sieve", "vaaler"}


def readme_cli_examples():
    """The `bdhvar ...` commands in README's "Command line" code block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.startswith("bdhvar ")]


@pytest.mark.parametrize("argv", readme_cli_examples(),
                         ids=lambda argv: argv[1])
def test_readme_cli_example_runs(tmp_path, argv):
    args = argv[1:]
    out = tmp_path / "report"
    if "--out" in args:
        i = args.index("--out") + 1
        out = tmp_path / Path(args[i]).name
        args[i] = str(out)
    else:
        args += ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "bdhvar.cli", *args],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert out.stat().st_size > 0


def test_readme_quick_start_runs(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    direct, character, rel = map(float, proc.stdout.splitlines()[0].split())
    assert character == pytest.approx(direct, rel=1e-12) and rel <= 1e-13
