"""Batch command-line front end.

Subcommands (declared once, in COMMANDS): variance, ps-count, lemma3,
large-sieve, vaaler.  Every run is a deterministic function of the resolved
configuration plus the seed, so a report file regenerates byte-identical.
A report's columns are its rows' keys; `run_rows` adds `seed` and `wall_ms`,
fixed at 0 so that reruns compare (wall time goes to stderr only).
`threads` is accepted (>= 1) so that existing command lines and config files
keep working, but it has no effect: every run is one thread.
This module names no weight kind: `--kind` takes a `variance.WeightKind`
value, and which kinds read t, their theorem ranges and their weights all
come from `variance`.

The flags are generated from the ExperimentConfig fields, whose names are
also the config file keys: `--x-grid` sets x_grid, and so on, except that
`--out` sets output_path and `--format` output_format.  Config files are
UTF-8, one `key = value` per line, `#` starts a comment.  Flags override
file values, and both are typed alike from the field defaults.  gamma
accepts `u/v` rationals and echoes them exactly.

Exit codes: 0 success, 2 bad parameters/config, 3 resource budget exceeded
(`run_rows` still flushes and marks the partial rows), 4 an internal
cross-check failed (direct/character disagreement, PS count route mismatch,
a large sieve ratio above 1 + 1e-9, or a sawtooth majorant violation).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .arith import sieve_segment, sieving_primes
from .errors import ParameterError, ResourceError
from .oscillatory import (check_vaaler_size, main_term_integral,
                          prime_exp_sum, saw_psi, vaaler_eval,
                          vaaler_expansion)
from . import psprimes
from .psprimes import (ps_array, ps_config, ps_count_main_term,
                       ps_indicator_at)
from .variance import (TWISTED_KINDS, WeightKind, build_weight_table,
                       large_sieve_check, theorem_range_warnings,
                       variance_report)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_CROSS_CHECK = 4

LARGE_SIEVE_CAP = 500
# ps-count sieves and counts [2, X] in blocks of this many n, so its working
# memory is O(block + sqrt X), whatever X is.  The routes run per window of
# psprimes._BLOCK n whatever the block, which sets only how often
# sieve_segment's Python loop over the base primes runs: at X = 1e8 on 2
# cores, 2^21 took 0.9-1.05 s, 2^18 1.0-1.1 s and 2^16 1.7-1.8 s.
_PS_COUNT_BLOCK = 1 << 21


@dataclasses.dataclass
class ExperimentConfig:
    """Resolved run parameters; field names double as config file keys."""

    x_grid: tuple = (10000.0,)
    kind: str = "classic_exp"
    q_rule: str = "x_over_log_pow:2"
    t_rule: str = "fixed:0"
    mu: float = 0.5
    gamma: Union[Fraction, float] = Fraction(9, 10)
    c: float = 1.5
    a: float = 2.0
    delta: float = 0.05
    seed: int = 0
    threads: int = 1               # accepted (>= 1); no effect
    trials: int = 100
    n_max: int = 100
    q_max: int = 100
    t_count: int = 5
    h_list: tuple = (1, 5, 20, 100)
    grid_points: int = 10000
    row_budget_s: float = 600.0
    allow_out_of_range: bool = False
    output_path: Optional[str] = None
    output_format: str = "csv"

    def validate(self) -> None:
        if not self.x_grid:
            raise ParameterError("x_grid must not be empty")
        for x in self.x_grid:
            if not (x >= 2 and math.isfinite(x)):
                raise ParameterError(f"x_grid entries must be >= 2, got {x}")
        if self.kind not in [k.value for k in WeightKind]:
            raise ParameterError(f"unknown kind {self.kind!r}")
        if not 0.0 <= self.mu < 1.0:
            raise ParameterError(f"mu must be in [0, 1), got {self.mu}")
        ps_config(self.gamma)  # raises with the (0,1) constraint message
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")
        if self.output_format not in ("csv", "json"):
            raise ParameterError(f"format must be csv or json, got "
                                 f"{self.output_format!r}")
        if self.output_path and (Path(self.output_path).is_dir() or
                                 not Path(self.output_path).parent.is_dir()):
            raise ParameterError(f"cannot write report {self.output_path}: "
                                 f"not a file in an existing directory")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not 1 <= self.n_max <= LARGE_SIEVE_CAP or \
                not 1 <= self.q_max <= LARGE_SIEVE_CAP:
            raise ParameterError(
                f"n_max and q_max must lie in [1, {LARGE_SIEVE_CAP}]")
        if self.t_count < 1:
            raise ParameterError("t_count must be >= 1")
        if not self.h_list:
            raise ParameterError("h_list must not be empty")
        if any(h < 1 for h in self.h_list):
            raise ParameterError("h_list entries must be >= 1")
        if self.grid_points < 10:
            raise ParameterError("grid_points must be >= 10")
        if not self.row_budget_s > 0:
            raise ParameterError("row_budget_s must be positive")


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _coerce(key: str, raw: str):
    """Type one setting, from a flag or a config file, by its field default.

    A tuple default takes comma-separated items of its element type; bool,
    int and float defaults take one value of that type; gamma takes a 'u/v'
    Fraction or a float (`validate` checks its range); anything else stays
    text.  Bad values raise ParameterError.
    """
    if key not in _DEFAULTS:
        raise ParameterError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    try:
        if isinstance(default, tuple):
            item = type(default[0])
            return tuple(item(p) for p in raw.split(",") if p.strip())
        if isinstance(default, bool):
            return _BOOLS[raw.strip().lower()]
        if isinstance(default, (int, float)):
            return type(default)(raw)
        if key == "gamma":
            return Fraction(raw) if "/" in raw else float(raw)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad value for {key}: {raw!r}") from exc
    return raw


def load_config_file(path: str) -> dict:
    """Parse `key = value` lines (UTF-8, # comments) into typed values."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParameterError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip().lower()
        try:
            out[key] = _coerce(key, raw.strip())
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def eval_q_rule(rule: str, X: float, gamma: float, a: float) -> int:
    name, _, arg = rule.partition(":")
    if name not in ("fixed", "x_over_log_pow", "x_pow_gamma_over_log_pow"):
        raise ParameterError(f"unknown q_rule {rule!r}")
    try:
        if name == "fixed":
            q = int(float(arg))
        else:
            top = X if name == "x_over_log_pow" else X ** gamma
            q = math.floor(top / math.log(X) ** (float(arg) if arg else a))
    except (ValueError, ArithmeticError) as exc:
        raise ParameterError(
            f"q_rule {rule!r} gives no Q at X = {X:g}: {exc}") from exc
    if q < 1:
        raise ParameterError(f"q_rule {rule!r} gives Q = {q} < 1 at X = {X}")
    return q


def eval_t_rule(rule: str, X: float, delta: float) -> float:
    name, _, arg = rule.partition(":")
    if name not in ("fixed", "x_pow"):
        raise ParameterError(f"unknown t_rule {rule!r}")
    try:
        return float(arg) if name == "fixed" else X ** (float(arg) - delta)
    except (ValueError, ArithmeticError) as exc:
        raise ParameterError(
            f"t_rule {rule!r} gives no t at X = {X:g}: {exc}") from exc


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def _plain(value):
    """A report value as written: Fraction as exact 'u/v', tuple as list."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return list(value) if isinstance(value, tuple) else value


def emit(rows: list[dict], cfg: ExperimentConfig,
         partial_at: Optional[int] = None) -> None:
    """Write rows as CSV or JSON to cfg.output_path (or stdout); the columns
    are the first row's keys, and CSV writes floats as %.17g."""
    rows = [{key: _plain(v) for key, v in row.items()} for row in rows]
    if cfg.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rows[0]))
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else str(v)
                          for v in row.values()] for row in rows)
        if partial_at is not None:
            writer.writerow(["#PARTIAL"] + [""] * (len(rows[0]) - 1))
        text = buf.getvalue()
    else:
        doc = {"config": {key: _plain(v) for key, v in vars(cfg).items()},
               "rows": rows}
        if partial_at is not None:
            doc["partial"] = True
            doc["budget_exceeded_at_row"] = partial_at
        text = json.dumps(doc, indent=2) + "\n"
    if cfg.output_path:
        try:
            Path(cfg.output_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ParameterError(
                f"cannot write report {cfg.output_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def run_rows(cfg: ExperimentConfig, name: str, cells: Sequence,
             compute: Callable[..., tuple[dict, bool]]) -> int:
    """Compute one row per cell, in order, emit them and give the exit code.

    `compute(cell)` returns (row, ok), and the row gains `seed` and
    `wall_ms` (always 0) as its last two columns.  A row that takes longer
    than cfg.row_budget_s ends the run when rows remain: the rows so far are
    emitted, marked partial, and the exit code is EXIT_RESOURCE.
    Otherwise it is EXIT_CROSS_CHECK if any row was not ok.
    """
    rows: list[dict] = []
    failures = 0
    for i, cell in enumerate(cells, start=1):
        started = time.perf_counter()
        row, ok = compute(cell)
        rows.append({**row, "seed": cfg.seed, "wall_ms": 0})
        failures += not ok
        elapsed = time.perf_counter() - started
        _log(f"{name} row {i} of {len(cells)} took {elapsed:.2f}s")
        if elapsed > cfg.row_budget_s and i < len(cells):
            _log(f"row budget {cfg.row_budget_s:g}s exceeded; flushing "
                 f"{i} of {len(cells)} rows")
            emit(rows, cfg, partial_at=i)
            return EXIT_RESOURCE
    emit(rows, cfg)
    return EXIT_CROSS_CHECK if failures else EXIT_OK


def cmd_variance(cfg: ExperimentConfig) -> int:
    kind = WeightKind(cfg.kind)
    gamma_f = float(cfg.gamma)
    needs_t = kind in TWISTED_KINDS
    # each row sieves its own window; the cap is checked here, before any row
    sieving_primes(int(max(cfg.x_grid)))

    def row(X):
        Q = eval_q_rule(cfg.q_rule, X, gamma_f, cfg.a)
        t = eval_t_rule(cfg.t_rule, X, cfg.delta) if needs_t else 0.0
        warns = theorem_range_warnings(kind, X, Q, t, cfg.c, gamma_f,
                                       cfg.a, cfg.delta)
        for w in warns:
            _log(f"warning: {w}")
        if warns and not cfg.allow_out_of_range:
            raise ParameterError(
                "outside the admissible theorem range; rerun with "
                "--allow-out-of-range to proceed")
        w = build_weight_table(X, cfg.mu, kind, c=cfg.c, t=t,
                               gamma=ps_config(cfg.gamma))
        rep = variance_report(w, Q)
        if not rep.cross_check_ok:
            _log(f"cross-check FAILED at X={X:g}: rel={rep.cross_check_rel:.3e}"
                 f", transform gap={rep.transform_gap:.3e}")
        return {
            "X": float(X), "Q": Q, "mu": cfg.mu, "kind": cfg.kind,
            "gamma": cfg.gamma, "c": cfg.c, "t": t,
            "direct": rep.direct[0], "character": rep.character[0],
            "ratio": rep.ratios[0], "ratio_alt": rep.ratios[-1],
        }, rep.cross_check_ok

    return run_rows(cfg, "variance", cfg.x_grid, row)


def cmd_ps_count(cfg: ExperimentConfig) -> int:
    gamma = ps_config(cfg.gamma)
    # the cap is checked here, before any block is counted
    base = sieving_primes(int(max(cfg.x_grid)))

    def row(X):
        xi = int(X)
        if xi < 3:
            raise ParameterError(f"ps-count needs X >= 3, got {X}")
        # Two independent routes over [2, X] (1 is not prime), sieved a
        # block at a time and counted a window of psprimes._BLOCK n at a
        # time: the k-generator's members that are prime, and the
        # floor-difference identity at the primes.
        count = count_ind = 0
        mask = np.empty(_PS_COUNT_BLOCK, dtype=bool)  # one for all blocks
        for lo in range(2, xi + 1, _PS_COUNT_BLOCK):
            hi = min(xi, lo + _PS_COUNT_BLOCK - 1)
            is_prime = sieve_segment(lo, hi, base, out=mask[:hi - lo + 1])
            for a in range(lo, hi + 1, psprimes._BLOCK):
                b = min(hi, a + psprimes._BLOCK - 1)
                window = is_prime[a - lo:b - lo + 1]
                members = ps_array(a, b, gamma)
                count += int(np.count_nonzero(window[members - a]))
                primes = np.flatnonzero(window) + a
                count_ind += int(np.count_nonzero(
                    ps_indicator_at(primes, gamma)))
        if count != count_ind:
            _log(f"PS count mismatch at X={X:g}: generator {count}, "
                 f"indicator {count_ind}")
        main = ps_count_main_term(X, gamma)
        lx = math.log(X)
        err = abs(count - main) * lx * lx / float(X) ** float(gamma)
        return {"X": float(X), "gamma": cfg.gamma, "count": count,
                "main_term": main, "normalized_error": err}, count == count_ind

    return run_rows(cfg, "ps-count", cfg.x_grid, row)


def cmd_lemma3(cfg: ExperimentConfig) -> int:
    # each row sieves its own window; the cap is checked here, before any row
    sieving_primes(int(max(cfg.x_grid)))

    def row(i):
        X, j = cfg.x_grid[i // cfg.t_count], i % cfg.t_count
        try:
            t_cap = X ** (1.0 - cfg.c - cfg.delta)
        except ArithmeticError as exc:
            raise ParameterError(f"no t cap at X = {X:g}: {exc}") from exc
        t = t_cap * 10.0 ** (-(cfg.t_count - 1 - j) / 2.0)
        s = prime_exp_sum(X, cfg.mu, c=cfg.c, t=t)
        integral = main_term_integral(X, cfg.mu, c=cfg.c, t=t)
        diff = abs(s - integral)
        return {
            "X": float(X), "c": cfg.c, "t": t, "abs_diff": diff,
            "scaled_diff": diff / X,
            "reference_decay": X * math.exp(-math.log(X) ** 0.2),
        }, True

    # indices, not a list of (X, j): 10^9 cells would need tens of GB
    cells = range(len(cfg.x_grid) * cfg.t_count)
    return run_rows(cfg, "lemma3", cells, row)


def cmd_large_sieve(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = -math.inf

    def row(trial):
        nonlocal worst
        if trial == cfg.trials:  # the last cell: the worst ratio of all trials
            return {"trial": "max", "n": 0, "q": 0, "m": 0,
                    "ratio": worst}, True
        n = int(rng.integers(1, cfg.n_max + 1))
        q = int(rng.integers(1, cfg.q_max + 1))
        m = int(rng.integers(0, cfg.n_max + 1))
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ratio = large_sieve_check(m, q, coeffs).ratio
        worst = max(worst, ratio)
        ok = ratio <= 1.0 + 1e-9
        if not ok:
            _log(f"large sieve ratio {ratio:.12f} > 1 at trial {trial}")
        return {"trial": trial, "n": n, "q": q, "m": m, "ratio": ratio}, ok

    return run_rows(cfg, "large-sieve", range(cfg.trials + 1), row)


def cmd_vaaler(cfg: ExperimentConfig) -> int:
    check_vaaler_size(cfg.grid_points, max(cfg.h_list))  # before the grid
    ints = np.arange(-2, 4, dtype=np.float64)
    base = np.linspace(-2.0, 3.0, cfg.grid_points - ints.size)
    grid = np.sort(np.concatenate([base, ints]))
    psi = saw_psi(grid)

    def row(H):
        approx, majorant = vaaler_eval(grid, vaaler_expansion(int(H)))
        err = np.abs(psi - approx)
        violations = int(np.sum(err > majorant + 1e-12))
        return {"H": int(H), "max_error": float(err.max()),
                "max_majorant": float(majorant.max()),
                "violations": violations}, violations == 0

    return run_rows(cfg, "vaaler", cfg.h_list, row)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

# Every flag is `--` plus its field name with `_` as `-`, except these two.
_FLAG_NAMES = {"output_path": "--out", "output_format": "--format"}
_HELP = {
    "x_grid": "comma-separated X values",
    "kind": "weight kind (classic_exp, ps_plain, ...)",
    "q_rule": "fixed:V | x_over_log_pow:A | x_pow_gamma_over_log_pow:A",
    "t_rule": "fixed:V | x_pow:E (t = X^(E - delta))",
    "gamma": "decimal or exact u/v, e.g. 2426/2817",
    "a": "log-power A in theorem ranges",
    "threads": "accepted for compatibility (>= 1); has no effect",
    "h_list": "comma-separated H values",
    "allow_out_of_range": "proceed despite theorem-range warnings",
    "output_path": "output file (default stdout)",
    "output_format": "csv (default) or json",
}


def _shared_flags() -> argparse.ArgumentParser:
    """Flags of every subcommand: --config and one flag per ExperimentConfig
    field, whose dest is the field and whose value `_coerce` types, as in a
    config file.  The bool field is a switch."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, default in _DEFAULTS.items():
        switch = ({"action": "store_const", "const": "true"}
                  if isinstance(default, bool) else {})
        p.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")),
                       dest=key, help=_HELP.get(key), **switch)
    return p


COMMANDS = {
    "variance": (cmd_variance,
                 "direct vs character-decomposed variance over a X grid"),
    "ps-count": (cmd_ps_count,
                 "Piatetski-Shapiro prime counts against X^gamma/log X"),
    "lemma3": (cmd_lemma3,
               "prime exponential sum against its archimedean integral"),
    "large-sieve": (cmd_large_sieve,
                    "randomised primitive-character large-sieve ratios"),
    "vaaler": (cmd_vaaler,
               "sawtooth approximation error against its majorant"),
}


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    parser = argparse.ArgumentParser(
        prog="bdhvar",
        description="Progression-variance experiments for weighted prime "
                    "counts (exponential-sum and Piatetski-Shapiro weights).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=help_text)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = load_config_file(args.config) if args.config else {}
    for key, raw in vars(args).items():
        if key not in ("command", "config") and raw is not None:
            values[key] = _coerce(key, raw)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command][0](cfg)
    except ParameterError as exc:
        _log(f"error: {exc}")
        return EXIT_CONFIG
    except ResourceError as exc:
        _log(f"resource error: {exc}")
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
