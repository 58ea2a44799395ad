"""Command-line front end.

Subcommands: ``check-data`` (parse a dataset and print its stats), ``run``
(one experiment cell), ``sweep`` (full tuning sweep), ``instability``
(worst-case accelerated-descent separation experiment), ``norm-bounds``
(random search for transfer-matrix norm violations), ``verify`` (invariant
battery).  Exit codes: 0 success, 1 usage error or unwritable output, 2
data error, 3 numerical failure or divergence, 4 verification failure, 5
out of memory (here, or a sweep worker process died, say killed for
memory).  Failures print a single ``error: <kind>: <detail>`` line on
stderr.  Flag values override config-file values, which override defaults;
``--deterministic-output`` suppresses the timing lines so identical
invocations print identical bytes.  ``run`` and ``sweep`` make one flag per
key of ``OVERRIDES`` from ``harness.CONFIG_KEYS``; ``run`` spells
``--algorithm``, ``--eta`` and ``--seed`` in the singular.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import List, Optional

import numpy as np

from .dataio import DataFormatError, dataset_stats, load_dataset
from .diagnostics import (ConstructionError, InstabilityRegionError,
                          construct_instability_objective,
                          instability_experiment, norm_bound_draws,
                          norm_bound_sweep)
from .harness import (CONFIG_KEYS, ConfigError, OptimumError, build_config,
                      build_objective, cached_optimum, parse_config_file,
                      resolve_out_dir, run_cell, tune_and_sweep,
                      write_records_csv, write_records_json, write_sweep_csv,
                      write_sweep_json)
from .rng import StreamBundle
from .verify import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4
EXIT_WORKER = 5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _error_line(kind: str, detail) -> None:
    print(f"error: {kind}: {detail}", file=sys.stderr)


# config keys that run and sweep take as flags, in help order
OVERRIDES = ("algorithms", "M", "K", "etas", "seeds", "T", "eval_every",
             "lam", "dataset", "dim")


def _add_overrides(p: argparse.ArgumentParser, single: bool) -> None:
    """One flag per key of ``OVERRIDES``, its dest the key; with ``single``
    (``run``) a list key takes one value and is spelled in the singular."""
    for key in OVERRIDES:
        is_list = CONFIG_KEYS[key].is_list
        name = key.removesuffix("s") if single and is_list else key
        what = (" (one value)" if single else " (comma list)") if is_list else ""
        p.add_argument("--" + name.replace("_", "-"), dest=key,
                       metavar=name.upper(), help=f"overrides config key {key}{what}")


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--deterministic-output", action="store_true",
                        help="suppress timing lines for byte-stable stdout")

    parser = _Parser(prog="fedsim",
                     description="simulator for communication-limited "
                                 "distributed stochastic optimization")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("check-data", parents=[common],
                       help="parse a LibSVM dataset and print its statistics")
    p.add_argument("path", help="dataset file (optionally .gz)")
    p.add_argument("--dim", type=int, default=None,
                   help="declared feature dimension (default: max seen index)")
    p.set_defaults(handler=cmd_check_data)

    p = sub.add_parser("run", parents=[common],
                       help="run one (algorithm, M, K, eta, seed) cell")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out", default=None, help="output directory")
    _add_overrides(p, single=True)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", parents=[common],
                       help="run the tuning sweep and write records + sweep rows")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the sweep's chunks of cells; "
                        "any count writes the same bytes (default 1)")
    _add_overrides(p, single=False)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("instability", parents=[common],
                       help="accelerated-descent initial-value instability "
                            "experiment on the constructed 1-D objective")
    p.add_argument("--kappa", type=float, default=25.0,
                   help="condition number (>= 25, default 25)")
    p.add_argument("--K", type=int, default=4, help="3-step stages (default 4)")
    p.add_argument("--eps", type=float, default=1e-9,
                   help="initial offset between the trajectories (default 1e-9)")
    p.set_defaults(handler=cmd_instability)

    p = sub.add_parser("norm-bounds", parents=[common],
                       help="random-search the transfer-matrix transformed "
                            "norm against its closed-form bounds")
    p.add_argument("--mu", type=float, default=0.1, help="strong convexity")
    p.add_argument("--L", type=float, default=10.0, help="smoothness")
    p.add_argument("--samples", type=int, default=200,
                   help="random (gamma, eta) pairs (default 200)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(handler=cmd_norm_bounds)

    p = sub.add_parser("verify", parents=[common],
                       help="run the invariant battery; nonzero exit on failure")
    p.set_defaults(handler=cmd_verify)

    return parser


def cmd_check_data(args) -> int:
    if args.dim is not None and args.dim < 1:
        raise UsageError(f"--dim must be >= 1, got {args.dim}")
    stats = dataset_stats(load_dataset(args.path, args.dim))
    print(f"n={stats.n} dim={stats.dim} "
          f"max_row_norm_sq={stats.max_row_norm_sq:.6g} "
          f"mean_row_norm_sq={stats.mean_row_norm_sq:.6g}")
    return EXIT_OK


def _setup(args, single: bool):
    """Build the config from ``--config`` and the override flags (``run``:
    one value per list key), create the out dir, and solve for F*."""
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    overrides = {key: getattr(args, key) for key in OVERRIDES
                 if getattr(args, key) is not None}
    cfg = build_config(parse_config_file(path), overrides)
    for key, spec in CONFIG_KEYS.items():
        n = len(getattr(cfg, spec.field)) if spec.is_list else 1
        if single and n != 1:
            raise UsageError(f"run needs exactly one value for {key}, got {n}")
    out = resolve_out_dir(args.out, cfg)
    out.mkdir(parents=True, exist_ok=True)
    obj, ds = build_objective(cfg)
    opt = cached_optimum(obj, ds, cfg.lam, cfg.opt_tol,
                         out / "optimum_cache.json")
    return cfg, out, obj, opt.f_star


def cmd_run(args) -> int:
    start = time.perf_counter()
    cfg, out, obj, f_star = _setup(args, single=True)
    alg, m, k = cfg.algorithms[0], cfg.m_list[0], cfg.k_list[0]
    eta, seed = cfg.etas[0], cfg.seeds[0]
    cell = run_cell(obj, alg, m, k, eta, cfg.t, seed, cfg.eval_every, f_star)
    write_records_csv([cell], out / "records.csv")
    write_records_json([cell], out / "records.json")
    last = cell.records[-1]
    print(f"{alg} M={m} K={k} eta={eta} seed={seed}: "
          f"final suboptimality {last.suboptimality:.6e}, "
          f"best {cell.best():.6e}")
    if cell.rho_suboptimality is not None:
        print(f"decay-weighted average suboptimality "
              f"{cell.rho_suboptimality:.6e}")
    print(f"wrote {out / 'records.csv'} and {out / 'records.json'}")
    if not args.deterministic_output:
        print(f"elapsed {time.perf_counter() - start:.2f}s")
    if cell.diverged:
        _error_line("numerical", "cell diverged; records carry inf tail")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    cfg, out, obj, f_star = _setup(args, single=False)
    cells, rows = tune_and_sweep(cfg, obj, f_star, threads=args.threads)
    write_records_csv(cells, out / "records.csv")
    write_records_json(cells, out / "records.json")
    write_sweep_csv(rows, out / "sweep.csv")
    write_sweep_json(rows, out / "sweep.json")
    print(f"{'algorithm':<14}{'M':>6}{'K':>6}{'best_eta':>12}{'best_subopt':>16}")
    for row in rows:
        print(f"{row.algorithm:<14}{row.m:>6}{row.k:>6}"
              f"{row.best_eta:>12.4g}{row.best_suboptimality:>16.6e}")
    print(f"wrote records and sweep artifacts to {out}")
    if not args.deterministic_output:
        print(f"elapsed {time.perf_counter() - start:.2f}s")
    if all(not np.isfinite(row.best_suboptimality) for row in rows):
        _error_line("numerical", "every configuration diverged on the whole grid")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_instability(args) -> int:
    if args.K < 0:
        raise UsageError("--K must be >= 0")
    if not 0 <= args.eps < np.inf:
        raise UsageError("--eps must be finite and >= 0")
    if not np.isfinite(args.kappa):
        raise UsageError("--kappa must be finite")
    objective, w0, w0_ag, delta = construct_instability_objective(
        args.kappa, 1.0, args.K)
    result = instability_experiment(objective, w0, w0_ag, args.kappa, 1.0,
                                    args.eps, args.K)
    print(f"kappa={args.kappa:g} K={args.K} eps={args.eps:g} "
          f"clearance delta={delta:.6e}")
    print(f"analytic per-3-step amplification {result.amplification:.6f}")
    print(f"{'block':>6}{'gap_ag':>15}{'gap_w':>15}{'ratio':>12}")
    for i in range(args.K):
        gap_ag, gap_w = result.block_gaps[i + 1]
        print(f"{i + 1:>6}{gap_ag:>15.6e}{gap_w:>15.6e}{result.ratios[i]:>12.6f}")
    verdict = result.verdict(args.eps)
    print(f"final |gap_w|={result.final_gap_w:.6e} "
          f"(predicted {result.predicted_gap_w:.6e}, floor {verdict.gap_floor:.6e})")
    print(f"final |gap_ag|={result.final_gap_w_ag:.6e} "
          f"(predicted {result.predicted_gap_w_ag:.6e})")
    print(f"projector-map relative error {result.max_map_error:.3e}")
    if not verdict.ok:
        _error_line("verification",
                    f"measured amplification deviates from closed form "
                    f"(ratio err {verdict.ratio_error:.2e}, map err "
                    f"{result.max_map_error:.2e})")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_norm_bounds(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if not (0 < args.mu <= args.L < np.inf):
        raise UsageError("need 0 < mu <= L < inf")
    u = StreamBundle(args.seed, [0]).uniforms(2 * args.samples).reshape(-1, 2)
    gammas, etas = norm_bound_draws(u, args.mu, args.L)
    report = norm_bound_sweep(args.mu, args.L, list(zip(gammas, etas)))
    for schedule in ("fedac1", "fedac2"):
        rows = [r for r in report.rows if r.schedule == schedule]
        worst = min(r.margin for r in rows)
        print(f"{schedule}: {len(rows)} points, worst margin {worst:.6e}")
    bad = report.violations
    print(f"violations: {len(bad)}")
    if bad:
        worst = min(bad, key=lambda r: r.margin)
        _error_line("verification",
                    f"norm bound violated at schedule={worst.schedule} "
                    f"gamma={worst.gamma!r} eta={worst.eta!r} "
                    f"(margin {worst.margin:.3e})")
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all()
    failed = sum(not result.passed for result in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        timing = "" if args.deterministic_output else f" [{result.elapsed:.2f}s]"
        print(f"{status} {result.name}{timing}: {result.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    if failed:
        _error_line("verification", f"{failed} check(s) failed")
        return EXIT_VERIFICATION
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        _error_line("usage", exc)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return EXIT_OK if not exc.code else EXIT_USAGE
    if getattr(args, "handler", None) is None:
        print(parser.format_usage().rstrip(), file=sys.stderr)
        _error_line("usage", "a subcommand is required")
        return EXIT_USAGE
    try:
        return args.handler(args)
    except (UsageError, ConfigError) as exc:
        _error_line("usage", exc)
        return EXIT_USAGE
    except DataFormatError as exc:
        _error_line("data", exc)
        return EXIT_DATA
    except OSError as exc:  # an unreadable input raises one of the above
        _error_line("output", exc)
        return EXIT_USAGE
    # DivergenceError is an ArithmeticError and ScheduleError a ValueError
    except (ValueError, ArithmeticError, OptimumError, ConstructionError,
            InstabilityRegionError) as exc:
        _error_line("numerical", exc)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        _error_line("memory", str(exc) or "out of memory")
        return EXIT_WORKER
    except BrokenExecutor as exc:  # a sweep worker process died
        _error_line("worker", exc)
        return EXIT_WORKER


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
