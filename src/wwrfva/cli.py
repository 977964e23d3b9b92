"""Command-line front end.

Verbs:
  fva             run the pipeline, write fva_report.json + profile.csv
  sensi           finite-difference sensitivities, write sensi.csv
  bounds          truncation/error bound report, write bounds.csv
  export-cube     simulate and dump the scenario cube to a binary file
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import METHODS, __version__


def _orders(text: str) -> tuple[int, ...]:
    """The value of --orders: comma-separated non-negative integers."""
    try:
        orders = tuple(int(x) for x in text.split(","))
        if min(orders) >= 0:
            return orders
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated non-negative integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wwrfva",
        description="Funding valuation adjustment with wrong-way risk: "
                    "Monte Carlo benchmark and Gaussian approximation.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    # Each setting flag's dest is the RunSettings field it overrides; an
    # absent flag stays None and leaves the config's value.
    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--seed", type=int)
        p.add_argument("--paths", dest="n_paths", metavar="PATHS", type=int,
                       help="number of simulated paths")
        p.add_argument("--dates-per-year", type=int)
        p.add_argument("--n-r", type=int, help="rate expansion order")
        p.add_argument("--n-a", type=int, help="payment-date expansion order")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--benchmark", action="store_const", const=True,
                       help="also run the Monte Carlo benchmark")

    p_fva = sub.add_parser("fva", help="compute FVA and its WWR split")
    common(p_fva)

    p_sensi = sub.add_parser("sensi", help="finite-difference sensitivities")
    common(p_sensi)
    p_sensi.add_argument("--bump", action="append", default=[],
                         metavar="TARGET:QUALIFIER[:SIZE]",
                         help="repeatable; e.g. ir_parallel:EUR:1e-4, "
                              "correlation:r_EUR/lambda_I:0.01")
    p_sensi.add_argument("--cross", nargs=2, metavar=("BUMP_A", "BUMP_B"),
                         help="mixed second difference across two bumps")

    p_bounds = sub.add_parser("bounds", help="error bound report")
    common(p_bounds)
    p_bounds.add_argument("--orders", default="1,2,3", type=_orders,
                          help="comma-separated extra expansion orders (>= 0)")

    p_cube = sub.add_parser("export-cube", help="dump the simulated cube")
    common(p_cube)
    p_cube.add_argument("--mode", choices=["base", "full"], default="base")
    return ap


def _apply_overrides(settings, args):
    over = {f.name: getattr(args, f.name) for f in dataclasses.fields(settings)
            if getattr(args, f.name, None) is not None}
    return dataclasses.replace(settings, **over)


def _run(args) -> int:
    from .fva import (load_run_config, run_fva, validate_inputs,
                      write_profile_csv, write_report_json)

    if args.benchmark and args.verb != "fva":
        raise ValueError(f"{args.verb} does not run the Monte Carlo benchmark; "
                         "drop --benchmark")
    inputs, settings = load_run_config(args.config)
    settings = _apply_overrides(settings, args)
    validate_inputs(inputs, settings)
    os.makedirs(args.out, exist_ok=True)

    if args.verb == "fva":
        report = run_fva(inputs, settings)
        write_profile_csv(report.profile, os.path.join(args.out, "profile.csv"))
        write_report_json(report, os.path.join(args.out, "fva_report.json"))
        print(f"fva_indep={report.fva_indep:.6f} "
              f"fva_wwr={report.fva_wwr:.6f} "
              f"fva_total={report.fva_total:.6f} "
              f"wwr_pct={report.wwr_pct:.3f} method={report.method}")
        if report.wwr_rd_vs_mc is not None:
            print(f"wwr_rd_vs_mc={report.wwr_rd_vs_mc:.4f}% "
                  f"fva_wwr_mc={report.fva_wwr_mc:.6f}"
                  f"+-{report.fva_wwr_mc_se:.6f}")
        return 0

    if args.verb == "sensi":
        from .sensitivities import fd_sensitivities, parse_bump, write_sensi_csv
        if not args.bump and not args.cross:
            raise ValueError("sensi needs at least one --bump or --cross")
        cross = tuple(parse_bump(text, inputs) for text in args.cross) if args.cross else None
        rows = fd_sensitivities(inputs, settings,
                                [parse_bump(text, inputs) for text in args.bump], cross)
        write_sensi_csv(rows, os.path.join(args.out, "sensi.csv"))
        for r in rows:
            print(f"{r.target}: d_indep={r.d_fva_indep:.6g} "
                  f"d_wwr={r.d_fva_wwr:.6g} d_total={r.d_fva_total:.6g}")
        return 0

    if args.verb == "bounds":
        from .bounds import bound_rows, write_bounds_csv
        from .fva import build_correlation_for, build_model_set, make_grid
        from .instruments import PortfolioValuation
        from .mc import PathStream
        s = inputs.portfolio.single_swap
        if s is None:
            raise ValueError("bounds report needs a single-swap portfolio")
        models = build_model_set(inputs)
        corr = build_correlation_for(models, inputs.correlations)
        stream = PathStream(models, corr, make_grid(inputs, settings),
                            settings.n_paths, settings.seed, "full")
        valuation = PortfolioValuation(inputs.portfolio, models, stream.dates)
        rows = bound_rows(s, models, stream,
                          ((st, valuation.row(st)) for st in stream),
                          settings.n_r, args.orders)
        write_bounds_csv(rows, os.path.join(args.out, "bounds.csv"))
        print(f"wrote {len(rows)} bound rows")
        return 0

    if args.verb == "export-cube":
        from .fva import build_correlation_for, build_model_set, make_grid
        from .mc import dump_cube, simulate
        models = build_model_set(inputs)
        corr = build_correlation_for(models, inputs.correlations)
        cube = simulate(models, corr, make_grid(inputs, settings),
                        settings.n_paths, settings.seed, args.mode)
        path = os.path.join(args.out, f"cube_{args.mode}.bin")
        dump_cube(cube, path)
        print(f"wrote {path}")
        return 0

    raise ValueError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
