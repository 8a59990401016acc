"""Command-line surface: point evaluations, defect scans, verification, reports.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or config error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .commutativity import defect, asymptotic_slopes
from .config import KEY_TO_FIELD, ConfigError, RunConfig, build_config
from .errors import NonConvergenceError
from .scan import cache_from_config, compute_scan, fmt17, rows_to_csv, rows_to_svg
from .special import WeightParams, reproducing_kernel, stieltjes_moment
from .verify import CHECK_NAMES, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


def _complex_pair(text):
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected RE,IM (e.g. 1.5,-0.25), got {text!r}") from None


def _float_list(text):
    if not text.strip():
        return []
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated reals, got {text!r}") from None


def _add_config_flags(p):
    p.add_argument("--config", metavar="PATH",
                   help="config file with key = value lines (# comments)")
    p.add_argument("--tol-series", type=float, dest="tol_series",
                   help="relative series truncation tolerance")
    p.add_argument("--tol-quad-rel", type=float, dest="tol_quad_rel",
                   help="relative quadrature tolerance")
    p.add_argument("--series-max-terms", type=int, dest="series_max_terms")
    p.add_argument("--quad-max-levels", type=int, dest="quad_max_levels")
    p.add_argument("--defect-kappa", type=float, dest="defect_kappa",
                   help="significance threshold in error-bound units")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockberezin",
        description="Weighted Fock-space kernels and Berezin transform "
                    "commutativity certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate the reproducing kernel K(z, w)")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--z", type=_complex_pair, required=True, metavar="RE,IM")
    p.add_argument("--w", type=_complex_pair, required=True, metavar="RE,IM")
    _add_config_flags(p)

    p = sub.add_parser("defect", help="commutator defect report at one point")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_config_flags(p)

    p = sub.add_parser("scan", help="defect scan over (m, delta) to CSV/SVG")
    p.add_argument("--m", type=_float_list, required=True, metavar="M[,M...]")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--deltas", type=_float_list, required=True,
                   metavar="D[,D...]", help="delta grid; empty gives header-only CSV")
    p.add_argument("--out", required=True, metavar="CSV_PATH")
    p.add_argument("--svg", metavar="SVG_PATH", help="optional chart output")
    _add_config_flags(p)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", type=lambda s: [x.strip() for x in s.split(",") if x.strip()],
                   metavar="NAME[,NAME...]",
                   help=f"subset of checks; known: {', '.join(CHECK_NAMES)}")
    _add_config_flags(p)

    p = sub.add_parser("moments", help="print log Stieltjes moments")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_config_flags(p)

    p = sub.add_parser("asymptotics", help="fit large-beta scaling slopes")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta-min", type=float, required=True, dest="beta_min")
    p.add_argument("--beta-max", type=float, required=True, dest="beta_max")
    p.add_argument("--nodes", type=int, default=7)
    _add_config_flags(p)

    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {k: getattr(args, k, None) for k in KEY_TO_FIELD.values()}
    return build_config(getattr(args, "config", None), overrides)


def _warn_domain(*params: WeightParams):
    for p in params:
        if not p.in_guaranteed_domain:
            print(f"warning: (alpha={p.alpha:g}, m={p.m:g}) is outside the "
                  "validated accuracy domain; results are unguaranteed",
                  file=sys.stderr)


def cmd_kernel(args, cfg):
    params = WeightParams(args.alpha, args.m)
    _warn_domain(params)
    k = reproducing_kernel(params, args.z, args.w, tol=cfg.tol_series,
                           max_terms=cfg.series_max_terms)
    v = complex(k.value)
    print(f"K(z, w) = {fmt17(v.real)} + {fmt17(v.imag)}i")
    print(f"log|K| = {fmt17(k.log_magnitude)}")
    ph = complex(k.phase_or_sign)
    print(f"phase = {fmt17(ph.real)} + {fmt17(ph.imag)}i")
    print(f"terms = {k.truncation_terms}")
    print(f"relative error bound = {fmt17(k.truncation_error_bound)}")
    return EXIT_OK


def cmd_defect(args, cfg):
    _warn_domain(WeightParams(args.alpha, args.m), WeightParams(args.beta, args.m))
    cache = cache_from_config(cfg)
    rep = defect(args.alpha, args.beta, args.m, args.delta,
                 kappa=cfg.defect_kappa, cache=cache)
    print(f"m = {fmt17(args.m)}  alpha = {fmt17(args.alpha)}  "
          f"beta = {fmt17(args.beta)}  delta = {fmt17(args.delta)}")
    print(f"forward  (outer beta)  = {fmt17(rep.forward.value)}  "
          f"[{rep.forward.n_terms} terms, bound {fmt17(rep.forward.error_bound)}]")
    print(f"backward (outer alpha) = {fmt17(rep.backward.value)}  "
          f"[{rep.backward.n_terms} terms, bound {fmt17(rep.backward.error_bound)}]")
    print(f"defect = {fmt17(rep.defect)}")
    print(f"combined error bound = {fmt17(rep.combined_error)}")
    print(f"significant (kappa = {rep.kappa:g}): {'true' if rep.significant else 'false'}")
    return EXIT_OK


def cmd_scan(args, cfg):
    for m in args.m:
        _warn_domain(WeightParams(args.alpha, m), WeightParams(args.beta, m))
    rows = compute_scan(args.m, args.alpha, args.beta, args.deltas, cfg)
    outputs = [(args.out, rows_to_csv, f"wrote {len(rows)} rows to {args.out}")]
    if args.svg:
        outputs.append((args.svg, rows_to_svg, f"wrote chart to {args.svg}"))
    for path, render, note in outputs:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(render(rows))
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(note)
    return EXIT_OK


def cmd_verify(args, cfg):
    results = run_checks(args.only, cfg, report=lambda res: print(res.line()))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAIL


def cmd_moments(args, cfg):
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    params = WeightParams(args.alpha, args.m)
    _warn_domain(params)
    print("n,log_s_n")
    for n in range(args.n_max + 1):
        print(f"{n},{fmt17(stieltjes_moment(params, n))}")
    return EXIT_OK


def cmd_asymptotics(args, cfg):
    if args.nodes < 3:
        raise ValueError(f"--nodes must be >= 3, got {args.nodes}")
    _warn_domain(WeightParams(args.alpha, args.m))
    grid = np.geomspace(args.beta_min, args.beta_max, args.nodes)
    cache = cache_from_config(cfg)
    s0, sp = asymptotic_slopes(args.m, args.alpha, grid, cache=cache)
    p = int(round(args.m)) // 2
    print(f"beta grid: {', '.join(fmt17(b) for b in grid)}")
    print(f"slope_0 = {fmt17(s0)}   (expected {fmt17(-1.0 / p)})")
    print(f"slope_p = {fmt17(sp)}   (expected {fmt17(-(p + 1.0) / p)})")
    return EXIT_OK


_COMMANDS = {
    "kernel": cmd_kernel,
    "defect": cmd_defect,
    "scan": cmd_scan,
    "verify": cmd_verify,
    "moments": cmd_moments,
    "asymptotics": cmd_asymptotics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
