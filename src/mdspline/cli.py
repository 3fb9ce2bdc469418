"""Command line interface: validate, matrix, eval, experiment."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

from . import oracle
from ._scalars import EXACT
from .assembler import DERIVATIVE, MIXED, RDE, RKI, build_matrix
from .errors import MDSplineError, SpaceValidationError
from .eval_api import eval_basis, eval_spline, greville
from .presets import HIGHLIGHT_FUNCTION, TABLE7_RANGE, preset_space, table7
from .spaces import MDSpace

FMT = "%.16e"
ROUTES = (RKI, RDE, MIXED, DERIVATIVE)
GREVILLE = "greville"      # `experiment --methods` name of the rki route


def _fmt(v) -> str:
    return FMT % float(v)


def _load_space(args) -> MDSpace:
    if getattr(args, "preset", None):
        return preset_space(args.preset)
    if not getattr(args, "space", None):
        raise SpaceValidationError("provide --space FILE or --preset NAME")
    with open(args.space) as fh:
        return MDSpace.from_json(fh.read())


def _write(args, output) -> int:
    """Send a computed output, a text or a list of CSV rows, to --out or to
    stdout. Commands compute it whole first, so bad input writes nothing."""
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out:
        if isinstance(output, str):
            print(output, file=out)
        else:
            csv.writer(out).writerows(output)
    return 0


def _route(method: str) -> str:
    return RKI if method == GREVILLE else method


def _exact_route(method: str) -> str:
    """The route whose exact replay is the oracle of `method`: the derivative
    route's exact replay equals the stable one, so it shares the rki oracle."""
    return RKI if method == DERIVATIVE else _route(method)


def cmd_validate(args) -> int:
    space = _load_space(args)
    s, t = space.extended_partitions()
    report = {
        "space": space.to_dict(),
        "dimension": space.dimension,
        "c0_dimension": space.associated_c0().dimension,
        "sections": len(space.section_decomposition().sections),
        "extended_partition_left": list(s),
        "extended_partition_right": list(t),
    }
    if args.json:
        return _write(args, json.dumps(report, indent=2))
    return _write(args, f"space: {space}\n"
                        f"K={space.dimension}, K0={report['c0_dimension']}, "
                        f"sections={report['sections']}\n"
                        f"left partition:  {' '.join(_fmt(v) for v in s)}\n"
                        f"right partition: {' '.join(_fmt(v) for v in t)}")


def cmd_matrix(args) -> int:
    if args.oracle and args.format != "json":
        raise ValueError("--oracle needs --format json")
    space = _load_space(args)
    bundle = build_matrix(space, args.method)
    meta = {
        "strategy": bundle.strategy,
        "rows": int(bundle.matrix.shape[0]),
        "cols": int(bundle.matrix.shape[1]),
        "space": str(bundle.space),
        "reference": str(bundle.orders[0].ref),
    }
    if args.format == "csv":
        return _write(args, [[f"# {key}", val] for key, val in meta.items()]
                      + [[_fmt(v) for v in row] for row in bundle.matrix])
    doc = dict(meta, matrix=bundle.matrix.tolist())
    if args.oracle:
        exact = build_matrix(space, _exact_route(args.method), EXACT)
        doc["matrix_exact"] = oracle.fraction_matrix_strings(exact.matrix)
        doc["oracle_error"] = oracle.matrix_error(bundle.matrix, exact.matrix)
    return _write(args, json.dumps(doc, indent=2))


def _parse_points(args, space: MDSpace) -> list[float]:
    if args.points:
        points = [float(tok) for tok in args.points.split(",")]
        outside = [x for x in points if not space.a <= x <= space.b]    # NaN too
        if outside:
            raise ValueError(f"points {outside} outside [{space.a}, {space.b}]")
        return points
    n = 11 if args.grid is None else args.grid
    if n < 2:
        raise ValueError(f"--grid needs at least 2 points, got {n}")
    a, b = space.a, space.b     # b itself: a + (b - a) may round past it
    return [a + (b - a) * i / (n - 1) for i in range(n - 1)] + [b]


def cmd_eval(args) -> int:
    space = _load_space(args)
    points = _parse_points(args, space)
    coeffs = None
    if args.coeffs:
        with open(args.coeffs) as fh:
            coeffs = [float(tok) for tok in fh.read().replace(",", " ").split()]
        if len(coeffs) != space.dimension:
            raise ValueError(f"expected {space.dimension} coefficients, got {len(coeffs)}")
        bad = [c for c in coeffs if not math.isfinite(c)]
        if bad:
            raise ValueError(f"coefficients {bad} are not finite")
    bundle = build_matrix(space, args.method)
    rows = [["greville"] + [_fmt(v) for v in greville(   # legacy joins keep order 0 only
        bundle if 1 in bundle.orders else build_matrix(space, RKI))]] if args.greville else []
    rows.append(["x"] + [f"N_{i}" for i in range(1, space.dimension + 1)]
                + ([] if coeffs is None else ["spline"]))
    for x in points:
        row = [_fmt(x)] + [_fmt(v) for v in eval_basis(bundle, x).scatter()]
        if coeffs is not None:
            row.append(_fmt(eval_spline(bundle, coeffs, x)))
        rows.append(row)
    return _write(args, rows)


def _experiment_values(name, methods, use_oracle) -> list:
    """Tables of one highlighted function at the breakpoints."""
    space = preset_space(name)
    fn = HIGHLIGHT_FUNCTION[name]
    bundles = {m: build_matrix(space, _route(m)) for m in methods}
    exact = oracle.exact_bundle(space) if use_oracle else None
    header = ["x"] + [f"value_{m}" for m in methods]
    if exact is not None:
        header += [f"abs_err_{m}" for m in methods] + [f"rel_err_{m}" for m in methods]
    rows = [header]
    for x in space.breakpoints:
        vals = {m: eval_basis(bundles[m], x).scatter()[fn - 1] for m in methods}
        row = [_fmt(x)] + [_fmt(vals[m]) for m in methods]
        if exact is not None:
            ev = oracle.eval_exact(exact, x)[fn - 1]
            errs = {m: oracle.value_error(vals[m], ev) for m in methods}
            row += [_fmt(errs[m][0]) for m in methods]
            row += [_fmt(errs[m][1]) for m in methods]
        rows.append(row)
    return rows


def _method_error(space, m) -> str:
    bundle = build_matrix(space, _route(m))
    exact = build_matrix(space, _exact_route(m), EXACT)
    return _fmt(oracle.matrix_error(bundle.matrix, exact.matrix))


def _experiment_matrix(name, methods) -> list:
    space = preset_space(name)
    return [["method", "matrix_error"]] + [[m, _method_error(space, m)] for m in methods]


def _experiment_table7(methods) -> list:
    rows = [["k1", "dimension"] + [f"matrix_error_{m}" for m in methods]]
    for k1 in TABLE7_RANGE[::2]:
        space = table7(k1)
        rows.append([k1, space.dimension] +
                    [_method_error(space, m) for m in methods])
    return rows


def cmd_experiment(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError(f"--methods names no method: {args.methods!r}")
    for m in methods:
        if _route(m) not in ROUTES:
            raise SpaceValidationError(f"unknown method {m!r}")
    if args.preset == "table7":
        rows = _experiment_table7(methods)
    elif args.preset in HIGHLIGHT_FUNCTION:
        rows = _experiment_values(args.preset, methods, args.oracle)
        if args.preset != "cox":
            rows += _experiment_matrix(args.preset, methods)
    else:
        rows = _experiment_matrix(args.preset, methods)
    return _write(args, rows)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mdspline",
                                description="Matrix representations of "
                                            "multi-degree spline bases")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, method=True):
        sp.add_argument("--space", help="JSON space description file")
        sp.add_argument("--preset", help="named benchmark space")
        sp.add_argument("--out", help="output file (default stdout)")
        if method:
            sp.add_argument("--method", default="rki",
                            choices=ROUTES)

    sp = sub.add_parser("validate", help="check a space and report dimensions")
    common(sp, method=False)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("matrix", help="write the representation matrix")
    common(sp)
    sp.add_argument("--format", default="csv", choices=["csv", "json"])
    sp.add_argument("--oracle", action="store_true",
                    help="add the exact matrix and its error (json format)")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("eval", help="evaluate the basis on points")
    common(sp)
    sp.add_argument("--points", help="comma-separated evaluation points")
    sp.add_argument("--grid", type=int, help="number of uniform grid points")
    sp.add_argument("--coeffs", help="file of spline coefficients")
    sp.add_argument("--greville", action="store_true",
                    help="prepend the abscissae vector")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("experiment", help="benchmark table reproduction")
    sp.add_argument("--preset", required=True)
    sp.add_argument("--methods", default=GREVILLE)
    sp.add_argument("--oracle", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_experiment)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:      # argparse exits 2 on bad usage, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except BrokenPipeError:        # an OSError, so caught before the clause below
        return 0
    except (SpaceValidationError, OSError, KeyError, ValueError) as exc:
        # str(KeyError) would quote the message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1
    except MDSplineError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
