"""Command-line surface: build fields, compute and predict clique numbers,
survey subspace families, run verification suites, inspect forms, and
benchmark the solver.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 budget or
time limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import statistics
import sys
import time

from .errors import (
    BudgetExceeded,
    CapExceeded,
    DegreeOutOfRange,
    NonPrime,
    ParseError,
    PaleyvecError,
    TimeLimitExceeded,
)
from .forms import BilinearForm, M_of_form, chi_of_form
from .gf import DEFAULT_TABLE_LIMIT, build_field, parse_field_spec, power_exceeds
from .graph import (
    SolveStats,
    build_graph,
    check_vertex_budget,
    clique_number_exact,
    decompose_clique,
)
from .linalg import (
    all_hyperplanes,
    all_subspaces,
    parse_subspace,
)
from .predict import predict_omega
from .suites import SUITES, run_suite, suite_fields

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _time_limit(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text!r}")
    return value


def _field_from_args(args) -> "FieldCtx":
    p, m, n = parse_field_spec(args.field)
    return build_field(p, m, n)


def _emit(args, payload: dict) -> None:
    if getattr(args, "format", "json") == "human":
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(payload, sort_keys=True))


def _poly_str(ctx, a: int) -> str:
    coords = ctx.element_coords(a)
    terms = []
    for i, c in enumerate(coords):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}*y" if c != 1 else "y")
        else:
            terms.append(f"{c}*y^{i}" if c != 1 else f"y^{i}")
    return " + ".join(terms) if terms else "0"


def cmd_field(args) -> int:
    if args.print_modulus:
        # the moduli need no tables, which are most of a tabled build
        ctx = build_field(*parse_field_spec(args.field), table_limit=0)
        print("base_modulus=" + ",".join(str(c) for c in ctx.base_modulus))
        print("ext_modulus=" + ",".join(str(c) for c in ctx.ext_modulus))
        return EXIT_OK
    _emit(args, {"schema": 1, **_field_from_args(args).describe()})
    return EXIT_OK


def cmd_omega(args) -> int:
    if args.mode in ("exact", "both"):
        # refuse before the field build: 0.9 s at the table limit (2^1^20, 2-CPU Xeon)
        p, m, n = parse_field_spec(args.field)
        if power_exceeds(p, m * n, DEFAULT_TABLE_LIMIT):
            raise BudgetExceeded(
                f"exact solves need the field's tables: order {p}^{m * n} exceeds"
                f" the table limit {DEFAULT_TABLE_LIMIT}"
            )
        check_vertex_budget(p ** (m * n), args.max_vertices)
    ctx = _field_from_args(args)
    U = parse_subspace(ctx, args.subspace)
    if not 1 <= U.dim <= ctx.n - 1:
        raise ParseError(f"subspace dimension {U.dim} out of range 1..{ctx.n - 1}")
    payload: dict = {
        "schema": 1,
        "field": {"p": ctx.p, "m": ctx.m, "n": ctx.n, "q": ctx.q, "order": ctx.order},
        "subspace": {"basis": list(U.basis), "dim": U.dim},
        "mode": args.mode,
    }
    prediction = None
    if args.mode in ("predict", "both"):
        prediction = predict_omega(U)
        payload["predicted"] = prediction.describe()
    if args.mode in ("exact", "both"):
        start = time.monotonic()
        G = build_graph(ctx, U, max_vertices=args.max_vertices)
        stats = SolveStats()
        omega, witness = clique_number_exact(G, time_limit=args.time_limit, stats=stats)
        t, V1, _ = decompose_clique(G, witness)
        payload["exact"] = omega
        payload["witness"] = list(witness)
        payload["decomposition"] = {"t": t, "r": len(V1)}
        payload["search"] = dataclasses.asdict(stats)
        payload["runtime_ms"] = round((time.monotonic() - start) * 1000.0, 3)
        if prediction is not None:
            payload["match"] = prediction.admits(omega)
    _emit(args, payload)
    return EXIT_OK


def _survey_dims(ctx, spec: str) -> list[int]:
    dims = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "n-1":
            dims.add(ctx.n - 1)
        else:
            try:
                dims.add(int(token))
            except ValueError as exc:
                raise ParseError(f"bad dimension {token!r}") from exc
    for d in dims:
        if not 1 <= d <= ctx.n - 1:
            raise ParseError(f"dimension {d} out of range 1..{ctx.n - 1}")
    return sorted(dims)


def cmd_survey(args) -> int:
    ctx = _field_from_args(args)
    dims = _survey_dims(ctx, args.dim)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["field", "basis", "dim", "has_square", "D", "s", "predicted", "omega", "match"]
    )
    field_str = f"{ctx.p}^{ctx.m}^{ctx.n}"
    exact_mismatch = False
    for d in dims:
        for U in all_subspaces(ctx, d):
            pred = predict_omega(U)
            inv = pred.invariants
            D = "" if inv.D is None else inv.D
            s = "" if inv.s is None else inv.s
            G = build_graph(ctx, U, max_vertices=args.max_vertices)
            omega, _ = clique_number_exact(G, time_limit=args.time_limit)
            match = pred.admits(omega)
            if pred.kind == "exact" and not match:
                exact_mismatch = True
            if args.pretty:
                basis_txt = "; ".join(_poly_str(ctx, b) for b in U.basis)
            else:
                basis_txt = ",".join(str(b) for b in U.basis)
            predicted = pred.value if pred.kind == "exact" else f"{pred.lo}..{pred.hi}"
            writer.writerow([field_str, basis_txt, d, int(inv.has_square), D, s,
                             predicted, omega, int(match)])
    return EXIT_VERIFICATION if exact_mismatch else EXIT_OK


def cmd_verify(args) -> int:
    for flag, value in (("--qmax", args.qmax), ("--nmax", args.nmax)):
        if value is not None and value < 2:
            raise ParseError(f"{flag} {value} selects no field: q and n are at least 2")
    if args.suite != "all" and not suite_fields(args.suite, args.qmax, args.nmax):
        raise ParseError(f"the filter selects no field of suite {args.suite}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    reports = []
    for name in names:
        report = run_suite(name, qmax=args.qmax, nmax=args.nmax)
        failures += len(report.failures)
        reports.append(report.to_json())
    out = reports[0] if len(reports) == 1 else {"schema": 1, "suites": reports}
    print(json.dumps(out, sort_keys=True))
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_form(args) -> int:
    p, m, n = parse_field_spec(args.field)
    if args.lam < 1 or not power_exceeds(p, m * n, args.lam):
        raise ParseError(f"--lambda {args.lam} is not in 1..q^n - 1 for field {args.field}")
    ctx = build_field(p, m, n)
    B = BilinearForm.trace_form(ctx, args.lam)
    inv = M_of_form(B)
    payload = {
        "schema": 1,
        "field": {"p": ctx.p, "m": ctx.m, "n": ctx.n, "q": ctx.q, "order": ctx.order},
        "lambda": args.lam,
        "gram": [list(r) for r in B.gram_matrix()],
        "t": inv.t,
        "witness_W": list(inv.witness_W.basis),
        "M": inv.M,
        "witness_E": list(inv.witness_E),
    }
    if ctx.p != 2:
        payload["chi"] = chi_of_form(B)
    else:
        payload["M_upper"] = inv.M_upper
    _emit(args, payload)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.limit < 0:
        raise ParseError(f"--limit must be at least 0, got {args.limit}")
    ctx = _field_from_args(args)
    classes: list[tuple[str, list]] = []
    if args.dim:
        dims = _survey_dims(ctx, args.dim)
    else:
        dims = [ctx.n - 1]
    for d in dims:
        if d == ctx.n - 1:
            family = (U for _, U in all_hyperplanes(ctx))
        else:
            family = all_subspaces(ctx, d)
        classes.append((f"dim-{d}", list(itertools.islice(family, args.limit))))
    rows = []
    for label, family in classes:
        if not family:
            continue
        build_ms: list[float] = []
        solve_ms: list[float] = []
        nodes: list[int] = []
        for U in family:
            t0 = time.perf_counter()
            G = build_graph(ctx, U, max_vertices=args.max_vertices)
            t1 = time.perf_counter()
            stats = SolveStats()
            clique_number_exact(G, time_limit=args.time_limit, stats=stats)
            t2 = time.perf_counter()
            build_ms.append((t1 - t0) * 1000)
            solve_ms.append((t2 - t1) * 1000)
            nodes.append(stats.nodes)
        row = {"class": label, "instances": len(family)}
        for name, times in (("build_graph", build_ms), ("clique_number_exact", solve_ms)):
            row[f"{name}_median_ms"] = round(statistics.median(times), 3)
            row[f"{name}_p95_ms"] = round(_p95(times), 3)
        row["nodes_median"] = statistics.median(nodes)
        rows.append(row)
    if args.format == "json":
        print(json.dumps({"schema": 1, "classes": rows}, sort_keys=True))
    elif rows:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(r.values() for r in rows)
    return EXIT_OK


def _p95(xs: list[float]) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(0.95 * len(xs)))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paleyvec",
        description="Product-subspace graphs over finite field towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--max-vertices", type=_positive_int, default=None,
                       help="vertex budget (default from PALEYVEC_BUDGET_VERTICES)")
        p.add_argument("--time-limit", type=_time_limit, default=None,
                       help="seconds, positive and finite")

    p_field = sub.add_parser("field", help="build a field tower and show its data")
    p_field.add_argument("field", help="field spec: p^m^n or q=<p^m>,n=<n>")
    p_field.add_argument("--print-modulus", action="store_true")
    p_field.add_argument("--format", choices=["json", "human"], default="json")
    p_field.set_defaults(func=cmd_field)

    p_omega = sub.add_parser("omega", help="exact and/or predicted clique number")
    p_omega.add_argument("--field", required=True)
    p_omega.add_argument("--subspace", required=True,
                         help="basis=i,j,... or ker-trace-of=c")
    p_omega.add_argument("--mode", choices=["exact", "predict", "both"], default="both")
    add_common(p_omega, formats=("json", "human"))
    p_omega.set_defaults(func=cmd_omega)

    p_survey = sub.add_parser("survey", help="CSV survey over a subspace family")
    p_survey.add_argument("--field", required=True)
    p_survey.add_argument("--dim", default="1,2,n-1",
                          help="comma-separated dimensions, n-1 allowed")
    p_survey.add_argument("--pretty", action="store_true",
                          help="render basis elements as polynomials")
    add_common(p_survey, formats=("csv",))
    p_survey.set_defaults(func=cmd_survey)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--qmax", type=int, default=None)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_form = sub.add_parser("form", help="invariants of a trace bilinear form")
    p_form.add_argument("--field", required=True)
    p_form.add_argument("--lambda", dest="lam", type=int, required=True)
    p_form.add_argument("--format", choices=["json", "human"], default="json")
    p_form.set_defaults(func=cmd_form)

    p_bench = sub.add_parser(
        "bench", help="median and p95 ms of graph build and exact solve, per class"
    )
    p_bench.add_argument("--field", required=True)
    p_bench.add_argument("--dim", default="")
    p_bench.add_argument("--limit", type=int, default=50,
                         help="instances per class")
    add_common(p_bench, formats=("csv", "json"))
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NonPrime, DegreeOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceeded, CapExceeded, TimeLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PaleyvecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
