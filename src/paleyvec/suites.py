"""Verification suites: sweep instance families and reconcile formulas
with the exact solver.

Each suite returns a report with the instance count and a list of
failure records; an empty failure list is a pass.  Instance families are
deterministic: full subspace sweeps for small fields, complete coverage
of the exactly-predicted dimensions (1, 2, n-1) plus seeded mid-dimension
samples for larger ones.  Results of exact solves are cached per process
so repeated suites and cross-configuration comparisons stay cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import CapExceeded, PaleyvecError, PreconditionViolated, StructureViolation
from .forms import (
    BilinearForm,
    chi_of_form,
    special_basis,
    t_of_form,
    verify_orthogonal_set,
)
from .gf import FieldCtx, build_field
from .graph import build_graph, clique_number_exact, decompose_clique, enumerate_maximal_cliques
from .linalg import Subspace, all_hyperplanes, all_subspaces, hyperplane_from_functional, span
from .predict import (
    bounds_report,
    check_corollary_q_power,
    hyperplane_omega,
    isomorphism_class_census,
    omega_qn,
    predict_omega,
    sum_product_check,
)

# (p, m, n) grids; q = p^m
HYPERPLANE_GRID = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
    (3, 1, 2), (3, 1, 3), (3, 1, 4),
    (2, 2, 2), (2, 2, 3),
    (5, 1, 2), (7, 1, 2), (3, 2, 2),
    (3, 1, 5),
]

LOW_DIM_GRID = [
    (p, m, n)
    for (p, m) in [(2, 1), (3, 1), (2, 2), (5, 1)]
    for n in (2, 3, 4)
    if (p**m) ** n <= 1024
]

BOUNDS_GRID = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 1, 7), (2, 1, 8),
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5),
    (2, 2, 2), (2, 2, 3), (2, 2, 4),
    (5, 1, 2), (5, 1, 3), (7, 1, 2), (2, 3, 2), (3, 2, 2),
    (11, 1, 2), (13, 1, 2), (2, 4, 2),
]

FORMS_GRID = [
    (p, 1, n) for p in (3, 5) for n in (2, 3, 4) if p**n <= 625
]

BASIS_GRID = [
    (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6),
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 1, 5),
    (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2),
    (5, 1, 2), (5, 1, 3), (7, 1, 2),
]

SUMPRODUCT_GRID = [(2, 1, 4), (2, 1, 6), (3, 1, 4), (2, 1, 8)]
SUMPRODUCT_PAIRS = 1000

CENSUS_GRID = [(3, 1, 2), (5, 1, 2), (3, 1, 4)]

GRIDS = {
    "main": HYPERPLANE_GRID,
    "main1": BOUNDS_GRID,
    "main3": BOUNDS_GRID,
    "prop-basic": LOW_DIM_GRID,
    "n-1": HYPERPLANE_GRID,
    "crucial": FORMS_GRID,
    "basis": BASIS_GRID,
    "trace-equiv": FORMS_GRID,
    "sumproduct": SUMPRODUCT_GRID,
    "census": CENSUS_GRID,
}

# family calibration, sized so the full sweeps finish in minutes
FULL_SWEEP_MAX = 128          # fields up to this order get every subspace
MID_DIM_SAMPLES = 40          # seeded samples per remaining middle dimension
STRUCTURE_CLIQUE_LIMIT = 4000  # maximal cliques decomposed per instance
LAMBDA_SAMPLES = 50           # multipliers per field when the orbit is large


@dataclass
class SuiteReport:
    suite: str
    instances: int = 0
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return self.instances - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, **record) -> None:
        self.failures.append(record)

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "suite": self.suite,
            "instances": self.instances,
            "passes": self.passes,
            "failures": self.failures,
        }
        if self.notes:
            out["notes"] = self.notes
        return out


def suite_fields(name: str, qmax=None, nmax=None) -> list[tuple[int, int, int]]:
    """The fields (p, m, n) of a suite's grid with q = p^m <= qmax and n <= nmax."""
    return [(p, m, n) for p, m, n in GRIDS[name]
            if (qmax is None or p**m <= qmax) and (nmax is None or n <= nmax)]


_omega_cache: dict[tuple, tuple[int, tuple[int, ...]]] = {}


def instance_omega(U: Subspace):
    """Exact clique number and witness, cached by field and basis."""
    ctx = U.ctx
    key = (ctx.p, ctx.m, ctx.n, U.basis)
    hit = _omega_cache.get(key)
    if hit is None:
        hit = clique_number_exact(build_graph(ctx, U))
        _omega_cache[key] = hit
    return hit


def survey_family(ctx: FieldCtx):
    """Deterministic subspace family for the bound and structure sweeps."""
    n = ctx.n
    if ctx.order <= FULL_SWEEP_MAX:
        for d in range(1, n):
            yield from all_subspaces(ctx, d)
        return
    complete = sorted({1, 2, n - 1} & set(range(1, n)))
    for d in complete:
        yield from all_subspaces(ctx, d)
    for d in range(3, n - 1):
        yield from _sampled_subspaces(ctx, d, MID_DIM_SAMPLES)


def _sampled_subspaces(ctx: FieldCtx, d: int, count: int):
    rng = random.Random(f"family:{ctx.p}:{ctx.m}:{ctx.n}:{d}")
    seen = set()
    attempts = 0
    while len(seen) < count and attempts < count * 40:
        attempts += 1
        gens = [rng.randrange(1, ctx.order) for _ in range(d)]
        U = span(ctx, gens)
        if U.dim == d and U not in seen:
            seen.add(U)
            yield U


# -- hyperplane suites --------------------------------------------------------


def suite_n1(qmax=None, nmax=None) -> SuiteReport:
    """Exact clique number of every dimension-(n-1) subspace against the
    closed-form table."""
    report = SuiteReport("n-1")
    for p, m, n in suite_fields("n-1", qmax, nmax):
        ctx = build_field(p, m, n)
        for U in sorted((U for _, U in all_hyperplanes(ctx)), key=lambda U: U.basis):
            report.instances += 1
            want = hyperplane_omega(U)
            got, _ = instance_omega(U)
            if got != want:
                report.fail(field=[p, m, n], basis=list(U.basis), expected=want, got=got)
    return report


def suite_main(qmax=None, nmax=None) -> SuiteReport:
    """Largest clique number over all hyperplanes against the global formula."""
    report = SuiteReport("main")
    for p, m, n in suite_fields("main", qmax, nmax):
        ctx = build_field(p, m, n)
        report.instances += 1
        best = max(instance_omega(U)[0] for _, U in all_hyperplanes(ctx))
        want = omega_qn(ctx.q, n)
        if best != want:
            report.fail(field=[p, m, n], expected=want, got=best)
    return report


# -- structure and bound sweeps -----------------------------------------------


def suite_main1(qmax=None, nmax=None) -> SuiteReport:
    """Decompose maximal cliques across the survey family and validate the
    structural guarantees (a capped deterministic prefix on instances with
    very large clique counts)."""
    report = SuiteReport("main1")
    cliques_checked = 0
    for p, m, n in suite_fields("main1", qmax, nmax):
        ctx = build_field(p, m, n)
        for U in survey_family(ctx):
            report.instances += 1
            G = build_graph(ctx, U)
            omega, _ = instance_omega(U)
            best_seen = 0
            count = 0
            truncated = False
            try:
                for clique in enumerate_maximal_cliques(G, cap=STRUCTURE_CLIQUE_LIMIT):
                    count += 1
                    best_seen = max(best_seen, len(clique))
                    try:
                        decompose_clique(G, clique)
                    except PaleyvecError as exc:
                        report.fail(field=[p, m, n], basis=list(U.basis),
                                    clique=list(clique), error=str(exc))
            except CapExceeded:
                truncated = True
            cliques_checked += count
            if not truncated and best_seen != omega:
                report.fail(field=[p, m, n], basis=list(U.basis),
                            error=f"enumeration max {best_seen} != exact {omega}")
            elif truncated and best_seen > omega:
                report.fail(field=[p, m, n], basis=list(U.basis),
                            error=f"enumeration found {best_seen} > exact {omega}")
    report.notes["cliques_checked"] = cliques_checked
    return report


def suite_main3(qmax=None, nmax=None) -> SuiteReport:
    """Every bound (subfield lower, exponent upper, power-of-q corollaries,
    no-square case) across the survey family, plus interval containment."""
    report = SuiteReport("main3")
    for p, m, n in suite_fields("main3", qmax, nmax):
        ctx = build_field(p, m, n)
        for U in survey_family(ctx):
            report.instances += 1
            omega, _ = instance_omega(U)
            pred = predict_omega(U)
            rep = bounds_report(U, omega, invariants=pred.invariants)
            if not rep["ok"]:
                report.fail(field=[p, m, n], basis=list(U.basis), report=rep)
                continue
            if not pred.admits(omega):
                report.fail(field=[p, m, n], basis=list(U.basis),
                            error=f"prediction {pred.describe()} rejects {omega}")
                continue
            if ctx.q == 2 and U.dim == 2:
                G = build_graph(ctx, U)
                cor = check_corollary_q_power(U, omega, graph=G, invariants=pred.invariants)
                if not cor["ok"]:
                    report.fail(field=[p, m, n], basis=list(U.basis), report=cor)
    return report


def suite_prop_basic(qmax=None, nmax=None) -> SuiteReport:
    """Exact clique number of every subspace of dimension 1 and 2 against
    the low-dimension predictions."""
    report = SuiteReport("prop-basic")
    for p, m, n in suite_fields("prop-basic", qmax, nmax):
        ctx = build_field(p, m, n)
        for d in (1, 2):
            if d > n - 1:
                continue
            for U in all_subspaces(ctx, d):
                report.instances += 1
                pred = predict_omega(U)
                got, _ = instance_omega(U)
                if pred.kind != "exact" or pred.value != got:
                    report.fail(field=[p, m, n], basis=list(U.basis),
                                predicted=pred.describe(), got=got)
    return report


# -- forms suites -------------------------------------------------------------


def _lambda_sample(ctx: FieldCtx) -> list[int]:
    lams = list(range(1, ctx.order))
    if len(lams) <= LAMBDA_SAMPLES:
        return lams
    rng = random.Random(f"lambda:{ctx.p}:{ctx.m}:{ctx.n}")
    return sorted(rng.sample(lams, LAMBDA_SAMPLES))


def suite_crucial(qmax=None, nmax=None) -> SuiteReport:
    """Closed-form isotropic dimension and orthogonal-set size against
    exhaustive searches, for trace forms over odd-order fields; a check of
    ``t_of_form``, which searches t once, fails the instance.  The form's
    orthogonal sets are the cliques of the hyperplane ker Tr(lam x), solved
    once per hyperplane: the lam of one F_q*-orbit share it."""
    report = SuiteReport("crucial")
    for p, m, n in suite_fields("crucial", qmax, nmax):
        ctx = build_field(p, m, n)
        for lam in _lambda_sample(ctx):
            report.instances += 1
            B = BilinearForm.trace_form(ctx, lam)
            try:
                t, _ = t_of_form(B)
            except StructureViolation as exc:
                report.fail(field=[p, m, n], lam=lam, error=str(exc))
                continue
            M_closed = ctx.q**t + n - 2 * t
            M_found, E = instance_omega(hyperplane_from_functional(ctx, lam))
            if M_closed != M_found or not verify_orthogonal_set(B, E):
                report.fail(field=[p, m, n], lam=lam,
                            error=f"M formula {M_closed} != search {M_found}")
    return report


def suite_trace_equiv(qmax=None, nmax=None) -> SuiteReport:
    """Sign of the trace form with multiplier lam equals the base sign
    exactly when lam is a square, for every nonzero lam."""
    report = SuiteReport("trace-equiv")
    for p, m, n in suite_fields("trace-equiv", qmax, nmax):
        ctx = build_field(p, m, n)
        base = chi_of_form(BilinearForm.trace_form(ctx, 1))
        for lam in range(1, ctx.order):
            report.instances += 1
            chi = chi_of_form(BilinearForm.trace_form(ctx, lam))
            if (chi == base) != ctx.is_square(lam):
                report.fail(field=[p, m, n], lam=lam, chi=chi, base=base,
                            square=ctx.is_square(lam))
    return report


def suite_basis(qmax=None, nmax=None) -> SuiteReport:
    """The orthogonal trace basis exists with the required pairing table
    and self-pairing parity on every grid field."""
    report = SuiteReport("basis")
    for p, m, n in suite_fields("basis", qmax, nmax):
        ctx = build_field(p, m, n)
        report.instances += 1
        try:
            basis, mu = special_basis(ctx)
        except PaleyvecError as exc:
            report.fail(field=[p, m, n], error=str(exc))
            continue
        B = BilinearForm.trace_form(ctx, 1)
        bad = None
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                want = 0 if i != j else (mu if i == 0 else 1)
                if B.evaluate(bi, bj) != want:
                    bad = (i, j)
        if bad is not None:
            report.fail(field=[p, m, n], basis=list(basis), error=f"pairing at {bad}")
            continue
        if ctx.p == 2 or n % 2 == 1:
            if mu != 1:
                report.fail(field=[p, m, n], mu=mu, error="mu should be 1")
        elif ctx.quadratic_character(mu) != -1:
            report.fail(field=[p, m, n], mu=mu, error="mu should be a non-square")
    return report


# -- additive combinatorics and census ----------------------------------------


def suite_sumproduct(qmax=None, nmax=None) -> SuiteReport:
    """Randomized audit of the sum-product growth inequality."""
    report = SuiteReport("sumproduct")
    for p, m, n in suite_fields("sumproduct", qmax, nmax):
        ctx = build_field(p, m, n)
        rng = random.Random(f"sumproduct:{ctx.order}")
        produced = 0
        while produced < SUMPRODUCT_PAIRS:
            A = rng.sample(range(ctx.order), rng.randrange(2, 9))
            B = rng.sample(range(ctx.order), rng.randrange(1, 9))
            try:
                rep = sum_product_check(ctx, A, B)
            except PreconditionViolated:
                continue
            produced += 1
            report.instances += 1
            if not rep["ok"]:
                report.fail(field=[p, m, n], A=sorted(A), B=sorted(B), report=rep)
    return report


def suite_census(qmax=None, nmax=None) -> SuiteReport:
    """Hyperplane sign classes: equal sizes and class-constant clique number."""
    report = SuiteReport("census")
    for p, m, n in suite_fields("census", qmax, nmax):
        ctx = build_field(p, m, n)
        report.instances += 1
        rep = isomorphism_class_census(ctx, lambda U: instance_omega(U)[0])
        report.notes[f"{p}^{m}^{n}"] = rep
        if not rep["ok"]:
            report.fail(field=[p, m, n], report=rep)
    return report


SUITES = {
    "main": suite_main,
    "main1": suite_main1,
    "main3": suite_main3,
    "prop-basic": suite_prop_basic,
    "n-1": suite_n1,
    "crucial": suite_crucial,
    "basis": suite_basis,
    "trace-equiv": suite_trace_equiv,
    "sumproduct": suite_sumproduct,
    "census": suite_census,
}


def run_suite(name: str, qmax=None, nmax=None) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choices: {', '.join(sorted(SUITES))}")
    return SUITES[name](qmax=qmax, nmax=nmax)
