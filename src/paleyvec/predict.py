"""Closed-form clique-number predictions and bound checkers.

This module is the reconciliation layer between the formulas (exact
values for dimensions 1, 2 and n-1, bounds everywhere else) and the
exact solver.  ``SubspaceInvariants`` records what they rest on, and
``BOUND_CHECKS`` states each of the paper's inequalities once; the
interval endpoints, ``admits``, ``bounds_report`` and
``check_corollary_q_power`` are all read off that table.

Every check is exact integer arithmetic, so a pass/fail decision never
rests on floating-point rounding: where an exponent is irrational, as
kappa's is for q not a power of 2, both sides are raised to a power that
clears it (see ``SubspaceInvariants``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import PreconditionViolated, WrongDimension
from .gf import FieldCtx, _divisors
from .linalg import (
    D_invariant,
    Subspace,
    contains_nonzero_square,
    s_invariant,
)


def omega_qn(q: int, n: int) -> int:
    """Largest clique number over all proper subspaces of F_{q^n}."""
    if q == 2 and 2 <= n <= 5:
        return n + 1
    if n % 2:
        return q ** ((n - 1) // 2) + 1
    return q ** (n // 2)


# -- the invariants record ----------------------------------------------------


class SubspaceInvariants:
    """The nonzero-square test, D, s and kappa of one subspace U, each
    computed on first read.  D and kappa are None when U has no nonzero
    square; s is None unless q is odd, n even and U a hyperplane.

    kappa = max(D, 7d/8 + 7/(32 log2 q)) is kept as the integer pair
    (q^D, 2^7 q^(28d)), since q^kappa = max(q^D, q^(7d/8) 2^(7/32)) is the
    larger of the first and the 32nd root of the second."""

    def __init__(self, U: Subspace):
        self.U = U
        self.q, self.n, self.d = U.ctx.q, U.ctx.n, U.dim

    @cached_property
    def has_square(self) -> bool:
        return contains_nonzero_square(self.U)

    @cached_property
    def D(self) -> int | None:
        return D_invariant(self.U) if self.has_square else None

    @cached_property
    def s(self) -> int | None:
        if self.U.ctx.p == 2 or self.n % 2 or self.d != self.n - 1:
            return None
        return s_invariant(self.U)

    @cached_property
    def kappa(self) -> tuple[int, int] | None:
        if not self.has_square:
            return None
        return self.q**self.D, 2**7 * self.q ** (28 * self.d)


# -- the bounds table ---------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """One result of the paper: the subspaces it applies to, and its exact
    test on omega or, for a lower or upper bound, the bound's value."""

    name: str
    applies: Callable[[SubspaceInvariants], bool]
    test: Callable[[SubspaceInvariants, int], bool] | None = None
    lower: Callable[[SubspaceInvariants], int] | None = None
    upper: Callable[[SubspaceInvariants], int] | None = None

    def holds(self, inv: SubspaceInvariants, omega: int) -> bool:
        if self.lower is not None:
            return omega >= self.lower(inv)
        if self.upper is not None:
            return omega <= self.upper(inv)
        return self.test(inv, omega)


def _below_q_kappa(inv: SubspaceInvariants, x: int) -> bool:
    """Whether x <= q^kappa: x <= q^D, or x^32 <= 2^7 q^(28d)."""
    q_D, q_32kappa = inv.kappa
    return x <= q_D or x**32 <= q_32kappa


def _shape_feasible(inv: SubspaceInvariants, omega: int) -> bool:
    """Is omega = q^t + r for some admissible split (t, r)?  Above d + 2 a
    split needs t <= kappa, tested in integers as q^t <= q^kappa."""
    q, d = inv.q, inv.d
    t = 0
    while q**t <= omega:
        r = omega - q**t
        if t == 0:
            if r <= d + 1 and omega <= d + 2:
                return True
        elif r + t <= d:
            if omega <= d + 2 or _below_q_kappa(inv, q**t):
                return True
        t += 1
    return False


# In the order bounds_report lists them.
BOUND_CHECKS = (
    BoundCheck("at-least-3", lambda inv: True, lower=lambda inv: 3),
    BoundCheck("no-square-exact-3", lambda inv: not inv.has_square, lambda inv, w: w == 3),
    BoundCheck("no-square-upper", lambda inv: not inv.has_square, upper=lambda inv: inv.d + 2),
    BoundCheck("subfield-lower", lambda inv: inv.has_square, lower=lambda inv: inv.q**inv.D),
    BoundCheck("square-lower", lambda inv: inv.has_square,
               lower=lambda inv: inv.q + min(1, inv.d - 1)),
    # omega <= q^kappa + d; omega - d <= 1 passes, as 1 < q <= q^D
    BoundCheck("kappa-upper", lambda inv: inv.has_square,
               lambda inv, w: _below_q_kappa(inv, w - inv.d)),
    BoundCheck("shape", lambda inv: inv.has_square, _shape_feasible),
    BoundCheck("global-upper", lambda inv: True, upper=lambda inv: omega_qn(inv.q, inv.n)),
    # the q^d corollary, with its equality case
    BoundCheck("power-upper", lambda inv: inv.d >= 2, upper=lambda inv: inv.q**inv.d),
    BoundCheck("power-gap", lambda inv: inv.d >= 2,
               lambda inv, w: w == inv.q**inv.d or w <= inv.q ** (inv.d - 1) + 1),
    BoundCheck("power-equality-iff", lambda inv: inv.d >= 2,
               lambda inv, w: (w == inv.q**inv.d) == (inv.q == inv.d == 2 or inv.D == inv.d)),
)
_COROLLARY_CHECKS = tuple(c for c in BOUND_CHECKS if c.name.startswith("power-"))


def _run_checks(checks, inv: SubspaceInvariants, omega: int) -> dict[str, bool]:
    return {c.name: c.holds(inv, omega) for c in checks if c.applies(inv)}


# -- predictions --------------------------------------------------------------


@dataclass(frozen=True)
class OmegaPrediction:
    """Predicted clique number: an exact value or a checkable interval."""

    kind: str  # "exact" or "interval"
    value: int | None
    lo: int
    hi: int
    source: str
    invariants: SubspaceInvariants

    @property
    def has_square(self) -> bool:
        return self.invariants.has_square

    @property
    def D_U(self) -> int | None:
        return self.invariants.D

    def admits(self, omega: int) -> bool:
        """An exact value admits itself; an interval admits every omega
        that passes each applicable check of BOUND_CHECKS."""
        if self.kind == "exact":
            return omega == self.value
        return all(_run_checks(BOUND_CHECKS, self.invariants, omega).values())

    def describe(self):
        if self.kind == "exact":
            return self.value
        return {"kind": "interval", "lo": self.lo, "hi": self.hi, "source": self.source}


def predict_omega(U: Subspace) -> OmegaPrediction:
    """Best available prediction for the clique number of the graph of U.

    Exact for dimension 1, dimension 2, dimension n-1, and for any
    subspace without a nonzero square; otherwise the interval between
    the largest applicable lower bound and the smallest upper bound.
    """
    q, n, d = U.ctx.q, U.ctx.n, U.dim
    if not 1 <= d <= n - 1:
        raise WrongDimension(f"need 1 <= dim <= {n - 1}, got {d}")
    inv = SubspaceInvariants(U)

    def exact(v, source):
        return OmegaPrediction("exact", v, v, v, source, inv)

    if not inv.has_square:
        return exact(3, "no-nonzero-square")
    if d == 1:
        if q in (2, 3):
            return exact(3, "dim-1")
        return exact(q, "dim-1")
    if d == 2:
        if q == 2:
            return exact(4, "dim-2")
        if n % 2 == 0 and inv.D == 2:
            return exact(q * q, "dim-2 scaled-quadratic-subfield")
        return exact(q + 1, "dim-2")
    if d == n - 1:
        return exact(_hyperplane_omega(inv), "dim-(n-1)")
    lo = max(c.lower(inv) for c in BOUND_CHECKS if c.lower and c.applies(inv))
    hi = min(c.upper(inv) for c in BOUND_CHECKS if c.upper and c.applies(inv))
    return OmegaPrediction("interval", None, lo, hi, "bound-intersection", inv)


def hyperplane_omega(U: Subspace) -> int:
    """Exact clique number of the graph of a dimension-(n-1) subspace."""
    return _hyperplane_omega(SubspaceInvariants(U))


def _hyperplane_omega(inv: SubspaceInvariants) -> int:
    q, n = inv.q, inv.n
    if inv.d != n - 1:
        raise WrongDimension(f"need dimension {n - 1}, got {inv.d}")
    if q == 2 and n <= 5:
        return n + 1
    if q % 2 == 0 or n % 2 == 1:
        return q ** (n // 2) + n - 2 * (n // 2)
    big = {(1, 0, -1), (3, 0, -1), (3, 2, 1), (1, 2, -1)}
    if (q % 4, n % 4, inv.s) in big:
        return q ** (n // 2)
    return q ** (n // 2 - 1) + 2


# -- bound reports ------------------------------------------------------------


def bounds_report(U: Subspace, omega: int, *,
                  invariants: SubspaceInvariants | None = None) -> dict:
    """Check every applicable bound for an exactly computed clique number;
    ``invariants``, from a prediction of U, saves computing them again."""
    inv = invariants or SubspaceInvariants(U)
    checks = _run_checks(BOUND_CHECKS, inv, omega)
    return {"omega": omega, "dim": inv.d, "has_square": inv.has_square,
            "checks": checks, "ok": all(checks.values())}


def check_corollary_q_power(U: Subspace, omega: int, graph=None, *,
                            invariants: SubspaceInvariants | None = None) -> dict:
    """The q^dim upper bound, its equality condition, and (for q = dim = 2,
    when the graph is supplied) the exact shape of every maximum clique."""
    q, d = U.ctx.q, U.dim
    if d < 2:
        raise WrongDimension("the power bound needs dim >= 2")
    checks = _run_checks(_COROLLARY_CHECKS, invariants or SubspaceInvariants(U), omega)
    if graph is not None and q == 2 and d == 2 and omega == 4:
        checks["max-clique-shape"] = _check_q2_d2_shape(U, graph)
    return {"omega": omega, "checks": checks, "ok": all(checks.values())}


def _check_q2_d2_shape(U: Subspace, graph) -> bool:
    # maximum cliques are exactly {0, a, u/a, v/a} over pairs u != v from U*,
    # where a is the square root of uv/(u+v)
    from .graph import enumerate_maximal_cliques

    ctx = U.ctx
    members = [u for u in U.enumerate_elements() if u]
    expected = set()
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            a = ctx.sqrt(ctx.mul(ctx.mul(u, v), ctx.inv(ctx.add(u, v))))
            ia = ctx.inv(a)
            expected.add(tuple(sorted({0, a, ctx.mul(u, ia), ctx.mul(v, ia)})))
    if any(len(c) != 4 for c in expected):
        return False
    found = {
        tuple(sorted(c)) for c in enumerate_maximal_cliques(graph) if len(c) == 4
    }
    return found == expected


# -- additive-combinatorics audit ---------------------------------------------


def sum_product_check(ctx: FieldCtx, A, B) -> dict:
    """Audit one instance of the sum-product growth inequality.

    Requires |A| > 1 and B not inside any proper subfield of the top
    field.  The pass/fail comparison is done on 28th powers so no
    radicals or floats are involved.
    """
    A = sorted(set(A))
    B = sorted(set(B))
    if len(A) <= 1:
        raise PreconditionViolated("need |A| > 1")
    for k in _divisors(ctx.mn):
        if k == ctx.mn:
            continue
        if all(ctx.pow(b, ctx.p**k) == b for b in B):
            raise PreconditionViolated(
                f"B lies in the proper subfield of order {ctx.p}^{k}"
            )
    prods = sorted({ctx.mul(a, b) for a in A for b in B})
    plus = {ctx.add(a, t) for a in A for t in prods}
    minus = {ctx.sub(a, t) for a in A for t in prods}
    lhs = max(len(plus), len(minus))
    nA, nB = len(A), len(B)
    rhs28_scaled = min(nA**28 * nB**4, nA**24 * ctx.order**4)  # (rhs * 2^(1/4))^28
    ok = 2**7 * lhs**28 >= rhs28_scaled
    return {
        "size_A": nA,
        "size_B": nB,
        "size_plus": len(plus),
        "size_minus": len(minus),
        "lhs": lhs,
        "rhs": (rhs28_scaled / 2**7) ** (1 / 28),
        "ok": ok,
    }


# -- hyperplane census --------------------------------------------------------


def isomorphism_class_census(ctx: FieldCtx, omega_of) -> dict:
    """Partition the hyperplanes by sign class and audit sizes and clique
    numbers (q odd, n even).  omega_of maps a subspace to its exact value."""
    from .linalg import all_hyperplanes

    if ctx.p == 2 or ctx.n % 2:
        raise PreconditionViolated("the census needs q odd and n even")
    classes: dict[int, list[int]] = {1: [], -1: []}
    for _, U in all_hyperplanes(ctx):
        classes[s_invariant(U)].append(omega_of(U))
    expected = (ctx.order - 1) // (2 * (ctx.q - 1))
    sizes_ok = all(len(v) == expected for v in classes.values())
    constant_ok = all(len(set(v)) == 1 for v in classes.values())
    return {
        "expected_size": expected,
        "sizes": {s: len(v) for s, v in classes.items()},
        "omegas": {s: sorted(set(v)) for s, v in classes.items()},
        "ok": sizes_ok and constant_ok,
    }
