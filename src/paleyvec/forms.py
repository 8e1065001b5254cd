"""The trace forms B(x, y) = Tr(lam x y) on F_{q^n}, 0 < lam < q^n, and
their invariants.

Each is a non-degenerate symmetric F_q-bilinear form.  Its Gram matrix
in the polynomial basis and the rows of its orthogonal complements come
from one kernel, ``linalg.trace_pairing``.  The invariants are the sign
chi of the form (odd q), the largest totally isotropic dimension t, and
the largest size M of a pairwise orthogonal set of field elements.  A
form over F_q, q odd, is classified by its rank and the square class of
its determinant, so chi is the quadratic character of det G.  For odd q
both t and M have closed forms, which searches that use neither check.
t and M are searched on the graph of the hyperplane ker Tr(lam x):
isotropic vectors are the vertices whose square lies in it, orthogonal
pairs its edges, M its clique number and q^t that of its isotropic
vertices (``graph.square_clique``).  The witness checks evaluate the
form itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionFailed, DegenerateForm, StructureViolation
from .gf import FieldCtx
from .graph import GraphGU, build_graph, clique_number_exact, square_clique
from .linalg import (
    Subspace,
    determinant,
    hyperplane_from_functional,
    nullspace,
    rank,
    span,
    trace_pairing,
)


class BilinearForm:
    """The trace form B(x, y) = Tr(lam x y) of a multiplier lam != 0."""

    __slots__ = ("ctx", "lam")

    def __init__(self, ctx: FieldCtx, lam: int):
        self.ctx = ctx
        self.lam = lam

    @classmethod
    def trace_form(cls, ctx: FieldCtx, lam: int) -> "BilinearForm":
        if lam == 0:
            raise DegenerateForm("the zero multiplier gives a degenerate form")
        form = cls(ctx, lam)
        if determinant(ctx, form.gram_matrix()) == 0:
            raise DegenerateForm(f"trace form with multiplier {lam} is degenerate")
        return form

    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Tr(lam y^i y^j) at row i, column j."""
        ctx = self.ctx
        basis = [ctx.basis_element(i) for i in range(ctx.n)]
        return tuple(map(tuple, trace_pairing(ctx, self.lam, basis)))

    def evaluate(self, x: int, y: int) -> int:
        ctx = self.ctx
        return ctx.trace(ctx.mul(self.lam, ctx.mul(x, y)))

    def __repr__(self) -> str:
        return f"BilinearForm(trace, lam={self.lam})"


def chi_of_form(form: BilinearForm) -> int:
    """The sign of the form (q odd): the quadratic character of the
    determinant of its Gram matrix.  A congruence P^t G P multiplies the
    determinant by det(P)^2, so this is the product of the characters of
    the diagonal over any diagonalisation.  Even q raises
    ``EvenCharacteristic``."""
    ctx = form.ctx
    return ctx.quadratic_character(determinant(ctx, form.gram_matrix()))


def orthogonal_complement(U: Subspace, form: BilinearForm) -> Subspace:
    """All w with B(u, w) = 0 for every u in U, dimension n - dim(U): the
    nullspace of the pairing rows of U's basis."""
    ctx = form.ctx
    kernel = nullspace(ctx, trace_pairing(ctx, form.lam, U.basis))
    result = span(ctx, [ctx.element_from_coords(v) for v in kernel])
    if result.dim != ctx.n - U.dim:
        raise DegenerateForm("complement dimension is wrong; form must be degenerate")
    return result


# -- totally isotropic subspaces ---------------------------------------------


def _orthogonality_graph(form: BilinearForm) -> GraphGU:
    """G_U for the hyperplane U = ker Tr(lam x): since Tr(lam x y) = 0
    exactly when xy lies in U, distinct x and y are orthogonal when
    adjacent, and x is isotropic when x^2 lies in U."""
    return build_graph(form.ctx, hyperplane_from_functional(form.ctx, form.lam))


def t_of_form(form: BilinearForm) -> tuple[int, Subspace]:
    """Largest totally isotropic dimension, with a verified witness subspace.

    The value is ``graph.square_clique``'s on the orthogonality graph, whose
    totally isotropic subspaces are the subspaces W with W W inside the
    hyperplane.  For odd q it must equal the closed form (n odd gives
    (n-1)/2; n even adds the sign of the form times the sign of -1 raised
    to n/2), and a difference raises ``StructureViolation``.
    """
    ctx = form.ctx
    n = ctx.n
    t, elems = square_clique(_orthogonality_graph(form))
    witness = span(ctx, elems)
    if ctx.p != 2:
        if n % 2:
            closed = (n - 1) // 2
        else:
            chi_m1 = 1 if ctx.q % 4 == 1 else -1
            closed = (n + chi_of_form(form) * chi_m1 ** (n // 2) - 1) // 2
        if t != closed:
            raise StructureViolation(f"t formula {closed} != search {t}")
    if t > n // 2:
        raise StructureViolation(f"t = {t} exceeds n/2")
    for u in witness.basis:
        for w in witness.basis:
            if form.evaluate(u, w) != 0:
                raise StructureViolation("witness is not totally isotropic")
    return t, witness


# -- pairwise orthogonal sets -------------------------------------------------


@dataclass(frozen=True)
class FormInvariants:
    """Invariants of a form: sign, isotropic dimension, orthogonal-set size."""

    chi: int | None
    t: int
    witness_W: Subspace
    M: int
    witness_E: tuple[int, ...]
    M_upper: int | None  # stated upper bound when q is even


def M_of_form(form: BilinearForm) -> FormInvariants:
    """Largest pairwise-orthogonal set size of a trace form, with witness
    and bound data.

    The set is a maximum clique of the orthogonality graph (see
    ``_orthogonality_graph``).  Odd q: the closed form q^t + n - 2t; the
    search must reach it.
    Even q: exact value by search, checked against the stated bound
    (n + 1 when q = 2 and t <= 2, else q^t + n - 2t).
    """
    ctx = form.ctx
    found, witness_E = clique_number_exact(_orthogonality_graph(form))
    t, witness_W = t_of_form(form)
    M = ctx.q**t + ctx.n - 2 * t
    if ctx.p != 2:
        if found != M:
            raise StructureViolation(f"orthogonal-set search reached {found}, expected {M}")
        return FormInvariants(chi_of_form(form), t, witness_W, M, witness_E, None)
    upper = ctx.n + 1 if ctx.q == 2 and t <= 2 else M
    if found > upper:
        raise StructureViolation(f"M = {found} exceeds the bound {upper}")
    return FormInvariants(None, t, witness_W, found, witness_E, upper)


def verify_orthogonal_set(form: BilinearForm, E) -> bool:
    els = list(E)
    return all(
        form.evaluate(u, w) == 0 for i, u in enumerate(els) for w in els[i + 1 :]
    )


# -- the special orthogonal basis ---------------------------------------------


def special_basis(ctx: FieldCtx) -> tuple[tuple[int, ...], int]:
    """Basis b_1..b_n with Tr(b_i b_j) = 0 off the diagonal, Tr(b_i^2) = 1
    for i > 1, and Tr(b_1^2) = mu.

    mu is 1 when q is even or q and n are both odd, and the least
    non-square scalar of F_q when q is odd and n is even.  Vectors are
    found by a deterministic scan in index order, rescaled to hit the
    required self-pairing, with backtracking if a partial choice dead-ends.
    """
    form = BilinearForm.trace_form(ctx, 1)
    n = ctx.n
    if ctx.p == 2 or n % 2 == 1:
        mu = 1
    else:
        mu = ctx.least_nonsquare()
    targets = [mu] + [1] * (n - 1)

    def candidates(chosen: list[int], target: int):
        if chosen:
            ortho = orthogonal_complement(span(ctx, chosen), form)
            pool = ortho.enumerate_elements()
        else:
            pool = range(ctx.order)
        seen = set()
        for w in pool:
            if w == 0:
                continue
            qw = form.evaluate(w, w)
            if qw == 0:
                continue
            ratio = ctx.mul(target, ctx.inv(qw))
            lam = ctx.fq_sqrt(ratio)
            if lam is None:
                continue
            scaled = ctx.mul(lam, w)
            if scaled in seen:
                continue
            seen.add(scaled)
            yield scaled

    def extend(chosen: list[int]) -> tuple[int, ...] | None:
        if len(chosen) == n:
            return tuple(chosen)
        for w in candidates(chosen, targets[len(chosen)]):
            result = extend(chosen + [w])
            if result is not None:
                return result
        return None

    basis = extend([])
    if basis is None:
        raise ConstructionFailed(f"no orthogonal basis found for q={ctx.q}, n={n}")
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            want = 0 if i != j else targets[i]
            if form.evaluate(bi, bj) != want:
                raise StructureViolation("constructed basis fails its pairing table")
    if rank(ctx, basis) != n:
        raise StructureViolation("constructed vectors do not form a basis")
    return basis, mu
