"""Symmetric F_q-bilinear forms on F_{q^n} and their invariants.

Two kinds of forms are supported: trace forms (x, y) -> Tr(lam * x * y)
for a nonzero multiplier lam, and explicit symmetric Gram matrices over
F_q in the polynomial basis.  Both are required to be non-degenerate.

The invariants computed here are the sign of the diagonalized form (odd
q), the largest totally isotropic dimension t, and the largest size M of
a pairwise orthogonal set of field elements.  For odd q both t and M
have closed forms, which searches that use neither check.  The sign and
the complement take either kind of form; t and M are searched for trace
forms only, on the graph of the hyperplane ker Tr(lam x): isotropic
vectors are the vertices whose square lies in it, orthogonal pairs its
edges, M its clique number and q^t that of its isotropic vertices
(``graph.square_clique``).  The witness checks evaluate the form itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConstructionFailed,
    DegenerateForm,
    EvenCharacteristic,
    PreconditionViolated,
    StructureViolation,
)
from .gf import FieldCtx
from .graph import GraphGU, build_graph, clique_number_exact, square_clique
from .linalg import Subspace, hyperplane_from_functional, nullspace, rank, span


class BilinearForm:
    """A non-degenerate symmetric F_q-bilinear form on F_{q^n}."""

    __slots__ = ("ctx", "lam", "_gram")

    def __init__(self, ctx: FieldCtx, lam: int | None, gram=None):
        self.ctx = ctx
        self.lam = lam
        self._gram = gram

    @classmethod
    def trace_form(cls, ctx: FieldCtx, lam: int) -> "BilinearForm":
        if lam == 0:
            raise DegenerateForm("the zero multiplier gives a degenerate form")
        form = cls(ctx, lam)
        form.gram_matrix()  # verifies non-degeneracy
        return form

    @classmethod
    def from_gram(cls, ctx: FieldCtx, gram) -> "BilinearForm":
        gram = tuple(tuple(int(v) for v in row) for row in gram)
        if len(gram) != ctx.n or any(len(row) != ctx.n for row in gram):
            raise DegenerateForm(f"gram matrix must be {ctx.n}x{ctx.n}")
        for i in range(ctx.n):
            for j in range(ctx.n):
                if gram[i][j] != gram[j][i]:
                    raise DegenerateForm("gram matrix must be symmetric")
                if not 0 <= gram[i][j] < ctx.q:
                    raise DegenerateForm("gram entries must be F_q scalars")
        form = cls(ctx, None, gram)
        if rank(ctx, map(ctx.element_from_coords, gram)) != ctx.n:
            raise DegenerateForm("gram matrix is singular")
        return form

    def gram_matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._gram is None:
            ctx = self.ctx
            basis = [ctx.basis_element(i) for i in range(ctx.n)]
            gram = tuple(
                tuple(
                    ctx.to_fq(ctx.trace(ctx.mul(self.lam, ctx.mul(bi, bj))))
                    for bj in basis
                )
                for bi in basis
            )
            if rank(ctx, map(ctx.element_from_coords, gram)) != ctx.n:
                raise DegenerateForm(f"trace form with multiplier {self.lam} is degenerate")
            self._gram = gram
        return self._gram

    def evaluate(self, x: int, y: int) -> int:
        ctx = self.ctx
        if self.lam is not None:
            return ctx.to_fq(ctx.trace(ctx.mul(self.lam, ctx.mul(x, y))))
        gram = self._gram
        xs = ctx.element_coords(x)
        ys = ctx.element_coords(y)
        acc = 0
        for i, xi in enumerate(xs):
            if not xi:
                continue
            row = gram[i]
            inner = 0
            for j, yj in enumerate(ys):
                if yj and row[j]:
                    inner = ctx.add(inner, ctx.mul(row[j], yj))
            acc = ctx.add(acc, ctx.mul(xi, inner))
        return acc

    def __repr__(self) -> str:
        if self.lam is not None:
            return f"BilinearForm(trace, lam={self.lam})"
        return f"BilinearForm(gram={self._gram})"


def diagonalize(form: BilinearForm) -> tuple[int, ...]:
    """Diagonal of a congruent diagonal Gram matrix (q odd).

    Symmetric row/column elimination with the first usable pivot by
    index; when every remaining diagonal entry vanishes, a row and column
    combination manufactures one (possible since q is odd).
    """
    ctx = form.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("diagonalization by congruence needs q odd")
    n = ctx.n
    g = [list(row) for row in form.gram_matrix()]

    def add_multiple(dst, src, factor):
        # row operation followed by the mirror column operation
        for c in range(n):
            g[dst][c] = ctx.add(g[dst][c], ctx.mul(factor, g[src][c]))
        for r in range(n):
            g[r][dst] = ctx.add(g[r][dst], ctx.mul(factor, g[r][src]))

    def swap(i, j):
        g[i], g[j] = g[j], g[i]
        for r in range(n):
            g[r][i], g[r][j] = g[r][j], g[r][i]

    for k in range(n):
        if g[k][k] == 0:
            j = next((j for j in range(k + 1, n) if g[j][j]), None)
            if j is not None:
                swap(k, j)
            else:
                i, j = next(
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if g[i][j]
                )
                add_multiple(i, j, 1)  # doubles the off-diagonal entry onto g[i][i]
                if i != k:
                    swap(k, i)
        pivot = g[k][k]
        ipivot = ctx.inv(pivot)
        for r in range(k + 1, n):
            if g[r][k]:
                add_multiple(r, k, ctx.neg(ctx.mul(g[r][k], ipivot)))
    return tuple(g[k][k] for k in range(n))


def chi_of_form(form: BilinearForm) -> int:
    """Product of the quadratic characters over any diagonalization (q odd)."""
    sign = 1
    for a in diagonalize(form):
        sign *= form.ctx.quadratic_character(a)
    return sign


def orthogonal_complement(U: Subspace, form: BilinearForm) -> Subspace:
    """All w with B(u, w) = 0 for every u in U; dimension n - dim(U)."""
    ctx = form.ctx
    if U.dim == 0:
        return span(ctx, [ctx.basis_element(i) for i in range(ctx.n)])
    gram = form.gram_matrix()
    rows = []
    for u in U.basis:
        coords = ctx.element_coords(u)
        row = []
        for j in range(ctx.n):
            acc = 0
            for i, ci in enumerate(coords):
                if ci and gram[i][j]:
                    acc = ctx.add(acc, ctx.mul(ci, gram[i][j]))
            row.append(acc)
        rows.append(row)
    kernel = nullspace(ctx, rows)
    result = span(ctx, [ctx.element_from_coords(v) for v in kernel])
    if result.dim != ctx.n - U.dim:
        raise DegenerateForm("complement dimension is wrong; form must be degenerate")
    return result


# -- totally isotropic subspaces ---------------------------------------------


def _orthogonality_graph(form: BilinearForm) -> GraphGU:
    """G_U for the hyperplane U = ker Tr(lam x) of a trace form: since
    Tr(lam x y) = 0 exactly when xy lies in U, distinct x and y are
    orthogonal when adjacent, and x is isotropic when x^2 lies in U.  A
    form given by its Gram matrix is refused."""
    if form.lam is None:
        raise PreconditionViolated(
            "orthogonal sets and isotropic subspaces are solved for trace forms only"
        )
    ctx = form.ctx
    return build_graph(ctx, hyperplane_from_functional(ctx, form.lam))


def isotropic_dimension_search(form: BilinearForm) -> tuple[int, Subspace]:
    """Largest totally isotropic subspace of a trace form, with its
    dimension: ``graph.square_clique`` on the form's orthogonality graph,
    whose totally isotropic subspaces are the subspaces W with W W inside
    the hyperplane."""
    t, witness = square_clique(_orthogonality_graph(form))
    return t, span(form.ctx, witness)


def t_of_form(form: BilinearForm) -> tuple[int, Subspace]:
    """Largest totally isotropic dimension, with a verified witness subspace.

    The value is the search's.  For odd q it must equal the closed form (n
    odd gives (n-1)/2; n even adds the sign of the form times the sign of
    -1 raised to n/2), and a difference raises ``StructureViolation``.
    """
    ctx = form.ctx
    n = ctx.n
    t, witness = isotropic_dimension_search(form)
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


def orthogonal_set_max(form: BilinearForm):
    """Exact largest pairwise-orthogonal set of a trace form: the clique
    number of its orthogonality graph (see ``_orthogonality_graph``)."""
    return clique_number_exact(_orthogonality_graph(form))


def M_of_form(form: BilinearForm) -> FormInvariants:
    """Largest pairwise-orthogonal set size of a trace form, with witness
    and bound data.

    Odd q: the closed form q^t + n - 2t; the witness search must reach it.
    Even q: exact value by search, checked against the stated bound
    (n + 1 when q = 2 and t <= 2, else q^t + n - 2t).
    """
    ctx = form.ctx
    found, witness_E = orthogonal_set_max(form)
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
