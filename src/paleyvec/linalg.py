"""F_q-linear algebra inside F_{q^n}: subspaces, hyperplanes, and invariants.

Every subspace is kept in reduced row echelon form with respect to the
fixed polynomial basis 1, y, ..., y^(n-1), pivots taken on the lowest
coordinate first.  The canonical basis is unique, so two subspaces are
equal exactly when their basis tuples are equal.

Membership "x in U" is a lookup in a boolean array over all field
indices.  The array is built on first use, never on construction, by
enumerating the F_p-span of U with numpy: the index of an element is the
base-p value of its F_p coordinates, so sums are digit-wise mod p (XOR
when p = 2).  Paired with ``FieldCtx.squares``, the same array answers
"v^2 in U" for every v at once.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BudgetExceeded,
    NoNonzeroSquare,
    ParseError,
    WrongDimension,
    WrongParity,
    ZeroFunctional,
)
from .gf import FieldCtx, _divisors

DEFAULT_ENUM_BUDGET = 1 << 20


def _rref(ctx: FieldCtx, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q. Returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = ctx.n
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ctx.inv(rows[r][col])
        rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [ctx.sub(a, ctx.mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(ctx: FieldCtx, rows: list[list[int]]) -> list[list[int]]:
    """Basis of the right kernel of the given F_q matrix (rows of length n)."""
    reduced, pivots = _rref(ctx, rows)
    free = [c for c in range(ctx.n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ctx.n
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = ctx.neg(reduced[i][f])
        basis.append(vec)
    return basis


def _digit_add_np(xs: np.ndarray, s: int, p: int, ndigits: int) -> np.ndarray:
    """Element indices xs plus the element s: base-p digits added mod p."""
    if p == 2:
        return xs ^ s
    out = np.zeros_like(xs)
    for j in range(ndigits):
        place = p**j
        out += (xs // place + s // place) % p * place
    return out


class Subspace:
    """An F_q-subspace of F_{q^n} held by its canonical echelon basis."""

    __slots__ = ("ctx", "basis", "dim", "_member")

    def __init__(self, ctx: FieldCtx, basis: tuple[int, ...]):
        self.ctx = ctx
        self.basis = basis
        self.dim = len(basis)
        self._member = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and (self.ctx.p, self.ctx.m, self.ctx.n) == (other.ctx.p, other.ctx.m, other.ctx.n)
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.m, self.ctx.n, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, basis={list(self.basis)})"

    @property
    def size(self) -> int:
        return self.ctx.q**self.dim

    @property
    def member(self) -> np.ndarray:
        """Read-only boolean array over all field indices, True on U.

        Built on first use by doubling: the F_p-generators are lam * b for
        b in the basis and lam = p^j (j < m), the F_p basis of the embedded
        F_q, and each one multiplies the elements found so far by p.
        """
        if self._member is None:
            ctx, p = self.ctx, self.ctx.p
            elems = np.zeros(self.size, dtype=np.int64)
            filled = 1
            for b in self.basis:
                for j in range(ctx.m):
                    g = ctx.mul(p**j, b)
                    for c in range(1, p):
                        elems[c * filled:(c + 1) * filled] = _digit_add_np(
                            elems[:filled], ctx.mul(c, g), p, ctx.mn
                        )
                    filled *= p
            member = np.zeros(ctx.order, dtype=bool)
            member[elems] = True
            member.flags.writeable = False
            self._member = member
        return self._member

    def contains(self, x: int) -> bool:
        return bool(self.member[x])

    def enumerate_elements(self, budget: int = DEFAULT_ENUM_BUDGET) -> list[int]:
        """All elements, ordered lexicographically by coordinate vector."""
        ctx = self.ctx
        if self.size > budget:
            raise BudgetExceeded(f"subspace of size {self.size} exceeds budget {budget}")
        out = [0]
        for b in self.basis:
            scaled = [ctx.mul(lam, b) for lam in range(1, ctx.q)]
            out = [ctx.add(x, s) for s in [0] + scaled for x in out]
        out = sorted(set(out), key=ctx.element_coords)
        return out

    def serialize(self) -> str:
        return "basis=" + ",".join(str(b) for b in self.basis)


def span(ctx: FieldCtx, gens: Iterable[int]) -> Subspace:
    """Canonical subspace generated by the given elements."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < ctx.order:
            raise ValueError(f"element index {g} out of range for {ctx!r}")
    if ctx.q == 2:
        return _span_f2(ctx, gens)
    rows = [list(ctx.element_coords(g)) for g in gens]
    reduced, _ = _rref(ctx, rows)
    return Subspace(ctx, tuple(ctx.element_from_coords(r) for r in reduced))


def _span_f2(ctx: FieldCtx, gens: list[int]) -> Subspace:
    # over F_2 the index doubles as the packed coordinate row
    rows: list[int] = []
    for g in gens:
        for row in rows:
            low = row & -row
            if g & low:
                g ^= row
        if g:
            rows.append(g)
            rows.sort(key=lambda r: r & -r)
    # clear above-pivot bits for the reduced form
    for i, row in enumerate(rows):
        low = row & -row
        for j in range(len(rows)):
            if j != i and rows[j] & low:
                rows[j] ^= row
    rows.sort(key=lambda r: r & -r)
    return Subspace(ctx, tuple(rows))


def zero_subspace(ctx: FieldCtx) -> Subspace:
    return Subspace(ctx, ())


def parse_subspace(ctx: FieldCtx, text: str) -> Subspace:
    """Parse "basis=i,j,..." or "ker-trace-of=c" into a subspace."""
    text = text.strip()
    try:
        if text.startswith("basis="):
            body = text[len("basis="):]
            gens = [int(t) for t in body.split(",") if t != ""]
            return span(ctx, gens)
        if text.startswith("ker-trace-of="):
            c = int(text[len("ker-trace-of="):])
            return hyperplane_from_functional(ctx, c)
    except (ValueError, ZeroFunctional) as exc:
        raise ParseError(f"bad subspace spec {text!r}") from exc
    raise ParseError(f"bad subspace spec {text!r} (want 'basis=...' or 'ker-trace-of=...')")


def hyperplane_from_functional(ctx: FieldCtx, c: int) -> Subspace:
    """Kernel of x -> Tr(c x), an (n-1)-dimensional subspace for c != 0."""
    if c == 0:
        raise ZeroFunctional("the zero functional has no hyperplane kernel")
    row = [ctx.to_fq(ctx.trace(ctx.mul(c, ctx.basis_element(j)))) for j in range(ctx.n)]
    kernel = nullspace(ctx, [row])
    return span(ctx, [ctx.element_from_coords(v) for v in kernel])


def trace_zero_hyperplane(ctx: FieldCtx) -> Subspace:
    return hyperplane_from_functional(ctx, 1)


def all_hyperplanes(ctx: FieldCtx) -> Iterator[tuple[int, Subspace]]:
    """All (q^n-1)/(q-1) subspaces of dimension n-1.

    Each is yielded once as (delta, U) where U is the image of the
    trace-zero hyperplane under multiplication by delta.
    """
    if ctx._exp is not None:
        step = ctx.mord // (ctx.q - 1)
        reps = (ctx._exp[r] for r in range(step))
    else:
        seen = set()

        def _reps():
            for c in range(1, ctx.order):
                if c in seen:
                    continue
                for lam in range(1, ctx.q):
                    seen.add(ctx.mul(lam, c))
                yield c

        reps = _reps()
    for c in reps:
        yield ctx.inv(c), hyperplane_from_functional(ctx, c)


def functional_of_hyperplane(U: Subspace) -> int:
    """Some c != 0 with U equal to the kernel of x -> Tr(c x)."""
    ctx = U.ctx
    if U.dim != ctx.n - 1:
        raise WrongDimension(f"need dimension {ctx.n - 1}, got {U.dim}")
    rows = []
    for b in U.basis:
        rows.append([ctx.to_fq(ctx.trace(ctx.mul(b, ctx.basis_element(j)))) for j in range(ctx.n)])
    kernel = nullspace(ctx, rows)
    assert len(kernel) == 1, "trace pairing must be non-degenerate"
    return ctx.element_from_coords(kernel[0])


def contains_nonzero_square(U: Subspace) -> bool:
    """True when some nonzero element of U is a square of F_{q^n}."""
    if U.dim == 0:
        return False
    ctx = U.ctx
    if ctx.p == 2:
        return True
    nonsquares = (ctx.order - 1) // 2
    if U.size - 1 > nonsquares:
        return True
    return any(x and ctx.is_square(x) for x in U.enumerate_elements())


def subfield_subspace(ctx: FieldCtx, d: int) -> Subspace:
    """F_{q^d} viewed as a d-dimensional F_q-subspace."""
    return span(ctx, ctx.subfield_elements(d))


def D_invariant(U: Subspace) -> int:
    """Greatest divisor d of n with a^2 F_{q^d} inside U for some a != 0."""
    ctx = U.ctx
    if not contains_nonzero_square(U):
        raise NoNonzeroSquare("U has no nonzero square, the invariant is undefined")
    for d in sorted(_divisors(ctx.n), reverse=True):
        if d > U.dim:
            continue
        sub_basis = subfield_subspace(ctx, d).basis
        if ctx._exp is not None:
            step = ctx.mord // (ctx.q**d - 1)
            reps = (ctx._exp[r] for r in range(step))
        else:
            seen: set[int] = set()
            sub_star = [s for s in ctx.subfield_elements(d) if s]

            def _reps():
                for a in range(1, ctx.order):
                    if a in seen:
                        continue
                    for s in sub_star:
                        seen.add(ctx.mul(s, a))
                    yield a

            reps = _reps()
        for a in reps:
            a2 = ctx.mul(a, a)
            if all(U.contains(ctx.mul(a2, b)) for b in sub_basis):
                return d
    raise AssertionError("d = 1 must succeed when U has a nonzero square")


def s_invariant(U: Subspace) -> int:
    """+1 when U is a square multiple of the trace-zero hyperplane, else -1.

    Defined for q odd and n even; in that range every scalar of F_q* is a
    square of F_{q^n}, so the class of U is decided by the squareness of
    any delta with U = delta * ker(Tr).
    """
    ctx = U.ctx
    if ctx.p == 2 or ctx.n % 2:
        raise WrongParity("the sign invariant needs q odd and n even")
    if U.dim != ctx.n - 1:
        raise WrongDimension(f"need dimension {ctx.n - 1}, got {U.dim}")
    c = functional_of_hyperplane(U)
    delta = ctx.inv(c)
    return 1 if ctx.is_square(delta) else -1


def all_subspaces(ctx: FieldCtx, dim: int) -> Iterator[Subspace]:
    """All subspaces of the given dimension, one canonical echelon form each."""
    n, q = ctx.n, ctx.q
    if dim == 0:
        yield zero_subspace(ctx)
        return
    if not 0 < dim <= n:
        raise WrongDimension(f"dimension {dim} out of range for n = {n}")
    for pivots in itertools.combinations(range(n), dim):
        pivot_set = set(pivots)
        slots = [
            (i, j)
            for i in range(dim)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        for values in itertools.product(range(q), repeat=len(slots)):
            rows = [[0] * n for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(slots, values):
                rows[i][j] = v
            basis = tuple(ctx.element_from_coords(r) for r in rows)
            yield Subspace(ctx, basis)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den
