"""F_q-linear algebra inside F_{q^n}: subspaces, hyperplanes, and invariants.

Every subspace is kept in reduced row echelon form with respect to the
fixed polynomial basis 1, y, ..., y^(n-1), pivots taken on the lowest
coordinate first.  The canonical basis is unique, so two subspaces are
equal exactly when their basis tuples are equal.  ``span`` computes it by
one elimination over F_q (``_rref``), the same for every q, which also
gives ``nullspace`` and ``determinant``.  ``trace_pairing`` writes the
functionals x -> Tr(lam e x) as rows, for the hyperplanes here and the
trace forms of ``forms``.

Membership "x in U" is a lookup in a boolean array over all field
indices.  The array is built on first use, never on construction, by
enumerating the F_p-span of U with numpy (``fp_combinations``): the
index of an element is the base-p value of its F_p coordinates, so for
p = 2 sums are XORs of indices, and for odd p all combinations are one
product of digit matrices mod p.  Paired with ``FieldCtx.squares``, the
same array answers "v^2 in U" for every v at once, and sorted by
coordinates it lists U; ``Subspace.iter_elements`` walks U in the same
order from its basis, for a caller that stops at the first hit.

Where only a dimension is needed, ``rank`` answers without the canonical
basis, by one incremental kernel, ``extend_echelon``, which feeds
elements one at a time into an F_p echelon and counts those that add to
its rank; ``graph.decompose_clique`` feeds a clique's two parts into one
echelon.  The F_q-rank of a list is the F_p-rank of its m-fold expansion
{p^j v : j < m}, divided by m, because the indices p^j < q are an F_p-basis
of the embedded F_q.  The F_p-rank is taken on the indices themselves:
for p = 2 an index is its own F_2 coordinate row, so the kernel is an XOR
basis on Python ints; for odd p the rows are the base-p digits of the
indices, eliminated mod p.  Each element's rows are computed once per
field, on first sight, and kept in the field's memo.  For q = 2 (m = 1)
an element is its only row, and the kernel reduces it as it comes, with
no memo and no tuple of rows.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BudgetExceeded,
    NoNonzeroSquare,
    NotADivisor,
    ParseError,
    WrongDimension,
    WrongParity,
    ZeroFunctional,
)
from .gf import FieldCtx, _digit_product, _divisors, _index_of_digits

ENUM_BUDGET = 1 << 20  # the largest subspace whose elements are listed


def _rref(ctx: FieldCtx, rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form over F_q.  Returns (rows, pivot columns,
    scale), where scale is the product of the pivots as they are
    normalised, negated at each row swap: the determinant of a square
    matrix of full rank."""
    rows = [list(r) for r in rows]
    ncols = ctx.n
    pivots: list[int] = []
    scale = 1
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            scale = ctx.neg(scale)
        scale = ctx.mul(scale, rows[r][col])
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
    return rows[:r], pivots, scale


def nullspace(ctx: FieldCtx, rows: list[list[int]]) -> list[list[int]]:
    """Basis of the right kernel of the given F_q matrix (rows of length n)."""
    reduced, pivots, _ = _rref(ctx, rows)
    free = [c for c in range(ctx.n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ctx.n
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = ctx.neg(reduced[i][f])
        basis.append(vec)
    return basis


def determinant(ctx: FieldCtx, rows: list[list[int]]) -> int:
    """Determinant of an n x n matrix over F_q, by ``_rref``."""
    reduced, _, scale = _rref(ctx, rows)
    return scale if len(reduced) == ctx.n else 0


def trace_pairing(ctx: FieldCtx, lam: int, elems: Iterable[int]) -> list[list[int]]:
    """One row per element e: Tr(lam e y^j) for j < n, the F_q coordinates
    of the functional x -> Tr(lam e x) in the polynomial basis."""
    if not 0 < lam < ctx.order:
        raise ValueError(f"multiplier {lam} out of range for {ctx!r}")
    basis = [ctx.basis_element(j) for j in range(ctx.n)]
    return [[ctx.trace(ctx.mul(ctx.mul(lam, e), b)) for b in basis] for e in elems]


def fp_combinations(ctx: FieldCtx, gens: list[int]) -> np.ndarray:
    """The element sum_i d_i gens[i] at each index sum_i d_i p^i (digits
    d_i < p) below p^len(gens).

    For p = 2 by doubling: each generator XORed onto the elements found so
    far.  For odd p in one product: row t of the coefficient matrix holds
    the digits of t, and times the generators' digit rows, mod p, it gives
    the digit rows of the elements (``gf._digit_product``), which
    ``gf._index_of_digits`` turns into indices."""
    p, k = ctx.p, len(gens)
    if p == 2:
        elems = np.zeros(1 << k, dtype=np.int64)
        for i, g in enumerate(gens):
            elems[1 << i:2 << i] = elems[:1 << i] ^ g
        return elems
    dtype = np.min_scalar_type(p - 1)
    coeffs = np.empty((p**k, k), dtype)
    for i in range(k):  # digit i of t = (a p + d) p^i + b is d
        coeffs.reshape(p ** (k - 1 - i), p, p**i, k)[..., i] = np.arange(p, dtype=dtype)[:, None]
    gen_rows = np.array(gens, dtype=np.int64)[:, None] // p ** np.arange(ctx.mn) % p
    rows = _digit_product(coeffs, gen_rows, p, np.empty((p**k, ctx.mn), dtype))
    return _index_of_digits(rows, p)


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

        Built on first use from the F_p-span of lam * b for b in the basis
        and lam = p^j (j < m), the F_p basis of the embedded F_q
        (``fp_combinations``).
        """
        if self._member is None:
            ctx = self.ctx
            gens = [ctx.mul(ctx.p**j, b) for b in self.basis for j in range(ctx.m)]
            member = np.zeros(ctx.order, dtype=bool)
            member[fp_combinations(ctx, gens)] = True
            member.flags.writeable = False
            self._member = member
        return self._member

    def contains(self, x: int) -> bool:
        return bool(self.member[x])

    def enumerate_elements(self) -> list[int]:
        """All elements, ordered lexicographically by coordinate vector, the
        first coordinate the most significant.

        On the canonical basis an element's coordinates at the pivot
        columns are its coefficients, and two elements first differ at a
        pivot column; so the members are sorted by their d pivot digits.
        """
        if self.size > ENUM_BUDGET:
            raise BudgetExceeded(f"subspace of size {self.size} exceeds budget {ENUM_BUDGET}")
        q = self.ctx.q
        members = np.flatnonzero(self.member)
        key = 0
        for b in self.basis:
            place = 1  # becomes q^pivot, the place of b's lowest nonzero digit
            while b // place % q == 0:
                place *= q
            key = key * q + members // place % q
        return members[np.argsort(key)].tolist()

    def iter_elements(self) -> Iterator[int]:
        """The elements one at a time, in the order of ``enumerate_elements``,
        none listed ahead and with no size budget: on the canonical basis
        that order is lexicographic in the coefficients (F_q indices), the
        first basis element's the most significant."""
        ctx = self.ctx
        multiples = [[ctx.mul(c, b) for c in range(ctx.q)] for b in self.basis]
        for terms in itertools.product(*multiples):
            x = 0
            for y in terms:
                x = ctx.add(x, y)
            yield x


def span(ctx: FieldCtx, gens: Iterable[int]) -> Subspace:
    """Canonical subspace generated by the given elements."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < ctx.order:
            raise ValueError(f"element index {g} out of range for {ctx!r}")
    reduced, _, _ = _rref(ctx, [ctx.element_coords(g) for g in gens])
    return Subspace(ctx, tuple(ctx.element_from_coords(r) for r in reduced))


def _fp_rows(ctx: FieldCtx, v: int) -> tuple:
    """The F_p rows of F_q v: the expansion {p^j v : j < m}, as indices for
    p = 2 and as base-p digit tuples for odd p."""
    p = ctx.p
    expansion = [v] + [ctx.mul(p**j, v) for j in range(1, ctx.m)]
    if p == 2:
        return tuple(expansion)
    return tuple(tuple(x // p**i % p for i in range(ctx.mn)) for x in expansion)


def extend_echelon(ctx: FieldCtx, echelon: dict, elems: Iterable[int]) -> int:
    """Feed elements, in order, into ``echelon``, the F_p echelon form of an
    F_q-span (an empty dict for the zero space; see the module docstring),
    and return how many lay outside the span at their turn.

    An element lies inside exactly when its first row, the element itself,
    reduces to 0; otherwise each of its m rows adds a pivot, keyed by its
    leading bit for p = 2 and by its pivot column for odd p.  Rows come from
    the field's memo, so each element's expansion and digits are computed
    once; for q = 2 the index is its own row, reduced as it comes, and
    nothing is kept.
    """
    gained = 0
    if ctx.p == 2:
        if ctx.m == 1:
            for x in elems:
                while x:
                    top = x.bit_length()
                    b = echelon.get(top)
                    if b is None:
                        echelon[top] = x
                        gained += 1
                        break
                    x ^= b
            return gained
        memo = ctx._fp_rows
        for v in elems:
            rows = memo.get(v)
            if rows is None:
                rows = memo[v] = _fp_rows(ctx, v)
            for x in rows:
                while x:
                    b = echelon.get(x.bit_length())
                    if b is None:
                        break
                    x ^= b
                if not x:
                    break  # v lies in the span: its first row reduced to 0
                echelon[x.bit_length()] = x
            else:
                gained += 1
        return gained
    p, mn, memo = ctx.p, ctx.mn, ctx._fp_rows
    for v in elems:
        rows = memo.get(v)
        if rows is None:
            rows = memo[v] = _fp_rows(ctx, v)
        for row in rows:
            for col in range(mn):
                a = row[col]
                if a:
                    b = echelon.get(col)
                    if b is None:
                        break
                    # columns before col are zero in row and in b, and stay so
                    row = [(y - a * z) % p for y, z in zip(row, b)]
            else:
                break  # v lies in the span: its first row reduced to 0
            inv = pow(a, p - 2, p)
            echelon[col] = [y * inv % p for y in row]  # 1 at col
        else:
            gained += 1
    return gained


def rank(ctx: FieldCtx, elems: Iterable[int]) -> int:
    """F_q-dimension of the span of the given elements: ``span(...).dim``
    without the canonical basis, from an empty echelon."""
    return extend_echelon(ctx, {}, elems)


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
    kernel = nullspace(ctx, trace_pairing(ctx, c, [1]))
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
    kernel = nullspace(ctx, trace_pairing(ctx, 1, U.basis))
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
    if ctx._exp_np is not None:
        # the nonzero squares are the even powers of the generator
        return bool(U.member[ctx._exp_np[::2]].any())
    # U read from its index array, not listed as ints: ENUM_BUDGET does not apply
    return any(ctx.is_square(u) for u in map(int, np.flatnonzero(U.member)[1:]))


def subfield_subspace(ctx: FieldCtx, d: int) -> Subspace:
    """F_{q^d} viewed as a d-dimensional F_q-subspace: the span of the
    relative traces sum_{i < n/d} x^(q^(d i)) of the polynomial basis, since
    that trace maps F_{q^n} F_q-linearly onto F_{q^d}."""
    if ctx.n % d:
        raise NotADivisor(f"{d} does not divide {ctx.n}")
    traces = []
    for j in range(ctx.n):
        x = acc = ctx.basis_element(j)
        for _ in range(1, ctx.n // d):
            x = ctx.frobenius(x, d)
            acc = ctx.add(acc, x)
        traces.append(acc)
    return span(ctx, traces)


_NO_SQUARE = "U has no nonzero square, the invariant is undefined"


def D_invariant(U: Subspace) -> int:
    """Greatest divisor d of n with a^2 F_{q^d} inside U for some a != 0.

    On tabled fields each d is one gather.  F_{q^d}* is generated by
    zeta = g^step with step = (q^n - 1)/(q^d - 1), so a^2 F_{q^d} depends
    only on the coset a F_{q^d}*, whose representatives are g^k for
    k < step.  zeta has degree d over F_q, so zeta^j (j < d) is an
    F_q-basis of F_{q^d}, and a^2 F_{q^d} lies in the F_q-space U exactly
    when every g^(2k + j*step) does: one lookup of U's membership array
    at the field's ``subfield_grid(d)``.

    The last step, d = 1, asks whether a^2 lies in U for some a != 0, which
    is the square test itself: when it fails, U has no nonzero square.
    Without tables a^2 F_{q^d} inside U puts a^2 in U, so each d scans
    U's nonzero squares u until one has u b in U for each element b of an
    F_q-basis of F_{q^d} (``subfield_subspace``).
    """
    ctx = U.ctx
    members = np.flatnonzero(U.member)[1:] if ctx._exp_np is None else None
    for d in sorted(_divisors(ctx.n), reverse=True):
        if d > U.dim:
            continue
        if ctx._exp_np is not None:
            if U.member[ctx.subfield_grid(d)].all(axis=1).any():
                return d
            continue
        sub_basis = subfield_subspace(ctx, d).basis
        squares = (u for u in map(int, members) if ctx.is_square(u))
        if any(all(U.contains(ctx.mul(u, b)) for b in sub_basis) for u in squares):
            return d
    raise NoNonzeroSquare(_NO_SQUARE)


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
