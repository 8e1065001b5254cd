"""Product-subspace graphs and exact clique search.

For a proper F_q-subspace U of F_{q^n}, the graph has one vertex per
field element and an edge between distinct a, b exactly when ab lies in
U.  Vertex 0 is adjacent to everything.  Adjacency is bit-packed, one
Python integer per row, which keeps the branch-and-bound inner loops on
whole-word operations.

The row of v != 0 is v^-1 U, less v itself, plus 0.  U is an F_q-space,
so lam U = U for every lam in F_q*, and the q - 1 vertices of each
F_q*-orbit share that set.  When v^2 is outside U the orbit's vertices
are false twins (pairwise non-adjacent, equal rows: one shared integer);
when v^2 lies in U they are true twins (pairwise adjacent, equal rows
once each vertex's own bit is added).  The graph build packs one row per
orbit, and the search relabels one row per twin class.

The exact solver is a branch-and-bound with a greedy-coloring upper
bound.  The paper's structure theorem makes the vertices with v^2 outside
U linearly independent in every clique, but the search needs no filter
for it: each candidate is a common neighbour of the branch, so the branch
plus the candidate is already a clique and already satisfies it.

Whether v^2 lies in U is read from one place, ``square_in_U_mask``: U's
membership array indexed by the field's table of squares, packed into
an integer once per graph.  The seed cliques and the clique
decomposition both take it from there.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    CapExceeded,
    NotMaximal,
    StructureViolation,
    TimeLimitExceeded,
    ZeroDimension,
)
from .gf import FieldCtx
from .linalg import Subspace, contains_nonzero_square, rank, span

DEFAULT_VERTEX_BUDGET = 65536
DEFAULT_CLIQUE_CAP = 10**6
BUDGET_ENV_VAR = "PALEYVEC_BUDGET_VERTICES"


def vertex_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_VERTEX_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise BudgetExceeded(f"bad {BUDGET_ENV_VAR} value {raw!r}") from exc
    if value < 1:
        raise BudgetExceeded(f"bad {BUDGET_ENV_VAR} value {raw!r}")
    return value


def check_vertex_budget(n_vertices: int, max_vertices: int | None = None) -> None:
    """Refuse a graph on more vertices than the budget (default from the environment)."""
    if max_vertices is None:
        max_vertices = vertex_budget()
    if n_vertices > max_vertices:
        raise BudgetExceeded(f"{n_vertices} vertices exceed the budget {max_vertices}")


class GraphGU:
    """Graph on F_{q^n} with edges (a, b) whenever a != b and ab lies in U."""

    __slots__ = ("ctx", "U", "n_vertices", "adjacency", "degrees", "_sq_mask")

    def __init__(self, ctx: FieldCtx, U: Subspace, adjacency: list[int]):
        self.ctx = ctx
        self.U = U
        self.n_vertices = ctx.order
        self.adjacency = adjacency
        self.degrees = [row.bit_count() for row in adjacency]
        self._sq_mask = None

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.adjacency[a] >> b & 1)

    def square_in_U_mask(self) -> int:
        """Bit mask of the vertices whose square lies in U, built once per graph."""
        if self._sq_mask is None:
            square_in_U = self.U.member[self.ctx.squares()]
            self._sq_mask = _pack_rows(square_in_U[None, :])[0]
        return self._sq_mask


def build_graph(ctx: FieldCtx, U: Subspace, *, max_vertices: int | None = None) -> GraphGU:
    """Build the bit-packed adjacency of the product-subspace graph.

    Row v is v^-1 U with 0 added and v itself removed.  On tabled fields
    one row is packed per F_q*-orbit and shared by the orbit, which costs
    O(q^n * q^dim / (q - 1)) scatter work instead of O(q^2n) membership
    tests; the scalar path sets the bit of u / v for every u and v.
    """
    if U.dim < 1:
        raise ZeroDimension("graphs need a subspace of dimension at least 1")
    check_vertex_budget(ctx.order, max_vertices)
    if ctx._exp_np is not None:
        rows = _build_rows_tabled(ctx, U)
    else:
        rows = _build_rows_scalar(ctx, [u for u in U.enumerate_elements() if u])
    return GraphGU(ctx, U, rows)


# booleans per block of base rows: small blocks keep the scatter in cache
_SCATTER_CELLS = 1 << 18


def _build_rows_tabled(ctx: FieldCtx, U: Subspace) -> list[int]:
    n, mord = ctx.order, ctx.mord
    # F_q* is generated by g^step, so column k of this view of the exp
    # table is the orbit of g^k, whose vertices share the set g^-k U
    step = mord // (ctx.q - 1)
    orbits = ctx._exp_np.reshape(ctx.q - 1, step)
    # indices stay int64 (intp): numpy casts any other index type to it
    log_u = ctx._log_np[np.flatnonzero(U.member)[1:]]  # U \ {0}
    exp2 = np.concatenate([ctx._exp_np, ctx._exp_np])  # g^i for 0 <= i < 2 mord
    rows = [0] * n
    rows[0] = (1 << n) - 2  # vertex 0 sees everyone else
    chunk = max(1, _SCATTER_CELLS // n)
    for start in range(0, step, chunk):
        ks = np.arange(start, min(start + chunk, step))
        # bit g^(log u - k) of base row k, at its offset in the flat block
        cells = exp2[log_u[None, :] + (mord - ks)[:, None]]
        cells += (np.arange(len(ks)) * n)[:, None]
        bits = np.zeros((len(ks), n), dtype=bool)
        bits.reshape(-1)[cells.reshape(-1)] = True
        bits[:, 0] = True
        packed = np.packbits(bits, axis=1, bitorder="little")
        for packed_row, orbit in zip(packed, orbits[:, ks].T.tolist()):
            base = int.from_bytes(packed_row.tobytes(), "little")
            for v in orbit:
                # v^2 in U puts v in its own row: drop the self-loop
                rows[v] = base ^ 1 << v if base >> v & 1 else base
    return rows


def _build_rows_scalar(ctx: FieldCtx, members: list[int]) -> list[int]:
    n = ctx.order
    rows = [(1 << n) - 2]
    for v in range(1, n):
        inv_v = ctx.inv(v)
        row = 1  # bit 0
        for u in members:
            row |= 1 << ctx.mul(u, inv_v)
        row &= ~(1 << v)
        rows.append(row)
    return rows


# -- exact maximum clique ---------------------------------------------------


class _Search:
    """Colouring branch-and-bound over rows in search labels.

    The vertex searched i-th of n has label n - 1 - i (see
    ``_search_rows``), so the next vertex to colour is the highest bit of a
    candidate set and ``bit_length`` finds it without isolating a bit.
    """

    __slots__ = ("adj", "nonadj", "bits", "best", "best_size", "deadline", "nodes")

    def __init__(self, adj, deadline=None):
        full = (1 << len(adj)) - 1
        self.adj = adj
        self.bits = [1 << v for v in range(len(adj))]
        # non-neighbours other than v itself: one AND takes v and its
        # neighbours out of a colour class
        self.nonadj = [full ^ row ^ bit for row, bit in zip(adj, self.bits)]
        self.best: list[int] = []
        self.best_size = 0
        self.deadline = deadline
        self.nodes = 0

    def seed(self, witness: list[int]) -> None:
        self.best = list(witness)
        self.best_size = len(witness)

    def _color_order(self, cand: int, kmin: int) -> tuple[list[int], list[int]]:
        """Greedy colour classes of ``cand``, each filled in search order;
        the vertices of colour at least ``kmin``, in colour order."""
        nonadj, bits = self.nonadj, self.bits
        uncolored = cand
        color = 1
        while uncolored and color < kmin:
            group = uncolored
            while group:
                v = group.bit_length() - 1
                group &= nonadj[v]
                uncolored ^= bits[v]
            color += 1
        order: list[int] = []
        colors: list[int] = []
        while uncolored:
            group = uncolored
            while group:
                v = group.bit_length() - 1
                order.append(v)
                colors.append(color)
                group &= nonadj[v]
                uncolored ^= bits[v]
            color += 1
        return order, colors

    def expand(self, stack: list[int], cand: int) -> None:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise TimeLimitExceeded("clique search exceeded its time limit")
        # a vertex of colour below kmin cannot lift the branch past best_size,
        # which only grows while this node's vertices are tried
        order, colors = self._color_order(cand, self.best_size - len(stack) + 1)
        adj, bits = self.adj, self.bits
        for idx in range(len(order) - 1, -1, -1):
            if len(stack) + colors[idx] <= self.best_size:
                return
            v = order[idx]
            stack.append(v)
            rest = cand & adj[v]
            if rest:
                self.expand(stack, rest)
            elif len(stack) > self.best_size:
                self.best = stack.copy()
                self.best_size = len(stack)
            stack.pop()
            cand ^= bits[v]


_RELABEL_ROWS = 1024


def _search_rows(
    adj: list[int], order: list[int] | np.ndarray | None
) -> tuple[list[int], list[int]]:
    """Relabel a graph so that the vertex searched i-th of n gets label
    n - 1 - i.  Returns ``vertex_of`` (label -> vertex) and the rows, which
    must have no self-loops.

    Each class of twins is relabelled once, from its first vertex's row.
    A false twin has the same row and shares the relabelled one.  A true
    twin has the same closed row (row plus own bit); a class with one
    relabels the closed row, and each member clears its own label's bit.
    """
    n = len(adj)
    vertex_of = np.arange(n - 1, -1, -1) if order is None else np.asarray(order)[::-1]
    vertices = vertex_of.tolist()
    by_row: dict[int, int] = {}  # a class's first row -> class
    by_closed: dict[int, int] = {}  # and its closed row -> class
    first: list[int] = []  # label of each class's first vertex
    distinct: list[int] = []  # the row each class relabels
    shut: list[bool] = []  # whether that row is the closed one
    class_of: list[int] = []  # by label; ~c for a true twin in class c
    for i, v in enumerate(vertices):
        row = adj[v]
        new = len(first)
        c = by_row.setdefault(row, new)
        if c == new:
            closed_row = row | 1 << v
            c = by_closed.setdefault(closed_row, new)
            if c == new:
                first.append(i)
                distinct.append(row)
                shut.append(False)
            else:
                del by_row[row]
                distinct[c] = closed_row
                shut[c] = True
                c = ~c
        class_of.append(c)
    relabelled: list[int] = []
    # a block of rows at a time: the unpacked block takes n bytes per row
    for start in range(0, len(distinct), _RELABEL_ROWS):
        block = _unpack_rows(distinct[start:start + _RELABEL_ROWS], n)
        relabelled += _pack_rows(block.take(vertex_of, 1))
    # the first vertex of a class and its false twins share one row
    shared = [r ^ 1 << i if s else r for r, i, s in zip(relabelled, first, shut)]
    rows = [shared[c] if c >= 0 else relabelled[~c] ^ 1 << i for i, c in enumerate(class_of)]
    return vertices, rows


def _labels(vertex_of: list[int], vertices) -> list[int]:
    label_of = {v: i for i, v in enumerate(vertex_of)}
    return [label_of[v] for v in vertices]


def _unpack_rows(adj: list[int], n: int) -> np.ndarray:
    """Rows as a 0/1 uint8 matrix of n columns."""
    nbytes = (n + 7) // 8
    raw = b"".join(row.to_bytes(nbytes, "little") for row in adj)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(adj), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :n]


def _pack_rows(mat: np.ndarray) -> list[int]:
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(packed[i].tobytes(), "little") for i in range(mat.shape[0])]


def greedy_seed_clique(G: GraphGU) -> list[int]:
    """Constructive starter cliques, greedily extended.

    Finds the triangle {0, a, u/a} built from the least a with a^2
    outside U (there is one whenever U is proper), and when U contains a
    nonzero square w = a^2 the clique a*F_q (plus one extra vertex when
    dim > 1).
    """
    ctx = G.ctx
    U = G.U
    members = U.enumerate_elements()
    seeds: list[list[int]] = []
    u0 = next(u for u in members if u)
    full = (1 << G.n_vertices) - 1
    # 0 is in U, so any vertex with its square outside U is nonzero
    sq_out = ~G.square_in_U_mask() & full
    if sq_out:
        a_out = (sq_out & -sq_out).bit_length() - 1
        seeds.append([0, a_out, ctx.mul(u0, ctx.inv(a_out))])
    if contains_nonzero_square(U):
        w = next(u for u in members if u and ctx.is_square(u))
        a = ctx.sqrt(w)
        line = [ctx.mul(a, lam) for lam in range(ctx.q)]
        if U.dim > 1:
            line_prod = {ctx.mul(w, lam) for lam in range(ctx.q)}
            extra = next(u for u in members if u not in line_prod)
            line.append(ctx.mul(extra, ctx.inv(a)))
        seeds.append(line)
    best: list[int] = []
    for seed in seeds:
        seed = sorted(set(seed))
        cand = full
        for v in seed:
            cand &= G.adjacency[v]
        clique = list(seed)
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            clique.append(v)
            cand &= G.adjacency[v]
        if len(clique) > len(best):
            best = sorted(clique)
    return best


def max_clique_bitset(
    adj: list[int],
    *,
    order: list[int] | np.ndarray | None = None,
    seed: list[int] | None = None,
    deadline: float | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique of a bit-packed graph, with a sorted witness.

    ``order`` lists the vertices in the order the search takes them
    (default: by index); ``seed`` is a known clique to start from.
    """
    vertex_of, rows = _search_rows(adj, order)
    search = _Search(rows, deadline)
    if seed:
        search.seed(_labels(vertex_of, seed))
    search.expand([], (1 << len(rows)) - 1)
    return search.best_size, tuple(sorted(vertex_of[v] for v in search.best))


def clique_number_exact(
    G: GraphGU,
    *,
    workers: int = 1,
    time_limit: float | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique.

    The search takes vertices by descending degree (ties by index), keeps
    bit-packed candidate sets, and starts from the constructive
    lower-bound cliques.  Results are deterministic for a fixed
    configuration; the clique number itself is independent of the worker
    count.

    Memory, besides the graph's own rows (n^2/8 bytes at most; false twins
    share one integer): the relabelled rows and the search's complement
    rows take n^2/8 bytes each and its single-bit masks about half that,
    so about 5 MB at 4,096 vertices and 1.3 GB at the default budget of
    65,536.  The relabelling unpacks only the distinct rows, one block of
    1,024 at a time.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    order = np.argsort(-np.asarray(G.degrees), kind="stable")
    seed = greedy_seed_clique(G)
    if workers <= 1:
        return max_clique_bitset(G.adjacency, order=order, seed=seed, deadline=deadline)
    return _solve_parallel(G.adjacency, order, seed, deadline, workers)


def _solve_parallel(adj, order, seed, deadline, workers):
    vertex_of, rows = _search_rows(adj, order)
    root_order, _ = _Search(rows)._color_order((1 << len(rows)) - 1, 1)
    subproblems = []
    mask = (1 << len(rows)) - 1
    for v in reversed(root_order):
        subproblems.append((v, mask & rows[v]))
        mask &= ~(1 << v)
    chunks: list[list[tuple[int, int]]] = [[] for _ in range(workers)]
    for i, sub in enumerate(subproblems):
        chunks[i % workers].append(sub)
    # a monotonic clock is only comparable within one process, so workers
    # get the remaining budget and start their own clock from it
    budget = None if deadline is None else deadline - time.monotonic()
    payload_common = (rows, _labels(vertex_of, seed), budget)
    best_size, best_witness = len(seed), tuple(sorted(seed))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = pool.map(_solve_chunk, [payload_common + (chunk,) for chunk in chunks])
        for size, witness in results:
            mapped = tuple(sorted(vertex_of[v] for v in witness))
            if size > best_size or (size == best_size and mapped < best_witness):
                best_size, best_witness = size, mapped
    return best_size, best_witness


def _solve_chunk(payload):
    rows, seed, budget, chunk = payload
    search = _Search(rows, None if budget is None else time.monotonic() + budget)
    search.seed(seed)
    for v, cand in chunk:
        search.expand([v], cand)
    return search.best_size, tuple(search.best)


# -- maximal clique enumeration ---------------------------------------------


def enumerate_maximal_cliques(G: GraphGU, cap: int = DEFAULT_CLIQUE_CAP):
    """All inclusion-maximal cliques, by pivoted recursion, each exactly once."""
    adj = G.adjacency
    count = 0

    def recurse(R: list[int], P: int, X: int):
        nonlocal count
        if not P and not X:
            count += 1
            if count > cap:
                raise CapExceeded(f"more than {cap} maximal cliques")
            yield tuple(R)
            return
        both = P | X
        pivot = -1
        pivot_score = -1
        rest = both
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            score = (P & adj[u]).bit_count()
            if score > pivot_score:
                pivot, pivot_score = u, score
        ext = P & ~adj[pivot]
        while ext:
            low = ext & -ext
            v = low.bit_length() - 1
            ext ^= low
            R.append(v)
            yield from recurse(R, P & adj[v], X & adj[v])
            R.pop()
            P &= ~low
            X |= low

    yield from recurse([], (1 << G.n_vertices) - 1, 0)


def is_maximal_clique(G: GraphGU, C) -> bool:
    verts = sorted(set(C))
    mask = 0
    for v in verts:
        mask |= 1 << v
    common = (1 << G.n_vertices) - 1
    for v in verts:
        if (G.adjacency[v] & mask).bit_count() != len(verts) - 1:
            return False
        common &= G.adjacency[v]
    return common & ~mask == 0


# -- maximal clique decomposition -------------------------------------------


@dataclass(frozen=True)
class CliqueDecomposition:
    """Split of a maximal clique into its square part and the rest.

    ``square_part`` holds the clique vertices whose square lies in U; they
    form a subspace of dimension ``t``.  V1 holds the remaining vertices
    (always F_q-linearly independent).  The canonical subspaces V2 (the
    square part) and W (the span of V1) are built with ``span`` on first
    read and kept; ``t`` and ``r`` never build them.
    """

    ctx: FieldCtx = field(repr=False, compare=False)
    t: int
    V1: tuple[int, ...]
    square_part: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.V1)

    @functools.cached_property
    def V2(self) -> Subspace:
        return span(self.ctx, self.square_part)

    @functools.cached_property
    def W(self) -> Subspace:
        return span(self.ctx, self.V1)


def decompose_clique(G: GraphGU, C) -> CliqueDecomposition:
    """Validate the structural guarantees of a maximal clique and split it.

    Checks, in order: the square part is a subspace, the rest is
    independent, the two spans meet only at 0, and the size has the shape
    q^t + r with r <= dim(U) + 1 when t = 0 and r + t <= dim(U) otherwise.

    The square part v2 is read from ``G.square_in_U_mask()`` and v1 is the
    rest.  The first three checks are rank statements, answered by
    ``linalg.rank`` without building a subspace: q^rank(v2) = |v2|,
    rank(v1) = |v1| and rank(v2 + v1) = t + r.
    """
    if not is_maximal_clique(G, C):
        raise NotMaximal(f"{sorted(C)} is not a maximal clique")
    ctx = G.ctx
    U = G.U
    sq_mask = G.square_in_U_mask()
    v2: list[int] = []
    v1: list[int] = []
    for v in sorted(set(C)):
        (v2 if sq_mask >> v & 1 else v1).append(v)
    t = rank(ctx, v2)
    if ctx.q**t != len(v2):
        raise StructureViolation("square part of the clique is not a subspace")
    r = len(v1)
    if rank(ctx, v1) != r:
        raise StructureViolation("non-square part of the clique is dependent")
    if rank(ctx, v2 + v1) != t + r:
        raise StructureViolation("spans of the two parts intersect beyond 0")
    if t == 0:
        if r > U.dim + 1:
            raise StructureViolation(f"t = 0 but r = {r} > dim + 1 = {U.dim + 1}")
    elif r + t > U.dim:
        raise StructureViolation(f"r + t = {r + t} > dim = {U.dim}")
    return CliqueDecomposition(ctx, t, tuple(v1), tuple(v2))
