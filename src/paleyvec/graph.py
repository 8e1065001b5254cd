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
once each vertex's own bit is added).  In discrete-log coordinates every
row is U's membership vector shifted by the log of its vertex, so one
kernel (``_orbit_rows``) packs one row per orbit, in any labelling of the
vertices: by index for the graph, and in search labels for the solver,
which so never relabels a graph.  The graph packs its rows on first read
of ``adjacency``, so an exact solve, which reads only its search rows,
packs rows once.  The kernel reads the field's log tables, so graphs are
built on tabled fields only.

The edge test and the automorphism group read U by discrete log: the
graph keeps, from first use, whether g^k lies in U for k < 2(q^n - 1)
(``in_U_by_log``), so ab in U is one read at log a + log b, with no
product, no reduction and no row.

The exact solver is a branch-and-bound with a greedy-coloring upper
bound.  The paper's structure theorem makes the vertices with v^2 outside
U linearly independent in every clique, so a clique holds at most one
vertex of each F_q*-orbit of false twins and any one stands for the rest:
the solver searches one vertex per such orbit.  It needs no other filter
for the theorem: each candidate is a common neighbour of the branch, so
the branch plus the candidate is already a clique and satisfies it.

The maps x -> lam * x^(p^i) with lam^2 sigma_i(U) = U, sigma_i the
p^i-power Frobenius, form a group of automorphisms (``Automorphisms``)
that prunes the root's branches by orbit (orbital branching).  The search
builds it once it has spent 64 nodes, so the many small solves never pay
for it, and with it its orbits on the search labels, by a union-find over
two maps that generate it.

A hyperplane U = ker Tr(cx) has more automorphisms: ab lies in U exactly
when B(a, b) = Tr(cab) is 0, so every isometry of B is one.  ``isometries``
builds twelve, transvections for even q and reflections for odd q, each a
q^n-entry array certified as an isometry before use.  Once the search has
spent 256 nodes, checked when a depth-1 child returns, it takes them as
maps of its labels: their orbits, joined by the group's, cut the root, and
the orbits under those that fix a root branch's vertex cut that branch's
children (isomorphism pruning at depth 1).  A hyperplane so keeps a
handful of root orbits: the 2^1^11 trace-zero one takes 5,194 nodes, not
816,268.

Whether v^2 lies in U is read from one place: U's membership array
indexed by the field's table of squares, once per graph.  It gives the
search labels, which so need no sort, and, packed into an integer,
``square_in_U_mask``, from which the seed cliques and the clique
decomposition take it; ``square_clique`` searches those vertices alone.
The degrees (v != 0 has |U| neighbours, less one when v^2 lies in U) are
formed from it only when ``degrees`` is read, which a solve never does.

The seed cliques read U through its canonical basis: the first nonzero
element in coordinate order is the last basis element, and the square
the second seed needs is found by a walk of U in that order
(``Subspace.iter_elements``) that stops at the first hit.  A solve so
never lists U.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

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
from .linalg import (
    Subspace,
    _digit_add_np,
    extend_echelon,
    fp_combinations,
    functional_of_hyperplane,
    rank,
)


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

    __slots__ = ("ctx", "U", "n_vertices", "_square_in_U", "_sq_mask", "_rows", "_by_log")

    def __init__(self, ctx: FieldCtx, U: Subspace):
        self.ctx = ctx
        self.U = U
        self.n_vertices = ctx.order
        self._rows: list[int] | None = None
        self._by_log: bytes | None = None
        square_in_U = U.member[ctx.squares()]
        self._square_in_U = square_in_U
        packed = np.packbits(square_in_U, bitorder="little").tobytes()
        self._sq_mask = int.from_bytes(packed, "little")

    @property
    def degrees(self) -> list[int]:
        """The degree of each vertex, by index, formed from the square mask
        on each read (nothing in a solve reads it): the row of v != 0 is
        v^-1 U less v itself when v^2 lies in U."""
        degrees = self.U.size - self._square_in_U.astype(np.intp)
        degrees[0] = self.n_vertices - 1
        return degrees.tolist()

    @property
    def adjacency(self) -> list[int]:
        """The bit-packed rows, one per vertex index: packed by
        ``_orbit_rows`` on first read and kept."""
        if self._rows is None:
            self._rows = _orbit_rows(self.ctx, self.U)
        return self._rows

    @property
    def in_U_by_log(self) -> bytes:
        """U's membership by discrete log: byte k, for k < 2(q^n - 1), is 1
        when g^k lies in U, so a sum of two logs needs no reduction.  Built
        on first read and kept."""
        if self._by_log is None:
            member = self.U.member[self.ctx._exp_np]
            self._by_log = np.concatenate([member, member]).tobytes()
        return self._by_log

    def has_edge(self, a: int, b: int) -> bool:
        """The paper's test, a != b and ab in U: for nonzero a and b one
        read of ``in_U_by_log`` at log a + log b, no product and no row."""
        if a == b:
            return False
        if a == 0 or b == 0:
            return True
        log = self.ctx._log
        # the slot once built: a property read would cost a third of the call
        return (self._by_log or self.in_U_by_log)[log[a] + log[b]] == 1

    def square_in_U_mask(self) -> int:
        """Bit mask of the vertices whose square lies in U."""
        return self._sq_mask


def build_graph(ctx: FieldCtx, U: Subspace, *, max_vertices: int | None = None) -> GraphGU:
    """The product-subspace graph, with its square mask.

    It costs one q^n-entry gather of U's membership by the field's table
    of squares, and the pack of that gather into the mask; the degrees are
    formed from it on each read of ``degrees``, and the rows are packed on
    the first read of ``adjacency`` (``_orbit_rows``).  An exact solve
    reads neither.  Row v is v^-1 U with 0 added and v itself removed,
    and false twins share one integer: a dense U costs one q^n-byte column
    gather per F_q*-orbit, a sparse U a scatter of q^dim cells.  The rows
    read the field's log tables, so a field without them is refused; above
    the default table limit the rows alone would take at least 128 GB.
    """
    if U.dim < 1:
        raise ZeroDimension("graphs need a subspace of dimension at least 1")
    check_vertex_budget(ctx.order, max_vertices)
    if not ctx.tabled:
        raise BudgetExceeded(
            f"graphs need the field's tables: order {ctx.order} exceeds"
            f" the table limit {ctx.table_limit}"
        )
    return GraphGU(ctx, U)


# cells per block of base rows (a byte each), and so per deadline check
_BLOCK_CELLS = 1 << 20
# a U holding at least this share of the field is gathered, a smaller one
# scattered: the two fills cross over at about 1/16 to 1/32
_DENSE_SHARE = 16


def _orbit_rows(
    ctx: FieldCtx,
    U: Subspace,
    label_of: np.ndarray | None = None,
    deadline: float | None = None,
) -> list[int]:
    """The rows of G_U in the labelling ``label_of`` (vertex -> label in
    0..m-1, onto, default the identity): row i holds bit j when a vertex of
    label i and one of label j are adjacent.  Vertices that share a label
    must make up a whole F_q*-orbit of false twins.  Needs the field's
    tables.

    The row of g^k is g^-k U, the same for every vertex of the orbit
    g^k F_q*, so one base row is filled per orbit.  A block of base rows
    is filled label-major, cell (j, i) for label j and base row start + i:
    - dense U (|U| >= q^n / _DENSE_SHARE): member[i] says whether g^i lies
      in U (i mod q^n - 1), so the cells of label j are the run of member
      from start + log v, for v a vertex of that label (lam v g^i lies in U
      exactly when v g^i does).  They are row log v of a window over
      member, and one gather by the logs copies every run;
    - sparse U: the labels of g^(log u - k), u in U, u != 0, are scattered,
      twins of one label into one cell.
    Vertex 0's cells are then set and each orbit's first vertex's own cell
    cleared, so that vertex takes the packed row as it is.  False twins
    share that int, which is written once when they share a label; a true
    twin (v^2 in U) swaps its own bit for the first vertex's.  The deadline
    is checked after each block.
    """
    n, mord, exp, log = ctx.order, ctx.mord, ctx._exp_np, ctx._log_np
    if label_of is None:
        label_of = np.arange(n)
    m = int(label_of.max()) + 1
    lexp = label_of[exp]  # the label of g^i
    zero = int(label_of[0])
    # F_q* is generated by g^step, so column k holds the orbit of g^k
    step = mord // (ctx.q - 1)
    orbits = lexp.reshape(ctx.q - 1, step)
    # labels come in whole bytes and base rows in whole words of 8
    height = 8 * ((m + 7) // 8)
    chunk = 8 * max(1, min(_BLOCK_CELLS // (8 * height), -(-step // 8)))
    dense = _DENSE_SHARE * U.size >= n
    if dense:
        member = np.resize(U.member[exp], step + chunk + mord)
        logs = np.zeros(height, dtype=np.intp)
        logs[label_of] = log  # any vertex of a label; 0's cells are set below
    else:
        # indices stay int64 (intp): numpy casts any other index type to it
        log_u = log[np.flatnonzero(U.member)[1:]]  # U \ {0}
        lexp2 = np.concatenate([lexp, lexp])
    rows = [0] * m
    rows[zero] = (1 << m) - 1 ^ 1 << zero  # vertex 0 sees everyone else
    for start in range(0, step, chunk):
        count = min(chunk, step - start)
        if dense:
            window = np.ndarray(
                (mord, chunk), dtype=bool, buffer=member, offset=start, strides=(1, 1)
            )
            cells = window[logs]
            cells[m:] = False
        else:
            # the label of g^(log u - k) for base row k, at its cell in the block
            at = lexp2[log_u[None, :] + np.arange(mord - start, mord - start - count, -1)[:, None]]
            cells = np.zeros((height, chunk), dtype=bool)
            cells.reshape(-1)[(at * chunk + np.arange(count)[:, None]).reshape(-1)] = True
        cells[zero] = True
        diagonal = (lexp[start:start + count], np.arange(count))
        loops = cells[diagonal]  # v^2 in U: v sees itself in the base row
        cells[diagonal] = False
        packed = _pack_columns(cells, count)
        block = orbits[:, start:start + count]
        for first, row in zip(block[0].tolist(), packed):
            rows[first] = row
        # the orbits whose vertices have labels of their own
        spread = np.flatnonzero(block[-1] != block[0])
        spread_orbits = block[:, spread].T.tolist()
        for i, loop, orbit in zip(spread.tolist(), loops[spread].tolist(), spread_orbits):
            first, row = orbit[0], packed[i]
            for w in orbit[1:]:
                rows[w] = row ^ (1 << first | 1 << w) if loop else row
        _check_deadline(deadline, "search-row build")
    return rows


# bit j of a byte, in each byte of a word
_BYTE_BITS = np.uint64(1) << np.arange(8, dtype=np.uint64)


def _pack_columns(cells: np.ndarray, count: int) -> list[int]:
    """The first ``count`` columns of a 0/1 matrix as ints, bit j from row j.
    Rows come in whole bytes and columns in whole words of 8."""
    # a word holds one row of eight columns, a byte each; the sum of eight
    # rows' words, weighted by 2^j, packs a byte per column
    words = cells.view(np.uint64).reshape(-1, 8, cells.shape[1] // 8)
    packed = np.matmul(_BYTE_BITS, words)
    nbytes = len(packed)
    raw = np.ascontiguousarray(packed.view(np.uint8).T[:count]).tobytes()
    from_bytes = int.from_bytes
    return [from_bytes(raw[i:i + nbytes], "little") for i in range(0, count * nbytes, nbytes)]


# -- exact maximum clique ---------------------------------------------------


def _check_deadline(deadline: float | None, phase: str) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeLimitExceeded(f"{phase} exceeded its time limit")


# once the search has spent this many nodes, the root branch running then
# has the automorphism group built: most solves never get there
_ORBIT_NODES = 64


class _Search:
    """Colouring branch-and-bound over rows in search labels.

    The vertex searched i-th of m has label m - 1 - i, so the next vertex
    to colour is the highest bit of a candidate set and ``bit_length``
    finds it without isolating a bit.  A solve runs ``cut([], cand)``, one
    serial search: the root and its branches cut by orbit (``cut``), the
    nodes below them plain ``expand``.

    ``symmetry``, when given, builds the group of ``Automorphisms`` (in
    vertex numbering) at most once; ``vertex_of`` maps each label to the
    vertex it keeps and ``label_of`` each vertex to its label.
    ``isometries``, when given (a hyperplane), builds the ``isometries`` of
    its form at most once; they are kept as maps of the labels.
    """

    __slots__ = (
        "adj", "nonadj", "bits", "best", "best_size", "deadline", "nodes",
        "symmetry", "vertex_of", "label_of", "group", "orbit_skips", "check_at",
        "isometries", "label_perms", "orbits",
    )

    def __init__(
        self, adj, deadline=None, symmetry=None, vertex_of=None, label_of=None, isometries=None
    ):
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
        self.symmetry = symmetry
        self.vertex_of = vertex_of
        self.label_of = label_of
        self.group = None
        self.orbit_skips = 0
        # the clock is checked at node check_at
        self.check_at = 256 if deadline is not None else sys.maxsize
        self.isometries = isometries
        self.label_perms: np.ndarray | None = None  # the isometries on labels, once built
        self.orbits: np.ndarray | None = None  # the root's parts, once the group is built

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

    def _build_group(self) -> None:
        """The group, and the root's orbits under it: the parts of the
        labels joined along its ``generators`` (the group maps whole twin
        orbits onto whole twin orbits, and so labels onto labels)."""
        self.group = self.symmetry()
        labels = np.arange(len(self.adj))
        gens = self.group.generators()
        images = self.label_of[self.group.images(self.vertex_of, gens)]
        self.orbits = _join(labels, np.repeat(labels, len(gens)), images.ravel())
        _check_deadline(self.deadline, "the automorphism group")

    def _build_isometries(self) -> None:
        """The isometries as label maps (an isometry keeps B(v, v), so it
        maps whole twin orbits onto whole labels), and the root's orbits
        under them and the group.  Builds the group too if it is not yet
        built."""
        perms = self.label_of[self.isometries()[:, self.vertex_of]]
        self.isometries = None
        if self.group is None:
            self._build_group()
        labels = np.arange(len(self.adj))
        self.orbits = _join(self.orbits, np.tile(labels, len(perms)), perms.ravel())
        self.label_perms = perms
        _check_deadline(self.deadline, "the isometries")

    def stabiliser(self, v: int) -> np.ndarray:
        """The parts of the labels under the isometries that fix label v,
        as each label's least part-mate: those with B(a, v) = 0 fix v."""
        perms = self.label_perms[self.label_perms[:, v] == v]
        labels = np.arange(len(self.adj))
        return _join(labels, np.tile(labels, len(perms)), perms.ravel())

    def cut(self, stack: list[int], cand: int) -> None:
        """``expand(stack, cand)`` for a stack of at most one vertex, with
        the children cut by orbit: at the root (depth 0) by the orbits of
        the group and the isometries, and at depth 1, on v, by the orbits
        under the isometries that fix v.

        Once the child w has returned, ``best_size`` bounds every clique
        through the stack and w, and so through the stack and any image of
        w under a map that fixes the stack: the parts of the children
        returned so far leave the candidates (``_cover``).  At the root the
        parts are ``orbits``, read again after every child, since the
        isometries, built below it, join onto them; the group is built when
        a child returns with ``_ORBIT_NODES`` nodes spent in all.  At depth
        1 they are ``stabiliser(v)``, formed once the isometries are built,
        which a returning child triggers at ``_ISOMETRY_NODES`` nodes.  The
        root calls ``cut`` on each child, depth 1 ``expand``.  Without
        symmetry the cut is ``expand(stack, cand)`` node for node;
        ``orbit_skips`` counts the root's children skipped as orbit-mates.
        """
        if self.nodes >= self.check_at:
            self._checkpoint()
        self.nodes += 1
        depth = len(stack)
        order, colors = self._color_order(cand, self.best_size - depth + 1)
        adj, bits = self.adj, self.bits
        child = self.expand if depth else self.cut
        returned = 0
        parts = None
        for idx in range(len(order) - 1, -1, -1):
            if depth + colors[idx] <= self.best_size:
                return
            w = order[idx]
            if not cand >> w & 1:
                if not depth:
                    self.orbit_skips += 1
                continue
            stack.append(w)
            rest = cand & adj[w]
            if rest:
                child(stack, rest)
            elif len(stack) > self.best_size:
                self.best, self.best_size = stack.copy(), len(stack)
            stack.pop()
            returned |= bits[w]
            if not depth:
                if self.group is None and self.symmetry is not None and self.nodes >= _ORBIT_NODES:
                    self._build_group()
                parts = self.orbits
            elif parts is None:
                if self.isometries is not None and self.nodes >= _ISOMETRY_NODES:
                    self._build_isometries()
                if self.label_perms is not None:
                    parts = self.stabiliser(stack[0])
            cand &= ~(returned if parts is None else _cover(parts, returned))

    def _checkpoint(self) -> None:
        _check_deadline(self.deadline, "clique search")
        self.check_at = self.nodes + 256

    def expand(self, stack: list[int], cand: int) -> None:
        if self.nodes >= self.check_at:
            self._checkpoint()
        self.nodes += 1
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


def _cover(parts: np.ndarray, labels: int) -> int:
    """The union of the parts (each label's least part-mate) that meet the
    labels of a bit mask, as a bit mask."""
    m = len(parts)
    raw = np.frombuffer(labels.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
    met = np.zeros(m, dtype=bool)
    met[parts[np.unpackbits(raw, count=m, bitorder="little").view(bool)]] = True
    return int.from_bytes(np.packbits(met[parts], bitorder="little").tobytes(), "little")


def _join(parts: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """The partition ``parts`` (each label's least part-mate) with the
    parts of us[i] and vs[i] joined for every i: a union-find in whole-array
    steps, each hooking the larger root of every split pair onto the
    smaller, then pointing every label at its root."""
    parts = parts.copy()
    while True:
        ru, rv = parts[us], parts[vs]
        split = ru != rv
        if not split.any():
            return parts
        us, vs, ru, rv = us[split], vs[split], ru[split], rv[split]
        np.minimum.at(parts, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = parts[parts]
            if np.array_equal(up, parts):
                break
            parts = up


def greedy_seed_clique(G: GraphGU) -> list[int]:
    """Constructive starter cliques, greedily extended.

    Finds the triangle {0, a, u/a} built from the least a with a^2
    outside U (there is one whenever U is proper) and u the first nonzero
    element of U, and when U contains a nonzero square w = a^2 the clique
    a*F_q (plus one extra vertex when dim > 1).  Each is extended by the
    least common neighbour in turn.
    """
    label_of, vertex_of = _search_labels(G)
    return _seed_clique(G, label_of, vertex_of, _orbit_rows(G.ctx, G.U, label_of))


def _seed_clique(
    G: GraphGU, label_of: np.ndarray, vertex_of: list[int], rows: list[int]
) -> list[int]:
    """``greedy_seed_clique`` on search rows labelled by ``_search_labels``.

    U is read through its canonical basis, in the order of
    ``Subspace.enumerate_elements``: its first nonzero elements are the
    multiples of the last basis element u0, and the next is the basis
    element before it.  So u0 is the first nonzero element, and the extra
    vertex's u, the first element off the line F_q w, is u0 unless w lies
    on F_q u0, and then that next basis element.  w, the first nonzero
    square, is u0 for p = 2, where every element is a square, and for odd
    p comes from ``iter_elements``, which stops at it.

    The extension takes the candidate labels in ascending order of the
    vertex each keeps, which picks what a walk over the graph's rows by
    least vertex picks: a false-twin orbit keeps its least vertex (its
    members tie in degree), and that walk takes it or none of its
    non-adjacent twins.  Below the label of 0 the labels come in two runs,
    the kept false twins and then the vertices with v^2 in U, and within a
    run a higher label keeps a lower vertex; so the next vertex is the
    lower of the two runs' top candidates, one bit length each.
    """
    ctx = G.ctx
    U = G.U
    m = len(rows)
    # labels m - 2 down to m - 1 - twins keep false twins, those below squares in U
    twins = m - G._sq_mask.bit_count()
    square_run = (1 << m - 1 - twins) - 1
    u0 = U.basis[-1]
    seeds: list[list[int]] = []
    if twins:
        a_out = vertex_of[m - 2]  # the least vertex with its square outside U
        seeds.append([0, a_out, ctx.mul(u0, ctx.inv(a_out))])
    if G._sq_mask > 1:  # some v != 0 has v^2 in U: U holds a nonzero square
        w = u0 if ctx.p == 2 else next(u for u in U.iter_elements() if u and ctx.is_square(u))
        a = ctx.sqrt(w)
        line = [ctx.mul(a, lam) for lam in range(ctx.q)]
        if U.dim > 1:
            # w / u0 has an index below q exactly when it lies in F_q
            extra = U.basis[-2] if ctx.mul(w, ctx.inv(u0)) < ctx.q else u0
            line.append(ctx.mul(extra, ctx.inv(a)))
        seeds.append(line)
    best: list[int] = []
    for seed in seeds:
        seed = sorted(set(seed))
        cand = (1 << m) - 1
        for j in label_of[seed].tolist():
            cand &= rows[j]
        clique = list(seed)
        while cand:
            squares = cand & square_run
            j = (cand ^ squares).bit_length() - 1
            k = squares.bit_length() - 1
            if j < 0 or k >= 0 and vertex_of[k] < vertex_of[j]:
                j = k
            clique.append(vertex_of[j])
            cand &= rows[j]
        if len(clique) > len(best):
            best = sorted(clique)
    return best


class Automorphisms:
    """The automorphisms x -> lam * x^(p^i) of a graph on a tabled field.

    The maps with i < mn and lam^2 sigma_i(U) = U, for sigma_i the p^i-power
    map, are automorphisms, since phi(a) phi(b) = lam^2 sigma_i(ab) lies in
    U exactly when ab does.  They are closed under composition, so they
    form a group, and the orbit of v is just the set of its images.

    For each i, mu = lam^2 maps sigma_i(U) onto U, so mu sigma_i(b_0) is
    some nonzero u in U: the candidates are log mu = log u - p^i log b_0,
    and b_0 holds for each of them by construction.  A candidate is kept
    when mu sigma_i(b) lies in U for every later basis element b: the
    candidates are filtered one basis element at a time, each a read of
    the graph's ``in_U_by_log`` at log mu + (p^i log b mod q^n - 1), which
    stays below 2(q^n - 1).  Each square mu gives lam = g^(log mu / 2)
    and, for odd q, its negative; for even q the square root is unique.  A
    map is kept as the pair (log lam, p^i), a row of the int64 array
    ``maps``.
    """

    __slots__ = ("ctx", "maps")

    def __init__(self, G: GraphGU):
        ctx, U = G.ctx, G.U
        mord, log = ctx.mord, ctx._log_np
        in_U = np.frombuffer(G.in_U_by_log, dtype=bool)
        log_u = log[np.flatnonzero(U.member)[1:]]  # U \ {0}
        log_b = log[np.asarray(U.basis)]
        self.ctx = ctx
        maps: list[tuple[int, int]] = []
        for i in range(ctx.mn):
            mult = ctx.p**i
            first, *rest = (mult * log_b % mord).tolist()
            mu = (log_u - first) % mord
            for shift in rest:
                mu = mu[in_U[mu + shift]]
            for m in mu.tolist():
                if ctx.p == 2:
                    maps.append((m * (mord + 1 >> 1) % mord, mult))
                elif m % 2 == 0:
                    maps += [(m >> 1, mult), ((m >> 1) + (mord >> 1), mult)]
        self.maps = np.array(maps, dtype=np.int64)

    @property
    def order(self) -> int:
        return len(self.maps)

    def generators(self) -> np.ndarray:
        """Rows of ``maps`` that generate the group, at most two.  The i of
        a composition is the sum of the two mod mn, so the maps with i = 0,
        x -> lam x, form a subgroup of F*, which is cyclic: of order k, it
        is generated by lam = g^((q^n - 1)/k mod q^n - 1).  The i that occur
        form a subgroup of Z/mn, generated by the least positive one: any
        map with that i and the first generate the group."""
        mult = self.maps[:, 1]
        mord = self.ctx.mord
        rows = [(mord // int((mult == 1).sum()) % mord, 1)]
        if (mult > 1).any():
            rows.append(self.maps[np.flatnonzero(mult > 1)[np.argmin(mult[mult > 1])]])
        return np.array(rows, dtype=np.int64)

    def images(self, vertices, maps: np.ndarray | None = None) -> np.ndarray:
        """The image of each given vertex under each map (default ``maps``),
        by one gather: row k holds the images of the k-th vertex, and one
        vertex gives one row."""
        v = np.asarray(vertices)[..., None]
        lam, mult = (self.maps if maps is None else maps).T
        logs = (lam + mult * self.ctx._log_np[v]) % self.ctx.mord
        return np.where(v, self.ctx._exp_np[logs], 0)


# a hyperplane solve takes this many isometries of its form, built once the
# search has spent _ISOMETRY_NODES nodes (checked when a depth-1 child returns)
_ISOMETRY_GENERATORS = 12
_ISOMETRY_NODES = 256


def isometries(G: GraphGU) -> np.ndarray:
    """Certified isometries of B(x, y) = Tr(cxy), for a hyperplane U = ker Tr(cx).

    ab lies in U exactly when B(a, b) = 0, so a bijection that keeps B is an
    automorphism of G_U.  The generators are, for even q, the transvections
    x -> x + B(x, a) a with B(a, a) = 0 and, for odd q, the reflections
    x -> x - 2 B(x, a) / B(a, a) a with B(a, a) != 0, for a the first
    ``_ISOMETRY_GENERATORS`` powers g^j that qualify, j < (q^n - 1)/(q - 1)
    (one per F_q*-orbit, which gives one map).  Each is a q^n-entry array,
    x -> its image: B(x, a) is the trace table read at the log of ca x, and
    x plus its multiple of a is a digit-wise sum.  Each array is certified
    before use (``_certify_isometry``): a permutation, additive on every
    F_p basis shift, that keeps B on every F_p basis pair; so it keeps B
    everywhere, whatever built it.  Returns the arrays, one row each: k
    rows of q^n int64.
    """
    ctx = G.ctx
    p, q, mord = ctx.p, ctx.q, ctx.mord
    c = functional_of_hyperplane(G.U)
    exp, log, trace = ctx._exp_np, ctx._log_np, ctx._trace_np
    x = np.arange(ctx.order)
    two = ctx.add(1, 1)
    perms = []
    for a in ctx._exp[:mord // (q - 1)]:
        if len(perms) == _ISOMETRY_GENERATORS:
            break
        ca = ctx.mul(c, a)
        b_aa = ctx.trace(ctx.mul(ca, a))
        if (b_aa == 0) != (p == 2):
            continue
        scale = 1 if p == 2 else ctx.neg(ctx.mul(two, ctx.inv(b_aa)))
        # the element (scale * s) a for each scalar s of F_q
        step = np.array([ctx.mul(ctx.mul(scale, s), a) for s in range(q)])
        b_xa = trace[exp[(log[ca] + log) % mord]]
        b_xa[0] = 0
        perm = _digit_add_np(x, step[b_xa], p, ctx.mn)
        _certify_isometry(ctx, c, perm)
        perms.append(perm)
    return np.array(perms, dtype=np.int64).reshape(len(perms), ctx.order)


def _certify_isometry(ctx: FieldCtx, c: int, perm: np.ndarray) -> None:
    """Raise ``StructureViolation`` unless ``perm`` is a permutation of the
    field that keeps B(x, y) = Tr(cxy): equal to the F_p-linear map with
    its images of the F_p basis p^i (``linalg.fp_combinations``), so
    additive on every basis shift, and keeping B on every pair of basis
    elements, so keeping B, which is F_p-bilinear."""
    seen = np.zeros(ctx.order, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise StructureViolation("an isometry generator is not a permutation")
    basis = ctx.p ** np.arange(ctx.mn)
    if not np.array_equal(perm, fp_combinations(ctx, perm[basis].tolist())):
        raise StructureViolation("an isometry generator is not additive")
    # a permutation fixing 0 sends the basis to nonzero elements, which have logs
    exp, log, trace = ctx._exp_np, ctx._log_np, ctx._trace_np

    def gram(elems: np.ndarray) -> np.ndarray:
        logs = log[c] + log[elems]
        return trace[exp[(logs[:, None] + log[elems]) % ctx.mord]]

    if not np.array_equal(gram(perm[basis]), gram(basis)):
        raise StructureViolation("an isometry generator does not keep the form")


@dataclass
class SolveStats:
    """What one exact solve did.

    ``vertices`` is the number of vertices searched (``_search_labels``),
    ``nodes`` counts the search nodes expanded and ``seed_size`` is the
    greedy seed clique's size.  ``group_order`` is the
    order of the automorphism group that pruned the root, or None when the
    search never built it (a small solve); ``orbit_skips`` counts the root
    vertices skipped as orbit-mates; ``isometries`` is the number of
    certified isometry generators the search used, 0 when it built none
    (a small solve, or U not a hyperplane).  ``rows_ms``, ``seed_ms`` and
    ``search_ms`` time, in the order they run, the search rows, the seed
    clique (extended on those rows) and the search itself (with the group
    and the isometries).
    """

    vertices: int = 0
    nodes: int = 0
    seed_size: int = 0
    group_order: int | None = None
    orbit_skips: int = 0
    isometries: int = 0
    rows_ms: float = 0.0
    seed_ms: float = 0.0
    search_ms: float = 0.0


def _ms_since(start: float) -> float:
    return round((time.perf_counter() - start) * 1e3, 3)


def _search_labels(G: GraphGU) -> tuple[np.ndarray, list[int]]:
    """The search labels of G's vertices (vertex -> label) and the vertex
    each label keeps (label -> vertex).

    Vertices are searched by descending degree, ties by index.  Each
    F_q*-orbit of false twins (v != 0, v^2 outside U) keeps only its first
    vertex searched, the one a greedy colouring takes first, and the rest
    of the orbit take its label; every other vertex keeps a label of its
    own.  The i-th of the m vertices kept has label m - 1 - i.

    The degrees take three values: q^n - 1 for vertex 0, |U| when v^2 lies
    outside U and |U| - 1 when it lies in U (the whole field gives every
    vertex q^n - 1, and every v^2 lies in it).  So the search order needs
    no sort: 0, then the vertices with v^2 outside U by index, then those
    with v^2 in U by index, read from the graph's square mask; and an
    orbit's first vertex searched is its least.
    """
    n, square_in_U, least = G.n_vertices, G._square_in_U, G.ctx.orbit_least()
    twin = ~square_in_U  # constant on each orbit v F_q*, as lam^2 U = U
    kept_twin = np.flatnonzero(twin & G.ctx.orbit_leaders())
    order = np.concatenate(([0], kept_twin, np.flatnonzero(square_in_U)[1:]))
    label_of = np.empty(n, dtype=np.intp)
    label_of[order] = np.arange(len(order) - 1, -1, -1)
    # the rest of each false-twin orbit takes its least vertex's label
    return np.where(twin, label_of[least], label_of), order[::-1].tolist()


def _search(G: GraphGU, rows, label_of, vertex_of, deadline=None) -> _Search:
    """The search on G's rows in search labels, with G's automorphism group
    and, for a hyperplane, the isometries of its form, each built lazily."""
    iso = functools.partial(isometries, G) if G.U.dim == G.ctx.n - 1 else None
    return _Search(rows, deadline, functools.partial(Automorphisms, G), vertex_of, label_of, iso)


def clique_number_exact(
    G: GraphGU,
    *,
    time_limit: float | None = None,
    stats: SolveStats | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique.

    The search takes vertices by descending degree (ties by index), keeps
    bit-packed candidate sets, and starts from the constructive
    lower-bound cliques.  Results are deterministic for a fixed
    configuration.  A clique holds at most one vertex of each F_q*-orbit
    of false twins, and any one of them stands for the rest, so the search
    runs on one vertex per orbit (``_search_labels``), with rows built in
    search labels by ``_orbit_rows``; the seed cliques are extended on
    those rows too, so the solve never packs the graph's own.  The seeds
    read U through its canonical basis and a walk that stops at the first
    square (``_seed_clique``), so the solve never lists U, and it never
    forms the graph's degree list.  When the search finds no clique larger than the
    seed, the seed is the witness.

    The root's branches are cut by orbit under ``Automorphisms``, built
    once the search has spent ``_ORBIT_NODES`` nodes.  For a hyperplane,
    the ``isometries`` of its form are built when a depth-1 child returns
    with ``_ISOMETRY_NODES`` nodes spent: their orbits, joined with the
    group's, cut the root, and the orbits under those that fix v cut the
    children of the root branch on v (``_Search.cut``).  Solves that end
    sooner never build them.

    ``time_limit`` holds in every phase: the search rows come first, and
    the clock is checked after each block of them, after the seed, after
    the group is built and every 256 search nodes.  ``stats``, when given,
    is filled in.

    Memory: the solve holds only the search rows, not the graph's own
    (which a caller that reads ``G.adjacency`` pays for: n^2/8 bytes at
    most, false twins sharing one integer).  The search rows and the
    search's complement rows take m^2/8 bytes each and its single-bit
    masks about half that, for m = |S| + (q^n - |S|)/(q - 1) vertices
    searched, S = {v : v^2 in U} (m = n when q = 2): about 5 MB at
    m = 4,096 and 1.3 GB at the default budget of 65,536.  The rows are
    filled one block of at most 1 M cells at a time (``_BLOCK_CELLS``, a
    byte each), from a membership table of about 2 q^n bytes when U is
    dense.  The label map takes 8 bytes per vertex and the group two
    integers per map, read from the graph's ``in_U_by_log`` (2 q^n bytes),
    and its orbits 8 bytes per label.
    The isometries take k = ``_ISOMETRY_GENERATORS`` arrays of q^n int64
    (8 k q^n bytes: 6 MB at 65,536 vertices) and the same k maps on the m
    labels; each root branch cut by them holds m int64 more.
    """
    stats = SolveStats() if stats is None else stats
    deadline = None if time_limit is None else time.monotonic() + time_limit
    start = time.perf_counter()
    label_of, vertex_of = _search_labels(G)
    rows = _orbit_rows(G.ctx, G.U, label_of, deadline)
    stats.rows_ms = _ms_since(start)
    stats.vertices = len(rows)
    start = time.perf_counter()
    seed = _seed_clique(G, label_of, vertex_of, rows)
    stats.seed_ms = _ms_since(start)
    _check_deadline(deadline, "the seed clique")
    stats.seed_size = len(seed)
    start = time.perf_counter()
    search = _search(G, rows, label_of, vertex_of, deadline)
    search.seed(label_of[seed].tolist())
    search.cut([], (1 << len(rows)) - 1)
    stats.search_ms = _ms_since(start)
    stats.nodes = search.nodes
    stats.orbit_skips = search.orbit_skips
    if search.group is not None:
        stats.group_order = search.group.order
    if search.label_perms is not None:
        stats.isometries = len(search.label_perms)
    if search.best_size == len(seed):
        return len(seed), tuple(seed)
    return search.best_size, tuple(sorted(vertex_of[v] for v in search.best))


def square_clique(G: GraphGU) -> tuple[int, tuple[int, ...]]:
    """The largest t such that W W lies in U for a t-dimensional subspace
    W, and the elements of one such W: a maximum clique of G[S], S = {v :
    v^2 in U}, since the span of a clique of G[S] is one too.  The exact
    solve's search (S keeps labels of its own, and phi(v)^2 = lam^2
    sigma_i(v^2) keeps S fixed, so the orbit cut holds) runs on S from the
    seed {0}; for a hyperplane the isometries keep B(v, v), and so S, and
    cut it too.  A witness whose size is not q^rank raises ``StructureViolation``."""
    label_of, vertex_of = _search_labels(G)
    rows = _orbit_rows(G.ctx, G.U, label_of)
    search = _search(G, rows, label_of, vertex_of)
    search.seed([int(label_of[0])])
    search.cut([], sum(1 << v for v in label_of[G._square_in_U].tolist()))
    witness = tuple(sorted(vertex_of[v] for v in search.best))
    t = rank(G.ctx, witness)
    if G.ctx.q**t != len(witness):
        raise StructureViolation(f"a maximum clique of {len(witness)} squares is not a subspace")
    return t, witness


# -- maximal clique enumeration ---------------------------------------------


def enumerate_maximal_cliques(G: GraphGU, cap: int = DEFAULT_CLIQUE_CAP):
    """All inclusion-maximal cliques, each exactly once, in a fixed order.

    The search is Bron-Kerbosch with the pivot rule of Tomita, Tanaka and
    Takahashi (Theor. Comput. Sci. 363, 2006), run in one generator frame
    on an explicit stack of (P, X, branches not yet taken).  At a node
    with candidates P and excluded X the pivot is the first vertex of
    P | X, by index, with the most neighbours in P; the scan stops once a
    score reaches its ceiling, |P|, or |P| - 1 when X is empty, since no
    later vertex can beat it.  The node branches on the vertices of P
    outside the pivot's row in increasing index, and each clique is
    yielded as the tuple of its branch vertices, in branching order.  The
    cap counts yielded cliques: a run capped at k yields the first k
    cliques of the uncapped run and then raises ``CapExceeded``.  The
    pinned orders in the tests and the capped runs of the suites rely on
    this order.
    """
    adj = G.adjacency
    count = 0
    R: list[int] = []  # R[i] is the branch vertex taken at stack[i]
    stack: list[list[int]] = []
    P, X = (1 << G.n_vertices) - 1, 0
    while True:
        if P:
            ceiling = P.bit_count() - (not X)
            pivot_score = -1
            rest = P | X
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                score = (P & adj[u]).bit_count()
                if score > pivot_score:
                    pivot, pivot_score = u, score
                    if score == ceiling:
                        break
                rest ^= low
            stack.append([P, X, P & ~adj[pivot]])
            R.append(-1)
        elif not X:
            count += 1
            if count > cap:
                raise CapExceeded(f"more than {cap} maximal cliques")
            yield tuple(R)
        # take the next branch of the deepest node that has one left
        while stack:
            frame = stack[-1]
            P, X, ext = frame
            if ext:
                low = ext & -ext
                v = low.bit_length() - 1
                frame[0], frame[1], frame[2] = P ^ low, X | low, ext ^ low
                R[-1] = v
                row = adj[v]
                P, X = P & row, X & row
                break
            stack.pop()
            R.pop()
        else:
            return


# -- maximal clique decomposition -------------------------------------------


def decompose_clique(G: GraphGU, C) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Validate the structural guarantees of a maximal clique and split it
    as (t, V1, square_part).

    ``square_part`` holds the clique's vertices whose square lies in U, in
    increasing order; they form a subspace of dimension t.  V1 holds the
    rest, in increasing order, F_q-linearly independent; r = len(V1).
    The subspaces themselves are ``span(ctx, square_part)`` and
    ``span(ctx, V1)``.

    Checks, in order: the square part is a subspace, the rest is
    independent, the two spans meet only at 0, and the size has the shape
    q^t + r with r <= dim(U) + 1 when t = 0 and r + t <= dim(U) otherwise.
    A clique that is not maximal raises ``NotMaximal`` before any of them.

    One sweep over the clique's vertices in increasing order checks
    maximality and splits the clique.  C is a maximal clique exactly when
    the AND of its closed rows, ``adj[v] | 1 << v`` over v in C, is C's
    own mask: each closed row holds all of C exactly when C is a clique,
    and the AND holds nothing outside C exactly when no vertex extends
    it.  The same sweep puts v in v2 when its bit is set in the square
    mask and in v1 otherwise.  A vertex outside the graph is refused as
    by a row check in vertex order: ``NotMaximal`` after a vertex of the
    graph, ``IndexError`` when it comes first.

    One echelon (``linalg.extend_echelon``) is fed v2, which gives t, and
    then v1: the second and third checks, rank(v1) = r and rank(v2 + v1)
    = t + r, hold together exactly when every element of v1 adds to the
    rank, so a valid clique takes a single pass.  Only when that pass
    fails is rank(v1) taken alone: a dependent v1 raises the second
    check's message, as when the checks ran one by one, and otherwise the
    spans intersect.
    """
    verts = sorted(set(C))
    adj = G._rows or G.adjacency  # the slot once built, as in ``has_edge``
    sq_mask = G._sq_mask
    mask = 0
    common = -1
    v2: list[int] = []
    v1: list[int] = []
    try:
        for v in verts:
            bit = 1 << v
            mask |= bit
            common &= adj[v] | bit
            (v2 if sq_mask & bit else v1).append(v)
    except IndexError:
        if verts[0] >= G.n_vertices:
            raise
        common = 0  # a vertex of the graph is not adjacent to one outside it
    if common != mask:
        raise NotMaximal(f"{sorted(C)} is not a maximal clique")
    ctx = G.ctx
    U = G.U
    echelon: dict = {}
    t = extend_echelon(ctx, echelon, v2)
    if ctx.q**t != len(v2):
        raise StructureViolation("square part of the clique is not a subspace")
    r = len(v1)
    if extend_echelon(ctx, echelon, v1) != r:
        if rank(ctx, v1) != r:
            raise StructureViolation("non-square part of the clique is dependent")
        raise StructureViolation("spans of the two parts intersect beyond 0")
    if t == 0:
        if r > U.dim + 1:
            raise StructureViolation(f"t = 0 but r = {r} > dim + 1 = {U.dim + 1}")
    elif r + t > U.dim:
        raise StructureViolation(f"r + t = {r + t} > dim = {U.dim}")
    return t, tuple(v1), tuple(v2)
