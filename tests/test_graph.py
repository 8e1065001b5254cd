"""Tests for graph construction, the exact solver, and clique structure."""

import functools
import hashlib
import itertools
import random

import numpy as np
import pytest

from paleyvec.errors import (
    BudgetExceeded,
    CapExceeded,
    NotMaximal,
    StructureViolation,
    TimeLimitExceeded,
    ZeroDimension,
)
from paleyvec import graph
from paleyvec.gf import build_field
from paleyvec.linalg import (
    Subspace,
    fp_combinations,
    all_hyperplanes,
    all_subspaces,
    contains_nonzero_square,
    functional_of_hyperplane,
    span,
    subfield_subspace,
    trace_zero_hyperplane,
    zero_subspace,
)
from paleyvec.graph import (
    Automorphisms,
    GraphGU,
    SolveStats,
    build_graph,
    clique_number_exact,
    decompose_clique,
    enumerate_maximal_cliques,
    greedy_seed_clique,
)
from paleyvec.predict import hyperplane_omega


def brute_force_omega(G):
    """Subset-enumeration oracle, independent of both search paths."""
    n = G.n_vertices
    for k in range(n, 0, -1):
        for combo in itertools.combinations(range(n), k):
            if all(G.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return k
    return 0


def build_rows_scalar(ctx, members):
    """G_U's rows from scalar arithmetic: bit u / v of row v for each
    nonzero u in ``members``, and vertex 0 adjacent to everything."""
    n = ctx.order
    rows = [(1 << n) - 2]
    for v in range(1, n):
        inv_v = ctx.inv(v)
        row = 1  # bit 0
        for u in members:
            if u:
                row |= 1 << ctx.mul(u, inv_v)
        row &= ~(1 << v)
        rows.append(row)
    return rows


def unpack_rows(adj, n):
    """Rows as a 0/1 uint8 matrix of n columns."""
    nbytes = (n + 7) // 8
    raw = b"".join(row.to_bytes(nbytes, "little") for row in adj)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(adj), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :n]


def pack_rows(mat):
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def random_subspace(ctx, rng, max_gens=3):
    while True:
        gens = [rng.randrange(1, ctx.order) for _ in range(rng.randrange(1, max_gens + 1))]
        U = span(ctx, gens)
        if 1 <= U.dim <= ctx.n - 1:
            return U


class TestBuild:
    def test_f4_edges(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        edges = {(a, b) for a in range(4) for b in range(4) if a < b and G.has_edge(a, b)}
        assert edges == {(0, 1), (0, 2), (0, 3), (2, 3)}

    def test_zero_is_universal(self):
        for spec in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
            ctx = build_field(*spec)
            for _, U in all_hyperplanes(ctx):
                G = build_graph(ctx, U)
                assert G.degrees[0] == ctx.order - 1

    def test_adjacency_matches_edge_predicate(self):
        rng = random.Random(21)
        for spec in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
            ctx = build_field(*spec)
            for _ in range(5):
                U = random_subspace(ctx, rng)
                G = build_graph(ctx, U)
                adj = G.adjacency
                for a in range(ctx.order):
                    for b in range(ctx.order):
                        expect = a != b and U.contains(ctx.mul(a, b))
                        assert G.has_edge(a, b) == expect
                        assert adj[a] >> b & 1 == expect

    def test_symmetry(self):
        rng = random.Random(22)
        for _ in range(20):
            ctx = build_field(*rng.choice([(2, 1, 4), (3, 1, 3), (2, 2, 2)]))
            U = random_subspace(ctx, rng)
            G = build_graph(ctx, U)
            adj = G.adjacency
            for a in range(ctx.order):
                for b in range(ctx.order):
                    assert G.has_edge(a, b) == G.has_edge(b, a)
                    assert adj[a] >> b & 1 == adj[b] >> a & 1

    def test_scalar_build_matches_tabled(self):
        tabled = build_field(3, 1, 2)
        plain = build_field(3, 1, 2, table_limit=1)
        U_t = trace_zero_hyperplane(tabled)
        U_p = trace_zero_hyperplane(plain)
        want = build_rows_scalar(plain, U_p.enumerate_elements())
        assert build_graph(tabled, U_t).adjacency == want

    def test_untabled_field_is_refused(self):
        ctx = build_field(2, 1, 7, table_limit=1)
        with pytest.raises(BudgetExceeded, match="tables"):
            build_graph(ctx, trace_zero_hyperplane(ctx))

    def test_errors(self):
        ctx = build_field(2, 1, 2)
        with pytest.raises(ZeroDimension):
            build_graph(ctx, zero_subspace(ctx))
        big = build_field(2, 1, 8)
        with pytest.raises(BudgetExceeded):
            build_graph(big, trace_zero_hyperplane(big), max_vertices=100)


class TestCliqueNumber:
    def test_dim1_f4(self):
        ctx = build_field(2, 1, 2)
        for U in all_subspaces(ctx, 1):
            G = build_graph(ctx, U)
            assert clique_number_exact(G)[0] == 3

    def test_trace_zero_values(self):
        # frozen expected clique numbers of trace-zero hyperplanes
        expected = {(3, 1, 3): 4, (2, 1, 6): 8, (2, 1, 4): 5, (2, 2, 2): 4}
        for spec, omega in expected.items():
            ctx = build_field(*spec)
            G = build_graph(ctx, trace_zero_hyperplane(ctx))
            got, witness = clique_number_exact(G)
            assert got == omega
            assert all(G.has_edge(a, b) for a, b in itertools.combinations(witness, 2))

    def test_against_brute_force(self):
        rng = random.Random(23)
        for spec in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
            ctx = build_field(*spec)
            for _ in range(4):
                U = random_subspace(ctx, rng)
                G = build_graph(ctx, U)
                assert clique_number_exact(G)[0] == brute_force_omega(G)

    def test_oracle_equivalence_with_enumeration(self):
        rng = random.Random(24)
        for spec in [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 2)]:
            ctx = build_field(*spec)
            for _ in range(6):
                U = random_subspace(ctx, rng)
                G = build_graph(ctx, U)
                best = max(len(c) for c in enumerate_maximal_cliques(G))
                assert clique_number_exact(G)[0] == best

    def test_deterministic(self):
        ctx = build_field(3, 1, 3)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        assert clique_number_exact(G) == clique_number_exact(G)

    def test_witness_is_clique(self):
        rng = random.Random(26)
        for _ in range(10):
            ctx = build_field(*rng.choice([(2, 1, 4), (3, 1, 3)]))
            U = random_subspace(ctx, rng)
            G = build_graph(ctx, U)
            omega, witness = clique_number_exact(G)
            assert len(witness) == omega
            assert all(G.has_edge(a, b) for a, b in itertools.combinations(witness, 2))

    def test_time_limit(self):
        ctx = build_field(2, 1, 8)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        with pytest.raises(TimeLimitExceeded):
            clique_number_exact(G, time_limit=1e-9)

    @staticmethod
    def _one_block(G, monkeypatch):
        """Solve with a clock that runs out once the first block of search
        rows is filled; return the shapes of the blocks packed."""
        clock = [0.0]
        blocks = []
        real_pack = graph._pack_columns

        def pack(cells, count):
            blocks.append(cells.shape)
            assert len(blocks) == 1, "a second block was filled after the deadline"
            clock[0] = 10.0
            return real_pack(cells, count)

        monkeypatch.setattr(graph.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(graph, "_pack_columns", pack)
        with pytest.raises(TimeLimitExceeded, match="search-row build"):
            clique_number_exact(G, time_limit=1.0)
        return blocks

    def test_time_limit_inside_search_row_build(self, monkeypatch):
        # 2,047 base rows take four blocks of 512; the clock runs out in the first
        ctx = build_field(2, 1, 11)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        assert self._one_block(G, monkeypatch) == [(ctx.order, 512)]

    def test_search_row_block_is_capped_in_cells(self, monkeypatch):
        # 8,192 vertices: a block holds 128 base rows of 8,192 cells
        ctx = build_field(2, 1, 13)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        [(labels, base_rows)] = self._one_block(G, monkeypatch)
        assert labels * base_rows <= graph._BLOCK_CELLS
        assert (labels, base_rows) == (ctx.order, graph._BLOCK_CELLS // ctx.order) == (8192, 128)

    @pytest.mark.parametrize("spec", [(2, 1, 3), (3, 1, 2)])
    def test_whole_field_is_complete(self, spec):
        # every square lies in U, so only the a*F_q seed applies
        ctx = build_field(*spec)
        G = build_graph(ctx, span(ctx, [ctx.basis_element(i) for i in range(ctx.n)]))
        assert greedy_seed_clique(G) == list(range(ctx.order))
        assert clique_number_exact(G) == (ctx.order, tuple(range(ctx.order)))

    def test_seed_clique_valid(self):
        rng = random.Random(27)
        for _ in range(10):
            ctx = build_field(*rng.choice([(3, 1, 2), (2, 1, 4), (5, 1, 2)]))
            U = random_subspace(ctx, rng)
            G = build_graph(ctx, U)
            seed = greedy_seed_clique(G)
            assert len(seed) >= 3
            assert all(G.has_edge(a, b) for a, b in itertools.combinations(seed, 2))
            if contains_nonzero_square(U):
                assert len(seed) >= ctx.q + min(1, U.dim - 1)


# (number of subspaces, SHA-256 of repr((basis, omega, witness)) over all of them),
# recorded from the solver before the dominance rule was removed
PINNED_SOLUTIONS = {
    (2, 1, 4): (65, "2e1cc10a91f9e000b6b6e1e5d195346c57f3fb646a839542fb7bf1204e525b3f"),
    (3, 1, 3): (26, "e74aa2f7751333e03f16e57e8f5c0a1b1d5a66261adfc20d52b72d5e3d33f9e5"),
    (2, 2, 2): (5, "138fdfb4cb4d3a258e2e583f300f9db5f0e403e474b9be343346497bd256d128"),
    (5, 1, 2): (6, "67a1c21a2645d006b8d6a4e16d59275b754f6785cd2bb2f03fae8c997fb57b16"),
}

# trace-zero hyperplanes: omega, witness and nodes expanded by the serial
# search, without symmetry (recorded before the root was pruned by orbit)
# and with it; the odd-q node counts were recorded again when the search
# came to take one vertex per F_q*-orbit of false twins (3^1^4: 73 and 64
# before, 3^1^5: 167 without symmetry; every witness and q = 2 count held);
# "without symmetry" holds no isometries either, and 2^1^8, the one solve
# here past 256 nodes, was recorded again when hyperplanes came to be cut by
# them (271 before; its witness held)
PINNED_SEARCHES = {
    (2, 1, 7): (9, (0, 1, 6, 10, 12, 96, 102, 106, 108), 744, 151),
    (3, 1, 4): (5, (0, 1, 10, 20, 63), 38, 38),
    (5, 1, 3): (6, (0, 40, 55, 69, 95, 110), 16, 16),
    (2, 1, 8): (16, (0, 1, 6, 7, 8, 9, 14, 15, 18, 19, 20, 21, 26, 27, 28, 29), 1586, 259),
    (3, 1, 5): (10, (0, 9, 36, 72, 98, 134, 143, 184, 193, 229), 149, 76),
    (7, 1, 3): (8, (0, 87, 125, 156, 193, 243, 274, 312), 28, 28),
}


# every hyperplane of these fields is checked against the isometries of its form
ISOMETRY_FIELDS = [
    (2, 1, 4), (2, 1, 5), (2, 1, 6), (3, 1, 3), (3, 1, 4), (5, 1, 2), (2, 2, 2), (2, 2, 3),
    (3, 2, 2),
]


class _IdentityOnly(Automorphisms):
    """The identity alone: the search it drives is the search without symmetry."""

    def __init__(self, G):
        super().__init__(G)
        self.maps = np.array([(0, 1)])


def _no_isometries(G):
    """No isometry: with ``_IdentityOnly``, a hyperplane is searched without symmetry."""
    return np.zeros((0, G.n_vertices), dtype=np.int64)


def _without_symmetry(m):
    """Patch the group to the identity and the isometries to none."""
    m.setattr(graph, "Automorphisms", _IdentityOnly)
    m.setattr(graph, "isometries", _no_isometries)


def _solve(G):
    stats = SolveStats()
    return clique_number_exact(G, stats=stats), stats


class TestPinned:
    """The solver's results and search tree, pinned so that changes to the
    search loop can be shown not to alter them."""

    @pytest.mark.parametrize("spec", sorted(PINNED_SOLUTIONS))
    def test_every_subspace(self, spec):
        ctx = build_field(*spec)
        h = hashlib.sha256()
        count = 0
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                omega, witness = clique_number_exact(build_graph(ctx, U))
                h.update(repr((U.basis, omega, witness)).encode())
                count += 1
        assert (count, h.hexdigest()) == PINNED_SOLUTIONS[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_SEARCHES))
    def test_search_tree(self, spec, monkeypatch):
        omega, witness, plain_nodes, pruned_nodes = PINNED_SEARCHES[spec]
        assert pruned_nodes <= plain_nodes
        ctx = build_field(*spec)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        result, stats = _solve(G)
        assert (result, stats.nodes) == ((omega, witness), pruned_nodes)
        _without_symmetry(monkeypatch)
        result, stats = _solve(G)
        assert (result, stats.nodes) == ((omega, witness), plain_nodes)

    @pytest.mark.parametrize("spec", sorted(PINNED_SOLUTIONS))
    def test_agrees_with_enumeration(self, spec):
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                best = max(len(c) for c in enumerate_maximal_cliques(G))
                assert clique_number_exact(G)[0] == best


class TestOrbitPruning:
    """The search pruned by orbit against the search without symmetry."""

    @staticmethod
    def _plain(G, monkeypatch):
        with monkeypatch.context() as m:
            _without_symmetry(m)
            return _solve(G)

    @pytest.mark.parametrize("spec", sorted(PINNED_SOLUTIONS))
    def test_every_subspace(self, spec, monkeypatch):
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                plain, plain_stats = self._plain(G, monkeypatch)
                assert _solve(G)[0] == plain
                # the group from the first root branch: the most pruning
                with monkeypatch.context() as m:
                    m.setattr(graph, "_ORBIT_NODES", 0)
                    pruned, stats = _solve(G)
                assert pruned == plain
                assert stats.nodes <= plain_stats.nodes

    @pytest.mark.parametrize("spec", [(2, 1, 7), (2, 1, 8), (2, 1, 9), (3, 1, 5)])
    def test_hyperplanes(self, spec, monkeypatch):
        ctx = build_field(*spec)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        plain, plain_stats = self._plain(G, monkeypatch)
        pruned, stats = _solve(G)
        assert pruned == plain
        # for odd n: lam in F_q*, and sigma_i fixes the trace-zero hyperplane
        assert stats.group_order == ctx.mn * (ctx.q - 1)
        assert 0 < stats.orbit_skips
        assert stats.nodes < plain_stats.nodes

    @pytest.mark.parametrize("spec", sorted(set(PINNED_SOLUTIONS) | set(ISOMETRY_FIELDS)))
    def test_every_hyperplane_with_both_triggers_at_zero(self, spec, monkeypatch):
        # the automorphism group and the isometries from the first root
        # branch on: every root and depth-1 cut that the search can make
        ctx = build_field(*spec)
        for _, U in all_hyperplanes(ctx):
            G = build_graph(ctx, U)
            plain = self._plain(G, monkeypatch)[0]
            with monkeypatch.context() as m:
                m.setattr(graph, "_ORBIT_NODES", 0)
                m.setattr(graph, "_ISOMETRY_NODES", 0)
                (size, witness), stats = _solve(G)
                assert size == plain[0] == len(witness)
                assert all(G.has_edge(a, b) for a, b in itertools.combinations(witness, 2))
                t, square_witness = graph.square_clique(G)
            assert t == self._plain_square_clique(G, monkeypatch)[0]
            assert all(G.has_edge(a, b) for a, b in itertools.combinations(square_witness, 2))
            assert G.square_in_U_mask() & sum(1 << v for v in square_witness) == sum(
                1 << v for v in square_witness
            )

    @staticmethod
    def _plain_square_clique(G, monkeypatch):
        with monkeypatch.context() as m:
            _without_symmetry(m)
            return graph.square_clique(G)

    def test_stats(self):
        ctx = build_field(2, 1, 9)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        (omega, _), stats = _solve(G)
        assert stats.seed_size == len(graph.greedy_seed_clique(G)) == omega
        assert 0 < stats.orbit_skips

    def test_depth_one_cut_by_the_stabiliser_only(self):
        # the circulant on Z_12 with connection set {3, ..., 9}, vertex a at
        # label relabel[a], and one label map, the rotation a -> a + 1: it
        # fixes no vertex, so below a root branch nothing may be cut.  Cut
        # there by the root's orbits (one part), the search returns 3
        relabel = [6, 11, 2, 10, 7, 9, 4, 0, 3, 8, 5, 1]
        adj = [0] * 12
        for a, b in itertools.permutations(range(12), 2):
            if 3 <= (a - b) % 12 <= 9:
                adj[relabel[a]] |= 1 << relabel[b]
        rotation = np.array([[3, 6, 10, 8, 0, 1, 11, 9, 5, 4, 7, 2]])
        assert all(rotation[0, relabel[a]] == relabel[(a + 1) % 12] for a in range(12))
        brute = max(len(c) for k in range(1, 6) for c in itertools.combinations(range(12), k)
                    if all(adj[u] >> v & 1 for u, v in itertools.combinations(c, 2)))
        search = graph._Search(adj)
        search.orbits = graph._join(np.arange(12), rotation)
        search.label_perms = rotation
        search.cut([], (1 << 12) - 1)
        assert search.best_size == brute == 4
        assert all(adj[u] >> v & 1 for u, v in itertools.combinations(search.best, 2))
        assert search.nodes == 5


class TestHyperplaneOmega:
    """The exact solve of a trace-zero hyperplane against the paper's closed form."""

    @pytest.mark.parametrize(
        "spec",
        [(2, 1, n) for n in range(7, 12)] + [(3, 1, n) for n in range(5, 9)] + [(5, 1, 5)],
    )
    def test_trace_zero(self, spec):
        ctx = build_field(*spec)
        U = trace_zero_hyperplane(ctx)
        G = build_graph(ctx, U)
        omega, witness = clique_number_exact(G)
        assert omega == hyperplane_omega(U) == len(witness)
        assert all(G.has_edge(a, b) for a, b in itertools.combinations(witness, 2))


def _adjacency_matrix(G):
    return unpack_rows(G.adjacency, G.n_vertices).astype(bool)


def _twin_classes(G):
    """Classes of vertices with equal rows or equal closed rows."""
    classes = {}
    for v, row in enumerate(G.adjacency):
        classes.setdefault(("open", row), []).append(v)
        classes.setdefault(("closed", row | 1 << v), []).append(v)
    return [c for c in classes.values() if len(c) > 1]


GROUP_FIELDS = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2), (2, 3, 2)]


class TestAutomorphisms:
    """The maps x -> lam * x^(p^i) with lam^2 sigma_i(U) = U, on every proper
    subspace of small fields."""

    @pytest.mark.parametrize("spec", GROUP_FIELDS)
    def test_group(self, spec):
        ctx = build_field(*spec)
        n = ctx.order
        scalars = {tuple(ctx.mul(lam, x) for x in range(n)) for lam in range(1, ctx.q)}
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                group = Automorphisms(G)
                # row j holds the images under map j
                images = np.array([group.images(v) for v in range(n)]).T
                maps = {tuple(row) for row in images.tolist()}
                assert len(maps) == len(images)
                assert tuple(range(n)) in maps
                # each map permutes the vertices, and row phi(a) of the
                # adjacency is the image of row a
                A = _adjacency_matrix(G)
                for phi in images:
                    assert sorted(phi.tolist()) == list(range(n))
                    assert (A[np.ix_(phi, phi)] == A).all()
                # the group contains F_q* (i = 0)
                assert scalars <= maps
                # and is closed under composition: [j2, j1] is phi_j2 after phi_j1
                composed = images[:, images].reshape(-1, n)
                assert {tuple(row) for row in composed.tolist()} == maps
                # orbits are unions of twin classes, except for U = {0, u}:
                # there v and u/v are true twins with v^2 outside U, swapped
                # by x -> u/x, which is not of the form lam * x^(p^i)
                if U.size == 2:
                    continue
                for twins in _twin_classes(G):
                    assert set(twins) <= set(images[:, twins[0]].tolist())


def old_automorphism_maps(G):
    """``Automorphisms.maps`` as built before the filter went one basis
    element at a time: one gather of U's membership over every basis
    element, b_0 included, reduced mod q^n - 1."""
    ctx, U = G.ctx, G.U
    mord, exp, log = ctx.mord, ctx._exp_np, ctx._log_np
    log_u = log[np.flatnonzero(U.member)[1:]]
    log_b = log[np.asarray(U.basis)]
    maps = []
    for i in range(ctx.mn):
        mult = ctx.p**i
        mu = (log_u - mult * log_b[0]) % mord
        holds = U.member[exp[(mu[:, None] + mult * log_b) % mord]].all(axis=1)
        for m in mu[holds].tolist():
            if ctx.p == 2:
                maps.append((m * (mord + 1 >> 1) % mord, mult))
            elif m % 2 == 0:
                maps += [(m >> 1, mult), ((m >> 1) + (mord >> 1), mult)]
    return np.array(maps, dtype=np.int64)


def _group_cross_check_subspaces():
    """Every proper subspace of the group fields, then the first 50
    hyperplanes of 2^3^4."""
    for spec in GROUP_FIELDS:
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            yield from all_subspaces(ctx, d)
    yield from (U for _, U in itertools.islice(all_hyperplanes(build_field(2, 3, 4)), 50))


def test_group_matches_full_gather():
    # the same maps, row for row and in the same order
    for U in _group_cross_check_subspaces():
        G = build_graph(U.ctx, U)
        maps = Automorphisms(G).maps
        assert maps.dtype == np.int64
        assert np.array_equal(maps, old_automorphism_maps(G)), U.basis


def test_generators_give_the_orbits():
    # the parts joined along the generators are the image sets under every map
    for U in _group_cross_check_subspaces():
        G = build_graph(U.ctx, U)
        group = Automorphisms(G)
        gens = group.generators()
        assert 1 <= len(gens) <= 2
        assert {tuple(row) for row in gens.tolist()} <= {tuple(row) for row in group.maps.tolist()}
        vertices = np.arange(G.n_vertices)
        parts = graph._join(vertices, group.images(vertices, gens).T)
        assert np.array_equal(parts, group.images(vertices).min(axis=1)), U.basis


def _pinned_subspace(spec):
    """The subspace whose rows ``TestPinnedRows`` pins for a field."""
    ctx = build_field(*spec)
    if spec == (2, 1, 10):
        return trace_zero_hyperplane(ctx)
    if spec == (3, 1, 5):
        # contains the square 1, so some orbits have v^2 in U (true twins)
        return span(ctx, [1, ctx.basis_element(1)])
    return next(all_hyperplanes(ctx))[1]


def _rows_digest(rows, n, vertices=()):
    h = hashlib.sha256(np.asarray(vertices, dtype=np.int64).tobytes())
    nbytes = (n + 7) // 8
    h.update(b"".join(row.to_bytes(nbytes, "little") for row in rows))
    return h.hexdigest()


# SHA-256 of the adjacency rows, and of the search relabelling (label -> vertex,
# then the relabelled rows), recorded from the row-by-row build and relabel
PINNED_ROWS = {
    (2, 3, 4): (
        "067ef28778ea8215d15ca9c81a030da0af52de04fda286a5b4443b054ea907a6",
        "a04a65f267983d25f15a15a8de0bd06e4a6a4cd52f331db6e9be48c56dbcbc47",
    ),
    (5, 1, 4): (
        "c00e11fa288be684b0bd82262a534c55539279329c8e86c3ddbbb997402fe0a1",
        "5d6779e4a37dc0cb7ba18fafc92a6b1b6466828eda1d85541541f6a8c39d8a89",
    ),
    (7, 1, 3): (
        "70d5c34ae2cf04e7cb211a1628612e96cc1b574fb1e008b53a8f3a2a3d8da36e",
        "a20d05a44749bed583cf94f1613175612f592266951bc4aae18380bb3ba7bd57",
    ),
    (3, 2, 3): (
        "77988c41724ed86a567b8b00f6ffb6bc733bee8c26e00e239986fd874d6432fc",
        "029233a6d85ad1ad0911f0bc2198ef8fa1a1b62f424260663e19956f1fb46b94",
    ),
    (2, 1, 10): (
        "abe83c12804c9db1c837f1f00d377b875126c99d888d9995ddad7a449ccb3362",
        "838022990caeb7157d4d3ace4133a76b596d8738d06e2e15abc2f470070f8245",
    ),
    (3, 1, 5): (
        "e0f6c1e0d97a5bd6adb80d3afdcb5ca9cd688f115b0b54990140fb4843cfdbab",
        "a8aedefa74931d648ff0504b878a8c7f5cad4e8a4d34c294c997c49b8a549f16",
    ),
}


def _pinned_rows(spec):
    U = _pinned_subspace(spec)
    G = build_graph(U.ctx, U)
    order = np.argsort(-np.asarray(G.degrees), kind="stable")
    vertices, rows = old_search_rows(G.adjacency, order)
    n = G.n_vertices
    return _rows_digest(G.adjacency, n), _rows_digest(rows, n, vertices)


class TestIsometries:
    """The isometry generators of a hyperplane's form, against its graph."""

    @pytest.mark.parametrize("spec", ISOMETRY_FIELDS)
    def test_every_generator_permutes_the_rows(self, spec):
        ctx = build_field(*spec)
        for _, U in all_hyperplanes(ctx):
            G = build_graph(ctx, U)
            A = _adjacency_matrix(G)
            perms = graph.isometries(G)
            assert 0 < len(perms) <= graph._ISOMETRY_GENERATORS
            for perm in perms:
                assert (A[np.ix_(perm, perm)] == A).all()

    @pytest.mark.parametrize("spec", ISOMETRY_FIELDS)
    def test_orbits_keep_adjacency(self, spec):
        # the root's orbits keep degrees; the orbits under the maps that fix
        # v leave v alone and keep adjacency to v
        ctx = build_field(*spec)
        for _, U in all_hyperplanes(ctx):
            G = build_graph(ctx, U)
            label_of, vertex_of = graph._search_labels(G)
            rows = graph._orbit_rows(ctx, U, label_of)
            search = graph._search(G, rows, label_of, vertex_of)
            search._build_isometries()
            labels = np.arange(len(rows))
            degrees = np.array([row.bit_count() for row in rows])
            parts = search.orbits
            assert all(len(set(degrees[parts == part])) == 1 for part in np.unique(parts))
            for v in labels.tolist():
                parts = search.stabiliser(v)
                assert (parts == parts[v]).sum() == 1
                near = np.array([rows[v] >> w & 1 for w in labels.tolist()])
                assert all(len(set(near[parts == part])) == 1 for part in np.unique(parts))

    @pytest.mark.parametrize("spec", [(2, 1, 12), (2, 3, 4), (3, 1, 8), (5, 1, 5)])
    def test_generators_taken(self, spec):
        ctx = build_field(*spec)
        perms = graph.isometries(build_graph(ctx, trace_zero_hyperplane(ctx)))
        assert perms.shape == (graph._ISOMETRY_GENERATORS, ctx.order)
        assert len({perm.tobytes() for perm in perms}) == len(perms)

    @pytest.mark.parametrize("spec", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3)])
    def test_certificate(self, spec):
        ctx = build_field(*spec)
        c = functional_of_hyperplane(trace_zero_hyperplane(ctx))
        identity = np.arange(ctx.order)
        graph._certify_isometry(ctx, c, identity)
        # x -> -x keeps Tr(cxy); x -> g x is linear but scales it by g^2
        graph._certify_isometry(ctx, c, np.array([ctx.neg(v) for v in range(ctx.order)]))
        times_g = ctx._exp_np[(ctx._log_np + 1) % ctx.mord]
        times_g[0] = 0
        swapped = identity.copy()
        swapped[[1, 2]] = 2, 1
        collapsed = identity.copy()
        collapsed[1] = 0
        for perm, message in [
            (collapsed, "not a permutation"),
            (swapped, "not additive"),
            (times_g, "does not keep the form"),
        ]:
            with pytest.raises(StructureViolation, match=message):
                graph._certify_isometry(ctx, c, perm)


class TestPinnedRows:
    """Adjacency and search rows, pinned so that changes to how rows are
    built or relabelled can be shown not to alter them."""

    @pytest.mark.parametrize("spec", sorted(PINNED_ROWS))
    def test_rows(self, spec):
        assert _pinned_rows(spec) == PINNED_ROWS[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_ROWS))
    def test_search_rows_from_orbit_kernel(self, spec):
        # the rows of every vertex in search labels, before twins were folded
        U = _pinned_subspace(spec)
        G = build_graph(U.ctx, U)
        vertex_of = np.argsort(-np.asarray(G.degrees), kind="stable")[::-1]
        rows = graph._orbit_rows(U.ctx, U, _inverse(vertex_of))
        assert _rows_digest(rows, G.n_vertices, vertex_of) == PINNED_ROWS[spec][1]


def _inverse(vertex_of):
    """The vertex -> label map of a labelling given as label -> vertex."""
    label_of = np.empty(len(vertex_of), dtype=np.intp)
    label_of[np.asarray(vertex_of)] = np.arange(len(vertex_of))
    return label_of


def old_search_rows(adj, order):
    """The relabelling row by row: every row unpacked, its columns
    permuted with ``take`` and packed again."""
    n = len(adj)
    vertex_of = np.arange(n - 1, -1, -1) if order is None else np.asarray(order)[::-1]
    vertices = vertex_of.tolist()
    rows = []
    for start in range(0, n, 1024):
        block = unpack_rows([adj[v] for v in vertices[start:start + 1024]], n)
        rows += pack_rows(block.take(vertex_of, 1))
    return vertices, rows


CROSS_CHECK_FIELDS = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (2, 3, 2), (3, 2, 2)]


def doubling_combinations(ctx, gens):
    """A reference for ``linalg.fp_combinations``: by doubling, each
    generator adding its multiples to the elements found so far, base-p
    digit by digit."""
    p = ctx.p
    elems = np.zeros(p ** len(gens), dtype=np.int64)
    filled = 1
    for g in gens:
        for c in range(1, p):
            s = ctx.mul(c, g)
            block = elems[:filled]
            if p == 2:
                block = block ^ s
            else:
                block = sum((block // p**j + s // p**j) % p * p**j for j in range(ctx.mn))
            elems[c * filled:(c + 1) * filled] = block
        filled *= p
    return elems


def _member_generators(U):
    ctx = U.ctx
    return [ctx.mul(ctx.p**j, b) for b in U.basis for j in range(ctx.m)]


class TestFpCombinationsCrossCheck:
    """``linalg.fp_combinations`` against the doubling it replaced, on the
    F_p-generators of a subspace's membership array."""

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_every_subspace(self, spec):
        ctx = build_field(*spec)
        for d in range(ctx.n + 1):
            for U in all_subspaces(ctx, d):
                gens = _member_generators(U)
                got = fp_combinations(ctx, gens)
                assert got.dtype == np.int64
                assert np.array_equal(got, doubling_combinations(ctx, gens))

    @pytest.mark.parametrize("spec", [(3, 2, 4), (5, 1, 5), (7, 1, 4), (3, 1, 8)])
    def test_hyperplanes(self, spec):
        ctx = build_field(*spec)
        for _, U in itertools.islice(all_hyperplanes(ctx), 3):
            gens = _member_generators(U)
            assert np.array_equal(fp_combinations(ctx, gens), doubling_combinations(ctx, gens))


def _orders(n, degrees):
    """Four search orders: none (vertex 0 searched first), by degree,
    random, and vertex 0 searched last."""
    return [
        None,
        np.argsort(-np.asarray(degrees), kind="stable"),
        random.Random(33).sample(range(n), n),
        list(range(n - 1, -1, -1)),  # vertex 0 searched last, so relabelled first
    ]


class TestRowsCrossCheck:
    """The orbit-row kernel against the row-by-row build and relabel it
    replaced."""

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_tabled_build_matches_scalar(self, spec):
        tabled = build_field(*spec)
        plain = build_field(*spec, table_limit=1)
        assert plain._exp_np is None
        for d in range(1, tabled.n + 1):
            pairs = zip(all_subspaces(tabled, d), all_subspaces(plain, d), strict=True)
            for U, V in pairs:
                assert U.basis == V.basis
                want = build_rows_scalar(plain, V.enumerate_elements())
                assert build_graph(tabled, U).adjacency == want

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_degrees_from_closed_form(self, spec):
        # every subspace, the whole field included
        ctx = build_field(*spec)
        for d in range(1, ctx.n + 1):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                assert G.degrees == [row.bit_count() for row in G.adjacency]
                assert all(type(deg) is int for deg in G.degrees)

    @pytest.mark.parametrize("fill", ["dense", "sparse"])
    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_orbit_rows_match_relabel(self, spec, fill, monkeypatch):
        # each fill on every subspace: a share of 0 scatters every U, a
        # share of q^n gathers every U
        ctx = build_field(*spec)
        n = ctx.order
        monkeypatch.setattr(graph, "_DENSE_SHARE", n if fill == "dense" else 0)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                for order in _orders(n, G.degrees):
                    vertices, rows = old_search_rows(G.adjacency, order)
                    assert graph._orbit_rows(ctx, U, _inverse(vertices)) == rows

    def test_threshold_picks_both_fills(self, monkeypatch):
        # 2^1^6 with d = 1 is scattered and with d = 2 gathered; only the
        # gather lays U's membership out by log with np.resize
        ctx = build_field(2, 1, 6)
        resize, gathers = np.resize, []

        def counted(*args):
            gathers.append(1)
            return resize(*args)

        monkeypatch.setattr(np, "resize", counted)
        for d in (1, 2):
            for U in itertools.islice(all_subspaces(ctx, d), 20):
                gathers.clear()
                graph._orbit_rows(ctx, U)
                assert len(gathers) == (d == 2)


# the fields whose every proper subspace the twin-reduced search is checked on
TWIN_FIELDS = [
    (3, 1, 3), (2, 2, 2), (5, 1, 2), (7, 1, 2), (2, 2, 3),
    (3, 1, 4), (5, 1, 3), (2, 3, 2), (3, 2, 2),
]


def _full_labels(G):
    """The search labels of every vertex, no twin folded: the vertex searched
    i-th of n has label n - 1 - i."""
    return _inverse(np.argsort(-np.asarray(G.degrees), kind="stable")[::-1])


def _full_search(G):
    """The search the twin-reduced one replaced: ``_Search`` on the rows of
    every vertex, from the same seed, with the automorphism group."""
    seed = graph.greedy_seed_clique(G)
    label_of = _full_labels(G)
    vertex_of = np.argsort(label_of).tolist()
    rows = graph._orbit_rows(G.ctx, G.U, label_of)
    group = functools.partial(Automorphisms, G)
    search = graph._Search(rows, None, group, vertex_of, label_of)
    search.seed(label_of[seed].tolist())
    search.cut([], (1 << len(rows)) - 1)
    witness = tuple(sorted(vertex_of[v] for v in search.best))
    return (search.best_size, witness), search.nodes


class TestTwinReduction:
    """The search on one vertex per F_q*-orbit of false twins against the
    search on every vertex."""

    @staticmethod
    def _fold(G):
        """The full search rows with each twin orbit's bits folded onto its
        kept member, as a 0/1 matrix over (full label, reduced label), and
        the full label of each reduced label's kept vertex."""
        n = G.n_vertices
        full_label = _full_labels(G)
        label_of, vertex_of = graph._search_labels(G)
        full = unpack_rows(graph._orbit_rows(G.ctx, G.U, full_label), n).astype(int)
        onto = np.zeros((n, len(vertex_of)), dtype=int)
        onto[full_label, label_of] = 1  # full label -> reduced label
        return (full @ onto > 0).astype(np.uint8), full_label[vertex_of], full_label, label_of

    @pytest.mark.parametrize("fill", ["dense", "sparse"])
    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_rows_fold_the_full_rows(self, spec, fill, monkeypatch):
        ctx = build_field(*spec)
        monkeypatch.setattr(graph, "_DENSE_SHARE", ctx.order if fill == "dense" else 0)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                folded, kept, full_label, label_of = self._fold(G)
                rows = graph._orbit_rows(ctx, U, label_of)
                assert rows == pack_rows(folded[kept])
                # the rows dropped fold to their kept member's row, and no
                # label is adjacent to itself: only false twins share one
                assert (folded[full_label] == folded[kept[label_of]]).all()
                assert not any(row >> j & 1 for j, row in enumerate(rows))
                if ctx.q == 2:
                    assert len(rows) == ctx.order

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_colour_classes_restricted_to_kept(self, spec):
        # a candidate set closed under twins: the full colouring restricted to
        # the kept members, in reduced labels, is the reduced colouring
        rng = random.Random(35)
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                _, kept, full_label, label_of = self._fold(G)
                reduced = graph._Search(graph._orbit_rows(ctx, U, label_of))
                full = graph._Search(graph._orbit_rows(ctx, U, full_label))
                to_reduced = dict(zip(full_label.tolist(), label_of.tolist()))
                kept = set(kept.tolist())
                m = len(reduced.adj)
                for _ in range(4):
                    chosen = {j for j in range(m) if rng.random() < 0.7}
                    cand = sum(1 << j for j in chosen)
                    cand_full = sum(1 << f for f, j in to_reduced.items() if j in chosen)
                    for kmin in (1, 2, 3):
                        order, colors = full._color_order(cand_full, kmin)
                        want = [(to_reduced[f], c) for f, c in zip(order, colors) if f in kept]
                        assert list(zip(*reduced._color_order(cand, kmin))) == want

    @pytest.mark.parametrize("spec", TWIN_FIELDS)
    def test_matches_full_search(self, spec):
        # the same omega and witness on every proper subspace, and never more nodes
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                want, full_nodes = _full_search(G)
                got, stats = _solve(G)
                assert got == want
                assert stats.nodes <= full_nodes
                # |S| + (q^n - |S|) / (q - 1) for S = {v : v^2 in U}
                squares = sum(U.contains(ctx.mul(v, v)) for v in range(ctx.order))
                assert stats.vertices == squares + (ctx.order - squares) // (ctx.q - 1)


def old_search_labels(G):
    """``_search_labels`` as it stood before it read the square mask: an
    argsort by degree, and each false-twin orbit's first vertex searched
    found with ``np.minimum.at``."""
    ctx, n = G.ctx, G.n_vertices
    degrees = np.asarray(G.degrees)
    order = np.argsort(-degrees, kind="stable")
    step = ctx.mord // (ctx.q - 1)
    classes = np.where(degrees == G.U.size, ctx._log_np % step, step + np.arange(n))[order]
    first = np.full(step + n, n)
    np.minimum.at(first, classes, np.arange(n))
    first = first[classes]
    kept = first == np.arange(n)
    label_at = kept.sum() - np.cumsum(kept)
    label_of = np.empty(n, dtype=np.intp)
    label_of[order] = label_at[first]
    return label_of, order[kept][::-1].tolist()


@pytest.mark.parametrize("spec", sorted(set(CROSS_CHECK_FIELDS) | set(TWIN_FIELDS)))
def test_search_labels_match_sort(spec):
    # on every proper subspace: the same labels and the same kept vertices
    ctx = build_field(*spec)
    for d in range(1, ctx.n):
        for U in all_subspaces(ctx, d):
            G = build_graph(ctx, U)
            label_of, vertex_of = graph._search_labels(G)
            want_label_of, want_vertex_of = old_search_labels(G)
            assert label_of.dtype == want_label_of.dtype
            assert np.array_equal(label_of, want_label_of), U.basis
            assert vertex_of == want_vertex_of, U.basis


def old_greedy_seed_clique(G):
    """``greedy_seed_clique`` as it stood before the seed moved onto the
    search rows: the same starter cliques, each extended by the least
    common neighbour in turn, over the graph's own rows."""
    ctx = G.ctx
    U = G.U
    members = U.enumerate_elements()[1:]
    seeds = []
    u0 = members[0]
    full = (1 << G.n_vertices) - 1
    sq_out = ~G.square_in_U_mask() & full
    if sq_out:
        a_out = (sq_out & -sq_out).bit_length() - 1
        seeds.append([0, a_out, ctx.mul(u0, ctx.inv(a_out))])
    w = next((u for u in members if ctx.is_square(u)), None)
    if w is not None:
        a = ctx.sqrt(w)
        line = [ctx.mul(a, lam) for lam in range(ctx.q)]
        if U.dim > 1:
            line_prod = {ctx.mul(w, lam) for lam in range(ctx.q)}
            extra = next(u for u in members if u not in line_prod)
            line.append(ctx.mul(extra, ctx.inv(a)))
        seeds.append(line)
    best = []
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


# larger fields whose seeds are checked in the dimensions the paper solves
SEED_LOWDIM = {(2, 2, 4): (1, 2), (5, 1, 4): (1,)}


class TestRowsPackedOnce:
    """An exact solve packs only its search rows; the graph packs its own
    rows on first read."""

    @pytest.mark.parametrize(
        "spec", sorted(set(CROSS_CHECK_FIELDS) | set(TWIN_FIELDS)) + sorted(SEED_LOWDIM)
    )
    def test_seed_matches_vertex_walk(self, spec):
        # the walk over search labels by kept vertex against the walk over
        # vertices it replaced, on every proper subspace (the low dimensions
        # only of the larger fields)
        ctx = build_field(*spec)
        for d in SEED_LOWDIM.get(spec, range(1, ctx.n)):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                assert greedy_seed_clique(G) == old_greedy_seed_clique(G), U.basis

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_member_walk_matches_listing(self, spec):
        # the seed's lazy walk of U against its listing, on every subspace,
        # the zero space and the whole field included
        ctx = build_field(*spec)
        for d in range(ctx.n + 1):
            for U in all_subspaces(ctx, d):
                assert list(U.iter_elements()) == U.enumerate_elements(), U.basis

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_solve_lists_no_subspace(self, spec, monkeypatch):
        # the seed reads U through its basis; nothing in a solve lists U
        calls = []
        real = Subspace.enumerate_elements

        def counted(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(Subspace, "enumerate_elements", counted)
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                clique_number_exact(build_graph(ctx, U))
        assert calls == []

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_degrees_formed_on_read(self, spec, monkeypatch):
        # neither the build nor a solve forms the degree list; a read does
        calls = []
        real = GraphGU.degrees

        def counted(self):
            calls.append(1)
            return real.fget(self)

        monkeypatch.setattr(GraphGU, "degrees", property(counted))
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                clique_number_exact(G)
                assert calls == []
                assert G.degrees == [row.bit_count() for row in G.adjacency]
                assert calls == [1]
                calls.clear()

    @pytest.mark.parametrize("spec", CROSS_CHECK_FIELDS)
    def test_edge_test_reads_no_row(self, spec, monkeypatch):
        # every ordered pair, a = b and zeros included, on every proper subspace
        calls = []
        real = graph._orbit_rows

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(graph, "_orbit_rows", counted)
        ctx = build_field(*spec)
        n = ctx.order
        products = [[ctx.mul(a, b) for b in range(n)] for a in range(n)]
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                for a in range(n):
                    for b in range(n):
                        assert G.has_edge(a, b) == (a != b and U.contains(products[a][b]))
        assert calls == []

    # 2^1^10 is left out: its solve alone takes about half a second
    @pytest.mark.parametrize("spec", sorted(set(PINNED_ROWS) - {(2, 1, 10)}))
    def test_solve_packs_rows_once(self, spec, monkeypatch):
        calls = []
        real = graph._orbit_rows

        def counted(ctx, U, label_of=None, deadline=None):
            calls.append(label_of is not None)
            return real(ctx, U, label_of, deadline)

        monkeypatch.setattr(graph, "_orbit_rows", counted)
        U = _pinned_subspace(spec)
        G = build_graph(U.ctx, U)
        assert calls == []
        clique_number_exact(G)
        assert calls == [True]
        # the graph's rows, packed on first read and kept
        assert _rows_digest(G.adjacency, G.n_vertices) == PINNED_ROWS[spec][0]
        assert G.adjacency is G.adjacency
        assert calls == [True, False]


class TestInvariance:
    def test_square_scaling_isomorphism(self):
        rng = random.Random(28)
        for spec in [(3, 1, 2), (2, 1, 4), (5, 1, 2)]:
            ctx = build_field(*spec)
            U = random_subspace(ctx, rng)
            omega = clique_number_exact(build_graph(ctx, U))[0]
            members = U.enumerate_elements()
            for _ in range(20):
                a = rng.randrange(1, ctx.order)
                a2 = ctx.mul(a, a)
                scaled = span(ctx, [ctx.mul(a2, u) for u in members])
                assert clique_number_exact(build_graph(ctx, scaled))[0] == omega

    def test_monotone_in_nested_subspaces(self):
        rng = random.Random(29)
        for spec in [(2, 1, 4), (3, 1, 3)]:
            ctx = build_field(*spec)
            for _ in range(10):
                U = random_subspace(ctx, rng)
                if U.dim >= ctx.n - 1:
                    continue
                extra = next(
                    x for x in range(1, ctx.order) if not U.contains(x)
                )
                bigger = span(ctx, list(U.basis) + [extra])
                if bigger.dim == ctx.n:
                    continue
                om_small = clique_number_exact(build_graph(ctx, U))[0]
                om_big = clique_number_exact(build_graph(ctx, bigger))[0]
                assert om_small <= om_big

    def test_lower_bounds(self):
        # at least 3 always; exactly 3 when U has no nonzero square
        ctx = build_field(3, 1, 2)
        for U in all_subspaces(ctx, 1):
            omega = clique_number_exact(build_graph(ctx, U))[0]
            assert omega >= 3
            if contains_nonzero_square(U):
                assert omega >= ctx.q
            else:
                assert omega == 3
        ctx25 = build_field(5, 1, 2)
        for U in all_subspaces(ctx25, 1):
            omega = clique_number_exact(build_graph(ctx25, U))[0]
            assert (omega == 3) == (not contains_nonzero_square(U))


class TestMaximalCliques:
    def test_f4_enumeration(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        cliques = sorted(tuple(sorted(c)) for c in enumerate_maximal_cliques(G))
        assert cliques == [(0, 1), (0, 2, 3)]

    def test_all_maximal_and_unique(self):
        rng = random.Random(30)
        for _ in range(8):
            ctx = build_field(*rng.choice([(2, 1, 4), (3, 1, 2), (2, 2, 2)]))
            U = random_subspace(ctx, rng)
            G = build_graph(ctx, U)
            seen = set()
            for c in enumerate_maximal_cliques(G):
                _, V1, square_part = decompose_clique(G, c)
                assert sorted(V1 + square_part) == sorted(c)
                assert 0 in c
                assert c not in seen
                seen.add(c)

    def test_cap(self):
        ctx = build_field(3, 1, 2)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        with pytest.raises(CapExceeded):
            list(enumerate_maximal_cliques(G, cap=1))

    def test_every_maximal_clique_contains_zero(self):
        ctx = build_field(3, 1, 2)
        for _, U in all_hyperplanes(ctx):
            G = build_graph(ctx, U)
            assert all(0 in c for c in enumerate_maximal_cliques(G))


# SHA-256, per field, of each subspace's basis followed by its maximal
# cliques as yielded (in yield order, each tuple unsorted), with "cap"
# where the cap of 4,000 ends a run; with the count of cliques yielded
PINNED_CLIQUE_ORDER = {
    (2, 1, 5): (22072, "92be1b24a9c207cae85f38e2328c87c9dccb631bfe3edabc09e054a6f3a5e287"),
    (2, 2, 3): (8841, "7ddd5639aa1380af897732bcf37fc7bcb6d4bcc1c3ba782a49f844b499b0d026"),
}


class TestCliqueOrder:
    """The order in which maximal cliques are yielded, which the pinned
    decompositions and the capped runs of the suites depend on."""

    @pytest.mark.parametrize("spec", sorted(PINNED_CLIQUE_ORDER))
    def test_yield_order_pinned(self, spec):
        ctx = build_field(*spec)
        h = hashlib.sha256()
        count = 0
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                h.update(repr(U.basis).encode())
                try:
                    for c in enumerate_maximal_cliques(G, cap=4000):
                        h.update(repr(c).encode())
                        count += 1
                except CapExceeded:
                    h.update(b"cap")
        assert (count, h.hexdigest()) == PINNED_CLIQUE_ORDER[spec]

    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
    def test_cap_yields_the_uncapped_prefix(self, spec):
        ctx = build_field(*spec)
        for U in itertools.islice(all_subspaces(ctx, ctx.n - 1), 6):
            G = build_graph(ctx, U)
            full = list(enumerate_maximal_cliques(G))
            assert len(full) > 2
            for k in sorted({1, 2, len(full) // 2, len(full) - 1}):
                cliques = enumerate_maximal_cliques(G, cap=k)
                assert [next(cliques) for _ in range(k)] == full[:k]
                with pytest.raises(CapExceeded, match=f"more than {k} maximal cliques"):
                    next(cliques)
            assert list(enumerate_maximal_cliques(G, cap=len(full))) == full


def recursive_maximal_cliques(adj, n):
    """``enumerate_maximal_cliques`` as it stood before the explicit stack:
    one generator frame per node, and a pivot scan over all of P | X."""

    def recurse(R, P, X):
        if not P and not X:
            yield tuple(R)
            return
        pivot, pivot_score = -1, -1
        for u in range(n):
            if (P | X) >> u & 1:
                score = (P & adj[u]).bit_count()
                if score > pivot_score:
                    pivot, pivot_score = u, score
        ext = P & ~adj[pivot]
        for v in range(n):
            if ext >> v & 1:
                R.append(v)
                yield from recurse(R, P & adj[v], X & adj[v])
                R.pop()
                P &= ~(1 << v)
                X |= 1 << v

    yield from recurse([], (1 << n) - 1, 0)


class TestEnumerationCrossCheck:
    """The one-frame enumeration against the recursion it replaced: the
    same cliques in the same order, on graphs G_U and on random graphs,
    where a pivot scan that stopped early would pick a different pivot."""

    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
    def test_product_subspace_graphs(self, spec):
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                want = list(recursive_maximal_cliques(G.adjacency, G.n_vertices))
                assert list(enumerate_maximal_cliques(G)) == want

    def test_random_graphs(self):
        rng = random.Random(2006)
        ctx = build_field(2, 1, 4)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        n = G.n_vertices
        for density in (0.2, 0.5, 0.8):
            for _ in range(20):
                mat = np.zeros((n, n), dtype=bool)
                for a, b in itertools.combinations(range(n), 2):
                    mat[a, b] = mat[b, a] = rng.random() < density
                G._rows = pack_rows(mat)
                want = list(recursive_maximal_cliques(G._rows, n))
                assert list(enumerate_maximal_cliques(G)) == want

    def test_pivot_reaching_the_ceiling_after_the_first_vertex(self):
        # a triangle 0, 1, 2 and the edge 1 3: at the root vertex 0 scores 2,
        # one below the ceiling 3 that vertex 1 reaches and so is the pivot
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        G._rows = [0b0110, 0b1101, 0b0011, 0b0010]
        assert list(enumerate_maximal_cliques(G)) == [(1, 0, 2), (1, 3)]


def old_decompose(G, C):
    """Reference split by sets and the enumeration check of trivial intersection."""
    ctx = G.ctx
    members = set(G.U.enumerate_elements())
    verts = sorted(set(C))
    v2 = [v for v in verts if ctx.mul(v, v) in members]
    v1 = tuple(v for v in verts if ctx.mul(v, v) not in members)
    V2, W = span(ctx, v2), span(ctx, v1)
    assert V2.size == len(v2) and W.dim == len(v1)
    V2_set = set(V2.enumerate_elements())
    assert not any(x and x in V2_set for x in W.enumerate_elements())
    return V2, v1, W


class TestSquareMask:
    @pytest.mark.parametrize(
        "p,m,n,table_limit",
        [(2, 1, 4, 1 << 20), (3, 1, 3, 1 << 20), (2, 2, 2, 1 << 20),
         (3, 2, 2, 1 << 20), (2, 3, 2, 1 << 20)],
    )
    def test_mask_matches_squares(self, p, m, n, table_limit):
        ctx = build_field(p, m, n, table_limit=table_limit)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                members = set(U.enumerate_elements())
                mask = build_graph(ctx, U).square_in_U_mask()
                for v in range(ctx.order):
                    assert bool(mask >> v & 1) == (ctx.mul(v, v) in members)


class TestDecomposition:
    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
    def test_matches_enumeration_reference(self, spec):
        ctx = build_field(*spec)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                for c in enumerate_maximal_cliques(G):
                    _, V1, square_part = decompose_clique(G, c)
                    got = (span(ctx, square_part), V1, span(ctx, V1))
                    assert got == old_decompose(G, c)

    def test_f4_example(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        t, V1, square_part = decompose_clique(G, (0, 2, 3))
        assert t == 0
        assert V1 == (2, 3)
        assert square_part == (0,)
        assert set(span(ctx, square_part).enumerate_elements()) == {0}

    def test_not_maximal(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        with pytest.raises(NotMaximal):
            decompose_clique(G, (0, 2))
        with pytest.raises(NotMaximal):
            decompose_clique(G, (1, 2))

    def test_vertex_outside_the_graph(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        # refused as by a row check in vertex order
        with pytest.raises(NotMaximal, match=r"\[0, 2, 3, 4\] is not a maximal clique"):
            decompose_clique(G, (0, 2, 3, 4))
        with pytest.raises(IndexError):
            decompose_clique(G, (4,))

    def test_structure_on_instances(self):
        rng = random.Random(31)
        for spec in [(2, 1, 4), (3, 1, 2), (2, 2, 2), (3, 1, 3)]:
            ctx = build_field(*spec)
            for _ in range(4):
                U = random_subspace(ctx, rng)
                G = build_graph(ctx, U)
                for c in enumerate_maximal_cliques(G):
                    t, V1, square_part = decompose_clique(G, c)
                    V2 = span(ctx, square_part)
                    assert V2.size + len(V1) == len(c)
                    # square part really is a subspace of clique vertices
                    assert set(V2.enumerate_elements()) <= set(c)
                    q = ctx.q
                    size = len(V2.enumerate_elements())
                    assert size == q**t


# SHA-256 of (V2.basis, V1, W.basis) over every maximal clique of every
# subspace, in enumeration order, with the clique count; recorded from the
# decomposition that built all three parts with ``span``
PINNED_DECOMPOSITIONS = {
    (2, 1, 4): (1220, "f18ec999176e21a70cc09fe46de1a3a860592074ca6fda8840dc9adf9832c805"),
    (3, 1, 3): (1053, "6572c0f60a2c0c90cfb091e0ea1cd513075ab1c6bcf9730ab069ed76b1ecdc52"),
    (2, 2, 2): (95, "7cee8ddd209780e246b84c0a8b970506fb2ace007c0e8e7941fe1e628b7a72a4"),
    (3, 2, 2): (2890, "bfedcfdd93cbec8b27c2812a611e5790117ffcdba5cbbee24dbf6f1ee1dda7ba"),
    (5, 1, 2): (246, "c4a636f6e731ee0fa804ce5c94725a313c1e35c535f7c5f8dcf1996832fd23f1"),
}


class TestPinnedDecomposition:
    """Clique decompositions, pinned so that changes to how the parts are
    checked or built can be shown not to alter them."""

    @pytest.mark.parametrize("spec", sorted(PINNED_DECOMPOSITIONS))
    def test_every_maximal_clique(self, spec):
        ctx = build_field(*spec)
        h = hashlib.sha256()
        count = 0
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                G = build_graph(ctx, U)
                for c in enumerate_maximal_cliques(G):
                    _, V1, square_part = decompose_clique(G, c)
                    V2, W = span(ctx, square_part), span(ctx, V1)
                    h.update(repr((V2.basis, V1, W.basis)).encode())
                    count += 1
        assert (count, h.hexdigest()) == PINNED_DECOMPOSITIONS[spec]


class TestStructureViolation:
    """Each structural check of ``decompose_clique`` fires on a forged
    square mask; genuine maximal cliques never reach them."""

    def _clique(self):
        # a maximal clique of the trace-zero hyperplane of F_16 whose square
        # part has dimension 2
        ctx = build_field(2, 1, 4)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        for clique in enumerate_maximal_cliques(G):
            t, _, square_part = decompose_clique(G, clique)
            if t == 2:
                return G, clique, span(ctx, square_part)
        raise AssertionError("no maximal clique with t = 2")

    @staticmethod
    def _forge(G, vertices):
        G._sq_mask = sum(1 << v for v in vertices)

    def test_square_part_not_a_subspace(self):
        G, clique, V2 = self._clique()
        # one nonzero vertex without 0: a set of size 1 that spans q elements
        self._forge(G, [V2.basis[0]])
        with pytest.raises(StructureViolation, match="square part of the clique is not a subspace"):
            decompose_clique(G, clique)

    def test_rest_dependent(self):
        G, clique, _ = self._clique()
        # only 0 square: the rest holds the three nonzero vectors of a plane
        self._forge(G, [0])
        with pytest.raises(StructureViolation, match="non-square part of the clique is dependent"):
            decompose_clique(G, clique)

    def test_spans_intersect(self):
        G, clique, V2 = self._clique()
        # square part {0, a}: the rest holds b and a + b, whose sum is a
        a, b = V2.basis
        assert {a ^ b, b} <= set(clique)
        self._forge(G, [0, a])
        with pytest.raises(StructureViolation, match="spans of the two parts intersect beyond 0"):
            decompose_clique(G, clique)


def three_rank_rank(ctx, elems):
    """The F_q-rank by the F_p-rank of the m-fold expansion, eliminated afresh
    on every call: ``linalg.rank`` as it stood before the incremental echelon."""
    p, m = ctx.p, ctx.m
    rows = [v if j == 0 else ctx.mul(p**j, v) for v in elems for j in range(m)]
    if p == 2:
        pivots = {}
        for x in rows:
            while x:
                b = pivots.get(x.bit_length())
                if b is None:
                    pivots[x.bit_length()] = x
                    break
                x ^= b
        return len(pivots) // m
    places = [p**i for i in range(ctx.mn)]
    reduced = {}
    for x in rows:
        row = [x // w % p for w in places]
        for col in range(ctx.mn):
            a = row[col]
            if not a:
                continue
            b = reduced.get(col)
            if b is None:
                inv = pow(a, p - 2, p)
                reduced[col] = [y * inv % p for y in row]
                break
            row = [(y - a * z) % p for y, z in zip(row, b)]
    return len(reduced) // m


def three_rank_decompose(G, C):
    """``decompose_clique`` as it stood before the single pass: a maximality
    test by bit counts, then three separate ranks, checked one by one."""
    verts = sorted(set(C))
    mask = 0
    for v in verts:
        mask |= 1 << v
    common = (1 << G.n_vertices) - 1
    for v in verts:
        if (G.adjacency[v] & mask).bit_count() != len(verts) - 1:
            raise NotMaximal(f"{sorted(C)} is not a maximal clique")
        common &= G.adjacency[v]
    if common & ~mask:
        raise NotMaximal(f"{sorted(C)} is not a maximal clique")
    ctx, U = G.ctx, G.U
    sq_mask = G.square_in_U_mask()
    v2 = [v for v in verts if sq_mask >> v & 1]
    v1 = [v for v in verts if not sq_mask >> v & 1]
    t = three_rank_rank(ctx, v2)
    if ctx.q**t != len(v2):
        raise StructureViolation("square part of the clique is not a subspace")
    r = len(v1)
    if three_rank_rank(ctx, v1) != r:
        raise StructureViolation("non-square part of the clique is dependent")
    if three_rank_rank(ctx, v2 + v1) != t + r:
        raise StructureViolation("spans of the two parts intersect beyond 0")
    if t == 0:
        if r > U.dim + 1:
            raise StructureViolation(f"t = 0 but r = {r} > dim + 1 = {U.dim + 1}")
    elif r + t > U.dim:
        raise StructureViolation(f"r + t = {r + t} > dim = {U.dim}")
    return t, tuple(v1), tuple(v2)


def _outcome(decompose, G, C):
    """The split, or the class and message of the exception raised."""
    try:
        return decompose(G, C)
    except (NotMaximal, StructureViolation) as exc:
        return type(exc).__name__, str(exc)


class TestSinglePassCrossCheck:
    """The single-pass decomposition against the three-rank one it
    replaced: the same split, or the same exception and message, on every
    maximal clique of every proper subspace, under the true square mask
    and under forged ones, and on vertex sets that are not maximal cliques."""

    FIELDS = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 2), (5, 1, 2)]

    @staticmethod
    def _forged_mask(rng, G, clique):
        # vertices outside the clique never matter; inside it, a random
        # subset, {0} alone, or the true square part less or plus a vertex
        kind = rng.randrange(4)
        if kind == 0:
            chosen = [v for v in clique if rng.random() < 0.5]
        elif kind == 1:
            chosen = [0]
        else:
            chosen = [v for v in clique if G._sq_mask >> v & 1]
            rest = [v for v in clique if not G._sq_mask >> v & 1]
            if kind == 2 and len(chosen) > 1:
                chosen.remove(rng.choice(chosen[1:]))
            elif rest:
                chosen.append(rng.choice(rest))
        return sum(1 << v for v in chosen)

    def test_matches_three_rank_reference(self):
        rng = random.Random(2210)
        seen = set()
        for spec in self.FIELDS:
            ctx = build_field(*spec)
            for d in range(1, ctx.n):
                for U in all_subspaces(ctx, d):
                    G = build_graph(ctx, U)
                    true_mask = G._sq_mask
                    for clique in enumerate_maximal_cliques(G):
                        G._sq_mask = true_mask
                        want = _outcome(three_rank_decompose, G, clique)
                        assert isinstance(want[0], int), (spec, U, clique, want)
                        assert _outcome(decompose_clique, G, clique) == want
                        G._sq_mask = self._forged_mask(rng, G, clique)
                        want = _outcome(three_rank_decompose, G, clique)
                        assert _outcome(decompose_clique, G, clique) == want
                        seen.add(want[1] if isinstance(want[0], str) else "split")
                        # less a vertex, or plus one outside: never maximal
                        G._sq_mask = true_mask
                        if len(clique) > 1 and rng.random() < 0.2:
                            dropped = rng.choice(clique)
                            smaller = [v for v in clique if v != dropped]
                            want = _outcome(three_rank_decompose, G, smaller)
                            assert want[0] == "NotMaximal"
                            assert _outcome(decompose_clique, G, smaller) == want
                            outside = [v for v in range(ctx.order) if v not in clique]
                            bigger = list(clique) + [rng.choice(outside)]
                            want = _outcome(three_rank_decompose, G, bigger)
                            assert want[0] == "NotMaximal"
                            assert _outcome(decompose_clique, G, bigger) == want
        # every branch, the choice after a failed single pass included
        assert seen >= {
            "split",
            "square part of the clique is not a subspace",
            "non-square part of the clique is dependent",
            "spans of the two parts intersect beyond 0",
        }


SQUARE_CLIQUE_FIELDS = [(2, 1, 4), (2, 1, 5), (3, 1, 3), (2, 2, 2), (3, 1, 2)]


@pytest.mark.parametrize("spec", SQUARE_CLIQUE_FIELDS)
def test_square_clique_matches_brute_force(spec):
    # on every proper U, t is the largest dim W over every subspace W with
    # W W inside U (each product of two basis elements in U, by scalar
    # products), and the witness is the elements of one such W
    ctx = build_field(*spec)
    products = {
        d: np.array([
            [ctx.mul(a, b) for a, b in itertools.combinations_with_replacement(W.basis, 2)]
            for W in all_subspaces(ctx, d)
        ])
        for d in range(1, ctx.n)
    }
    for d in range(1, ctx.n):
        for U in all_subspaces(ctx, d):
            want = max((k for k, prods in products.items() if U.member[prods].all(axis=1).any()),
                       default=0)
            t, witness = graph.square_clique(build_graph(ctx, U))
            W = span(ctx, witness)
            assert (t, W.dim) == (want, want), (spec, U.basis)
            assert sorted(W.enumerate_elements()) == list(witness)
            assert all(U.member[ctx.mul(a, b)] for a in W.basis for b in W.basis)


def test_square_clique_refuses_a_non_subspace():
    # with every vertex taken for a square, the search runs on all of the
    # 2^1^4 trace-zero hyperplane's graph, whose clique number 5 is no
    # power of 2
    ctx = build_field(2, 1, 4)
    G = build_graph(ctx, trace_zero_hyperplane(ctx))
    G._square_in_U = np.ones(ctx.order, dtype=bool)
    with pytest.raises(StructureViolation, match="not a subspace"):
        graph.square_clique(G)
