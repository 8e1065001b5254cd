"""Tests for graph construction, the exact solver, and clique structure."""

import itertools
import random

import pytest

from paleyvec.errors import (
    BudgetExceeded,
    CapExceeded,
    NotMaximal,
    TimeLimitExceeded,
    ZeroDimension,
)
from paleyvec.gf import build_field
from paleyvec.linalg import (
    all_hyperplanes,
    all_subspaces,
    contains_nonzero_square,
    span,
    subfield_subspace,
    trace_zero_hyperplane,
    zero_subspace,
)
from paleyvec.graph import (
    build_graph,
    clique_number_exact,
    decompose_clique,
    enumerate_maximal_cliques,
    greedy_seed_clique,
    is_maximal_clique,
)


def brute_force_omega(G):
    """Subset-enumeration oracle, independent of both search paths."""
    n = G.n_vertices
    for k in range(n, 0, -1):
        for combo in itertools.combinations(range(n), k):
            if all(G.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return k
    return 0


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
                for a in range(ctx.order):
                    for b in range(ctx.order):
                        expect = a != b and U.contains(ctx.mul(a, b))
                        assert G.has_edge(a, b) == expect

    def test_symmetry(self):
        rng = random.Random(22)
        for _ in range(20):
            ctx = build_field(*rng.choice([(2, 1, 4), (3, 1, 3), (2, 2, 2)]))
            U = random_subspace(ctx, rng)
            G = build_graph(ctx, U)
            for a in range(ctx.order):
                for b in range(ctx.order):
                    assert G.has_edge(a, b) == G.has_edge(b, a)

    def test_scalar_build_matches_tabled(self):
        tabled = build_field(3, 1, 2)
        plain = build_field(3, 1, 2, table_limit=1)
        U_t = trace_zero_hyperplane(tabled)
        U_p = trace_zero_hyperplane(plain)
        assert build_graph(tabled, U_t).adjacency == build_graph(plain, U_p).adjacency

    def test_errors(self):
        ctx = build_field(2, 1, 2)
        with pytest.raises(ZeroDimension):
            build_graph(ctx, zero_subspace(ctx))
        big = build_field(2, 1, 8)
        with pytest.raises(BudgetExceeded):
            build_graph(big, trace_zero_hyperplane(big), max_vertices=100)

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("PALEYVEC_BUDGET_VERTICES", "8")
        ctx = build_field(2, 1, 4)
        with pytest.raises(BudgetExceeded):
            build_graph(ctx, trace_zero_hyperplane(ctx))


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

    def test_dominance_toggle_agrees(self):
        rng = random.Random(25)
        for spec in [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)]:
            ctx = build_field(*spec)
            for _ in range(6):
                U = random_subspace(ctx, rng)
                G = build_graph(ctx, U)
                with_rule = clique_number_exact(G, dominance=True)
                without = clique_number_exact(G, dominance=False)
                assert with_rule[0] == without[0]

    def test_workers_agree(self):
        ctx = build_field(3, 1, 3)
        G = build_graph(ctx, trace_zero_hyperplane(ctx))
        seq = clique_number_exact(G, workers=1)
        par = clique_number_exact(G, workers=2)
        assert seq[0] == par[0] == 4

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
                assert is_maximal_clique(G, c)
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
         (3, 2, 2, 1 << 20), (2, 3, 2, 1 << 20), (3, 1, 3, 1)],
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
                    dec = decompose_clique(G, c)
                    assert (dec.V2, dec.V1, dec.W) == old_decompose(G, c)

    def test_f4_example(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        dec = decompose_clique(G, (0, 2, 3))
        assert dec.t == 0
        assert dec.r == 2
        assert dec.V1 == (2, 3)
        assert set(dec.V2.enumerate_elements()) == {0}

    def test_not_maximal(self):
        ctx = build_field(2, 1, 2)
        G = build_graph(ctx, span(ctx, [1]))
        with pytest.raises(NotMaximal):
            decompose_clique(G, (0, 2))
        with pytest.raises(NotMaximal):
            decompose_clique(G, (1, 2))

    def test_structure_on_instances(self):
        rng = random.Random(31)
        for spec in [(2, 1, 4), (3, 1, 2), (2, 2, 2), (3, 1, 3)]:
            ctx = build_field(*spec)
            for _ in range(4):
                U = random_subspace(ctx, rng)
                G = build_graph(ctx, U)
                for c in enumerate_maximal_cliques(G):
                    dec = decompose_clique(G, c)
                    assert dec.V2.size + dec.r == len(c)
                    # square part really is a subspace of clique vertices
                    assert set(dec.V2.enumerate_elements()) <= set(c)
                    q = ctx.q
                    size = len(dec.V2.enumerate_elements())
                    assert size == q**dec.t
