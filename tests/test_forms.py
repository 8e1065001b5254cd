"""Tests for bilinear forms, their invariants, and the orthogonal basis."""

import random

import pytest

from paleyvec.errors import DegenerateForm, EvenCharacteristic, PreconditionViolated
from paleyvec.gf import build_field
from paleyvec.forms import (
    BilinearForm,
    M_of_form,
    chi_of_form,
    diagonalize,
    isotropic_dimension_search,
    orthogonal_complement,
    orthogonal_set_max,
    special_basis,
    t_of_form,
    verify_orthogonal_set,
)
from paleyvec.graph import build_graph
from paleyvec.linalg import hyperplane_from_functional, span, zero_subspace


def random_invertible(ctx, rng):
    """Random invertible matrix over F_q, by rejection."""
    from paleyvec.linalg import _rref

    n = ctx.n
    while True:
        mat = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]
        rows, _ = _rref(ctx, mat)
        if len(rows) == n:
            return mat


def congruent_gram(ctx, gram, T):
    """T^t G T over F_q."""
    n = ctx.n

    def mat_mul(A, B):
        return [
            [
                _dot(ctx, [A[i][k] for k in range(n)], [B[k][j] for k in range(n)])
                for j in range(n)
            ]
            for i in range(n)
        ]

    Tt = [[T[j][i] for j in range(n)] for i in range(n)]
    return mat_mul(mat_mul(Tt, [list(r) for r in gram]), T)


def orthogonality_adjacency(form):
    """Reference: the bit-packed graph on the field with edges where the
    form vanishes, evaluated pair by pair."""
    n = form.ctx.order
    rows = [(1 << n) - 2]
    for v in range(1, n):
        row = 1
        for w in range(1, n):
            if w != v and form.evaluate(v, w) == 0:
                row |= 1 << w
        rows.append(row)
    return rows


def _dot(ctx, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def span_closure_search(form):
    """Reference: the largest totally isotropic subspace of a trace form by
    the span-closure extension search over index-increasing generating
    sequences (every subspace is reachable through its greedy minimal
    basis), each partial subspace closed by scalar adds; kept as the
    oracle for the square-clique search."""
    ctx = form.ctx
    G = build_graph(ctx, hyperplane_from_functional(ctx, form.lam))
    adj, sq_mask = G.adjacency, G.square_in_U_mask()
    limit = ctx.n // 2  # a totally isotropic space sits inside its own complement
    isotropic = [w for w in range(1, ctx.order) if sq_mask >> w & 1]
    best = (0, ())

    def extend(basis, span_set, cands):
        nonlocal best
        if len(basis) > best[0]:
            best = (len(basis), tuple(basis))
        if len(basis) == limit:
            return
        for idx, w in enumerate(cands):
            if w in span_set:
                continue
            row = adj[w]
            sub = [x for x in cands[idx + 1:] if x not in span_set and row >> x & 1]
            new_span = set(span_set)
            for lam in range(1, ctx.q):
                lw = ctx.mul(lam, w)
                new_span.update(ctx.add(s, lw) for s in span_set)
            extend(basis + [w], new_span, sub)

    extend([], {0}, isotropic)
    return best[0], span(ctx, best[1])


# fields whose every multiplier is checked against the span-closure reference
REFERENCE_FIELDS = [
    (3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3),
    (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 2, 2), (2, 2, 3),
]


class TestGram:
    def test_f9_lambda_one(self):
        ctx = build_field(3, 1, 2)
        B = BilinearForm.trace_form(ctx, 1)
        assert B.gram_matrix() == ((2, 0), (0, 1))

    def test_symmetric_random_lambda(self):
        rng = random.Random(41)
        for spec in [(3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 1, 4)]:
            ctx = build_field(*spec)
            for _ in range(10):
                lam = rng.randrange(1, ctx.order)
                g = BilinearForm.trace_form(ctx, lam).gram_matrix()
                assert all(g[i][j] == g[j][i] for i in range(ctx.n) for j in range(ctx.n))

    def test_nondegenerate_for_all_lambda(self):
        for spec in [(3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 2)]:
            ctx = build_field(*spec)
            for lam in range(1, ctx.order):
                BilinearForm.trace_form(ctx, lam)  # raises if singular

    def test_degenerate_inputs(self):
        ctx = build_field(3, 1, 2)
        with pytest.raises(DegenerateForm):
            BilinearForm.trace_form(ctx, 0)
        with pytest.raises(DegenerateForm):
            BilinearForm.from_gram(ctx, [[1, 0], [0, 0]])
        with pytest.raises(DegenerateForm):
            BilinearForm.from_gram(ctx, [[1, 2], [0, 1]])

    def test_evaluate_matches_gram(self):
        rng = random.Random(42)
        ctx = build_field(3, 1, 3)
        lam = 7
        B = BilinearForm.trace_form(ctx, lam)
        G = BilinearForm.from_gram(ctx, B.gram_matrix())
        for _ in range(100):
            x = rng.randrange(27)
            y = rng.randrange(27)
            assert B.evaluate(x, y) == G.evaluate(x, y)


class TestDiagonalize:
    def test_already_diagonal(self):
        ctx = build_field(3, 1, 2)
        B = BilinearForm.from_gram(ctx, [[2, 0], [0, 1]])
        assert diagonalize(B) == (2, 1)

    def test_f9_b1(self):
        ctx = build_field(3, 1, 2)
        d = diagonalize(BilinearForm.trace_form(ctx, 1))
        chis = sorted(ctx.quadratic_character(a) for a in d)
        assert chis == [-1, 1]

    def test_even_characteristic_rejected(self):
        ctx = build_field(2, 1, 2)
        with pytest.raises(EvenCharacteristic):
            diagonalize(BilinearForm.trace_form(ctx, 1))

    def test_chi_invariant_under_congruence(self):
        rng = random.Random(43)
        for spec in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]:
            ctx = build_field(*spec)
            B = BilinearForm.trace_form(ctx, 1)
            base = chi_of_form(B)
            for _ in range(50):
                T = random_invertible(ctx, rng)
                B2 = BilinearForm.from_gram(ctx, congruent_gram(ctx, B.gram_matrix(), T))
                assert chi_of_form(B2) == base

    def test_congruence_produces_valid_diagonal(self):
        rng = random.Random(44)
        ctx = build_field(3, 1, 4)
        for _ in range(20):
            T = random_invertible(ctx, rng)
            gram = congruent_gram(
                ctx, BilinearForm.trace_form(ctx, 1).gram_matrix(), T
            )
            B = BilinearForm.from_gram(ctx, gram)
            diag = diagonalize(B)
            assert all(a != 0 for a in diag)


class TestChi:
    def test_f9_value(self):
        ctx = build_field(3, 1, 2)
        assert chi_of_form(BilinearForm.trace_form(ctx, 1)) == -1

    def test_lambda_squareness_iff(self):
        for spec in [(3, 1, 2), (5, 1, 2), (3, 1, 3)]:
            ctx = build_field(*spec)
            base = chi_of_form(BilinearForm.trace_form(ctx, 1))
            for lam in range(1, ctx.order):
                chi = chi_of_form(BilinearForm.trace_form(ctx, lam))
                assert (chi == base) == ctx.is_square(lam)


class TestComplement:
    def test_extremes(self):
        ctx = build_field(3, 1, 2)
        B = BilinearForm.trace_form(ctx, 1)
        full = span(ctx, [1, 3])
        assert orthogonal_complement(full, B).dim == 0
        assert orthogonal_complement(zero_subspace(ctx), B).dim == 2

    def test_dimension_and_involution(self):
        rng = random.Random(45)
        ctx = build_field(3, 1, 4)
        B = BilinearForm.trace_form(ctx, 1)
        for _ in range(20):
            gens = [rng.randrange(1, 81) for _ in range(rng.randrange(1, 4))]
            U = span(ctx, gens)
            C = orthogonal_complement(U, B)
            assert C.dim == 4 - U.dim
            assert orthogonal_complement(C, B) == U
            for u in U.basis:
                for w in C.basis:
                    assert B.evaluate(u, w) == 0


class TestIsotropic:
    def test_closed_form_examples(self):
        ctx = build_field(3, 1, 2)
        t, W = t_of_form(BilinearForm.trace_form(ctx, 1))
        assert t == 1 and W.dim == 1
        ctx33 = build_field(3, 1, 3)
        t33, _ = t_of_form(BilinearForm.trace_form(ctx33, 1))
        assert t33 == 1

    def test_even_q_search(self):
        ctx = build_field(2, 1, 4)
        t, W = t_of_form(BilinearForm.trace_form(ctx, 1))
        assert t <= 2
        for u in W.basis:
            for w in W.basis:
                assert BilinearForm.trace_form(ctx, 1).evaluate(u, w) == 0

    def test_search_reads_the_graph(self, monkeypatch):
        # isotropy and orthogonality come from the hyperplane graph, so the
        # search never evaluates the form; the witness check still does
        ctx = build_field(3, 1, 4)
        want = [isotropic_dimension_search(BilinearForm.trace_form(ctx, lam))
                for lam in range(1, ctx.order, 7)]

        def refuse(*args):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(BilinearForm, "evaluate", refuse)
        got = [isotropic_dimension_search(BilinearForm.trace_form(ctx, lam))
               for lam in range(1, ctx.order, 7)]
        assert got == want
        with pytest.raises(AssertionError, match="evaluate called"):
            t_of_form(BilinearForm.trace_form(ctx, 1))

    def test_closed_form_matches_search_all_lambda(self):
        for spec in [(3, 1, 2), (3, 1, 3), (3, 1, 4)]:
            ctx = build_field(*spec)
            for lam in range(1, ctx.order):
                B = BilinearForm.trace_form(ctx, lam)
                t, _ = t_of_form(B)
                found, _ = isotropic_dimension_search(B)
                assert t == found, (spec, lam)

    @pytest.mark.parametrize("spec", REFERENCE_FIELDS)
    def test_search_matches_span_closure_reference(self, spec):
        # t from the public search and from t_of_form against the reference
        # search, on every multiplier; each witness is totally isotropic
        ctx = build_field(*spec)
        for lam in range(1, ctx.order):
            B = BilinearForm.trace_form(ctx, lam)
            want, _ = span_closure_search(B)
            for t, W in (isotropic_dimension_search(B), t_of_form(B)):
                assert (t, W.dim) == (want, want), (spec, lam)
                assert all(B.evaluate(u, w) == 0 for u in W.basis for w in W.basis)


class TestOrthogonalSets:
    def test_formula_values(self):
        ctx = build_field(3, 1, 2)
        assert M_of_form(BilinearForm.trace_form(ctx, 1)).M == 3
        ctx33 = build_field(3, 1, 3)
        assert M_of_form(BilinearForm.trace_form(ctx33, 1)).M == 4

    def test_q2_n3_bound_achieved(self):
        ctx = build_field(2, 1, 3)
        inv = M_of_form(BilinearForm.trace_form(ctx, 1))
        assert inv.M_upper == 4
        assert inv.M == 4
        assert verify_orthogonal_set(BilinearForm.trace_form(ctx, 1), inv.witness_E)

    def test_formula_matches_search(self):
        for spec in [(3, 1, 2), (3, 1, 3), (3, 1, 4)]:
            ctx = build_field(*spec)
            for lam in range(1, ctx.order, 5):
                B = BilinearForm.trace_form(ctx, lam)
                inv = M_of_form(B)
                assert verify_orthogonal_set(B, inv.witness_E)
                assert len(inv.witness_E) == inv.M

    def test_adjacency_matches_evaluate(self):
        ctx = build_field(3, 1, 2)
        B = BilinearForm.trace_form(ctx, 5)
        adj = orthogonality_adjacency(B)
        for u in range(9):
            for w in range(9):
                expect = u != w and B.evaluate(u, w) == 0
                assert bool(adj[u] >> w & 1) == expect

    @pytest.mark.parametrize("spec", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 1, 4), (2, 2, 2)])
    def test_trace_form_graph_is_hyperplane_graph(self, spec):
        # the graph orthogonal_set_max solves, against the same form given by
        # its Gram matrix, evaluated pair by pair
        ctx = build_field(*spec)
        for lam in range(1, ctx.order):
            B = BilinearForm.trace_form(ctx, lam)
            by_pairs = orthogonality_adjacency(BilinearForm.from_gram(ctx, B.gram_matrix()))
            G = build_graph(ctx, hyperplane_from_functional(ctx, lam))
            assert G.adjacency == by_pairs, lam

    def test_gram_form_refused(self):
        # orthogonal sets and isotropic subspaces are solved on the
        # hyperplane graph of a trace form
        ctx = build_field(3, 1, 2)
        G = BilinearForm.from_gram(ctx, BilinearForm.trace_form(ctx, 1).gram_matrix())
        for solve in (orthogonal_set_max, M_of_form, isotropic_dimension_search, t_of_form):
            with pytest.raises(PreconditionViolated, match="trace forms only"):
                solve(G)

    def test_even_q_bound(self):
        for spec in [(2, 1, 3), (2, 1, 4), (2, 2, 2)]:
            ctx = build_field(*spec)
            for lam in range(1, ctx.order, 3):
                inv = M_of_form(BilinearForm.trace_form(ctx, lam))
                assert inv.M <= inv.M_upper


class TestSpecialBasis:
    def test_f9_example(self):
        ctx = build_field(3, 1, 2)
        basis, mu = special_basis(ctx)
        assert basis == (1, 3)
        assert mu == 2

    def test_q2_n3_identity_gram(self):
        ctx = build_field(2, 1, 3)
        basis, mu = special_basis(ctx)
        assert mu == 1
        B = BilinearForm.trace_form(ctx, 1)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                assert B.evaluate(bi, bj) == (1 if i == j else 0)

    @pytest.mark.parametrize(
        "spec", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (3, 1, 2), (3, 1, 3),
                 (3, 1, 4), (5, 1, 2), (5, 1, 3), (2, 2, 2), (7, 1, 2), (3, 2, 2)]
    )
    def test_gram_shape_and_mu_rule(self, spec):
        ctx = build_field(*spec)
        basis, mu = special_basis(ctx)
        assert len(basis) == ctx.n
        assert span(ctx, basis).dim == ctx.n
        B = BilinearForm.trace_form(ctx, 1)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                want = 0 if i != j else (mu if i == 0 else 1)
                assert B.evaluate(bi, bj) == want
        if ctx.p == 2 or (ctx.q % 2 == 1 and ctx.n % 2 == 1):
            assert mu == 1
        else:
            assert ctx.quadratic_character(mu) == -1
