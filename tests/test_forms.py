"""Tests for bilinear forms, their invariants, and the orthogonal basis."""

import hashlib
import itertools
import random

import pytest

from paleyvec.errors import DegenerateForm, EvenCharacteristic
from paleyvec.gf import build_field
from paleyvec.forms import (
    BilinearForm,
    M_of_form,
    chi_of_form,
    orthogonal_complement,
    special_basis,
    t_of_form,
    verify_orthogonal_set,
)
from paleyvec.graph import build_graph, square_clique
from paleyvec.linalg import (
    all_subspaces,
    determinant,
    hyperplane_from_functional,
    span,
    zero_subspace,
)


def leibniz_det(ctx, mat):
    """Determinant over F_q by the permutation expansion, with no
    elimination: the oracle for the determinant and the sign of a form."""
    n = len(mat)
    acc = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = ctx.mul(term, mat[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = ctx.sub(acc, term) if inversions % 2 else ctx.add(acc, term)
    return acc


def random_invertible(ctx, rng):
    """Random invertible matrix over F_q, by rejection."""
    n = ctx.n
    while True:
        mat = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(n)]
        if leibniz_det(ctx, mat):
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


class GramForm:
    """The symmetric form of a Gram matrix over F_q in the polynomial basis,
    evaluated coordinate by coordinate: the reference for a trace form."""

    def __init__(self, ctx, gram):
        self.ctx = ctx
        self.gram = tuple(tuple(row) for row in gram)

    def gram_matrix(self):
        return self.gram

    def evaluate(self, x, y):
        ctx = self.ctx
        ys = ctx.element_coords(y)
        return _dot(ctx, ctx.element_coords(x), [_dot(ctx, row, ys) for row in self.gram])


def hyperplane_graph(form):
    """The graph the t and M searches of a trace form solve."""
    return build_graph(form.ctx, hyperplane_from_functional(form.ctx, form.lam))


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
    G = hyperplane_graph(form)
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
        for lam in (-1, ctx.order):
            with pytest.raises(ValueError, match="out of range"):
                BilinearForm.trace_form(ctx, lam)

    def test_evaluate_matches_gram(self):
        rng = random.Random(42)
        ctx = build_field(3, 1, 3)
        lam = 7
        B = BilinearForm.trace_form(ctx, lam)
        G = GramForm(ctx, B.gram_matrix())
        for _ in range(100):
            x = rng.randrange(27)
            y = rng.randrange(27)
            assert B.evaluate(x, y) == G.evaluate(x, y)


    def test_determinant_matches_expansion(self):
        rng = random.Random(46)
        for spec in [(3, 1, 2), (3, 1, 3), (5, 1, 3), (2, 1, 4), (3, 2, 2), (2, 2, 3)]:
            ctx = build_field(*spec)
            for _ in range(40):
                mat = [[rng.randrange(ctx.q) for _ in range(ctx.n)] for _ in range(ctx.n)]
                if rng.random() < 0.25:
                    mat[-1] = list(mat[0])  # singular
                assert determinant(ctx, mat) == leibniz_det(ctx, mat), (spec, mat)


class TestDiagonalize:
    """The sign is the same over every diagonalisation: congruent Gram
    matrices give it."""

    def test_even_characteristic_rejected(self):
        ctx = build_field(2, 1, 2)
        with pytest.raises(EvenCharacteristic):
            chi_of_form(BilinearForm.trace_form(ctx, 1))

    def test_chi_invariant_under_congruence(self):
        rng = random.Random(43)
        for spec in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3)]:
            ctx = build_field(*spec)
            B = BilinearForm.trace_form(ctx, 1)
            base = chi_of_form(B)
            for _ in range(50):
                T = random_invertible(ctx, rng)
                B2 = GramForm(ctx, congruent_gram(ctx, B.gram_matrix(), T))
                assert chi_of_form(B2) == base


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


# SHA-256 of chi_of_form over lambda = 1, ..., q^n - 1, one byte per sign
PINNED_CHI = {
    (3, 1, 2): "ac819090c5dfad17dbf4378b1b62a178acb88b5501c8d05c6faffa405fb257e8",
    (3, 1, 3): "a8cd2f32ec02556bda6a4f27c0c79a9ef2fea55ebe036a133ab5d25c96cf8e72",
    (3, 1, 4): "5bb0ba5e0d47fba0525d92b4bc3df7906c271ca9732702149ee2a7a080d56da6",
    (3, 1, 5): "f9a2c3bab1f5c0fce274eae366232dd73c3055cf4cb86eb72b3735c124a7d21a",
    (5, 1, 2): "2770300699693cd7e863288bd7a1c1c9a6d70f4664912662c435a7a8446e2877",
    (5, 1, 3): "4c5282b7fc5f3b00f5dbf3e7ef2922a5c2b60aee6c58e15f0e6271fde364d012",
    (5, 1, 4): "f44713df078c4dd48d53ff2c61f43ddad4511d56ca93525ce9ed3947d4dfa0ed",
    (7, 1, 2): "a31eca562f150578e94a184e4aeb56ba07a2439e14e7ac610af798292688c56d",
    (7, 1, 3): "7a37694afe857951c44e2e49651d2a1b4b10ac0aee6e8e5957b1cfbbf86e3f48",
    (3, 2, 2): "a91eadb389387ff5b7a47e155c905863391d5486e76e91cb01af954243f9fc45",
}

# SHA-256 of the complement's basis for every subspace of every dimension,
# in the order of all_subspaces, for the trace forms of lambda = 1 and 2
PINNED_COMPLEMENTS = {
    (3, 1, 3): "1ce870c40efd1bdc157c8639912c9e77fb7cc1112f0d0ffc11f2c7146f899ed2",
    (5, 1, 2): "f4aa2f97be0e285898bcc2089e5eba6bcd7ae80ec323d9aed7a24b0a251871a7",
    (2, 1, 4): "a3817f8ca910a64e75475f935d32cc1f06c49d1f7aa90bcd5e68d6478e7a712c",
}


class TestPinnedForms:
    @pytest.mark.parametrize("spec", sorted(PINNED_CHI))
    def test_chi_pinned(self, spec):
        ctx = build_field(*spec)
        signs = bytes(chi_of_form(BilinearForm.trace_form(ctx, lam)) % 3
                      for lam in range(1, ctx.order))
        assert hashlib.sha256(signs).hexdigest() == PINNED_CHI[spec]

    @pytest.mark.parametrize("spec", sorted(PINNED_COMPLEMENTS))
    def test_complements_pinned(self, spec):
        ctx = build_field(*spec)
        digest = hashlib.sha256()
        for lam in (1, 2):
            B = BilinearForm.trace_form(ctx, lam)
            for dim in range(ctx.n + 1):
                for U in all_subspaces(ctx, dim):
                    digest.update(repr(orthogonal_complement(U, B).basis).encode())
        assert digest.hexdigest() == PINNED_COMPLEMENTS[spec]

    def test_chi_is_the_character_of_a_congruent_determinant(self):
        # a congruence T^t G T multiplies det G by det(T)^2, a nonzero square
        rng = random.Random(47)
        checked = 0
        for spec in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (5, 1, 3), (7, 1, 2),
                     (3, 2, 2)]:
            ctx = build_field(*spec)
            for _ in range(45):
                B = BilinearForm.trace_form(ctx, rng.randrange(1, ctx.order))
                T = random_invertible(ctx, rng)
                det = leibniz_det(ctx, congruent_gram(ctx, B.gram_matrix(), T))
                assert ctx.quadratic_character(det) == chi_of_form(B), (spec, B)
                checked += 1
        assert checked >= 300


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
        # search never evaluates the form; only the witness check does, once
        # per pair of witness basis elements
        ctx = build_field(3, 1, 4)
        calls = []
        evaluate = BilinearForm.evaluate

        def counted(form, x, y):
            calls.append((x, y))
            return evaluate(form, x, y)

        monkeypatch.setattr(BilinearForm, "evaluate", counted)
        for lam in range(1, ctx.order, 7):
            calls.clear()
            t, W = t_of_form(BilinearForm.trace_form(ctx, lam))
            assert calls == [(u, w) for u in W.basis for w in W.basis]

    def test_closed_form_matches_search_all_lambda(self):
        for spec in [(3, 1, 2), (3, 1, 3), (3, 1, 4)]:
            ctx = build_field(*spec)
            for lam in range(1, ctx.order):
                B = BilinearForm.trace_form(ctx, lam)
                t, _ = t_of_form(B)
                found, _ = square_clique(hyperplane_graph(B))
                assert t == found, (spec, lam)

    @pytest.mark.parametrize("spec", REFERENCE_FIELDS)
    def test_search_matches_span_closure_reference(self, spec):
        # t from t_of_form against the reference search, on every
        # multiplier; each witness is totally isotropic
        ctx = build_field(*spec)
        for lam in range(1, ctx.order):
            B = BilinearForm.trace_form(ctx, lam)
            want, _ = span_closure_search(B)
            t, W = t_of_form(B)
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
        # the graph M_of_form solves, against the same form given by its
        # Gram matrix, evaluated pair by pair
        ctx = build_field(*spec)
        for lam in range(1, ctx.order):
            B = BilinearForm.trace_form(ctx, lam)
            by_pairs = orthogonality_adjacency(GramForm(ctx, B.gram_matrix()))
            assert hyperplane_graph(B).adjacency == by_pairs, lam

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
