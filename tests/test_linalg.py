"""Tests for subspace machinery and the hyperplane invariants."""

import hashlib
import random

import numpy as np
import pytest

from paleyvec.errors import (
    NoNonzeroSquare,
    NotADivisor,
    ParseError,
    WrongDimension,
    WrongParity,
    ZeroFunctional,
)
from paleyvec import graph, linalg
from paleyvec.gf import FieldCtx, build_field
from paleyvec.linalg import (
    D_invariant,
    Subspace,
    all_hyperplanes,
    all_subspaces,
    contains_nonzero_square,
    extend_echelon,
    functional_of_hyperplane,
    hyperplane_from_functional,
    parse_subspace,
    rank,
    s_invariant,
    span,
    subfield_subspace,
    trace_zero_hyperplane,
    zero_subspace,
)
from paleyvec.suites import BOUNDS_GRID, survey_family


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def subfield_elements(ctx, d):
    """The q^d fixed points of x -> x^(q^d), by scalar powers."""
    return [a for a in range(ctx.order) if ctx.pow(a, ctx.q**d) == a]


def naive_span_set(ctx, gens):
    """Exhaustive closure oracle: grow the set under addition and scaling."""
    current = {0}
    changed = True
    while changed:
        changed = False
        for g in list(gens) + list(current):
            for lam in range(ctx.q):
                for x in list(current):
                    y = ctx.add(x, ctx.mul(lam, g))
                    if y not in current:
                        current.add(y)
                        changed = True
    return current


def enumerate_scalar(U):
    """Reference: U's elements by scalar sums over the basis, sorted by
    coordinate vector."""
    ctx = U.ctx
    out = [0]
    for b in U.basis:
        scaled = [ctx.mul(lam, b) for lam in range(1, ctx.q)]
        out = [ctx.add(x, s) for s in [0] + scaled for x in out]
    return sorted(set(out), key=ctx.element_coords)


class TestSpan:
    def test_empty(self):
        ctx = build_field(2, 1, 2)
        U = span(ctx, [])
        assert U.dim == 0
        assert U.enumerate_elements() == [0]

    def test_dependent_generators(self):
        ctx = build_field(3, 1, 2)
        rng = random.Random(2)
        for _ in range(20):
            a = rng.randrange(1, 9)
            lam = rng.randrange(1, 3)
            U = span(ctx, [a, ctx.mul(lam, a)])
            assert U.dim == 1

    def test_f4_inside_f16(self):
        ctx = build_field(2, 1, 4)
        U = subfield_subspace(ctx, 2)
        assert U.dim == 2
        assert len(U.enumerate_elements()) == 4
        assert set(U.enumerate_elements()) == set(subfield_elements(ctx, 2))

    def test_canonical_under_shuffle(self):
        rng = random.Random(4)
        ctx = build_field(2, 1, 4)
        for _ in range(30):
            gens = [rng.randrange(16) for _ in range(3)]
            U = span(ctx, gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert span(ctx, shuffled) == U

    def test_contains_matches_enumeration(self):
        rng = random.Random(6)
        for spec in [(2, 1, 4), (3, 1, 3)]:
            ctx = build_field(*spec)
            for _ in range(20):
                gens = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 4))]
                U = span(ctx, gens)
                if U.dim > 3:
                    continue
                members = set(naive_span_set(ctx, gens))
                assert set(U.enumerate_elements()) == members
                for x in range(ctx.order):
                    assert U.contains(x) == (x in members)

    def test_enumerate_sizes_and_order(self):
        ctx = build_field(3, 1, 2)
        U = span(ctx, [3])
        els = U.enumerate_elements()
        assert len(els) == 3
        assert els == sorted(els, key=ctx.element_coords)
        V = span(ctx, [1, 3])
        assert len(V.enumerate_elements()) == 9

    # (p, m, n, table_limit): the last field runs untabled
    @pytest.mark.parametrize("spec", [(2, 1, 4, 1 << 20), (3, 1, 3, 1 << 20), (2, 2, 2, 1 << 20),
                                      (5, 1, 2, 1 << 20), (2, 1, 5, 1 << 20), (3, 1, 3, 1)])
    def test_enumeration_matches_scalar_reference(self, spec):
        p, m, n, table_limit = spec
        ctx = build_field(p, m, n, table_limit=table_limit)
        assert ctx.tabled == (table_limit > 1)
        for d in range(ctx.n + 1):
            for U in all_subspaces(ctx, d):
                assert U.enumerate_elements() == enumerate_scalar(U)


# (p, m, n, table_limit): the last field runs untabled
MEMBERSHIP_FIELDS = [
    (2, 1, 4, 1 << 20),
    (3, 1, 3, 1 << 20),
    (2, 2, 2, 1 << 20),
    (3, 2, 2, 1 << 20),
    (2, 3, 2, 1 << 20),
    (3, 1, 3, 1),
]


def _random_list(ctx, rng):
    """Up to 8 elements with zeros, repeats and F_q-combinations of earlier ones."""
    out = []
    for _ in range(rng.randrange(0, 9)):
        kind = rng.random()
        if kind < 0.15:
            out.append(0)
        elif kind < 0.3 and out:
            out.append(rng.choice(out))
        elif kind < 0.5 and len(out) >= 2:
            a, b = rng.sample(out, 2)
            out.append(ctx.add(ctx.mul(rng.randrange(ctx.q), a), ctx.mul(rng.randrange(ctx.q), b)))
        else:
            out.append(rng.randrange(ctx.order))
    return out


class TestRank:
    @pytest.mark.parametrize(
        "p,m,n,table_limit",
        [(2, 1, 5, 1 << 20), (2, 2, 3, 1 << 20), (2, 3, 2, 1 << 20), (3, 1, 3, 1 << 20),
         (3, 2, 2, 1 << 20), (5, 1, 2, 1 << 20), (3, 1, 3, 1), (2, 2, 2, 1)],
    )
    def test_matches_span_dim(self, p, m, n, table_limit):
        ctx = build_field(p, m, n, table_limit=table_limit)
        rng = random.Random(f"rank:{p}:{m}:{n}:{table_limit}")
        dims = set()
        for _ in range(300):
            vs = _random_list(ctx, rng)
            want = span(ctx, vs).dim
            assert rank(ctx, vs) == want, vs
            dims.add(want)
        assert dims == set(range(ctx.n + 1))


class TestExtendEchelon:
    """The incremental kernel behind ``rank``: a list fed in two parts
    gives the prefix's rank, then the whole list's."""

    @pytest.mark.parametrize(
        "p,m,n,table_limit",
        [(2, 1, 5, 1 << 20), (2, 2, 3, 1 << 20), (2, 3, 2, 1 << 20), (3, 1, 3, 1 << 20),
         (3, 2, 2, 1 << 20), (5, 1, 2, 1 << 20), (3, 1, 3, 1), (2, 2, 2, 1)],
    )
    def test_prefix_then_rest(self, p, m, n, table_limit):
        ctx = build_field(p, m, n, table_limit=table_limit)
        rng = random.Random(f"echelon:{p}:{m}:{n}:{table_limit}")
        for _ in range(100):
            vs = _random_list(ctx, rng)
            cut = rng.randrange(len(vs) + 1)
            echelon = {}
            head = extend_echelon(ctx, echelon, vs[:cut])
            assert head == rank(ctx, vs[:cut]) == span(ctx, vs[:cut]).dim
            assert len(echelon) == m * head  # m F_p pivots per unit of F_q-rank
            tail = extend_echelon(ctx, echelon, vs[cut:])
            assert head + tail == span(ctx, vs).dim, (vs, cut)


class TestMembership:
    @pytest.mark.parametrize("p,m,n,table_limit", MEMBERSHIP_FIELDS)
    def test_member_array_matches_enumeration(self, p, m, n, table_limit):
        ctx = build_field(p, m, n, table_limit=table_limit)
        for d in range(ctx.n + 1):
            for U in all_subspaces(ctx, d):
                assert U._member is None  # built on first use only
                assert U.member.shape == (ctx.order,)
                members = set(U.enumerate_elements())
                assert set(np.flatnonzero(U.member).tolist()) == members
                assert [U.contains(x) for x in range(ctx.order)] == [
                    x in members for x in range(ctx.order)
                ]

    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
    def test_rank_detects_intersection(self, spec):
        # dim(V + W) = dim V + dim W exactly when V and W meet only at 0
        ctx = build_field(*spec)
        rng = random.Random(11)
        for _ in range(60):
            V = span(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(3))])
            W = span(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(3))])
            meet = set(V.enumerate_elements()) & set(W.enumerate_elements())
            assert (span(ctx, V.basis + W.basis).dim == V.dim + W.dim) == (meet == {0})


class TestHyperplanes:
    def test_trace_zero_f4(self):
        ctx = build_field(2, 1, 2)
        U = trace_zero_hyperplane(ctx)
        assert set(U.enumerate_elements()) == {0, 1}

    def test_kernel_definition(self):
        for spec in [(3, 1, 2), (2, 1, 3), (2, 2, 2)]:
            ctx = build_field(*spec)
            for c in range(1, ctx.order):
                U = hyperplane_from_functional(ctx, c)
                assert U.dim == ctx.n - 1
                members = {x for x in range(ctx.order) if ctx.trace(ctx.mul(c, x)) == 0}
                assert set(U.enumerate_elements()) == members

    def test_zero_functional(self):
        with pytest.raises(ZeroFunctional):
            hyperplane_from_functional(build_field(2, 1, 2), 0)

    @pytest.mark.parametrize(
        "spec,count",
        [((3, 1, 2), 4), ((2, 1, 3), 7), ((5, 1, 2), 6), ((2, 2, 2), 5)],
    )
    def test_hyperplane_count(self, spec, count):
        ctx = build_field(*spec)
        planes = list(all_hyperplanes(ctx))
        assert len(planes) == count == gaussian_binomial(ctx.n, ctx.n - 1, ctx.q)
        subs = {U for _, U in planes}
        assert len(subs) == count
        for delta, U in planes:
            assert U.dim == ctx.n - 1
            tz = set(trace_zero_hyperplane(ctx).enumerate_elements())
            assert set(U.enumerate_elements()) == {ctx.mul(delta, t) for t in tz}

    def test_scaling_fixes_trace_zero_iff_base_scalar(self):
        ctx = build_field(3, 1, 2)
        tz = trace_zero_hyperplane(ctx)
        members = set(tz.enumerate_elements())
        for delta in range(1, ctx.order):
            scaled = {ctx.mul(delta, t) for t in members}
            assert (scaled == members) == (delta < ctx.q)

    def test_functional_round_trip(self):
        ctx = build_field(3, 1, 3)
        for c in [1, 5, 20]:
            U = hyperplane_from_functional(ctx, c)
            c2 = functional_of_hyperplane(U)
            assert hyperplane_from_functional(ctx, c2) == U


class TestSquareContent:
    def test_char2_any_positive_dim(self):
        ctx = build_field(2, 1, 3)
        for _, U in all_hyperplanes(ctx):
            assert contains_nonzero_square(U)
        assert not contains_nonzero_square(zero_subspace(ctx))

    def test_f9_span_i(self):
        ctx = build_field(3, 1, 2)
        assert contains_nonzero_square(span(ctx, [3]))

    def test_square_free_line_exists_at_q3(self):
        ctx = build_field(3, 1, 2)
        flags = [contains_nonzero_square(U) for U in all_subspaces(ctx, 1)]
        # exhaustive scan: exactly the lines spanned by a non-square avoid squares
        expected = []
        for U in all_subspaces(ctx, 1):
            expected.append(any(x and ctx.is_square(x) for x in U.enumerate_elements()))
        assert flags == expected
        assert not all(flags)


    @pytest.mark.parametrize("spec", [(3, 1, 3), (3, 1, 4), (5, 1, 2), (7, 1, 2), (3, 2, 2)])
    def test_tabled_matches_untabled_and_scan(self, spec):
        ctx = build_field(*spec)
        slow = build_field(*spec, table_limit=1)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                want = any(x and ctx.is_square(x) for x in U.enumerate_elements())
                assert contains_nonzero_square(U) == want, U
                assert contains_nonzero_square(Subspace(slow, U.basis)) == want, U


class TestSubfieldSubspace:
    @pytest.mark.parametrize(
        "spec", [(2, 1, 4), (2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2), (5, 1, 2)]
    )
    @pytest.mark.parametrize("table_limit", [1 << 20, 1])
    def test_trace_span_is_the_subfield(self, spec, table_limit):
        ctx = build_field(*spec, table_limit=table_limit)
        for d in range(1, ctx.n + 1):
            if ctx.n % d == 0:
                assert subfield_subspace(ctx, d) == span(ctx, subfield_elements(ctx, d))

    def test_non_divisor_refused(self):
        with pytest.raises(NotADivisor):
            subfield_subspace(build_field(2, 1, 4), 3)


class TestDInvariant:
    def test_subfield_inside(self):
        ctx = build_field(2, 1, 4)
        assert D_invariant(subfield_subspace(ctx, 2)) == 2

    def test_requires_square(self):
        ctx = build_field(3, 1, 2)
        bad = next(U for U in all_subspaces(ctx, 1) if not contains_nonzero_square(U))
        with pytest.raises(NoNonzeroSquare):
            D_invariant(bad)

    def test_at_least_one_with_square(self):
        ctx = build_field(3, 1, 2)
        for U in all_subspaces(ctx, 1):
            if contains_nonzero_square(U):
                assert D_invariant(U) >= 1

    def test_scaled_subfield(self):
        ctx = build_field(2, 1, 4)
        rng = random.Random(9)
        sub = subfield_elements(ctx, 2)
        for _ in range(10):
            a = rng.randrange(1, 16)
            a2 = ctx.mul(a, a)
            U = span(ctx, [ctx.mul(a2, s) for s in sub])
            assert U.dim == 2
            assert D_invariant(U) == 2

    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 2)])
    def test_tabled_matches_untabled(self, spec):
        ctx = build_field(*spec)
        slow = build_field(*spec, table_limit=1)
        for d in range(1, ctx.n):
            for U in all_subspaces(ctx, d):
                if contains_nonzero_square(U):
                    assert D_invariant(U) == D_invariant(Subspace(slow, U.basis)), U

    @pytest.mark.parametrize("spec", [(3, 1, 2), (3, 1, 3), (5, 1, 2), (3, 2, 2), (2, 1, 4)])
    def test_makes_no_separate_square_test(self, spec, monkeypatch):
        # on tabled fields the divisor loop's d = 1 step is the square test;
        # without tables D scans U's nonzero squares: either way D is defined
        # exactly when U has a nonzero square
        ctx = build_field(*spec)
        slow = build_field(*spec, table_limit=1)
        subspaces = [U for d in range(1, ctx.n) for U in all_subspaces(ctx, d)]
        has_square = [contains_nonzero_square(U) for U in subspaces]
        # odd q and even n: some lines hold no nonzero square
        assert all(has_square) == (ctx.p == 2 or ctx.n % 2 == 1)

        def check(field):
            for U, square in zip(subspaces, has_square):
                V = Subspace(field, U.basis)
                if square:
                    assert D_invariant(V) >= 1
                else:
                    with pytest.raises(NoNonzeroSquare, match="no nonzero square"):
                        D_invariant(V)

        check(slow)

        def refuse(U):
            raise AssertionError("D_invariant ran the square test")

        monkeypatch.setattr(linalg, "contains_nonzero_square", refuse)
        check(ctx)

    def test_d_equals_dim_iff_scaled_subfield(self):
        # exhaustive over dimension-2 subspaces of F_16 over F_2
        ctx = build_field(2, 1, 4)
        sub = subfield_elements(ctx, 2)
        scaled = set()
        for a in range(1, 16):
            a2 = ctx.mul(a, a)
            scaled.add(span(ctx, [ctx.mul(a2, s) for s in sub]))
        for U in all_subspaces(ctx, 2):
            assert (D_invariant(U) == 2) == (U in scaled)


# SHA-256 of (U.basis, D) over survey_family, D None when U has no nonzero
# square, with the family size; recorded from the coset-by-coset D_invariant
PINNED_D = {
    (2, 1, 2): (3, "a8d800ee6852b1f316f566c6001228c070ee38d3573dcd418dda2deee8bd6b32"),
    (2, 1, 3): (14, "c2210ebc14d9f385824dade178e2f0200e7c95b73d2d8fe709b3289a282b1087"),
    (2, 1, 4): (65, "1fd77a0236a3a20ba1d93b6c5a9ee419144ced39c78e5d953c4ea9fb29b543d4"),
    (2, 1, 5): (372, "b8a302a5fd6dcf0da61494106bce381a3c52041543a270869e5e49a977203582"),
    (2, 1, 6): (2823, "9e18723ed921e99c122f91340069e999b185de69ee3313e2d2ff59de1467c7be"),
    (2, 1, 7): (29210, "ea7535dc9929c30665d87f3c21a44ed7c627927c0da44dc6efb75c734602fbb3"),
    (2, 1, 8): (11465, "fb1524d3ee1fcaf560573dc91c419cc06bec297fd3e627b0b5a69d96aa3ea4f7"),
    (3, 1, 2): (4, "fcd21e1d8f2214ba64e3661ee13bcc304db737f6590e171e6d53d6819ad28008"),
    (3, 1, 3): (26, "8230e97d3d5c1ff68015483b1bcc8ffb1c964794466d73a6771d67c7e0033aca"),
    (3, 1, 4): (210, "22998180fb36c907215c75b4b04f5c2808bef319c9483cff6b2f7b37f54a1acc"),
    (3, 1, 5): (1492, "a837fd660feb67ec510ca22aaddba5602cf31656b7d3c3305504f8cbef8f985c"),
    (2, 2, 2): (5, "57c817dfbaf7a1d8f1fd948878f0f3049cc81e028b1a701ec018ca2d7272d9b9"),
    (2, 2, 3): (42, "a98d55855e29be3e3667c6fae822d7c1bd0537803cf9a2a63b3b4445363138f7"),
    (2, 2, 4): (527, "a36ddabe463dfe5e1ea6ea0402165cfca09de2d176f2f8e1c40fc5560a5abe38"),
    (5, 1, 2): (6, "bb29b34d3f9e6b40dba86142bdbc2afc49c2b7114d6058a7e0df50cf33cd507f"),
    (5, 1, 3): (62, "fecbb149c9d47a8542badd20795589ddee7017dfdcbef072a5dac499f0fcf509"),
    (7, 1, 2): (8, "949bdf791a8aa7c8d73d3881027a55d06689502e72de987e9120b22cd6a1d3cb"),
    (2, 3, 2): (9, "6dee98e8956f6de25e2458b43fa320d14258619d788429c9720ce75f41ec2b06"),
    (3, 2, 2): (10, "6323457139303aee9fd42530207a68d3e83399b6e45b4f9a6f48a9e6f87b96f3"),
    (11, 1, 2): (12, "aae6aa29a63c1f301d9dcc17cbf99104d4fd1c4de312cc8e24cc0161ea54cf82"),
    (13, 1, 2): (14, "2a4e4c21a1789a513b7299a180f96c77c69398adb1c771af741dc36f4c1e21ca"),
    (2, 4, 2): (17, "1b2599d8c847a6469979253203f94c73f9c22449485c173691e60b1faa45b5c9"),
}


class TestPinnedD:
    """D over the bounds family, pinned so that changes to how D is
    computed can be shown not to alter it."""

    def test_grid_is_covered(self):
        assert sorted(PINNED_D) == sorted(
            f for f in BOUNDS_GRID if (f[0] ** f[1]) ** f[2] <= 256
        )

    @pytest.mark.parametrize("spec", sorted(PINNED_D))
    def test_survey_family(self, spec):
        ctx = build_field(*spec)
        h = hashlib.sha256()
        count = 0
        for U in survey_family(ctx):
            D = D_invariant(U) if contains_nonzero_square(U) else None
            h.update(repr((U.basis, D)).encode())
            count += 1
        assert (count, h.hexdigest()) == PINNED_D[spec]


class TestSInvariant:
    def test_trace_zero_is_plus(self):
        for spec in [(3, 1, 2), (5, 1, 2), (3, 1, 4)]:
            ctx = build_field(*spec)
            assert s_invariant(trace_zero_hyperplane(ctx)) == 1

    def test_balanced_classes_q5(self):
        ctx = build_field(5, 1, 2)
        signs = [s_invariant(U) for _, U in all_hyperplanes(ctx)]
        assert signs.count(1) == 3
        assert signs.count(-1) == 3

    def test_nonsquare_delta_is_minus(self):
        ctx = build_field(3, 1, 2)
        tz = set(trace_zero_hyperplane(ctx).enumerate_elements())
        for delta in range(1, 9):
            U = span(ctx, [ctx.mul(delta, t) for t in tz])
            assert s_invariant(U) == (1 if ctx.is_square(delta) else -1)

    def test_constant_on_square_scaling_orbit(self):
        ctx = build_field(3, 1, 2)
        rng = random.Random(17)
        for _, U in all_hyperplanes(ctx):
            s = s_invariant(U)
            members = U.enumerate_elements()
            for _ in range(5):
                a = rng.randrange(1, 9)
                a2 = ctx.mul(a, a)
                scaled = span(ctx, [ctx.mul(a2, u) for u in members])
                assert s_invariant(scaled) == s

    def test_preconditions(self):
        with pytest.raises(WrongParity):
            s_invariant(trace_zero_hyperplane(build_field(2, 1, 2)))
        with pytest.raises(WrongParity):
            s_invariant(trace_zero_hyperplane(build_field(3, 1, 3)))
        ctx = build_field(3, 1, 4)
        with pytest.raises(WrongDimension):
            s_invariant(span(ctx, [1]))


class TestEnumeration:
    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
    def test_counts_match_gaussian_binomial(self, spec):
        ctx = build_field(*spec)
        for d in range(0, ctx.n + 1):
            subs = list(all_subspaces(ctx, d))
            assert len(subs) == gaussian_binomial(ctx.n, d, ctx.q)
            assert len(set(subs)) == len(subs)

    def test_canonical_forms_agree_with_span(self):
        """``span`` of a basis, and of all of U's elements in shuffled
        order, gives the echelon form that ``all_subspaces`` builds."""
        rng = random.Random(11)
        for spec in [(2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 2, 3), (3, 1, 3)]:
            ctx = build_field(*spec)
            for d in range(1, ctx.n + 1):
                for U in all_subspaces(ctx, d):
                    assert span(ctx, U.basis) == U
                    elems = U.enumerate_elements()
                    rng.shuffle(elems)
                    assert span(ctx, elems).basis == U.basis

    def test_hyperplane_enumeration_consistency(self):
        ctx = build_field(3, 1, 2)
        via_all = {U for U in all_subspaces(ctx, ctx.n - 1)}
        via_planes = {U for _, U in all_hyperplanes(ctx)}
        assert via_all == via_planes


class TestSerialization:
    def test_round_trip(self):
        ctx = build_field(2, 1, 4)
        U = span(ctx, [3, 7, 12])
        assert parse_subspace(ctx, "basis=" + ",".join(map(str, U.basis))) == U

    def test_ker_trace_form(self):
        ctx = build_field(2, 1, 3)
        U = parse_subspace(ctx, "ker-trace-of=1")
        assert U == trace_zero_hyperplane(ctx)

    def test_bad_specs(self):
        ctx = build_field(2, 1, 2)
        for bad in ["", "basis", "ker-trace-of=0", "basis=x", "pivot=1"]:
            with pytest.raises(ParseError):
                parse_subspace(ctx, bad)


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2),
                                  (5, 1, 3), (2, 3, 2), (7, 1, 2)])
def test_enumeration_is_coordinate_lex(spec):
    """Every subspace, dimensions 0 and n included, lists its members (read
    off the membership array) in coordinate-lex order."""
    ctx = build_field(*spec)
    for d in range(ctx.n + 1):
        for U in all_subspaces(ctx, d):
            want = sorted(np.flatnonzero(U.member).tolist(), key=ctx.element_coords)
            assert U.enumerate_elements() == want, U


@pytest.mark.parametrize("spec", [(3, 1, 4), (2, 2, 3)])
def test_field_index_arrays_built_once(spec):
    """The field arrays that D and the search labels read are built on first
    use, kept read-only in the narrowest index type, and shared by every
    subspace of the field; each row of a subfield grid spans g^(2k) F_{q^d}."""
    ctx = FieldCtx(*spec)  # uncached, so nothing is built yet
    assert ctx._orbit_least is None and ctx._subfield_grids == {}
    seen = {}
    for d in (1, 2):
        for U in all_subspaces(ctx, d):
            graph._search_labels(graph.build_graph(ctx, U))
            if contains_nonzero_square(U):
                D_invariant(U)
            for key, arr in {"least": ctx.orbit_least(), **ctx._subfield_grids}.items():
                assert seen.setdefault(key, arr) is arr, key
    divisors = [d for d in (1, 2) if ctx.n % d == 0]
    assert sorted(seen, key=str) == [*divisors, "least"]
    for arr in seen.values():
        assert arr.dtype == np.min_scalar_type(ctx.mord) and not arr.flags.writeable
    assert seen["least"].tolist() == [min(ctx.mul(lam, v) for lam in range(1, ctx.q))
                                      for v in range(ctx.order)]
    for d in divisors:
        sub = subfield_subspace(ctx, d).basis
        for k, row in enumerate(seen[d].tolist()):
            a2 = ctx.pow(ctx.generator, 2 * k)
            assert span(ctx, row) == span(ctx, [ctx.mul(a2, b) for b in sub]), (d, k)
