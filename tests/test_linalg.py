"""Tests for subspace machinery and the hyperplane invariants."""

import random

import numpy as np
import pytest

from paleyvec.errors import (
    NoNonzeroSquare,
    ParseError,
    WrongDimension,
    WrongParity,
    ZeroFunctional,
)
from paleyvec.gf import build_field
from paleyvec.linalg import (
    D_invariant,
    Subspace,
    all_hyperplanes,
    all_subspaces,
    contains_nonzero_square,
    functional_of_hyperplane,
    gaussian_binomial,
    hyperplane_from_functional,
    parse_subspace,
    s_invariant,
    span,
    subfield_subspace,
    trace_zero_hyperplane,
    zero_subspace,
)


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
        assert set(U.enumerate_elements()) == set(ctx.subfield_elements(2))

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
MEMBERSHIP_FIELDS = [
    (2, 1, 4, 1 << 20),
    (3, 1, 3, 1 << 20),
    (2, 2, 2, 1 << 20),
    (3, 2, 2, 1 << 20),
    (2, 3, 2, 1 << 20),
    (3, 1, 3, 1),
]


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
        sub = ctx.subfield_elements(2)
        for _ in range(10):
            a = rng.randrange(1, 16)
            a2 = ctx.mul(a, a)
            U = span(ctx, [ctx.mul(a2, s) for s in sub])
            assert U.dim == 2
            assert D_invariant(U) == 2

    def test_d_equals_dim_iff_scaled_subfield(self):
        # exhaustive over dimension-2 subspaces of F_16 over F_2
        ctx = build_field(2, 1, 4)
        sub = ctx.subfield_elements(2)
        scaled = set()
        for a in range(1, 16):
            a2 = ctx.mul(a, a)
            scaled.add(span(ctx, [ctx.mul(a2, s) for s in sub]))
        for U in all_subspaces(ctx, 2):
            assert (D_invariant(U) == 2) == (U in scaled)


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
        ctx = build_field(2, 1, 4)
        for d in (1, 2, 3):
            for U in all_subspaces(ctx, d):
                assert span(ctx, U.basis) == U

    def test_hyperplane_enumeration_consistency(self):
        ctx = build_field(3, 1, 2)
        via_all = {U for U in all_subspaces(ctx, ctx.n - 1)}
        via_planes = {U for _, U in all_hyperplanes(ctx)}
        assert via_all == via_planes


class TestSerialization:
    def test_round_trip(self):
        ctx = build_field(2, 1, 4)
        U = span(ctx, [3, 7, 12])
        assert parse_subspace(ctx, U.serialize()) == U

    def test_ker_trace_form(self):
        ctx = build_field(2, 1, 3)
        U = parse_subspace(ctx, "ker-trace-of=1")
        assert U == trace_zero_hyperplane(ctx)

    def test_bad_specs(self):
        ctx = build_field(2, 1, 2)
        for bad in ["", "basis", "ker-trace-of=0", "basis=x", "pivot=1"]:
            with pytest.raises(ParseError):
                parse_subspace(ctx, bad)
