"""Tests for the field tower arithmetic."""

import random

import pytest

from paleyvec.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    EvenCharacteristic,
    NonPrime,
    NotADivisor,
    NotInSubfield,
    ParseError,
)
from paleyvec.gf import build_field, parse_field_spec


def naive_irreducible_deg2(coeffs, p):
    """Root-search oracle for monic quadratics over F_p."""
    a0, a1 = coeffs
    return all((x * x + a1 * x + a0) % p != 0 for x in range(p))


def lex_least_quadratic(p):
    """Enumerate monic quadratics in constant-term-major order, return first irreducible."""
    for a0 in range(p):
        for a1 in range(p):
            if naive_irreducible_deg2((a0, a1), p):
                return (a0, a1, 1)
    raise AssertionError


class TestConstruction:
    def test_f4_modulus_unique(self):
        ctx = build_field(2, 1, 2)
        assert ctx.ext_modulus == (1, 1, 1)

    def test_f9_modulus_lex_least(self):
        ctx = build_field(3, 1, 2)
        assert ctx.ext_modulus == lex_least_quadratic(3) == (1, 0, 1)

    def test_f25_f49_modulus_lex_least(self):
        for p in (5, 7):
            ctx = build_field(p, 1, 2)
            assert ctx.ext_modulus == lex_least_quadratic(p)

    def test_f16_tower_modulus_has_no_root_in_f4(self):
        ctx = build_field(2, 2, 2)
        a0, a1, a2 = ctx.ext_modulus
        assert a2 == 1
        for x in range(4):
            val = ctx.add(ctx.add(ctx.mul(x, x), ctx.mul(a1, x)), a0)
            assert val != 0

    def test_encoding_round_trip(self):
        ctx = build_field(3, 1, 3)
        for a in range(ctx.order):
            assert ctx.element_from_coords(ctx.element_coords(a)) == a
        assert ctx.element_coords(0) == (0, 0, 0)
        assert ctx.element_coords(1) == (1, 0, 0)

    def test_errors(self):
        with pytest.raises(NonPrime):
            build_field(6, 1, 2)
        with pytest.raises(DegreeOutOfRange):
            build_field(2, 0, 2)
        with pytest.raises(DegreeOutOfRange):
            build_field(2, 1, 1)
        with pytest.raises(BudgetExceeded):
            build_field(2, 1, 30)

    def test_build_is_deterministic_and_cached(self):
        a = build_field(3, 1, 2)
        b = build_field(3, 1, 2)
        assert a is b


class TestArithmetic:
    def test_f4_omega_times_omega_squared(self):
        ctx = build_field(2, 1, 2)
        assert ctx.mul(2, 3) == 1

    def test_inverse_law_f9(self):
        ctx = build_field(3, 1, 2)
        for a in range(1, 9):
            assert ctx.mul(a, ctx.inv(a)) == 1

    def test_i_squared_is_minus_one(self):
        # in F_9 with modulus x^2+1, the class of x has index 3 and squares to -1 = 2
        ctx = build_field(3, 1, 2)
        assert ctx.mul(3, 3) == 2

    def test_field_axioms_sampled(self):
        rng = random.Random(7)
        for spec in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
            ctx = build_field(*spec)
            for _ in range(200):
                a = rng.randrange(ctx.order)
                b = rng.randrange(ctx.order)
                c = rng.randrange(ctx.order)
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert ctx.sub(ctx.add(a, b), b) == a

    def test_pow_order(self):
        for spec in [(2, 1, 4), (3, 1, 3), (2, 2, 2)]:
            ctx = build_field(*spec)
            for a in range(1, ctx.order):
                assert ctx.pow(a, ctx.order - 1) == 1

    def test_inv_zero_raises(self):
        ctx = build_field(2, 1, 2)
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)

    def test_untabled_matches_tabled(self):
        tabled = build_field(3, 1, 3)
        plain = build_field(3, 1, 3, table_limit=1)
        assert not plain.tabled
        rng = random.Random(3)
        for _ in range(200):
            a = rng.randrange(27)
            b = rng.randrange(27)
            assert tabled.mul(a, b) == plain.mul(a, b)
            assert tabled.add(a, b) == plain.add(a, b)
            if a:
                assert tabled.inv(a) == plain.inv(a)
                assert tabled.pow(a, 13) == plain.pow(a, 13)
            assert tabled.trace(a) == plain.trace(a)
            assert tabled.is_square(a) == plain.is_square(a)

    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
    def test_squares_table(self, spec):
        for ctx in (build_field(*spec), build_field(*spec, table_limit=1)):
            assert ctx.squares().tolist() == [ctx.mul(v, v) for v in range(ctx.order)]


class TestFrobeniusAndTrace:
    def test_identity_power(self):
        ctx = build_field(3, 1, 2)
        for a in range(9):
            assert ctx.frobenius(a, 0) == a
            assert ctx.frobenius(a, ctx.n) == a

    def test_f4_frobenius(self):
        ctx = build_field(2, 1, 2)
        assert ctx.frobenius(2, 1) == 3

    def test_frobenius_round_trip(self):
        ctx = build_field(2, 1, 4)
        rng = random.Random(11)
        for _ in range(50):
            a = rng.randrange(16)
            assert ctx.frobenius(ctx.frobenius(a, 1), ctx.n - 1) == a
            assert ctx.frobenius(a, 1) == ctx.pow(a, ctx.q)

    def test_trace_values(self):
        f4 = build_field(2, 1, 2)
        assert f4.trace(0) == 0
        assert f4.trace(1) == 0
        f9 = build_field(3, 1, 2)
        assert f9.trace(1) == 2
        for a in range(9):
            c0, _ = f9.element_coords(a)
            assert f9.trace(a) == (2 * c0) % 3

    def test_trace_matches_power_sum(self):
        # independent recomputation straight from the defining sum
        for spec in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
            ctx = build_field(*spec)
            for a in range(ctx.order):
                acc = 0
                for i in range(ctx.n):
                    acc = ctx.add(acc, ctx.pow(a, ctx.q**i))
                assert ctx.trace(a) == acc < ctx.q

    def test_trace_linear_and_kernel_size(self):
        rng = random.Random(5)
        for spec in [(3, 1, 2), (2, 1, 4), (2, 2, 2)]:
            ctx = build_field(*spec)
            for _ in range(100):
                a = rng.randrange(ctx.order)
                b = rng.randrange(ctx.order)
                lam = rng.randrange(ctx.q)
                assert ctx.trace(ctx.add(a, b)) == ctx.add(ctx.trace(a), ctx.trace(b))
                assert ctx.trace(ctx.mul(lam, a)) == ctx.mul(lam, ctx.trace(a))
            kernel = sum(1 for a in range(ctx.order) if ctx.trace(a) == 0)
            assert kernel == ctx.order // ctx.q
            image = {ctx.trace(a) for a in range(ctx.order)}
            assert image == set(range(ctx.q))

    def test_frobenius_fixes_exactly_fq(self):
        ctx = build_field(2, 2, 2)
        fixed = [a for a in range(16) if ctx.frobenius(a, 1) == a]
        assert len(fixed) == 4
        assert fixed == list(range(4))


class TestSquares:
    def test_zero_is_square(self):
        assert build_field(3, 1, 2).is_square(0)

    def test_minus_one_square_in_f9(self):
        ctx = build_field(3, 1, 2)
        assert ctx.is_square(2)
        assert ctx.pow(2, 4) == 1

    def test_char2_always_square(self):
        ctx = build_field(2, 1, 4)
        assert all(ctx.is_square(a) for a in range(16))

    def test_square_count_and_table(self):
        for spec in [(3, 1, 2), (5, 1, 2), (3, 1, 3)]:
            ctx = build_field(*spec)
            squares = {ctx.mul(b, b) for b in range(ctx.order)}
            assert len(squares) == (ctx.order - 1) // 2 + 1
            for a in range(ctx.order):
                assert ctx.is_square(a) == (a in squares)

    def test_subfield_level(self):
        ctx = build_field(3, 1, 2)
        # 2 = -1 is a square of F_9 but not of F_3
        assert ctx.is_square(2)
        assert not ctx.is_square(2, 1)
        with pytest.raises(NotInSubfield):
            ctx.is_square(3, 1)

    def test_sqrt(self):
        for spec in [(3, 1, 2), (2, 1, 3)]:
            ctx = build_field(*spec)
            for a in range(ctx.order):
                r = ctx.sqrt(a)
                if ctx.is_square(a):
                    assert r is not None and ctx.mul(r, r) == a
                else:
                    assert r is None


class TestQuadraticCharacter:
    def test_small_values(self):
        assert build_field(3, 1, 2).quadratic_character(2) == -1
        assert build_field(5, 1, 2).quadratic_character(4) == 1

    def test_zero_and_multiplicativity(self):
        ctx = build_field(5, 1, 2)
        assert ctx.quadratic_character(0) == 0
        rng = random.Random(13)
        for _ in range(100):
            a = rng.randrange(1, 5)
            b = rng.randrange(1, 5)
            chi = ctx.quadratic_character
            assert chi(ctx.mul(a, b)) == chi(a) * chi(b)

    def test_errors(self):
        with pytest.raises(EvenCharacteristic):
            build_field(2, 1, 2).quadratic_character(1)
        with pytest.raises(NotInSubfield):
            build_field(3, 1, 2).quadratic_character(3)

    def test_least_nonsquare(self):
        assert build_field(3, 1, 2).least_nonsquare() == 2
        ctx = build_field(5, 1, 2)
        mu = ctx.least_nonsquare()
        assert ctx.quadratic_character(mu) == -1
        assert all(ctx.quadratic_character(c) == 1 for c in range(1, mu))


class TestSubfields:
    def test_full_field(self):
        ctx = build_field(2, 1, 4)
        assert ctx.subfield_elements(4) == list(range(16))

    def test_f4_inside_f16(self):
        ctx = build_field(2, 1, 4)
        sub = ctx.subfield_elements(2)
        assert len(sub) == 4
        for x in sub:
            assert ctx.pow(x, 4) == x
            for y in sub:
                assert ctx.mul(x, y) in sub
                assert ctx.add(x, y) in sub

    def test_cardinality(self):
        ctx = build_field(2, 1, 6)
        for d in (1, 2, 3, 6):
            assert len(ctx.subfield_elements(d)) == 2**d

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            build_field(2, 1, 4).subfield_elements(3)


class TestFieldSpec:
    def test_caret_form(self):
        assert parse_field_spec("2^1^3") == (2, 1, 3)
        assert parse_field_spec("3^2^2") == (3, 2, 2)

    def test_q_form(self):
        assert parse_field_spec("q=9,n=2") == (3, 2, 2)
        assert parse_field_spec("q=8,n=3") == (2, 3, 3)

    def test_bad_specs(self):
        for bad in ["", "abc", "2^3", "q=6,n=2", "q=9"]:
            with pytest.raises(ParseError):
                parse_field_spec(bad)
        with pytest.raises(NonPrime):
            build_field(*parse_field_spec("1^1^2"))
