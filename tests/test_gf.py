"""Tests for the field tower arithmetic."""

import hashlib
import itertools
import random
from typing import NamedTuple

import numpy as np
import pytest

from paleyvec.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    EvenCharacteristic,
    NonPrime,
    NotInSubfield,
    ParseError,
)
from paleyvec.gf import (
    _BLOCK,
    FieldCtx,
    _digit_product,
    _factor_prime_power,
    _index_of_digits,
    _is_irreducible,
    _lex_least_irreducible,
    _log_field,
    _mul_matrices,
    _mul_tensor,
    build_field,
    parse_field_spec,
)

# Field spec -> (base_modulus, ext_modulus, generator, and the first 16 hex
# digits of the SHA-256 of the exp, log and trace tables as int64 arrays).
# These pin the element encoding; they were recorded from the scalar table
# builder and must never be regenerated from the code under test.
GOLDEN = {
    "2^1^2": ((0, 1), (1, 1, 1), 2,
              "e2e2033ae7e19d68", "bd2fbb4b3dcb9759", "b64c0d4ec2af5aba"),
    "2^1^3": ((0, 1), (1, 0, 1, 1), 2,
              "194d4b25bf27bc6d", "f9efca89ef775db9", "570d9df4d176b54b"),
    "2^1^4": ((0, 1), (1, 0, 0, 1, 1), 2,
              "1ea2aea50470b30c", "34ab9e845455827e", "66b78c492eb9b0b5"),
    "2^1^5": ((0, 1), (1, 0, 0, 1, 0, 1), 2,
              "60fb2e05b51a5c8f", "213bf718441c0e88", "30e44712be3d5e1d"),
    "2^1^6": ((0, 1), (1, 0, 0, 0, 0, 1, 1), 2,
              "2096f20febe723f3", "934e8dfff97279c4", "2452a68cae86955b"),
    "2^1^7": ((0, 1), (1, 0, 0, 0, 0, 0, 1, 1), 2,
              "1a6b7c16d578e1f0", "00cf6d801ca83ee1", "0f150dc40a352cc7"),
    "2^1^8": ((0, 1), (1, 0, 0, 0, 1, 1, 0, 1, 1), 6,
              "3e59f1480d282a65", "f54d18eeabdff636", "f20946b9cc45fbfa"),
    "2^1^9": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 1, 1), 7,
              "5398e2b3e62faf40", "3eff25ee4066c2cf", "d2e287786f10a7b4"),
    "2^1^10": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 2,
              "2d704c963fa21965", "439a720ad631cf6b", "9d156c2797bcc3e9"),
    "2^1^11": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1), 2,
              "01e803e139292f16", "deb4a02cecc2feb8", "1818350417dc0e4f"),
    "2^1^12": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 6,
              "7f58e0c6889ab423", "80410cfb240708ff", "c414032a2e15161d"),
    "2^1^13": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1), 2,
              "938ae14e5539c37d", "e5317f19e569a9ba", "44bdd27438889682"),
    "2^1^14": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1), 7,
              "e72a49b15f102db0", "ee3afcb8e0383356", "98ce28b38c9250ba"),
    "2^1^15": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1), 2,
              "78e1569b9423750e", "a2366cc0bd3b3e6b", "30ab5e17aea0a31a"),
    "2^1^16": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 6,
              "3cad62fe612b8c78", "c7551059d2d42640", "24609ba80e14a8cf"),
    "3^1^2": ((0, 1), (1, 0, 1), 4,
              "107beef16789fe21", "270ed5f075d56f55", "8cc825d972544d25"),
    "3^1^3": ((0, 1), (1, 0, 2, 1), 3,
              "2f69778ce61ef15b", "6b939a8ba5be461c", "f7c9b61523a29855"),
    "3^1^4": ((0, 1), (1, 0, 1, 1, 1), 10,
              "b7c78cc73e4386ff", "70b59d356696ebe0", "ca8358fe50b0c6bb"),
    "3^1^5": ((0, 1), (1, 0, 0, 0, 2, 1), 3,
              "89109d7bc387a812", "76932d329c5382ba", "286cad4f781bea3c"),
    "3^1^6": ((0, 1), (1, 0, 0, 0, 1, 1, 1), 4,
              "28064ffad714122f", "6c07cb0156ff2ef3", "dac4062a952985d6"),
    "3^1^7": ((0, 1), (1, 0, 0, 0, 0, 1, 2, 1), 3,
              "89241cf1717d67f2", "94860dec52a4519a", "0778c1a670a7ca02"),
    "3^1^8": ((0, 1), (1, 0, 0, 0, 0, 1, 1, 0, 1), 4,
              "29311ecfaa36ffa6", "9f08a521a3c0b0f6", "14a49650d77a8453"),
    "3^1^9": ((0, 1), (1, 0, 0, 0, 0, 0, 2, 1, 0, 1), 3,
              "ecb87d68e02335f8", "8f80a735f2271c83", "db0a82d4e985bbb7"),
    "3^1^10": ((0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1), 34,
              "bb1be2d55951169a", "fa632451fd98150b", "26f8d4e5bc0fade6"),
    "5^1^2": ((0, 1), (1, 1, 1), 7,
              "46f2e3d1a1965949", "13c97f9a150298cb", "98a925e3a23a1423"),
    "5^1^3": ((0, 1), (1, 0, 1, 1), 7,
              "90124692506a5ce8", "80e03f138bf21227", "cd2fe3b7f0810514"),
    "5^1^4": ((0, 1), (1, 0, 1, 1, 1), 30,
              "60b18b98dc619049", "bd5cf98fe7d25316", "82717fcea3d813dc"),
    "5^1^5": ((0, 1), (1, 0, 0, 0, 4, 1), 7,
              "05ecb71593b52738", "52192dd773e7df71", "87074c8ea163d1fc"),
    "5^1^6": ((0, 1), (1, 0, 0, 0, 1, 1, 1), 6,
              "c6cfd82f776f942c", "f2dbc27235ef9ea1", "0a8312a29ad314ce"),
    "7^1^2": ((0, 1), (1, 0, 1), 9,
              "bfbb44080945d046", "72fd20a7bd77c5c6", "db3db3d8afcc65cf"),
    "7^1^3": ((0, 1), (1, 0, 1, 1), 9,
              "e1a51002e13011dc", "2b07864c79b9c43a", "9fc385dc6e27e430"),
    "7^1^4": ((0, 1), (1, 0, 0, 1, 1), 13,
              "7721b8e8e2b26cc6", "3bdc546ad7d64a50", "2c38d253b2689440"),
    "7^1^5": ((0, 1), (1, 0, 0, 0, 3, 1), 11,
              "8249f2e6b4af8616", "ce2ce1f2d6c3c81b", "17b18653bd4a4c3f"),
    "2^2^2": ((1, 1, 1), (1, 2, 1), 5,
              "3296b054b7db7d47", "9ec8151c84eee44c", "53a785e9e4954571"),
    "2^2^3": ((1, 1, 1), (1, 0, 1, 1), 6,
              "def94b542e9bd95f", "c213e70341310dd9", "b4aad19ed3c4e381"),
    "2^2^4": ((1, 1, 1), (1, 0, 1, 2, 1), 5,
              "06ddb5a20208d911", "b4747bc7daf60d53", "513657b45d6d39be"),
    "2^2^5": ((1, 1, 1), (1, 0, 0, 0, 2, 1), 5,
              "c7a72f0c76161a8a", "ee460d848821a3b9", "75f9e84a0a97cb70"),
    "2^2^6": ((1, 1, 1), (1, 0, 0, 1, 1, 2, 1), 6,
              "75b6a694af410a07", "3e2970896ca84a72", "e80a5bbb7e1321f9"),
    "2^2^7": ((1, 1, 1), (1, 0, 0, 0, 0, 0, 1, 1), 6,
              "c8218989106823bb", "9f02110960e8bcdf", "e9f25fb6b2cc79e3"),
    "2^2^8": ((1, 1, 1), (1, 0, 0, 0, 0, 2, 0, 3, 1), 7,
              "5ced84edfe11b48b", "6c65b21850a26011", "a6713cd5bbe2ee77"),
    "3^2^2": ((1, 0, 1), (1, 4, 1), 10,
              "4d1d28fad72a1584", "9fc3e50e38264fdc", "0d0ff88947acdf3a"),
    "3^2^3": ((1, 0, 1), (1, 0, 2, 1), 12,
              "37a968c53c6e23f3", "9e03a68ee393afd8", "920a021cf266981c"),
    "3^2^4": ((1, 0, 1), (1, 0, 3, 1, 1), 10,
              "14897bbd2fc56ef6", "32c24b382462b5ed", "db9b4b8d182c7b16"),
    "3^2^5": ((1, 0, 1), (1, 0, 0, 0, 2, 1), 38,
              "6600bd4a00cc0e3a", "a24e7ca96b7ff3aa", "3043fd8590fa8c7e"),
    "2^4^4": ((1, 0, 0, 1, 1), (1, 0, 1, 3, 1), 17,
              "15472e4ec78742d0", "1f432528291271cb", "59f8e2f0f808e4bb"),
    "11^1^3": ((0, 1), (1, 0, 4, 1), 12,
              "4b4f77a60aca00e7", "64caeeb63fdb6537", "f51b6bcb3354ce3f"),
    "13^1^3": ((0, 1), (1, 0, 4, 1), 18,
              "4c92afa2f14315ce", "bd6d855787e0ac17", "81796bdd13614565"),
}


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

    def test_degree_one_scan_keeps_x(self):
        ctx = build_field(3, 1, 2)
        assert _lex_least_irreducible(1, ctx._coeffs) == (0, 1)

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


def _digest(table) -> str:
    return hashlib.sha256(np.asarray(table, dtype=np.int64).tobytes()).hexdigest()[:16]


class TestGolden:
    @pytest.mark.parametrize("spec", list(GOLDEN))
    def test_encoding_pinned(self, spec):
        ctx = FieldCtx(*parse_field_spec(spec))  # uncached, so the tables are freed
        base_mod, ext_mod, g, exp, log, trace = GOLDEN[spec]
        assert ctx.base_modulus == base_mod
        assert ctx.ext_modulus == ext_mod
        assert ctx.generator == g
        assert (_digest(ctx._exp), _digest(ctx._log), _digest(ctx._trace_np)) == (exp, log, trace)


def _check_power_table(exp, log, mul_poly, size):
    """exp[k] is the k-fold polynomial product of the least primitive element g."""
    g = exp[1]
    cur = 1
    for k in range(size - 1):
        assert exp[k] == cur
        assert log[cur] == k
        cur = mul_poly(cur, g)
    assert cur == 1
    assert sorted(exp) == list(range(1, size))
    for h in range(2, g):  # every smaller candidate has a shorter orbit
        cur, k = h, 1
        while cur != 1:
            cur, k = mul_poly(cur, h), k + 1
        assert k < size - 1
    return g


def _base_mul_oracle(p, m, mod):
    """Schoolbook product of base-p digit vectors, reduced by the monic modulus mod."""

    def mul(x, y):
        a = [(x // p**i) % p for i in range(m)]
        b = [(y // p**i) % p for i in range(m)]
        prod = [0] * (2 * m - 1)
        for i in range(m):
            for j in range(m):
                prod[i + j] += a[i] * b[j]
        for d in range(2 * m - 2, m - 1, -1):
            for i in range(m):
                prod[d - m + i] -= prod[d] * mod[i]
        return sum((prod[i] % p) * p**i for i in range(m))

    return mul


class TestPowerTables:
    # the last three have their least primitive element far from 2:
    # g = 30, 12 and 9, so every candidate below it is walked and rejected
    @pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (7, 1, 2),
                                      (5, 1, 4), (3, 2, 3), (7, 1, 3)])
    def test_field_tables_match_polynomial_oracle(self, spec):
        ctx = build_field(*spec)
        assert _check_power_table(ctx._exp, ctx._log, ctx._mul_poly, ctx.order) == ctx.generator

    @pytest.mark.parametrize("spec", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 2, 2)])
    def test_base_tables_match_polynomial_oracle(self, spec):
        # F_q of the tower p^m^n is the field p^1^m: same modulus, same indices
        p, m, _ = spec
        base = build_field(p, 1, m)
        assert build_field(*spec).base_modulus == base.ext_modulus
        oracle = _base_mul_oracle(p, m, base.ext_modulus)
        _check_power_table(base._exp, base._log, oracle, base.order)


def _scalar_ops(size):
    """Operations of the field with size elements: residues mod a prime, or F_4."""
    if size == 4:
        f4 = build_field(2, 1, 2)
        return _OracleOps(f4.add, f4.sub, f4.mul, f4.inv)
    return _OracleOps(lambda a, b: (a + b) % size, lambda a, b: (a - b) % size,
                      lambda a, b: a * b % size, lambda a: pow(a, size - 2, size))


def _monic(degree, size):
    """Every monic polynomial of the degree, as a little-endian coefficient list."""
    for low in itertools.product(range(size), repeat=degree):
        yield list(low) + [1]


def _divides(d, f, ops):
    """True when the monic d divides f (schoolbook long division)."""
    r, k = list(f), len(d) - 1
    for top in range(len(r) - 1, k - 1, -1):
        c = r[top]
        for i in range(k + 1):
            r[top - k + i] = ops.sub(r[top - k + i], ops.mul(c, d[i]))
    return not any(r)


def _mobius(d):
    out, f = 1, 2
    while f * f <= d:
        if d % f == 0:
            d //= f
            if d % f == 0:
                return 0
            out = -out
        f += 1
    return -out if d > 1 else out


def _gauss_count(k, size):
    """Number of monic irreducibles of degree k: (1/k) sum over d | k of mu(d) size^(k/d)."""
    return sum(_mobius(d) * size ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


class TestIrreducibility:
    @pytest.mark.parametrize("size, top", [(2, 6), (3, 4), (4, 4), (5, 4)])
    def test_matches_trial_division_and_gauss_count(self, size, top):
        # every monic polynomial of degree 1..top over the field of the given size
        ops, F = _scalar_ops(size), _log_field(*_factor_prime_power(size))
        for k in range(1, top + 1):
            divisors = [d for j in range(1, k // 2 + 1) for d in _monic(j, size)]
            count = 0
            for f in _monic(k, size):
                want = not any(_divides(d, f, ops) for d in divisors)
                assert _is_irreducible(f, F) == want, f
                count += want
            assert count == _gauss_count(k, size)


# An index-form reference for the modulus search: polynomial arithmetic
# through an _OracleOps record of scalar operations, and Ben-Or's scan over
# it with square-and-multiply powers.


class _OracleOps(NamedTuple):
    add: object
    sub: object
    mul: object
    inv: object


def _oracle_norm(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _oracle_mod(a, f, ops):
    a, df = list(a), len(f) - 1
    while len(a) > df:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df):
                if f[i]:
                    a[shift + i] = ops.sub(a[shift + i], ops.mul(lead, f[i]))
        a.pop()
    return _oracle_norm(a)


def _oracle_mulmod(a, b, f, ops):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if ai and bj:
                out[i + j] = ops.add(out[i + j], ops.mul(ai, bj))
    return _oracle_mod(_oracle_norm(out), f, ops)


def _oracle_is_irreducible(f, size, ops):
    k = len(f) - 1
    t = [0, 1]
    for _ in range(k // 2):
        result, base, e = [1], _oracle_mod(t, f, ops), size
        while e:
            if e & 1:
                result = _oracle_mulmod(result, base, f, ops)
            base = _oracle_mulmod(base, base, f, ops)
            e >>= 1
        t = result
        a = _oracle_norm([ops.sub(x, y) for x, y in itertools.zip_longest(t, [0, 1], fillvalue=0)])
        b = list(f)
        while b:
            if b[-1] != 1:
                ilead = ops.inv(b[-1])
                b = [ops.mul(c, ilead) for c in b]
            a, b = b, _oracle_mod(a, b, ops)
        if len(a) != 1:
            return False
    return k >= 1


def _oracle_lex_least(degree, size, ops):
    start = size ** (degree - 1) if degree > 1 else 0
    for idx in range(start, size**degree):
        f = [idx // size ** (degree - 1 - pos) % size for pos in range(degree)] + [1]
        if _oracle_is_irreducible(f, size, ops):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def _oracle_ops(p, m):
    """F_{p^m} on base-p digit indices, with the oracle's own base modulus."""
    if m == 1:
        return _OracleOps(lambda a, b: (a + b) % p, lambda a, b: (a - b) % p,
                          lambda a, b: a * b % p, lambda a: pow(a, p - 2, p))
    mul = _base_mul_oracle(p, m, _oracle_lex_least(m, p, _oracle_ops(p, 1)))

    def digitwise(a, b, sign):
        return sum((a // p**i + sign * (b // p**i)) % p * p**i for i in range(m))

    inverse = {a: next(b for b in range(1, p**m) if mul(a, b) == 1) for a in range(1, p**m)}
    return _OracleOps(lambda a, b: digitwise(a, b, 1), lambda a, b: digitwise(a, b, -1),
                      mul, inverse.__getitem__)


def _small_fields():
    """Every (p, m, n) with m <= 4, n >= 2 and p^(mn) <= 2^12."""
    return [(p, m, n) for p in range(2, 65) if all(p % f for f in range(2, p))
            for m in range(1, 5) for n in range(2, 13) if p ** (m * n) <= 1 << 12]


class TestModulusCrossCheck:
    def test_field_list(self):
        fields = _small_fields()
        assert len(fields) == 55 and (61, 1, 2) in fields and (2, 4, 3) in fields

    @pytest.mark.parametrize("spec", _small_fields(), ids=lambda s: "^".join(map(str, s)))
    def test_moduli_match_index_form_search(self, spec):
        p, m, n = spec
        ctx = FieldCtx(p, m, n)
        ops = _oracle_ops(p, m)
        assert ctx.ext_modulus == _oracle_lex_least(n, p**m, ops)
        if m > 1:
            assert ctx.base_modulus == _oracle_lex_least(m, p, _oracle_ops(p, 1))


def _oracle_field_mul(ctx):
    """Products of the field by the index-form polynomial arithmetic above."""
    ops = _oracle_ops(ctx.p, ctx.m)

    def mul(a, b):
        coords = _oracle_mulmod(list(ctx.element_coords(a)), list(ctx.element_coords(b)),
                                ctx.ext_modulus, ops)
        return ctx.element_from_coords(coords)

    return mul


MATRIX_FIELDS = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (7, 1, 2), (5, 1, 4), (3, 2, 3),
                 (7, 1, 3), (2, 1, 12), (13, 1, 3), (2, 4, 3)]


class TestMultiplicationMatrices:
    @pytest.mark.parametrize("spec", MATRIX_FIELDS, ids=lambda s: "^".join(map(str, s)))
    def test_candidate_matrices_match_polynomial_products(self, spec):
        # every candidate the generator scan reads, the generator included
        ctx = build_field(*spec)
        p, mn = ctx.p, ctx.mn
        mul = _oracle_field_mul(ctx)
        tensor = _mul_tensor(p, ctx.m, ctx.ext_modulus, ctx._coeffs)
        candidates = np.arange(ctx.q, ctx.generator + 1)
        for a, matrix in zip(candidates.tolist(), _mul_matrices(tensor, candidates, p)):
            want = [[mul(a, p**i) // p**j % p for j in range(mn)] for i in range(mn)]
            assert matrix.tolist() == want, a

    @pytest.mark.parametrize("spec", MATRIX_FIELDS[:8] + [(2, 2, 3), (3, 2, 2)],
                             ids=lambda s: "^".join(map(str, s)))
    def test_mul_poly_matches_polynomial_products(self, spec):
        ctx = build_field(*spec)
        mul = _oracle_field_mul(ctx)
        rng = random.Random(5)
        for _ in range(100):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx._mul_poly(a, b) == (mul(a, b) if a and b else 0)

    @pytest.mark.parametrize("p, k", [(2, 24), (3, 12), (1021, 4), (1031, 4), (4093, 2)])
    def test_digit_product_is_exact(self, p, k):
        # on both sides of the float32 bound k (p - 1)^2 < 2^22
        rng = np.random.default_rng(p)
        a = rng.integers(0, p, size=(3 * _BLOCK // 2, k))
        b = rng.integers(0, p, size=(k, 5))
        a[0], b[:, 0] = p - 1, p - 1  # the largest sum
        out = np.empty((len(a), 5), dtype=np.uint16)
        assert np.array_equal(_digit_product(a.astype(np.uint16), b, p, out), a @ b % p)

    @pytest.mark.parametrize("p, k", [(2, 24), (3, 15), (4093, 2)])
    def test_index_of_digits(self, p, k):
        rng = np.random.default_rng(k)
        rows = rng.integers(0, p, size=(1000, k))
        rows[0] = p - 1  # the largest index
        want = [sum(int(d) * p**j for j, d in enumerate(row)) for row in rows]
        assert _index_of_digits(rows.astype(np.uint16), p).tolist() == want


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
        ctx = build_field(*spec)
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
        assert ctx.quadratic_character(2) == -1

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
