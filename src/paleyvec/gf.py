"""Arithmetic in a tower of finite fields F_p <= F_q <= F_{q^n}.

Elements of F_{q^n} are canonically encoded as integer indices in
[0, q^n).  The index is the little-endian mixed-radix value of the
coefficient vector over F_q (constant term first), and each F_q
coefficient is in turn the little-endian base-p value of its own
coefficient vector over F_p.  The nesting makes the index equal to the
little-endian base-p value of the full F_p coordinate vector, so index 0
is the zero element, index 1 is the multiplicative identity, and the
copy of F_q embedded on the constant-coefficient axis occupies exactly
the indices below q.

Both defining moduli are the lexicographically least monic irreducible
polynomials of their degree, coefficients compared from the constant
term upward and each coefficient by its integer index.  This pins down
the encoding, so indices are reproducible across runs.

Multiplication, inversion, powering and traces run on discrete-log
tables whenever q^n fits the table budget; addition works digit-wise on
the base-p expansion (a plain XOR when p = 2).  Fields above the table
budget fall back to polynomial arithmetic, which is slower but has no
size limit below the construction cap.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    EvenCharacteristic,
    NonPrime,
    NotADivisor,
    NotInSubfield,
    ParseError,
)

DEFAULT_MAX_ORDER = 1 << 24
DEFAULT_TABLE_LIMIT = 1 << 20


def _is_prime(v: int) -> bool:
    if v < 2:
        return False
    if v < 4:
        return True
    if v % 2 == 0:
        return False
    f = 3
    while f * f <= v:
        if v % f == 0:
            return False
        f += 2
    return True


def _prime_factors(k: int) -> list[int]:
    out = []
    f = 2
    while f * f <= k:
        if k % f == 0:
            out.append(f)
            while k % f == 0:
                k //= f
        f += 1 if f == 2 else 2
    if k > 1:
        out.append(k)
    return out


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


class _Ops(NamedTuple):
    """Scalar field operations used by the polynomial helpers."""

    add: Callable[[int, int], int]
    sub: Callable[[int, int], int]
    mul: Callable[[int, int], int]
    inv: Callable[[int], int]


# Polynomials are little-endian coefficient lists with no trailing zeros;
# [] is the zero polynomial.

def _pnorm(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _psub(a: list[int], b: list[int], ops: _Ops) -> list[int]:
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(ops.sub(x, y))
    return _pnorm(out)


def _pmul(a: list[int], b: list[int], ops: _Ops) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = ops.add(out[i + j], ops.mul(ai, bj))
    return _pnorm(out)


def _pmod(a: list[int], f: list[int], ops: _Ops) -> list[int]:
    # f must be monic
    a = list(a)
    df = len(f) - 1
    while len(a) > df:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - df
            for i in range(df):
                if f[i]:
                    a[shift + i] = ops.sub(a[shift + i], ops.mul(lead, f[i]))
        a.pop()
    return _pnorm(a)


def _pmulmod(a: list[int], b: list[int], f: list[int], ops: _Ops) -> list[int]:
    return _pmod(_pmul(a, b, ops), f, ops)


def _ppowmod(a: list[int], e: int, f: list[int], ops: _Ops) -> list[int]:
    result = [1]
    base = _pmod(list(a), f, ops)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, ops)
        base = _pmulmod(base, base, f, ops)
        e >>= 1
    return result


def _pgcd(a: list[int], b: list[int], ops: _Ops) -> list[int]:
    a, b = list(a), list(b)
    while b:
        lead = b[-1]
        if lead != 1:
            ilead = ops.inv(lead)
            b = [ops.mul(c, ilead) for c in b]
        a, b = b, _pmod(a, b, ops)
    return a


def _is_irreducible(f: list[int], field_size: int, ops: _Ops) -> bool:
    """Rabin test for a monic polynomial over a field with field_size elements."""
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    x = [0, 1]
    frob = {0: x}
    t = x
    for j in range(1, k + 1):
        t = _ppowmod(t, field_size, f, ops)
        frob[j] = t
    if frob[k] != x:
        return False
    for ell in _prime_factors(k):
        g = _pgcd(_psub(frob[k // ell], x, ops), f, ops)
        if len(g) != 1:
            return False
    return True


def _lex_least_irreducible(degree: int, field_size: int, ops: _Ops) -> tuple[int, ...]:
    """First monic irreducible of the given degree in constant-term-major order."""
    for idx in range(field_size**degree):
        rem = idx
        coeffs = []
        for pos in range(degree):
            pw = field_size ** (degree - 1 - pos)
            coeffs.append(rem // pw)
            rem %= pw
        f = coeffs + [1]
        if _is_irreducible(f, field_size, ops):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digit_add(a: int, b: int, p: int) -> int:
    if p == 2:
        return a ^ b
    out = 0
    mult = 1
    while a or b:
        out += ((a % p) + (b % p)) % p * mult
        a //= p
        b //= p
        mult *= p
    return out


def _digit_neg(a: int, p: int) -> int:
    if p == 2:
        return a
    out = 0
    mult = 1
    while a:
        d = a % p
        if d:
            out += (p - d) * mult
        a //= p
        mult *= p
    return out


def _pow_idx(a: int, e: int, mul: Callable[[int, int], int]) -> int:
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _find_generator(size: int, mul: Callable[[int, int], int]) -> tuple[int, list[int]]:
    """Least primitive element of a field of the given size, with its power table."""
    if size == 2:
        return 1, [1]
    factors = _prime_factors(size - 1)
    for g in range(2, size):
        if all(_pow_idx(g, (size - 1) // r, mul) != 1 for r in factors):
            exp = [1] * (size - 1)
            cur = 1
            for k in range(1, size - 1):
                cur = mul(cur, g)
                exp[k] = cur
            return g, exp
    raise AssertionError("no generator found")  # unreachable


class _BaseArith:
    """Arithmetic on F_q = F_{p^m} element indices."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p**m
        if m == 1:
            self.modulus = (0, 1)
            self._exp = None
            self._log = None
        else:
            pops = _Ops(
                add=lambda a, b: (a + b) % p,
                sub=lambda a, b: (a - b) % p,
                mul=lambda a, b: (a * b) % p,
                inv=lambda a: pow(a, p - 2, p),
            )
            self.modulus = _lex_least_irreducible(m, p, pops)
            mod = list(self.modulus)

            def mul_idx(x: int, y: int) -> int:
                if x == 0 or y == 0:
                    return 0
                px = [(x // p**i) % p for i in range(m)]
                py = [(y // p**i) % p for i in range(m)]
                prod = _pmulmod(_pnorm(px), _pnorm(py), mod, pops)
                return sum(c * p**i for i, c in enumerate(prod))

            _, exp = _find_generator(self.q, mul_idx)
            self._exp = exp
            self._log = [0] * self.q
            for k, v in enumerate(exp):
                self._log[v] = k

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return _digit_add(a, b, self.p)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return _digit_neg(a, self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.m == 1:
            return (a * b) % self.p
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(-self._log[a]) % (self.q - 1)]


class FieldCtx:
    """Immutable context for the tower F_p <= F_q = F_{p^m} <= F_{q^n}.

    All operations are pure functions of the context and their integer
    arguments, so one context may be shared freely across workers.
    """

    def __init__(
        self,
        p: int,
        m: int,
        n: int,
        *,
        max_order: int = DEFAULT_MAX_ORDER,
        table_limit: int = DEFAULT_TABLE_LIMIT,
    ):
        if not isinstance(p, int) or not _is_prime(p):
            raise NonPrime(f"p = {p!r} is not prime")
        if not isinstance(m, int) or m < 1:
            raise DegreeOutOfRange(f"m = {m!r} must be a positive integer")
        if not isinstance(n, int) or n < 2:
            raise DegreeOutOfRange(f"n = {n!r} must be an integer >= 2")
        order = p ** (m * n)
        if order > max_order:
            raise BudgetExceeded(
                f"field order {p}^{m * n} exceeds the construction budget {max_order}"
            )
        self.p = p
        self.m = m
        self.n = n
        self.q = p**m
        self.order = order
        self.mn = m * n
        self.mord = order - 1  # size of the multiplicative group
        self.max_order = max_order
        self.table_limit = table_limit

        self._base = _BaseArith(p, m)
        self.base_modulus = self._base.modulus
        qops = _Ops(self._base.add, self._base.sub, self._base.mul, self._base.inv)
        self._qops = qops
        self.ext_modulus = _lex_least_irreducible(n, self.q, qops)
        self._ext_mod_list = list(self.ext_modulus)

        self.tabled = order <= table_limit
        self.generator = None
        self._exp = self._log = None
        self._exp_np = self._log_np = None
        self._trace = None
        self._sq = None
        self._squares = None
        if self.tabled:
            self._build_tables()

    # -- construction ---------------------------------------------------

    def _poly_of_index(self, a: int) -> list[int]:
        q = self.q
        return _pnorm([(a // q**i) % q for i in range(self.n)])

    def _index_of_poly(self, poly: list[int]) -> int:
        q = self.q
        return sum(c * q**i for i, c in enumerate(poly))

    def _mul_poly(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _pmulmod(
            self._poly_of_index(a), self._poly_of_index(b), self._ext_mod_list, self._qops
        )
        return self._index_of_poly(prod)

    def _build_tables(self) -> None:
        g, exp = _find_generator(self.order, self._mul_poly)
        self.generator = g
        self._exp = exp
        log = [0] * self.order
        for k, v in enumerate(exp):
            log[v] = k
        self._log = log
        self._exp_np = np.array(exp, dtype=np.int64)
        self._log_np = np.zeros(self.order, dtype=np.int64)
        self._log_np[self._exp_np] = np.arange(self.mord, dtype=np.int64)

        # q-power map, then trace accumulated over the q-power orbit
        frob = np.zeros(self.order, dtype=np.int64)
        ks = np.arange(self.mord, dtype=np.int64)
        frob[self._exp_np] = self._exp_np[(ks * self.q) % self.mord]
        p = self.p
        if p == 2:
            acc = np.arange(self.order, dtype=np.int64)
            cur = acc.copy()
            for _ in range(1, self.n):
                cur = frob[cur]
                acc ^= cur
            trace = acc
        else:
            digits = np.zeros((self.order, self.mn), dtype=np.int64)
            vals = np.arange(self.order, dtype=np.int64)
            for j in range(self.mn):
                digits[:, j] = vals % p
                vals //= p
            pvec = np.array([p**j for j in range(self.mn)], dtype=np.int64)
            acc = digits.copy()
            cur = np.arange(self.order, dtype=np.int64)
            for _ in range(1, self.n):
                cur = frob[cur]
                acc += digits[cur]
            trace = (acc % p) @ pvec
        if int(trace.max(initial=0)) >= self.q:
            raise AssertionError("trace left the base field")  # sanity
        self._trace = trace.tolist()

        if p == 2:
            self._sq = None  # every element is a square
        else:
            sq = np.zeros(self.order, dtype=bool)
            sq[0] = True
            sq[self._exp_np[::2]] = True
            self._sq = sq.tolist()

    def __reduce__(self):
        return (
            _rebuild_field,
            (self.p, self.m, self.n, self.max_order, self.table_limit),
        )

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, m={self.m}, n={self.n}, order={self.order})"

    # -- arithmetic -----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return _digit_add(a, b, self.p)

    def neg(self, a: int) -> int:
        return _digit_neg(a, self.p)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return _digit_add(a, _digit_neg(b, self.p), self.p)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % self.mord]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % self.mord]
        return self.pow(a, self.mord - 1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % self.mord]
        e %= self.mord
        result = 1
        while e:
            if e & 1:
                result = self._mul_poly(result, a)
            a = self._mul_poly(a, a)
            e >>= 1
        return result

    def sqrt(self, a: int) -> int | None:
        """Canonical square root: the smaller of the two roots, or None."""
        if a == 0:
            return 0
        if self.p == 2:
            return self.pow(a, self.order >> 1)
        if self._exp is not None:
            k = self._log[a]
            if k % 2:
                return None
            r = self._exp[k // 2]
        else:
            if self.pow(a, self.mord // 2) != 1:
                return None
            # find a root by scanning; only used on small untabled fields
            r = next(b for b in range(1, self.order) if self.mul(b, b) == a)
        return min(r, self.neg(r))

    def squares(self) -> np.ndarray:
        """Read-only array mapping every element index v to the index of v^2.

        Built on first use and kept: from the log tables when the field is
        tabled, otherwise once with ``mul``.
        """
        if self._squares is None:
            if self._exp_np is not None:
                sq = self._exp_np[(2 * self._log_np) % self.mord]
                sq[0] = 0
            else:
                sq = np.array([self.mul(v, v) for v in range(self.order)], dtype=np.int64)
            sq.flags.writeable = False
            self._squares = sq
        return self._squares

    # -- tower structure ------------------------------------------------

    def frobenius(self, a: int, i: int) -> int:
        """The q^i-power map.  frobenius(a, n) == a for every element."""
        if i < 0:
            raise ValueError("frobenius power must be nonnegative")
        return self.pow(a, self.q ** (i % self.n))

    def trace(self, a: int) -> int:
        """Trace onto F_q: the sum of a^(q^i) for 0 <= i < n.

        The result lies in the embedded base field, so its index is < q.
        """
        if self._trace is not None:
            return self._trace[a]
        acc = 0
        cur = a
        for _ in range(self.n):
            acc = self.add(acc, cur)
            cur = self.pow(cur, self.q)
        return acc

    def in_subfield(self, a: int, d: int) -> bool:
        """Membership in F_{q^d}, tested as a fixed point of the q^d-power map."""
        if self.n % d:
            raise NotADivisor(f"{d} does not divide {self.n}")
        return self.frobenius(a, d) == a

    def to_fq(self, a: int) -> int:
        """Index of an embedded base-field element as an F_q scalar."""
        if not self.in_subfield(a, 1):
            raise NotInSubfield(f"element {a} is not in the embedded F_{self.q}")
        return a

    def is_square(self, a: int, d: int | None = None) -> bool:
        """True when a is the square of some element of F_{q^d} (default d = n)."""
        if d is None:
            d = self.n
        elif self.n % d:
            raise NotADivisor(f"{d} does not divide {self.n}")
        if a == 0:
            return True
        if d != self.n and self.frobenius(a, d) != a:
            raise NotInSubfield(f"element {a} is not in F_{self.q}^{d}")
        if self.p == 2:
            return True
        if d == self.n and self._sq is not None:
            return self._sq[a]
        return self.pow(a, (self.q**d - 1) // 2) == 1

    def quadratic_character(self, a: int) -> int:
        """+1 for nonzero squares of F_q, -1 for non-squares, 0 at zero."""
        if self.p == 2:
            raise EvenCharacteristic("the quadratic character needs q odd")
        if self.frobenius(a, 1) != a:
            raise NotInSubfield(f"element {a} is not in the embedded F_{self.q}")
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == 1 else -1

    def subfield_elements(self, d: int) -> list[int]:
        """The q^d fixed points of the q^d-power map, in increasing index order."""
        if self.n % d:
            raise NotADivisor(f"{d} does not divide {self.n}")
        if d == self.n:
            return list(range(self.order))
        if self._exp is not None:
            step = self.mord // (self.q**d - 1)
            out = [0] + [self._exp[k * step] for k in range(self.q**d - 1)]
        else:
            out = [a for a in range(self.order) if self.frobenius(a, d) == a]
        out.sort()
        return out

    # -- coordinates ----------------------------------------------------

    def element_coords(self, a: int) -> tuple[int, ...]:
        """F_q coordinates in the polynomial basis 1, y, ..., y^(n-1)."""
        q = self.q
        return tuple((a // q**i) % q for i in range(self.n))

    def element_from_coords(self, coords) -> int:
        q = self.q
        return sum(int(c) * q**i for i, c in enumerate(coords))

    def basis_element(self, i: int) -> int:
        """The element y^i of the polynomial basis (0 <= i < n)."""
        return self.q**i

    # -- base-field scalar helpers ---------------------------------------
    # The embedded copy of F_q occupies the indices below q and is closed
    # under every field operation, so these are plain restrictions.

    def fq_sqrt(self, c: int) -> int | None:
        """Least base-field square root of an F_q scalar, or None."""
        if c == 0:
            return 0
        for b in range(1, self.q):
            if self.mul(b, b) == c:
                return b
        return None

    def least_nonsquare(self) -> int:
        """Smallest index of a non-square scalar of F_q (q odd)."""
        if self.p == 2:
            raise EvenCharacteristic("every element of an even-order field is square")
        return next(c for c in range(2, self.q) if self.quadratic_character(c) == -1)

    def describe(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "n": self.n,
            "q": self.q,
            "order": self.order,
            "base_modulus": list(self.base_modulus),
            "ext_modulus": list(self.ext_modulus),
            "tabled": self.tabled,
            "generator": self.generator,
        }


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int, n: int, max_order: int, table_limit: int) -> FieldCtx:
    return FieldCtx(p, m, n, max_order=max_order, table_limit=table_limit)


def _rebuild_field(p, m, n, max_order, table_limit):
    return _cached_field(p, m, n, max_order, table_limit)


def build_field(
    p: int,
    m: int,
    n: int,
    *,
    max_order: int = DEFAULT_MAX_ORDER,
    table_limit: int = DEFAULT_TABLE_LIMIT,
) -> FieldCtx:
    """Construct (or fetch the cached) tower F_p <= F_{p^m} <= F_{(p^m)^n}."""
    return _cached_field(p, m, n, max_order, table_limit)


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ParseError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            m = 0
            v = q
            while v % p == 0:
                v //= p
                m += 1
            if v != 1:
                raise ParseError(f"{q} is not a prime power")
            return p, m
    raise ParseError(f"{q} is not a prime power")


def parse_field_spec(spec: str) -> tuple[int, int, int]:
    """Parse a field spec string into (p, m, n).

    Accepted forms: "p^m^n" (e.g. "3^1^2") and "q=<p^m>,n=<n>" (e.g. "q=9,n=2").
    """
    spec = spec.strip()
    try:
        if spec.startswith("q="):
            parts = dict(kv.split("=", 1) for kv in spec.split(","))
            q = int(parts["q"])
            n = int(parts["n"])
            p, m = _factor_prime_power(q)
            return p, m, n
        pieces = spec.split("^")
        if len(pieces) == 3:
            return int(pieces[0]), int(pieces[1]), int(pieces[2])
    except ParseError:
        raise
    except (ValueError, KeyError) as exc:
        raise ParseError(f"bad field spec {spec!r}") from exc
    raise ParseError(f"bad field spec {spec!r} (want 'p^m^n' or 'q=<p^m>,n=<n>')")
