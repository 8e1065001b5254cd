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
term upward and each coefficient by its integer index; the search starts
at constant term 1, since above degree 1 a candidate with f(0) = 0 is
divisible by x, and Ben-Or's test rejects a candidate at its first
factor of degree <= k/2.  The generator is the least primitive element.
This pins down the encoding, so indices are reproducible across runs.
For m > 1, F_q is itself the tower ``build_field(p, 1, m)``: its modulus
is the base modulus, its indices are the F_q coefficients, and its
operations are the ones the extension's modulus search and polynomial
arithmetic use; for m = 1 they are the residues mod p.

Multiplication, inversion, powering and traces run on discrete-log
tables whenever q^n fits the table budget; addition works digit-wise on
the base-p expansion (a plain XOR when p = 2).  Multiplication by an
element is F_p-linear on base-p digit vectors, and the repeated squares
of a candidate generator's matrix serve twice: their products test the
candidate's primitivity, and for the least primitive one they fill the
tables by doubling, one numpy matrix product a step (see _power_tables).
Fields above the table budget fall back to polynomial arithmetic, which
is slower but has no size limit below the construction cap; it serves
predictions there, while graphs (and ``squares``) need the tables.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    EvenCharacteristic,
    NonPrime,
    NotInSubfield,
    ParseError,
)

DEFAULT_MAX_ORDER = 1 << 24
DEFAULT_TABLE_LIMIT = 1 << 20


def power_exceeds(base: int, exp: int, limit: int) -> bool:
    """base^exp > limit, for base >= 1, with a huge power refused before it
    is formed: base^exp >= 2^((bits of base - 1) exp)."""
    return (base.bit_length() - 1) * exp >= limit.bit_length() or base**exp > limit


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
    """Ben-Or's test for a monic polynomial over a field with Q = field_size elements.

    A reducible f of degree k has an irreducible factor of some degree
    j <= k/2, which divides x^(Q^j) - x; the scan over j stops at the
    first gcd(x^(Q^j) - x, f) that is not 1.
    """
    k = len(f) - 1
    x = t = [0, 1]
    for _ in range(k // 2):
        t = _ppowmod(t, field_size, f, ops)
        if len(_pgcd(_psub(t, x, ops), f, ops)) != 1:
            return False
    return k >= 1


def _lex_least_irreducible(degree: int, field_size: int, ops: _Ops) -> tuple[int, ...]:
    """First monic irreducible of the given degree in constant-term-major order.

    Above degree 1 the scan skips the candidates with f(0) = 0 (divisible by x).
    """
    start = field_size ** (degree - 1) if degree > 1 else 0
    for idx in range(start, field_size**degree):
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


def _index_of_digits(rows: np.ndarray, p: int) -> np.ndarray:
    """Index of each base-p digit row, one column at a time (no int64 copy of rows)."""
    out = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1] - 1, -1, -1):
        out *= p
        out += rows[:, j]
    return out


def _power_tables(p: int, digits: int, mul: Callable[[int, int], int], start: int):
    """(g, rows, exp, log) for a field of order p^digits, g its least primitive element.

    Multiplication by a is F_p-linear on base-p digit vectors: its matrix
    holds the digits of a * p^i in row i, and a^e is the product of the
    matrix's repeated squares at the bits of e.  The candidates a = start,
    start + 1, ... are tried in turn; a is rejected when a^((p^digits - 1)/r)
    is 1 for some prime factor r.  The indices below start must hold no
    primitive element.  For the first survivor g, the digit rows of
    g^0 .. g^(2^j - 1) are extended by one product with its j-th square.
    rows[k] holds the digits of exp[k] = g^k, in the narrowest unsigned type
    that holds a row-by-column sum; log inverts exp on the nonzero indices
    (log[0] = 0).
    """
    mord = p**digits - 1
    pw = p ** np.arange(digits)
    dtype = np.min_scalar_type(digits * (p - 1) ** 2)
    tests = [mord // r for r in _prime_factors(mord)]
    bits = [np.array([[e >> j & 1] for e in tests], dtype=bool) for j in range(mord.bit_length())]
    one = np.eye(1, digits, dtype=dtype)  # the digit row of 1
    for g in range(start, mord + 1):
        squares = [(np.array([mul(g, b) for b in pw.tolist()])[:, None] // pw % p).astype(dtype)]
        for _ in bits[1:]:
            squares.append(squares[-1] @ squares[-1] % p)
        powers = one  # becomes the digit rows of g^e, one row for each e in tests
        for bit, square in zip(bits, squares):
            powers = np.where(bit, powers @ square % p, powers)
        if not (powers == one).all(axis=1).any():
            break
    rows = np.zeros((mord, digits), dtype=dtype)
    rows[0] = one
    for j, square in enumerate(squares):
        block = rows[1 << j:2 << j]
        np.matmul(rows[:len(block)], square, out=block)
        np.remainder(block, p, out=block)
    exp = _index_of_digits(rows, p)
    log = np.zeros(mord + 1, dtype=np.int64)
    log[exp] = np.arange(mord, dtype=np.int64)
    return g, rows, exp, log


class FieldCtx:
    """Context for the tower F_p <= F_q = F_{p^m} <= F_{q^n}.

    For m > 1, F_q is the field ``build_field(p, 1, m)``, whose
    ``ext_modulus`` is this tower's ``base_modulus``.

    The moduli, the generator and the tables are fixed at construction,
    and every operation is a function of them and its integer arguments.
    Memos grow on use: each element's F_p rows (see
    ``linalg.extend_echelon``) and, on a tabled field, three read-only
    index arrays that every subspace of the field reads, each built once:
    ``squares``, ``orbit_least`` with ``orbit_leaders`` and, per divisor d
    of n, ``subfield_grid``.
    A context stays in its process: a parallel solve sends its workers rows only.
    """

    def __init__(
        self,
        p: int,
        m: int,
        n: int,
        *,
        table_limit: int = DEFAULT_TABLE_LIMIT,
    ):
        if not isinstance(p, int) or p < 2:
            raise NonPrime(f"p = {p!r} is not prime")
        if not isinstance(m, int) or m < 1:
            raise DegreeOutOfRange(f"m = {m!r} must be a positive integer")
        if not isinstance(n, int) or n < 2:
            raise DegreeOutOfRange(f"n = {n!r} must be an integer >= 2")
        # refused before p is tested for primality by trial division
        if power_exceeds(p, m * n, DEFAULT_MAX_ORDER):
            raise BudgetExceeded(
                f"field order {p}^{m * n} exceeds the construction budget {DEFAULT_MAX_ORDER}"
            )
        if not _is_prime(p):
            raise NonPrime(f"p = {p!r} is not prime")
        order = p ** (m * n)
        self.p = p
        self.m = m
        self.n = n
        self.q = p**m
        self.order = order
        self.mn = m * n
        self.mord = order - 1  # size of the multiplicative group
        self.table_limit = table_limit

        if m == 1:
            self.base_modulus = (0, 1)
            self._qops = _Ops(
                add=lambda a, b: (a + b) % p,
                sub=lambda a, b: (a - b) % p,
                mul=lambda a, b: (a * b) % p,
                inv=lambda a: pow(a, p - 2, p),
            )
        else:
            # F_q is the tower p^1^m: the same lex-least modulus and indices
            base = build_field(p, 1, m)
            self.base_modulus = base.ext_modulus
            self._qops = _Ops(base.add, base.sub, base.mul, base.inv)
        self.ext_modulus = _lex_least_irreducible(n, self.q, self._qops)
        self._ext_mod_list = list(self.ext_modulus)

        self.tabled = order <= table_limit
        self.generator = None
        self._exp = self._log = None
        self._exp_np = self._log_np = None
        self._trace_np = None
        self._squares = self._orbit_least = self._orbit_leaders = None
        self._subfield_grids: dict[int, np.ndarray] = {}
        self._fp_rows: dict[int, tuple] = {}  # element -> F_p rows, see linalg.extend_echelon
        if self.tabled:
            self._build_tables()

    # -- construction ---------------------------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        prod = _pmulmod(
            self.element_coords(a), self.element_coords(b), self._ext_mod_list, self._qops
        )
        return self.element_from_coords(prod)

    def _build_tables(self) -> None:
        """The least generator and its exp/log tables from one set of matrix
        squares (see ``_power_tables``), then the trace and the exp/log lists.

        The scan for the generator starts at q: the indices below q are
        F_q, whose units have order dividing q - 1 < q^n - 1."""
        p = self.p
        self.generator, rows, self._exp_np, self._log_np = _power_tables(
            p, self.mn, self._mul_poly, self.q
        )
        # The trace is F_p-linear too.  Row i of its matrix is the digit sum
        # of the q-power orbit of p^i; applied to the rows it gives Tr(g^k).
        logs = self._log_np[p ** np.arange(self.mn)]
        tmat = sum(rows[logs * self.q**j % self.mord] for j in range(self.n)) % p
        trace = np.zeros(self.order, dtype=np.int64)
        trace[self._exp_np] = _index_of_digits(rows @ tmat % p, p)
        del rows
        if int(trace.max(initial=0)) >= self.q:
            raise AssertionError("trace left the base field")  # sanity
        self._trace_np = trace.astype(np.min_scalar_type(self.q - 1))
        self._trace_np.flags.writeable = False
        self._exp = self._exp_np.tolist()
        self._log = self._log_np.tolist()

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
        return _pow_idx(a, e % self.mord, self._mul_poly)

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

        Built from the log tables on first use and kept; needs the tables.
        """
        if self._squares is None:
            sq = self._exp_np[(2 * self._log_np) % self.mord]
            sq[0] = 0
            sq.flags.writeable = False
            self._squares = sq
        return self._squares

    def orbit_least(self) -> np.ndarray:
        """Read-only array mapping every element v to the least element of
        its orbit v F_q* (0 to 0), in the narrowest unsigned type that holds
        an index.  Built on first use and kept, with ``orbit_leaders``;
        needs the tables."""
        if self._orbit_least is None:
            orbits = self._exp_np.reshape(self.q - 1, self.mord // (self.q - 1))
            least = np.zeros(self.order, np.min_scalar_type(self.mord))
            least[orbits] = orbits.min(axis=0)
            leaders = least == np.arange(self.order)
            least.flags.writeable = leaders.flags.writeable = False
            self._orbit_least, self._orbit_leaders = least, leaders
        return self._orbit_least

    def orbit_leaders(self) -> np.ndarray:
        """Read-only boolean array, True at each element that is the least
        of its orbit v F_q* (0 included).  Built with ``orbit_least``."""
        self.orbit_least()
        return self._orbit_leaders

    def subfield_grid(self, d: int) -> np.ndarray:
        """Read-only array g^(2k + j*step) at row k < step, column j < d, for
        step = (q^n - 1)/(q^d - 1) (see ``linalg.D_invariant``), typed as in
        ``orbit_least``.  Built on first use for each d and kept; needs the tables."""
        if d not in self._subfield_grids:
            step = self.mord // (self.q**d - 1)
            logs = 2 * np.arange(step)[:, None] + step * np.arange(d)
            grid = self._exp_np[logs % self.mord].astype(np.min_scalar_type(self.mord))
            grid.flags.writeable = False
            self._subfield_grids[d] = grid
        return self._subfield_grids[d]

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
        if self._trace_np is not None:
            return int(self._trace_np[a])
        acc = 0
        cur = a
        for _ in range(self.n):
            acc = self.add(acc, cur)
            cur = self.pow(cur, self.q)
        return acc

    def is_square(self, a: int) -> bool:
        """True when a is the square of some element of F_{q^n}."""
        if a == 0 or self.p == 2:
            return True
        if self._exp is not None:
            # the nonzero squares are the even powers of the generator
            return self._log[a] % 2 == 0
        return self.pow(a, self.mord // 2) == 1

    def quadratic_character(self, a: int) -> int:
        """+1 for nonzero squares of F_q, -1 for non-squares, 0 at zero."""
        if self.p == 2:
            raise EvenCharacteristic("the quadratic character needs q odd")
        if self.frobenius(a, 1) != a:
            raise NotInSubfield(f"element {a} is not in the embedded F_{self.q}")
        if a == 0:
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == 1 else -1

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
def _cached_field(p: int, m: int, n: int, table_limit: int) -> FieldCtx:
    return FieldCtx(p, m, n, table_limit=table_limit)


def build_field(p: int, m: int, n: int, *, table_limit: int = DEFAULT_TABLE_LIMIT) -> FieldCtx:
    """Construct (or fetch the cached) tower F_p <= F_{p^m} <= F_{(p^m)^n}."""
    return _cached_field(p, m, n, table_limit)


def _factor_prime_power(q: int) -> tuple[int, int]:
    """q = p^m for q >= 2, with p the least divisor of q above 1, which is prime."""
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    m, v = 0, q
    while v % p == 0:
        v //= p
        m += 1
    if v != 1:
        raise ParseError(f"{q} is not a prime power")
    return p, m


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
            if q < 2:
                raise ParseError(f"{q} is not a prime power")
            if n < 2:
                raise DegreeOutOfRange(f"n = {n!r} must be an integer >= 2")
            if power_exceeds(q, n, DEFAULT_MAX_ORDER):  # before q is factored
                raise BudgetExceeded(
                    f"field order {q}^{n} exceeds the construction budget {DEFAULT_MAX_ORDER}"
                )
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
