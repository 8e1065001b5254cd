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
is the base modulus and its indices are the F_q coefficients.

The modulus search and the polynomial arithmetic read F_q from flat
lists of length q, built once per field (``_LogField``): a coefficient is
held as its discrete log, so a product is a sum of logs and a sum is one
lookup in the Zech list; for m = 1 the lists are those of the residues
mod p on a primitive root, for m > 1 the exp list of ``build_field(p, 1,
m)``.  Ben-Or's scan takes each q-th power as m p-th powers, which in
characteristic p spread a polynomial's terms p places apart.

Multiplication, inversion, powering and traces run on discrete-log
tables whenever q^n fits the table budget; addition works digit-wise on
the base-p expansion (a plain XOR when p = 2).  Multiplication by an
element is F_p-linear on base-p digit vectors, and linear in the element
too: one product of its digits with a tensor built once per field gives
its matrix (``_mul_tensor``).  The repeated squares of the candidate
generators' matrices serve twice: their products test the candidates'
primitivity, a batch at a time, and for the least primitive one they
fill the tables by doubling (see _power_tables).  Matrix products of
digits run in floats, which numpy hands to BLAS and which are exact at
these sizes (``_digit_product``).  Fields above the table budget fall
back to polynomial arithmetic, which is slower but has no size limit
below the construction cap; it serves predictions there, while graphs
(and ``squares``) need the tables.
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


class _LogField(NamedTuple):
    """F_q as the polynomial kernels read it, from flat lists of length q.

    A coefficient is held as its discrete log to some generator g of F_q*,
    zero as None.  A product adds logs; a sum g^u + g^v is
    g^(u + zech[v - u]), where zech[k] is the log of 1 + g^k (None where
    g^k = -1).  ``log`` and ``exp`` convert from and to indices."""

    p: int
    q: int
    log: list
    exp: list
    zech: list
    minus: int  # the log of -1


def _log_field(p: int, m: int) -> _LogField:
    """F_{p^m} on its least primitive residue for m = 1, else on the exp
    list of the field ``build_field(p, 1, m)`` (same indices)."""
    q = p**m
    if m == 1:
        r = next(r for r in range(1, p)
                 if all(pow(r, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)))
        exp = [1]
        while len(exp) < p - 1:
            exp.append(exp[-1] * r % p)
    else:
        exp = build_field(p, 1, m)._exp
    log = [None] * q
    for k, a in enumerate(exp):
        log[a] = k
    zech = [log[a - a % p + (a + 1) % p] for a in exp]  # 1 + a: its constant digit + 1
    return _LogField(p, q, log, exp, zech, 0 if p == 2 else (q - 1) // 2)


# Polynomials are little-endian lists of coefficient logs with no trailing
# None; [] is the zero polynomial.

def _lstrip(c: list) -> list:
    while c and c[-1] is None:
        c.pop()
    return c


def _laxpy(out: list, shift: int, c: int, terms: list, F: _LogField) -> None:
    """out += g^c x^shift * (the sum of g^w x^i over the (i, w) in terms)."""
    L, zech = F.q - 1, F.zech
    for i, w in terms:
        v = c + w
        j = shift + i
        s = out[j]
        if s is None:
            out[j] = v % L
        else:
            z = zech[(v - s) % L]
            out[j] = None if z is None else (s + z) % L


def _lmul(a: list, b: list, F: _LogField) -> list:
    out = [None] * max(len(a) + len(b) - 1, 0)
    terms = [(j, w) for j, w in enumerate(b) if w is not None]
    for i, u in enumerate(a):
        if u is not None:
            _laxpy(out, i, u, terms, F)
    return _lstrip(out)


def _lnegated(f: list, F: _LogField) -> list:
    """The terms (i, log) of -f / lead(f) below its leading term."""
    L, shift = F.q - 1, F.minus - f[-1]
    return [(i, (w + shift) % L) for i, w in enumerate(f[:-1]) if w is not None]


def _lrem(a: list, f: list, neg: list, F: _LogField) -> list:
    """a mod f, in place, with neg = ``_lnegated(f)``: each top term c x^(k + s)
    of a adds c x^s neg, which cancels it, for k the degree of f."""
    k = len(f) - 1
    for top in range(len(a) - 1, k - 1, -1):
        if a[top] is not None:
            _laxpy(a, top - k, a[top], neg, F)
    del a[k:]
    return _lstrip(a)


def _is_irreducible(f: list[int], F: _LogField) -> bool:
    """Ben-Or's test for a monic polynomial f (coefficient indices) over F.

    A reducible f of degree k has an irreducible factor of some degree
    j <= k/2, which divides x^(q^j) - x; the scan over j stops at the
    first gcd(x^(q^j) - x, f) that is not 1.  A q-th power is m p-th
    powers, and in characteristic p, t^p is the sum of c^p x^(pi) over the
    terms c x^i of t: the logs times p, spread p places apart, then
    reduced mod f, in about (p - 1) k steps a term of f.
    """
    p, L = F.p, F.q - 1
    k = len(f) - 1
    fl = [F.log[c] for c in f]
    neg = _lnegated(fl, F)
    t = [None, 0]  # x
    for _ in range(k // 2):
        e = 1
        while e < F.q:
            spread = [None] * (p * len(t) - p + 1)
            spread[::p] = [None if w is None else w * p % L for w in t]
            t = _lrem(spread, fl, neg, F)
            e *= p
        b = t + [None] * (2 - len(t))
        _laxpy(b, 1, F.minus, [(0, 0)], F)  # t - x
        a, b = fl, _lstrip(b)
        while b:  # Euclid's algorithm: a ends as gcd(f, t - x), up to a unit
            a, b = b, _lrem(a[:], b, _lnegated(b, F), F)
        if len(a) != 1:
            return False
    return k >= 1


def _lex_least_irreducible(degree: int, F: _LogField) -> tuple[int, ...]:
    """First monic irreducible of the given degree in constant-term-major order.

    Above degree 1 the scan skips the candidates with f(0) = 0 (divisible by x).
    """
    q = F.q
    start = q ** (degree - 1) if degree > 1 else 0
    for idx in range(start, q**degree):
        f = [idx // q ** (degree - 1 - pos) % q for pos in range(degree)] + [1]
        if _is_irreducible(f, F):
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


_BLOCK = 1 << 15  # rows per block of the float products below

# numpy multiplies integer matrices without BLAS, and floats many times
# faster; for digit matrices the float products are exact.  A sum of k
# products of base-p digits is an integer below k (p - 1)^2: float32 holds
# it below 2^22, where floor((x + 1/2) / p) is also its exact quotient by p,
# and float64 does past that.


def _exact_float(k: int, p: int) -> type:
    """The float type of a product of base-p digit matrices with inner size k."""
    return np.float32 if k * (p - 1) ** 2 < 1 << 22 else np.float64


def _float_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for integral x in its ``_exact_float`` range."""
    quotient = x + x.dtype.type(0.5)
    quotient *= x.dtype.type(1 / p)
    np.floor(quotient, out=quotient)
    quotient *= p
    x -= quotient
    return x


def _digit_product(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray) -> np.ndarray:
    """out = a @ b mod p for base-p digit matrices, a block of rows of a at a time."""
    b = b.astype(_exact_float(len(b), p))
    for lo in range(0, len(a), _BLOCK):
        out[lo:lo + _BLOCK] = _float_mod(a[lo:lo + _BLOCK].astype(b.dtype) @ b, p)
    return out


def _index_of_digits(rows: np.ndarray, p: int) -> np.ndarray:
    """Index of each base-p digit row: a float product with the place
    values, a block of rows at a time (no int64 copy of rows); exact, as
    every partial sum is an integer below p^len(row) <= 2^24 (float32) or
    2^53 (float64)."""
    places = p ** np.arange(rows.shape[1], dtype=np.float64)
    places = places.astype(np.float32 if p ** rows.shape[1] <= 1 << 24 else np.float64)
    out = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), _BLOCK):
        out[lo:lo + _BLOCK] = rows[lo:lo + _BLOCK].astype(places.dtype) @ places
    return out


def _mul_tensor(p: int, m: int, modulus: tuple[int, ...], F: _LogField) -> np.ndarray:
    """Row k holds the base-p digits of p^k * p^i for each i < mn, in the
    field F_q[x]/(modulus) with F_q = F.  Multiplication is F_p-linear in
    the multiplier too, so a's matrix is its digits times these rows
    (``_mul_matrices``).

    The index p^(mj + l) is the element beta_l x^j, beta_l = p^l (l < m)
    being the F_p basis of the embedded F_q.  The places i < m take the
    F_q products beta_u beta_l; each further x is one product with the
    matrix of x, a shift by one F_q place that reduces the top place by
    the monic modulus.  Digits are held as floats (``_exact_float``)."""
    n = len(modulus) - 1
    mn, L = m * n, F.q - 1

    def digits(*logs):  # the digits of the F_q product of g^log over logs
        a = F.exp[sum(logs) % L]
        return [a // p**t % p for t in range(m)]

    beta = [F.log[p**l] for l in range(m)]
    x = np.eye(mn, k=m, dtype=_exact_float(mn, p))  # row i: the digits of p^i x
    for l in range(m):
        for s, f in enumerate(modulus[:n]):
            if f:
                x[mn - m + l, s * m:(s + 1) * m] = digits(beta[l], F.log[f], F.minus)
    tensor = np.zeros((mn, mn, mn), x.dtype)
    for k in range(mn):
        s, u = divmod(k, m)
        for l in range(m):
            tensor[k, l, s * m:(s + 1) * m] = digits(beta[u], beta[l])
    for j in range(1, n):
        tensor[:, m * j:m * (j + 1)] = _float_mod(tensor[:, m * (j - 1):m * j] @ x, p)
    return tensor.reshape(mn, mn * mn)


def _mul_matrices(tensor: np.ndarray, elems: np.ndarray, p: int) -> np.ndarray:
    """The matrix of multiplication by each of elems: row i of a's holds
    the digits of a * p^i."""
    mn = tensor.shape[0]
    digits = (elems[:, None] // p ** np.arange(mn) % p).astype(tensor.dtype)
    return _float_mod(digits @ tensor, p).reshape(len(elems), mn, mn)


_CANDIDATES = 8  # candidate generators tested in one batch


def _power_tables(p: int, tensor: np.ndarray, start: int):
    """(g, rows, exp, log) for a field of order p^digits, g its least primitive element.

    Multiplication by a is F_p-linear on base-p digit vectors: its matrix
    (``_mul_matrices``) holds the digits of a * p^i in row i, and a^e is
    the product of the matrix's repeated squares at the bits of e.  The
    candidates a = start, start + 1, ... are tried _CANDIDATES at a time,
    one stacked product a step; a is rejected when a^((p^digits - 1)/r) is
    1 for some prime factor r.  The indices below start must hold no
    primitive element.  For the least survivor g, the digit rows of
    g^0 .. g^(2^j - 1) are extended by one product with its j-th square
    (``_digit_product``).  rows[k] holds the digits of exp[k] = g^k, in
    the narrowest unsigned type that holds a digit; log inverts exp on the
    nonzero indices (log[0] = 0).
    """
    digits = tensor.shape[0]
    mord = p**digits - 1
    tests = [mord // r for r in _prime_factors(mord)]
    bits = [np.array([[e >> j & 1] for e in tests], dtype=bool) for j in range(mord.bit_length())]
    one = np.eye(1, digits, dtype=tensor.dtype)  # the digit row of 1
    for lo in range(start, mord + 1, _CANDIDATES):
        squares = [_mul_matrices(tensor, np.arange(lo, min(lo + _CANDIDATES, mord + 1)), p)]
        for _ in bits[1:]:
            squares.append(_float_mod(squares[-1] @ squares[-1], p))
        powers = one  # becomes the digit rows of a^e, one row for each e in tests
        for bit, square in zip(bits, squares):
            powers = np.where(bit, _float_mod(powers @ square, p), powers)
        primitive = ~(powers == one).all(axis=2).any(axis=1)
        if primitive.any():
            i = int(primitive.argmax())
            break
    rows = np.zeros((mord, digits), dtype=np.min_scalar_type(p - 1))
    rows[0, 0] = 1  # the digit row of 1
    for j, square in enumerate(squares):
        block = rows[1 << j:2 << j]
        _digit_product(rows[:len(block)], square[i], p, out=block)
    exp = _index_of_digits(rows, p)
    log = np.zeros(mord + 1, dtype=np.int64)
    log[exp] = np.arange(mord, dtype=np.int64)
    return lo + i, rows, exp, log


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

        # for m > 1, F_q is the tower p^1^m: the same lex-least modulus and indices
        self.base_modulus = (0, 1) if m == 1 else build_field(p, 1, m).ext_modulus
        self._coeffs = _log_field(p, m)
        self.ext_modulus = _lex_least_irreducible(n, self._coeffs)
        self._ext_logs = [self._coeffs.log[c] for c in self.ext_modulus]
        self._ext_neg = _lnegated(self._ext_logs, self._coeffs)

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
        F = self._coeffs
        prod = _lmul([F.log[c] for c in self.element_coords(a)],
                     [F.log[c] for c in self.element_coords(b)], F)
        prod = _lrem(prod, self._ext_logs, self._ext_neg, F)
        return self.element_from_coords(0 if w is None else F.exp[w] for w in prod)

    def _build_tables(self) -> None:
        """The least generator and its exp/log tables from one set of matrix
        squares (see ``_power_tables``), then the trace and the exp/log lists.

        The scan for the generator starts at q: the indices below q are
        F_q, whose units have order dividing q - 1 < q^n - 1."""
        p = self.p
        tensor = _mul_tensor(p, self.m, self.ext_modulus, self._coeffs)
        self.generator, rows, self._exp_np, self._log_np = _power_tables(p, tensor, self.q)
        # The trace is F_p-linear too.  Row i of its matrix is the digit sum
        # of the q-power orbit of p^i; applied to the rows it gives Tr(g^k).
        logs = self._log_np[p ** np.arange(self.mn)][:, None] * self.q ** np.arange(self.n)
        tmat = rows[logs % self.mord].sum(axis=1) % p
        trace = np.zeros(self.order, dtype=np.int64)
        trace_rows = _digit_product(rows, tmat, p, np.empty_like(rows))
        trace[self._exp_np] = _index_of_digits(trace_rows, p)
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
