"""Pins of everything `predict` says about the paper's bounds.

One SHA-256 per field covers, for every subspace of `survey_family` on the
`BOUNDS_GRID` fields of order at most 64: the prediction's `describe()`,
`has_square` and `D_U`, and for every omega from 1 to
max(omega(q, n), q^d) + 2 the prediction's `admits(omega)`,
`bounds_report(U, omega)` and, where d >= 2, `check_corollary_q_power`.
Dict keys are hashed in their given order, so a reordered report changes
the digest.

The two checks that read kappa are also compared, pair by pair, with a
copy of their rational-enclosure form (``_ref_kappa``).
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from paleyvec import predict, suites
from paleyvec.gf import build_field
from paleyvec.linalg import all_subspaces
from paleyvec.predict import (
    BOUND_CHECKS,
    SubspaceInvariants,
    bounds_report,
    check_corollary_q_power,
    omega_qn,
    predict_omega,
)
from paleyvec.suites import BOUNDS_GRID, survey_family

BOUNDS_PINS = {
    (2, 1, 2): "cf6c8c04170617b1ab5802b1670c6fa26ec57b2953262f9a68707b86198cab2d",
    (2, 1, 3): "5248f0dd55f887bb4943c5631da55e1045ce1d58843cc8d6a8ba4218da055e52",
    (2, 1, 4): "33b846485c7cd39ed4ab64f5d9874844f49383a1c1343530e47aaec9b3c0241a",
    (2, 1, 5): "f9b06a9c4e74e637ac41b9206d5fd1b6dbf12d3d240ae31623a25d9e4c9c0dbd",
    (2, 1, 6): "2f55d3677f605809225b0a2ef2fd1b06360acfe56d460d2055246abceed1e085",
    (3, 1, 2): "fcd454e93feb431d4ee41d707fb5f8a9e2739ef7b7da726d7f932b82abbfeec2",
    (3, 1, 3): "a21a09c75ede311c0113b91a1eeaff2d4a9818a59a7eb2f50f4bf60062898b3d",
    (2, 2, 2): "10c7f1ed97d3fb7d0dc8ac502ce6153b264f67548841530bf8d39ddd951c25a6",
    (2, 2, 3): "69ebebc4788297c779af75ae2dfef1a884264269a3102ce82e5f055bc884cb56",
    (5, 1, 2): "3b0c4f6d2943357bb045b58dea795e3290436fa2f69a53a6a4f989141feb3c6e",
    (7, 1, 2): "5508e0e8c9822b930fbe75524848dd9bfb8c08ed50a8e896127f076b89a4d4b7",
    (2, 3, 2): "dd8570378a179f0056e93ba2724a442d514b74f1856a287abf4c7b3a934fb70c",
}


def _omega_range(U):
    ctx = U.ctx
    return range(1, max(omega_qn(ctx.q, ctx.n), ctx.q**U.dim) + 3)


def _bounds_digest(ctx) -> str:
    h = hashlib.sha256()
    for U in survey_family(ctx):
        pred = predict_omega(U)
        rows = [list(U.basis), pred.describe(), pred.has_square, pred.D_U]
        # built once per subspace; the first omega keeps the default path
        inv = SubspaceInvariants(U)
        for omega in _omega_range(U):
            given = None if omega == 1 else inv
            rows.append([omega, pred.admits(omega), bounds_report(U, omega, invariants=given)])
            if U.dim >= 2:
                rows.append(check_corollary_q_power(U, omega, invariants=given))
        h.update(json.dumps(rows).encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec", [f for f in BOUNDS_GRID if (f[0] ** f[1]) ** f[2] <= 64])
def test_bounds_pin(spec):
    assert _bounds_digest(build_field(*spec)) == BOUNDS_PINS[spec]


# fields with interval predictions: every subspace of 2^1^5, seeded samples of the rest
INTERVAL_FIELDS = [(2, 1, 5), (2, 1, 8), (3, 1, 5)]


@pytest.mark.parametrize("spec", INTERVAL_FIELDS)
def test_interval_is_the_check_table(spec):
    ctx = build_field(*spec)
    q, n = ctx.q, ctx.n
    intervals = 0
    for U in survey_family(ctx):
        pred = predict_omega(U)
        if pred.kind != "interval":
            continue
        intervals += 1
        inv, d = pred.invariants, U.dim
        # the endpoints as predict_omega stated them before the table
        assert pred.lo == max(3, q + min(1, d - 1), q**pred.D_U)
        assert pred.hi == min(omega_qn(q, n), q**d)
        for omega in _omega_range(U):
            passes = all(c.holds(inv, omega) for c in BOUND_CHECKS if c.applies(inv))
            assert pred.admits(omega) == passes == bounds_report(U, omega)["ok"], (U, omega)
    assert intervals > 0


def test_main3_computes_D_once_per_instance(monkeypatch):
    calls = []
    real = predict.D_invariant

    def counted(U):
        calls.append(U)
        return real(U)

    monkeypatch.setattr(predict, "D_invariant", counted)
    monkeypatch.setattr(suites, "_omega_cache", {})
    report = suites.run_suite("main3", qmax=3, nmax=4)
    assert report.failures == []
    assert 0 < len(calls) <= report.instances


# -- kappa, against the rational-enclosure reference ---------------------------


def _ref_log2_enclosure(v):
    if v == 1:
        return Fraction(0), Fraction(0)
    x = Fraction(math.log2(v))
    margin = Fraction(1, 1 << 44)
    return x * (1 - margin), x * (1 + margin)


def _ref_kappa(p, m, d, D):
    """kappa = max(D, 7d/8 + 7/(32 log2 q)) as (hi, exact): exactly hi, or at most hi."""
    D = Fraction(D)
    if p == 2:
        return max(D, Fraction(7, 8) * d + Fraction(7, 32 * m)), True
    hi = max(D, Fraction(7, 8) * d + Fraction(7, 32) / _ref_log2_enclosure(p**m)[0])
    return hi, hi <= D


def _ref_kappa_upper(q, d, kappa, omega):
    hi, exact = kappa
    rem = omega - d
    if rem <= 1:
        return True
    if exact and hi.denominator == 1:
        return rem <= q ** int(hi)
    if exact:
        expo = hi * (q.bit_length() - 1)
        return rem**expo.denominator <= 2**expo.numerator
    return not _ref_log2_enclosure(rem)[0] > hi * _ref_log2_enclosure(q)[1]


def _ref_shape(q, d, kappa, omega):
    t = 0
    while q**t <= omega:
        r = omega - q**t
        if t == 0:
            if r <= d + 1 and omega <= d + 2:
                return True
        elif r + t <= d:
            if omega <= d + 2 or not kappa[0] < t:
                return True
        t += 1
    return False


KAPPA_FIELDS = [(2, 1, 4), (2, 1, 5), (2, 1, 6), (3, 1, 3), (3, 1, 4), (2, 2, 3), (3, 2, 2),
                (5, 1, 3), (7, 1, 3), (2, 3, 2)]
_KAPPA_CHECKS = {c.name: c for c in BOUND_CHECKS if c.name in ("kappa-upper", "shape")}


def test_kappa_checks_match_enclosure_reference():
    """The kappa-upper and shape checks agree with the rational-enclosure
    reference on every subspace with a nonzero square of KAPPA_FIELDS, at
    every omega of ``_omega_range``, which reaches past q^kappa + d.  The
    reference reads only q, d and D, so it is computed once per
    (q, d, D, omega)."""
    ref, pairs = {}, 0
    for p, m, n in KAPPA_FIELDS:
        ctx = build_field(p, m, n)
        for d in range(1, n + 1):
            for U in all_subspaces(ctx, d):
                inv = SubspaceInvariants(U)
                if not inv.has_square:
                    continue
                for omega in _omega_range(U):
                    key = (ctx.q, d, inv.D, omega)
                    if key not in ref:
                        kappa = _ref_kappa(p, m, d, inv.D)
                        ref[key] = (_ref_kappa_upper(ctx.q, d, kappa, omega),
                                    _ref_shape(ctx.q, d, kappa, omega))
                    got = tuple(_KAPPA_CHECKS[name].holds(inv, omega)
                                for name in ("kappa-upper", "shape"))
                    assert got == ref[key], (U, omega, got, ref[key])
                    pairs += 1
    assert pairs == 48171
