"""Tests for the closed-form predictions against the exact solver."""

import json

import pytest

from paleyvec import cli, predict
from paleyvec.gf import build_field
from paleyvec.graph import build_graph, clique_number_exact
from paleyvec.linalg import all_hyperplanes, all_subspaces, parse_subspace
from paleyvec.predict import hyperplane_omega, predict_omega

FIELDS = [(2, 1, 4), (3, 1, 3), (2, 2, 2)]


def exact_omega(U):
    return clique_number_exact(build_graph(U.ctx, U))[0]


@pytest.mark.parametrize("spec", FIELDS + [(2, 1, 5)])
def test_prediction_admits_exact_omega(spec):
    ctx = build_field(*spec)
    kinds = set()
    for d in range(1, ctx.n):
        for U in all_subspaces(ctx, d):
            omega = exact_omega(U)
            pred = predict_omega(U)
            kinds.add(pred.kind)
            assert pred.admits(omega), (U, pred.describe(), omega)
            if pred.kind == "exact":
                assert pred.value == omega, (U, pred.describe(), omega)
    # dimension 3 of F_32 is neither 1, 2 nor n - 1: there the prediction is an interval
    assert kinds == ({"exact", "interval"} if spec == (2, 1, 5) else {"exact"})


@pytest.mark.parametrize("spec", FIELDS)
def test_hyperplane_closed_form(spec):
    ctx = build_field(*spec)
    count = 0
    for _, U in all_hyperplanes(ctx):
        assert hyperplane_omega(U) == exact_omega(U), U
        count += 1
    assert count == (ctx.order - 1) // (ctx.q - 1)


def test_cli_exact_is_q_power_plus_r(capsys):
    ctx = build_field(3, 1, 3)
    for _, U in all_hyperplanes(ctx):
        basis = "basis=" + ",".join(map(str, U.basis))
        code = cli.main(["omega", "--field", "3^1^3", "--subspace", basis, "--mode", "exact"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        dec = payload["decomposition"]
        assert payload["exact"] == ctx.q ** dec["t"] + dec["r"] == len(payload["witness"])


# fields above the table limit, where D and kappa would walk every element
UNTABLED_EXACT = [("2^1^21", "ker-trace-of=1", 1025), ("2^1^21", "basis=1", 3),
                  ("3^1^13", "basis=1", 3)]


@pytest.mark.parametrize("field,subspace,omega", UNTABLED_EXACT)
def test_exact_prediction_reads_no_D_or_kappa(monkeypatch, field, subspace, omega):
    def refuse(_):
        raise AssertionError("an exact prediction does not need D or kappa")

    monkeypatch.setattr(predict, "D_invariant", refuse)
    monkeypatch.setattr(predict.SubspaceInvariants, "kappa", property(refuse))
    ctx = build_field(*map(int, field.split("^")))
    pred = predict_omega(parse_subspace(ctx, subspace))
    assert pred.kind == "exact" and pred.value == omega


def test_cli_predict_above_table_limit(capsys):
    code = cli.main(["omega", "--field", "2^1^21", "--subspace", "ker-trace-of=1",
                     "--mode", "predict"])
    assert code == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["predicted"] == 1025
