"""Tests for the suites' shared solve path."""

import dataclasses
import json

import pytest

from paleyvec import cli, forms, suites
from paleyvec.gf import build_field
from paleyvec.linalg import trace_zero_hyperplane


def test_instance_omega_is_cached_by_field_and_basis(monkeypatch):
    built = []
    build_graph = suites.build_graph

    def counting_build_graph(ctx, U, **kwargs):
        built.append(U.basis)
        return build_graph(ctx, U, **kwargs)

    monkeypatch.setattr(suites, "build_graph", counting_build_graph)
    monkeypatch.setattr(suites, "_omega_cache", {})
    U = trace_zero_hyperplane(build_field(3, 1, 3))
    first = suites.instance_omega(U)
    again = suites.instance_omega(trace_zero_hyperplane(build_field(3, 1, 3)))
    assert first == again and first[0] == 4
    assert built == [U.basis]


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_passes_on_small_grid(name, monkeypatch):
    # sumproduct has no field with n <= 3 in its grid
    monkeypatch.setattr(suites, "_omega_cache", {})
    report = suites.run_suite(name, qmax=5, nmax=4 if name == "sumproduct" else 3)
    assert report.instances > 0
    assert report.failures == []


def test_crucial_report_pinned(monkeypatch, capsys):
    # the whole grid, solved afresh
    monkeypatch.setattr(suites, "_omega_cache", {})
    assert cli.main(["verify", "--suite", "crucial"]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        '{"failures": [], "instances": 208, "passes": 208, "schema": 1, "suite": "crucial"}\n'
    )


def test_crucial_searches_once_and_records_a_disagreement(monkeypatch):
    # one isotropic search per multiplier; a search that disagrees with the
    # closed form is a failure record naming both values, not an exception
    monkeypatch.setattr(suites, "_omega_cache", {})
    searched = []
    square_clique = forms.square_clique

    def off_by_one(G):
        searched.append(G.U)
        t, witness = square_clique(G)
        return t + 1, witness

    monkeypatch.setattr(forms, "square_clique", off_by_one)
    report = suites.suite_crucial(qmax=3, nmax=3)
    assert report.instances == len(searched) == 8 + 26
    assert len(report.failures) == report.instances
    assert report.failures[0] == {"field": [3, 1, 2], "lam": 1, "error": "t formula 1 != search 2"}


def _off_by_one(real):
    """``real`` with its exact value raised by one: an int, or a prediction's value."""
    def shifted(U):
        got = real(U)
        return got + 1 if isinstance(got, int) else dataclasses.replace(got, value=got.value + 1)

    return shifted


@pytest.mark.parametrize(
    "name,target,records",
    [
        ("n-1", "hyperplane_omega",
         [{"basis": [b], "expected": 4, "got": 3} for b in (1, 2, 3)]),
        ("main3", "predict_omega",
         [{"basis": [b], "error": "prediction 4 rejects 3"} for b in (1, 3, 2)]),
        ("prop-basic", "predict_omega",
         [{"basis": [b], "predicted": 4, "got": 3} for b in (1, 3, 2)]),
    ],
)
def test_suite_records_an_injected_fault(name, target, records, monkeypatch, capsys):
    # 2^1^2 alone: its three lines are solved afresh (omega = 3), and each
    # disagrees with a closed form or prediction set one too high; the suite
    # records every instance, and verify exits 1
    monkeypatch.setattr(suites, "_omega_cache", {})
    monkeypatch.setattr(suites, target, _off_by_one(getattr(suites, target)))
    want = [{"field": [2, 1, 2], **r} for r in records]
    report = suites.run_suite(name, qmax=2, nmax=2)
    assert (report.instances, report.failures) == (3, want)
    argv = ["verify", "--suite", name, "--qmax", "2", "--nmax", "2"]
    assert cli.main(argv) == cli.EXIT_VERIFICATION
    assert json.loads(capsys.readouterr().out)["failures"] == want
