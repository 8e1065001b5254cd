"""Tests for the command-line contract: exit codes and refused options."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from paleyvec import cli
from paleyvec.errors import StructureViolation
from paleyvec.linalg import Subspace


class TestOmega:
    def test_json_output(self, capsys):
        code = cli.main(["omega", "--field", "2^1^4", "--subspace", "ker-trace-of=1"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == payload["predicted"] == 5
        assert payload["match"] is True

    def test_json_search_stats(self, capsys):
        # the trace-zero hyperplane of 2^1^9: its greedy seed is optimal, the
        # Frobenius maps x -> x^(2^i) prune the root and, past 256 nodes, 12
        # isometries of Tr(xy) prune it further
        code = cli.main(["omega", "--field", "2^1^9", "--subspace", "ker-trace-of=1",
                         "--mode", "exact"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"schema", "field", "subspace", "mode", "exact", "witness",
                                "decomposition", "runtime_ms", "search"}
        search = payload["search"]
        assert set(search) == {"vertices", "nodes", "seed_size", "group_order",
                               "orbit_skips", "isometries", "rows_ms", "seed_ms",
                               "search_ms"}
        # q = 2: every F_q*-orbit is a single vertex, so all 512 are searched
        assert search["vertices"] == 512
        assert search["seed_size"] == payload["exact"] == 17
        assert search["group_order"] == 9
        assert search["isometries"] == 12
        assert search["nodes"] > 0 and search["orbit_skips"] > 0
        phases = [search["rows_ms"], search["seed_ms"], search["search_ms"]]
        assert all(ms >= 0 for ms in phases)
        assert sum(phases) <= payload["runtime_ms"]

    def test_json_search_vertices_odd_q(self, capsys):
        # 3^1^4 trace-zero hyperplane: the 21 vertices v with v^2 in U (0 among
        # them) are searched, and one of each of the 30 pairs {v, -v} of the rest
        code = cli.main(["omega", "--field", "3^1^4", "--subspace", "ker-trace-of=1",
                         "--mode", "exact"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["search"]["vertices"] == 21 + 60 // 2 == 51
        assert payload["exact"] == 5

    def test_csv_format_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["omega", "--field", "2^1^4", "--subspace", "ker-trace-of=1",
                      "--format", "csv"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "both"])
    @pytest.mark.parametrize(
        "field,extra", [("2^1^17", []), ("2^1^4", ["--max-vertices", "8"])]
    )
    def test_vertex_budget_checked_before_field_build(self, monkeypatch, mode, field, extra):
        built = []
        monkeypatch.setattr(cli, "build_field", lambda *args, **kw: built.append(args))
        code = cli.main(["omega", "--field", field, "--subspace", "ker-trace-of=1",
                         "--mode", mode, *extra])
        assert code == cli.EXIT_BUDGET
        assert built == []

    def test_untabled_field_refused_before_build(self, monkeypatch, capsys):
        # 2^21 vertices fit this budget but not the table limit: the exact
        # solve is refused at once, without building the field
        built = []
        real_build = cli.build_field
        monkeypatch.setattr(cli, "build_field",
                            lambda *args, **kw: built.append(args) or real_build(*args, **kw))
        start = time.monotonic()
        code = cli.main(["omega", "--field", "2^1^21", "--subspace", "basis=1",
                         "--mode", "exact", "--max-vertices", "3000000"])
        assert time.monotonic() - start < 5.0
        assert code == cli.EXIT_BUDGET
        assert built == []
        assert "table limit" in capsys.readouterr().err


@pytest.mark.parametrize("field,out", [
    ("2^1^4", "base_modulus=0,1\next_modulus=1,0,0,1,1\n"),
    ("3^2^2", "base_modulus=1,0,1\next_modulus=1,4,1\n"),
])
def test_print_modulus_builds_no_tables(monkeypatch, capsys, field, out):
    # the moduli are the tabled build's, byte for byte, and no table is built
    built = []
    real_build = cli.build_field

    def build(*args, **kw):
        built.append(real_build(*args, **kw))
        return built[-1]

    monkeypatch.setattr(cli, "build_field", build)
    assert cli.main(["field", field, "--print-modulus"]) == cli.EXIT_OK
    assert capsys.readouterr().out == out
    assert [ctx.tabled for ctx in built] == [False]
    assert built[0].generator is None and built[0]._exp is None


@pytest.mark.parametrize(
    "argv,code",
    [
        (["field", "2^1^3"], cli.EXIT_OK),
        (["omega", "--field", "2^1^3", "--subspace", "basis=1,2"], cli.EXIT_OK),
        (["field", "2^1"], cli.EXIT_USAGE),
        (["field", "4^1^2"], cli.EXIT_USAGE),
        (["omega", "--field", "4^1^2", "--subspace", "basis=1"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^1", "--subspace", "basis=1"], cli.EXIT_USAGE),
        (["form", "--field", "2^0^3", "--lambda", "1"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^3", "--subspace", "basis="], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^3", "--subspace", "basis=", "--mode", "exact"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^3", "--subspace", "basis=1,2,4"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^3", "--subspace", "basis=1,2,4", "--mode", "predict"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^17", "--subspace", "basis=1"], cli.EXIT_BUDGET),
        (["omega", "--field", "2^1^3", "--subspace", "basis=1", "--no-dominance"],
         cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--limit", "-1"], cli.EXIT_USAGE),
        # --workers, whatever its value, is an unknown option (cases at the end)
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--workers", "0"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--workers", "-3"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--workers", "two"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^8", "--subspace", "ker-trace-of=1", "--mode", "exact",
          "--time-limit", "nan"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^8", "--subspace", "ker-trace-of=1", "--mode", "exact",
          "--time-limit", "-1"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--time-limit", "0"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--time-limit", "inf"],
         cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--workers", "0"], cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--time-limit", "-inf"], cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--workers", "-1"], cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--time-limit", "nan"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--time-limit", "30"],
         cli.EXIT_OK),
        (["survey", "--field", "2^1^3", "--format", "csv"], cli.EXIT_OK),
        (["survey", "--field", "2^1^3", "--format", "json"], cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--format", "human"], cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--format", "csv"], cli.EXIT_OK),
        (["bench", "--field", "2^1^3", "--format", "json"], cli.EXIT_OK),
        (["bench", "--field", "2^1^3", "--format", "human"], cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--format", "xml"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--max-vertices", "0"],
         cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--mode", "predict",
          "--max-vertices", "-3"], cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--max-vertices", "0"], cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--max-vertices", "x"], cli.EXIT_USAGE),
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--max-vertices", "1"],
         cli.EXIT_BUDGET),
        # a multiplier outside 1..q^n - 1, as a form or as a functional
        (["form", "--field", "3^1^3", "--lambda", "-1"], cli.EXIT_USAGE),
        (["form", "--field", "3^1^3", "--lambda", "27"], cli.EXIT_USAGE),
        (["form", "--field", "3^1^3", "--lambda", "0"], cli.EXIT_USAGE),
        (["form", "--field", "3^1^3", "--lambda", "26"], cli.EXIT_OK),
        (["omega", "--field", "3^1^3", "--subspace", "ker-trace-of=-1"], cli.EXIT_USAGE),
        (["omega", "--field", "3^1^3", "--subspace", "ker-trace-of=27"], cli.EXIT_USAGE),
        (["omega", "--field", "3^1^3", "--subspace", "ker-trace-of=26"], cli.EXIT_OK),
        # a verify filter that selects no field
        (["verify", "--suite", "n-1", "--qmax", "1"], cli.EXIT_USAGE),
        (["verify", "--suite", "n-1", "--nmax", "0"], cli.EXIT_USAGE),
        (["verify", "--suite", "census", "--qmax", "2"], cli.EXIT_USAGE),
        (["verify", "--suite", "all", "--nmax", "1"], cli.EXIT_USAGE),
        (["verify", "--suite", "census", "--qmax", "3", "--nmax", "2"], cli.EXIT_OK),
        # a survey dimension that is not a number, or out of 1..n - 1
        (["survey", "--field", "2^1^3", "--dim", "x"], cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--dim", "1,3"], cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--dim", "0"], cli.EXIT_USAGE),
        # the search is serial: no command takes a worker count
        (["omega", "--field", "2^1^4", "--subspace", "basis=1", "--workers", "2"],
         cli.EXIT_USAGE),
        (["survey", "--field", "2^1^3", "--workers", "2"], cli.EXIT_USAGE),
        (["bench", "--field", "2^1^3", "--workers", "2"], cli.EXIT_USAGE),
    ],
)
def test_exit_codes(argv, code, capsys):
    try:
        got = cli.main(argv)
        prefix = "error: "
    except SystemExit as exc:  # argparse refuses the command line before any command runs
        got = exc.code
        prefix = "usage: "
    assert got == code
    err = capsys.readouterr().err
    assert (code == cli.EXIT_OK) == (err == "")
    if code != cli.EXIT_OK:
        assert err.startswith(prefix)
        assert "error: " in err.splitlines()[-1]


def test_omega_human_format(capsys):
    # one "key: value" line per payload key, in the JSON payload's order
    argv = ["omega", "--field", "2^1^4", "--subspace", "ker-trace-of=1", "--format", "human"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        "schema", "field", "subspace", "mode", "predicted", "exact", "witness",
        "decomposition", "search", "runtime_ms", "match",
    ]
    assert {"predicted: 5", "exact: 5", "match: True", "mode: both"} <= set(lines)


def test_survey_pretty(capsys):
    # basis elements as polynomials in the generator y of the extension
    assert cli.main(["survey", "--field", "3^1^2", "--dim", "1", "--pretty"]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "field,basis,dim,has_square,D,s,predicted,omega,match\n"
        "3^1^2,1,1,1,1,1,3,3,1\n"
        "3^1^2,1 + y,1,0,,-1,3,3,1\n"
        "3^1^2,1 + 2*y,1,0,,-1,3,3,1\n"
        "3^1^2,y,1,1,1,1,3,3,1\n"
    )


def test_survey_exits_1_on_an_exact_mismatch(monkeypatch, capsys):
    # every exact prediction set one too high: each row reports no match
    real = cli.predict_omega
    monkeypatch.setattr(cli, "predict_omega",
                        lambda U: dataclasses.replace(real(U), value=real(U).value + 1))
    assert cli.main(["survey", "--field", "2^1^3", "--dim", "1"]) == cli.EXIT_VERIFICATION
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 7
    assert all(row.endswith(",4,3,0") for row in rows)


def test_paleyvec_error_in_a_command_exits_1(monkeypatch, capsys):
    def forged(G, C):
        raise StructureViolation("forged decomposition")

    monkeypatch.setattr(cli, "decompose_clique", forged)
    argv = ["omega", "--field", "2^1^4", "--subspace", "basis=1", "--mode", "exact"]
    assert cli.main(argv) == cli.EXIT_VERIFICATION
    assert capsys.readouterr().err == "error: forged decomposition\n"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_budget_variable_exits_3(monkeypatch, capsys, value):
    # the vertex budget is read from the environment by an exact solve
    monkeypatch.setenv("PALEYVEC_BUDGET_VERTICES", value)
    argv = ["omega", "--field", "2^1^4", "--subspace", "basis=1", "--mode", "exact"]
    assert cli.main(argv) == cli.EXIT_BUDGET
    assert capsys.readouterr().err == f"error: bad PALEYVEC_BUDGET_VERTICES value {value!r}\n"


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "paleyvec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)


def test_import_loads_no_process_pool():
    # the search is serial: importing the package loads no process pool module
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    code = "import sys, paleyvec.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("field,code", [("1000000000000000003^1^2", cli.EXIT_BUDGET),
                                        ("1001^1^2", cli.EXIT_USAGE),
                                        ("q=1000000000000000003,n=2", cli.EXIT_BUDGET),
                                        ("q=12,n=2", cli.EXIT_USAGE)])
def test_field_order_refused_before_primality(field, code):
    # each in a process of its own with a timeout: trial division of a huge
    # prime p, or a walk over the candidates up to a huge q, would not
    # return; an in-budget composite p or q is still refused
    proc = _run_cli("field", field)
    assert proc.returncode == code, proc.stderr


def test_exact_omega_refuses_a_huge_order_before_forming_it():
    # 3^100000000 would take the pre-check minutes to form
    proc = _run_cli("omega", "--field", "3^1^100000000", "--subspace", "basis=1",
                    "--mode", "exact")
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr
    assert "table limit" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["survey", "--field", "2^1^8", "--dim", "n-1"],
        ["bench", "--field", "2^1^8", "--limit", "1"],
    ],
)
def test_time_limit_is_honoured(argv, capsys):
    # the search checks its clock every 256 nodes; these hyperplanes expand more
    assert cli.main([*argv, "--time-limit", "1e-9"]) == cli.EXIT_BUDGET
    assert "time limit" in capsys.readouterr().err


def test_predict_above_table_limit(capsys):
    # D of a subspace of an untabled field, from U's squares and the
    # subfield's trace basis
    argv = ["omega", "--field", "11^1^6", "--subspace", "basis=1,11", "--mode", "predict"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["predicted"] == 12


@pytest.mark.parametrize(
    "field,subspace,predicted",
    [
        ("3^1^14", "ker-trace-of=1", 3**7),
        ("2^1^23", "basis=" + ",".join(str(2**i) for i in range(21)),
         {"kind": "interval", "lo": 3, "hi": 2049, "source": "bound-intersection"}),
    ],
    ids=["3^1^14", "2^1^23"],
)
def test_predict_subspace_above_enum_budget(monkeypatch, capsys, field, subspace, predicted):
    # U has more than ENUM_BUDGET elements: the square test and D scan its
    # members until the first hit, without listing U
    def refuse(self):
        raise AssertionError("enumerate_elements called")

    monkeypatch.setattr(Subspace, "enumerate_elements", refuse)
    argv = ["omega", "--field", field, "--subspace", subspace, "--mode", "predict"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["predicted"] == predicted


def test_bench_reports_build_and_solve(capsys):
    code = cli.main(["bench", "--field", "2^1^4", "--dim", "1,n-1", "--limit", "3",
                     "--format", "json"])
    assert code == cli.EXIT_OK
    rows = json.loads(capsys.readouterr().out)["classes"]
    assert [(r["class"], r["instances"]) for r in rows] == [("dim-1", 3), ("dim-3", 3)]
    for r in rows:
        assert set(r) == {
            "class", "instances",
            "build_graph_median_ms", "build_graph_p95_ms",
            "clique_number_exact_median_ms", "clique_number_exact_p95_ms",
            "nodes_median",
        }
        assert 0 <= r["build_graph_median_ms"] <= r["build_graph_p95_ms"]
        assert 0 <= r["clique_number_exact_median_ms"] <= r["clique_number_exact_p95_ms"]
        assert r["nodes_median"] >= 1


def test_bench_prints_csv_by_default(capsys):
    argv = ["bench", "--field", "2^1^4", "--dim", "1", "--limit", "2"]
    outputs = []
    for extra in ([], ["--format", "csv"]):
        assert cli.main(argv + extra) == cli.EXIT_OK
        outputs.append(capsys.readouterr().out.splitlines())
    for lines in outputs:
        assert lines[0] == ("class,instances,build_graph_median_ms,build_graph_p95_ms,"
                            "clique_number_exact_median_ms,clique_number_exact_p95_ms,"
                            "nodes_median")
        assert len(lines) == 2 and lines[1].startswith("dim-1,2,")


@pytest.mark.parametrize("dim,family", [("2", "all_subspaces"), ("n-1", "all_hyperplanes")])
def test_bench_draws_at_most_limit(monkeypatch, capsys, dim, family):
    # 2^1^6 has 651 subspaces of dimension 2 and 63 hyperplanes
    drawn = []
    real = getattr(cli, family)

    def counted(*args, **kwargs):
        for item in real(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(cli, family, counted)
    assert cli.main(["bench", "--field", "2^1^6", "--dim", dim, "--limit", "2"]) == cli.EXIT_OK
    assert 0 < len(drawn) <= 2


# SHA-256 of the `form` JSON lines for lambda = 1, ..., q^n - 1 in turn: t, M,
# both witnesses, and chi (q odd) or M_upper (q even)
PINNED_FORMS = {
    "3^1^3": (27, "f361c86c022c799005dac6f4a2b0f0cad69cfd99dafa41156f3f829e9e827d2e"),
    "5^1^2": (25, "60e608beb1a9f13fd30644a4ec0b0a9443a551ca1c0e40f67c48cbfafc6eec82"),
    "2^1^4": (16, "429e7f01e27d0a8a4a90f7acfd7ffacdf7f9eac64d72e0154e5fc017ba6807a1"),
    "2^2^2": (16, "f5b9f6d228d4ca41e91936bfc32d54d06efd82e2c26424ff1e6363fcddd9964d"),
}


@pytest.mark.parametrize("field", sorted(PINNED_FORMS))
def test_form_json_pinned(field, capsys):
    order, want = PINNED_FORMS[field]
    digest = hashlib.sha256()
    for lam in range(1, order):
        assert cli.main(["form", "--field", field, "--lambda", str(lam)]) == cli.EXIT_OK
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == want
