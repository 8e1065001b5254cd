"""Tests for the command-line contract: exit codes and refused options."""

import json

import pytest

from paleyvec import cli


class TestOmega:
    def test_json_output(self, capsys):
        code = cli.main(["omega", "--field", "2^1^4", "--subspace", "ker-trace-of=1"])
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == payload["predicted"] == 5
        assert payload["match"] is True

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
