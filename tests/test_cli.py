"""Command line: exit codes, report formats, overrides, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest
from click.testing import CliRunner

import phjb
from phjb.cli import execute, main
from phjb.config import ConfigError, load_config, parse_config
from phjb.value import ValueTable

CONFIGS = FsPath(__file__).resolve().parent.parent / "configs"


@pytest.fixture()
def runner():
    return CliRunner()


def _doc(name="eikonal.json", **overrides):
    doc = json.loads((CONFIGS / name).read_text())
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# exit codes -------------------------------------------------------------


@pytest.mark.parametrize("cfg", ["eikonal.json", "runmax.json", "feedback.json"])
def test_shipped_configs_pass(runner, cfg):
    res = runner.invoke(main, ["run", str(CONFIGS / cfg)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["passed"] is True


def test_missing_file_is_a_parse_error(runner):
    res = runner.invoke(main, ["run", "/nonexistent/nowhere.json"])
    assert res.exit_code == 2


def test_malformed_json_is_a_parse_error(runner, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    res = runner.invoke(main, ["run", str(p)])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"scenario": "lorenz"},
        {"grid": {"T": "1.0", "step": "0.3"}},
        {"checks": ["value", "entropy"]},
        {"tolerances": {"slack": "0.1"}},
        {"comment": "unknown top-level keys are rejected"},
        {"epsilons": ["-0.1"]},
        {"tolerances": {"ito": "1e-8"}},
        {"tolerances": {"hyp_ratio": "1e-9"}},
    ],
)
def test_validation_failures_exit_three(runner, tmp_path, overrides):
    res = runner.invoke(main, ["run", _write(tmp_path, _doc(**overrides))])
    assert res.exit_code == 3, res.output


def test_feedback_has_no_certificates(runner, tmp_path):
    res = runner.invoke(main, ["check-viscosity", str(CONFIGS / "feedback.json")])
    assert res.exit_code == 3
    res = runner.invoke(main, ["check-classical", str(CONFIGS / "feedback.json")])
    assert res.exit_code == 3
    for check in ("viscosity", "classical"):
        doc = _doc("feedback.json", checks=["value", check])
        res = runner.invoke(main, ["run", _write(tmp_path, doc)])
        assert res.exit_code == 3, res.output
        assert "viscosity/classical unavailable" in res.output


def test_failed_check_exits_one(runner, tmp_path):
    # an absurdly small dissipation floor fails honestly on real margins
    doc = _doc(checks=["gauge"], tolerances={"margin_c0": "0.0001"})
    res = runner.invoke(main, ["run", _write(tmp_path, doc)])
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert report["passed"] is False
    gauge = report["checks"][0]
    assert gauge["summary"]["min_margin"] < gauge["summary"]["floor"]


# subcommands ------------------------------------------------------------


def test_value_subcommand_reports_closed_form_gap(runner):
    res = runner.invoke(main, ["value", str(CONFIGS / "eikonal.json")])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert [c["name"] for c in report["checks"]] == ["value", "dpp"]
    summary = report["checks"][0]["summary"]
    assert summary["gap"] == 0.0
    assert "closed_form" in summary


def test_bp_subcommand_postconditions(runner):
    res = runner.invoke(main, ["bp-search", str(CONFIGS / "runmax.json")])
    assert res.exit_code == 0
    report = json.loads(res.output)
    rows = report["checks"][0]["rows"]
    assert {r["mode"] for r in rows} == {"at-max", "horizon-bonus"}
    for r in rows:
        assert r["postconditions_ok"] is True


def test_ito_and_stability_subcommands(runner):
    for cmd in ("check-ito", "stability"):
        res = runner.invoke(main, [cmd, str(CONFIGS / "feedback.json")])
        assert res.exit_code == 0, (cmd, res.output)


# overrides and formats --------------------------------------------------


def test_grid_override_refines_step(runner):
    res = runner.invoke(main, ["value", str(CONFIGS / "eikonal.json"), "--grid", "8"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["grid"]["step"] == pytest.approx(0.125)


def test_seed_override_lands_in_report(runner):
    res = runner.invoke(main, ["value", str(CONFIGS / "eikonal.json"), "--seed", "7"])
    assert json.loads(res.output)["seed"] == 7


def test_csv_format_is_parseable(runner):
    res = runner.invoke(
        main, ["value", str(CONFIGS / "eikonal.json"), "--format", "csv"]
    )
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["check", "row", "field", "value"]
    assert len(rows) > 3
    assert any(r[0] == "value" and r[2] == "closed_form" for r in rows[1:])


def test_out_writes_the_report_file(tmp_path):
    target = tmp_path / "report.json"
    code = execute(
        str(CONFIGS / "eikonal.json"), checks=("value",), out=str(target)
    )
    assert code == 0
    assert json.loads(target.read_text())["passed"] is True


def test_reports_are_deterministic_modulo_timestamp(tmp_path):
    outs = []
    for k in range(2):
        target = tmp_path / f"r{k}.json"
        assert execute(str(CONFIGS / "runmax.json"), out=str(target)) == 0
        d = json.loads(target.read_text())
        d.pop("timestamp")
        outs.append(d)
    assert outs[0] == outs[1]


def _checks_of(path, **kw):
    target = path.parent / f"{path.name}.out.json"
    execute(str(path), out=str(target), **kw)
    return json.loads(target.read_text())["checks"]


def test_one_value_table_per_run(tmp_path, monkeypatch):
    made = []
    init = ValueTable.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    cfg = tmp_path / "feedback.json"
    cfg.write_text((CONFIGS / "feedback.json").read_text())
    alone = _checks_of(cfg, checks=("value",), grid=7) + _checks_of(
        cfg, checks=("dpp",), grid=7
    )
    monkeypatch.setattr(ValueTable, "__init__", counting_init)
    together = _checks_of(cfg, checks=("value", "dpp"), grid=7)
    assert len(made) == 1
    assert together == alone


def test_shared_table_leaves_every_record_unchanged(tmp_path):
    # every check that reads the value table, each first alone, then in one run
    listed = ["value", "dpp", "regularity", "viscosity", "stability"]
    cfg = FsPath(_write(tmp_path, _doc("runmax.json", checks=listed)))
    alone = [_checks_of(cfg, checks=(name,))[0] for name in listed]
    assert _checks_of(cfg) == alone


# config parsing ---------------------------------------------------------


def test_decimal_strings_and_plain_numbers_agree():
    a = parse_config(_doc())
    plain = _doc()
    plain["grid"] = {"T": 1.0, "step": 0.25}
    b = parse_config(plain)
    assert a.scenario.grid == b.scenario.grid
    assert a.tolerances == b.tolerances


def test_load_config_applies_overrides():
    cfg = load_config(str(CONFIGS / "eikonal.json"), grid_steps=16, seed=5)
    assert cfg.scenario.grid.step == pytest.approx(1.0 / 16)
    assert cfg.seed == 5


def test_parse_rejects_bool_numbers():
    doc = _doc()
    doc["seed"] = True
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_installed_entry_point_answers_version():
    # the child imports phjb from where this process did: an install, or src/
    # when pytest put it on the path
    env = dict(os.environ)
    where = str(FsPath(phjb.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [where, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "phjb.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "phjb" in out.stdout
    assert phjb.__version__ in out.stdout
