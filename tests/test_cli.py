"""Command line interface: configs in, JSON and CSV reports out, exit codes."""

import csv
import json

import pytest

from nestalg.algebra import MultiplicationTask
from nestalg.cli import main
from nestalg.nests import make_nest
from nestalg.operators import RuledVector, op_sum, rank_one
from nestalg.rules import rule_finite
from nestalg.scenarios import _decidability_row


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


FLAGSHIP = {
    "name": "flagship",
    "nest": {"basis": "N", "cuts": "all"},
    "a": {"op": "identity"},
    "b": {"op": "diag", "rule": {"kind": "harmonic"}},
}


def test_decide_flagship_exits_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, FLAGSHIP)
    rc = main(["decide", "--config", cfg])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["compact"]["status"] == "Compact"
    assert report["open_questions"] == []


def test_decide_writes_json_and_csv(tmp_path):
    cfg = write_cfg(tmp_path, FLAGSHIP)
    out = tmp_path / "report.json"
    rc = main(["decide", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_consistent"] is True
    mirror = tmp_path / "report.csv"
    assert mirror.exists()
    with open(mirror) as fh:
        rows = list(csv.DictReader(fh))
    questions = {r["question"] for r in rows}
    assert "compact" in questions and "zero" in questions


def test_decide_question_subset(tmp_path):
    cfg = write_cfg(tmp_path, dict(FLAGSHIP, questions=["zero", "compact"]))
    assert main(["decide", "--config", cfg]) == 0


def test_decide_report_is_named_decide_unless_the_config_names_it(tmp_path, capsys):
    unnamed = {k: v for k, v in FLAGSHIP.items() if k != "name"}
    assert main(["decide", "--config", write_cfg(tmp_path, unnamed)]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "decide"
    assert main(["decide", "--config", write_cfg(tmp_path, FLAGSHIP)]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "flagship"


def test_missing_config_exits_one(capsys):
    rc = main(["decide"])
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_malformed_config_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["decide", "--config", str(p)]) == 1


def test_nonmember_config_exits_one(tmp_path):
    bad = dict(
        FLAGSHIP,
        a={"op": "wshift", "direction": "raise", "rule": {"kind": "const", "c": 1.0}},
    )
    cfg = write_cfg(tmp_path, bad)
    assert main(["decide", "--config", cfg]) == 1


def test_ideal_report(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "nest": {"basis": "N", "cuts": "all"},
            "operator": {"op": "diag", "rule": {"kind": "harmonic"}},
            "depth": 3,
            "subnest": [4, 9],
        },
    )
    out = tmp_path / "ideal.json"
    rc = main(["ideal", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["decomposition"]["status"] == "Inside"
    assert report["subnest"]["reconstruction_residual"] <= 1e-12
    assert (tmp_path / "ideal.csv").exists()


def test_witness_certificate(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "nest": {"basis": "N", "cuts": "all"},
            "a": {"op": "identity"},
            "b": {"op": "identity"},
            "eps": 1.0,
            "count": 10,
        },
    )
    out = tmp_path / "wit.json"
    rc = main(["witness", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "ok"
    assert report["min_value"] >= report["value_floor"] - 1e-9


def test_witness_exhausted_exits_three(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "nest": {"basis": "N", "cuts": "all"},
            "a": {"op": "diag", "rule": {"kind": "harmonic"}},
            "b": {"op": "diag", "rule": {"kind": "harmonic"}},
            "eps": 0.9,
            "count": 10,
            "window": [1, 128],
        },
    )
    assert main(["witness", "--config", cfg]) == 3


def test_refute_family(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "pairs": [{"c": {"op": "identity"}, "d": {"op": "identity"}}],
        },
    )
    out = tmp_path / "ref.json"
    rc = main(["refute", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "refuted"
    w = report["witness"]
    assert w["residual"] >= w["threshold"]


def test_embed_bounds(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {
            "nest": {"basis": "N", "cuts": "all"},
            "a": {"op": "identity"},
            "b": {"op": "identity"},
            "x": [1.0, -0.5, 0.25],
            "block_size": 8,
        },
    )
    out = tmp_path / "emb.json"
    rc = main(["embed", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["bounds"]["upper"] <= 1.0 + 1e-9
    assert report["bounds"]["lower"] > 0.0


def test_verify_passes(tmp_path):
    out = tmp_path / "ver.json"
    rc = main(["verify", "--out", str(out), "--seed", "0"])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    with open(tmp_path / "ver.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["pass"] == "True" for r in rows)


def test_verify_reports_decidability(tmp_path):
    cfg = write_cfg(tmp_path, {"tasks": 9})
    out = tmp_path / "ver.json"
    assert main(["verify", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    rows = {r["check"]: r for r in json.loads(out.read_text())["rows"]}
    row = rows["decidability"]
    assert row["pass"] is True
    detail = row["detail"]
    assert detail["tasks"] == 9 and detail["errors"] == []
    assert set(detail["decided_frac"]) == {"zero", "compact", "weak", "weak2", "quasitriangular", "quotient"}
    for q, frac in detail["decided_frac"].items():
        unknown = sum(detail["unknown_by_reason"].get(q, {}).values())
        assert round(frac * detail["tasks"]) + unknown == detail["tasks"]


def test_decidability_row_counts_unknowns_by_reason():
    def r1(col_table, row_table):
        return rank_one(RuledVector(rule_finite(col_table)), RuledVector(rule_finite(row_table)))

    # column 600 of a is e_600: its rank-ones cancel at row 1, and row 600
    # lies beyond the scan budget, so the zero boundaries stay uncertified
    a = op_sum(r1({600: 1.0}, {1: 1.0, 600: 1.0}), r1({600: 1.0}, {1: -1.0}), r1({700: 1.0}, {1: 1.0}))
    task = MultiplicationTask.build(make_nest({"basis": "N", "cuts": "all"}), a, r1({650: 1.0}, {650: 1.0}))
    detail = _decidability_row([task])["detail"]
    assert detail["decided_frac"]["zero"] == 0.0 and detail["decided_frac"]["weak"] == 1.0
    assert detail["unknown_by_reason"]["zero"] == {"boundary not certified": 1}


def test_verify_fault_injection_exits_three(tmp_path):
    rc = main(["verify", "--inject-fault", "--out", str(tmp_path / "v.json")])
    assert rc == 3


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
