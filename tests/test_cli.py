"""Command-line interface: parsing, output schemas, exit codes, config."""

import io
import json

import pytest

from lorentzknots.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_diagrams_enumerate_json():
    code, text = run_cli(["diagrams", "--enumerate", "3", "--format", "json"])
    assert code == 0
    assert json.loads(text) == ["AABBCC", "AABCBC", "AABCCB", "ABACBC", "ABCABC"]


def test_diagrams_parse():
    code, text = run_cli(["diagrams", "--parse", "ABBA"])
    assert code == 0
    assert json.loads(text) == {"canonical": "AABB", "chords": 2}


def test_quotient_dim():
    code, text = run_cli(["diagrams", "--quotient-dim", "3"])
    assert code == 0
    assert json.loads(text)["dimension"] == 3


def test_weights_table_json():
    code, text = run_cli(["weights", "--diagram", "AA", "--m", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["m"] == 2 and doc["variable"] == "p"
    # one-chord weight is -m p / 2 = -p
    assert doc["coeffs"] == [[0, 1, 0, 1], [-1, 1, 0, 1]]


def test_weights_routes_agree():
    _, a = run_cli(["weights", "--diagram", "ABAB", "--m", "1", "--format", "json"])
    _, b = run_cli(
        ["weights", "--diagram", "ABAB", "--m", "1", "--direct", "--format", "json"]
    )
    assert json.loads(a)["coeffs"] == json.loads(b)["coeffs"]


def test_jones_interpolate_schema():
    code, text = run_cli(
        ["jones", "--braid", "s1 s1 s1", "--interpolate", "--order", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["order"] == 2
    assert doc["coeffs"][0] == [[1, 1, 0, 1]]


def test_jones_csv_format():
    code, text = run_cli(
        ["jones", "--braid", "s1 s1 s1", "--interpolate", "--order", "2", "--format", "csv"]
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "h_order,param_degree,re_num,re_den,im_num,im_den"
    assert "2,1,-23,6,0,1" in lines


def test_jones_spin_requires_half_integer():
    code, _ = run_cli(["jones", "--knot", "unknot", "--spin", "0.3", "--order", "2"])
    assert code == 2


def test_jones_strand_inference():
    code, text = run_cli(
        ["jones", "--braid", "s1 -s2 s1 -s2", "--spin", "1", "--order", "2", "--format", "csv"]
    )
    assert code == 0


def test_lorentz_equivalence_report():
    code, text = run_cli(
        [
            "lorentz", "--knot", "unknot", "--m", "0", "--order", "2",
            "--p", "1", "--check-equivalence", "--precision", "45",
        ]
    )
    assert code == 0
    assert json.loads(text)["pass"] is True


def test_qlg_matches_lorentz_invariant_at_point():
    code, text = run_cli(
        [
            "lorentz", "--knot", "trefoil-left", "--m", "0", "--order", "2",
            "--p", "2", "--check-equivalence", "--precision", "45",
        ]
    )
    assert code == 0
    report = json.loads(text)
    assert report["pass"] is True
    assert max(report["diffs"]) <= report["tolerance"]


def test_qlg_symbolic_runs():
    code, text = run_cli(
        ["qlg", "--braid", "-s1 -s1 -s1", "--order", "1", "--precision", "40",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["order"] == 1


def test_qlg_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("LORENTZKNOTS_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(
        ["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "1",
         "--precision", "40", "--save-cache", "trefoil.cache", "--format", "csv"]
    )
    assert code == 0
    assert (tmp_path / "trefoil.cache").exists()
    code, _ = run_cli(
        ["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "1",
         "--precision", "40", "--load-cache", "trefoil.cache", "--format", "csv"]
    )
    assert code == 0


def test_qlg_rejects_cache_with_altered_values(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LORENTZKNOTS_CACHE_DIR", str(tmp_path))
    argv = ["qlg", "--braid", "s1 s1 s1", "--p", "2", "--order", "2"]
    assert run_cli(argv + ["--save-cache", "c1"])[0] == 0
    path = tmp_path / "c1"
    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        entry["coeffs"][0][0][1] *= 3  # triple each constant-term mantissa
    path.write_text(json.dumps(doc))
    code, text = run_cli(argv + ["--load-cache", "c1"])
    assert code == 2 and text == ""
    assert str(path) in capsys.readouterr().err


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 1, "format": "json", "knot": "unknot"}))
    # config supplies knot/format; flag overrides order
    code, text = run_cli(
        ["--config", str(cfg), "jones", "--interpolate", "--order", "2"]
    )
    assert code == 0
    assert json.loads(text)["order"] == 2
    code, text = run_cli(["--config", str(cfg), "jones", "--interpolate"])
    assert json.loads(text)["order"] == 1


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = run_cli(["--config", str(cfg), "diagrams", "--enumerate", "1"])
    assert code == 2


def test_resource_guard_exit_code():
    code, _ = run_cli(["diagrams", "--enumerate", "9"])
    assert code == 3


def test_run_config_invariants_enforced():
    code, _ = run_cli(
        ["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "2", "--precision", "20"]
    )
    assert code == 2
    code, _ = run_cli(
        ["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "3",
         "--precision", "40", "--cutoff", "2"]
    )
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_byte_identical_output_across_runs():
    args = ["jones", "--braid", "s1 s1 s1", "--interpolate", "--order", "2", "--format", "json"]
    _, first = run_cli(args)
    _, second = run_cli(args)
    assert first == second


def test_verify_selected_criteria():
    code, text = run_cli(["verify", "--criteria", "1,2"])
    assert code == 0
    assert text.count("[PASS]") == 2


def test_verify_rejects_unknown_criterion():
    code, _ = run_cli(["verify", "--criteria", "99"])
    assert code == 2
