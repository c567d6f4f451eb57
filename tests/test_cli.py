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


def test_jones_strand_inference_reports_a_bad_token(capsys):
    code, text = run_cli(["jones", "--braid", "s1 x1 s1", "--spin", "1"])
    assert code == 2 and text == ""
    assert "bad braid token 'x1'" in capsys.readouterr().err


def test_lorentz_equivalence_report():
    code, text = run_cli(
        [
            "lorentz", "--knot", "unknot", "--m", "0", "--order", "2",
            "--p", "1", "--check-equivalence",
        ]
    )
    assert code == 0
    report = json.loads(text)
    assert report["pass"] is True
    assert report["lhs"] == report["rhs"] == [[1, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]


@pytest.mark.parametrize("from_config", [False, True])
def test_lorentz_equivalence_at_symbolic_p(tmp_path, from_config):
    argv = ["lorentz", "--knot", "trefoil-right", "--order", "2", "--check-equivalence"]
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "symbolic"}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--p", "symbolic"]
    code, text = run_cli(argv)
    assert code == 0
    report = json.loads(text)
    assert report["pass"] is True and report["p"] == "symbolic"
    assert report["lhs"] == report["rhs"]
    # each h-order is a polynomial in p: a list of coefficients
    assert report["lhs"][0] == [[1, 1, 0, 1]]


@pytest.mark.parametrize("from_config", [False, True])
def test_lorentz_at_symbolic_p_prints_the_polynomial_series(tmp_path, from_config):
    argv = ["lorentz", "--knot", "trefoil-right", "--order", "2", "--format", "json"]
    code, omitted = run_cli(argv)
    assert code == 0
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "symbolic"}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--p", "symbolic"]
    assert run_cli(argv) == (0, omitted)
    # each h-order is a polynomial in p: a list of coefficients
    assert json.loads(omitted)["coeffs"][0] == [[1, 1, 0, 1]]


def test_lorentz_equivalence_at_symbolic_p_fails_on_the_wrong_sum(monkeypatch):
    # The figure-eight's braid sum stands in for the trefoil's; they differ
    # at h^2, so the check fails.
    from lorentzknots import invariants
    from lorentzknots.braids import catalog_knot

    braid_sum, other = invariants.braid_sum, catalog_knot("figure-eight").braid
    monkeypatch.setattr(
        invariants, "braid_sum", lambda b, p, order: braid_sum(other, p, order)
    )
    code, text = run_cli(
        [
            "lorentz", "--knot", "trefoil-right", "--order", "2",
            "--p", "symbolic", "--check-equivalence",
        ]
    )
    assert code == 1
    report = json.loads(text)
    assert report["pass"] is False and report["lhs"] != report["rhs"]


@pytest.mark.parametrize("from_config", [False, True])
def test_lorentz_equivalence_rejects_nonzero_m(tmp_path, capsys, from_config):
    # The check compares against X(0, p) only; an m it would ignore is a
    # usage error, whether it comes from the flag or from the config.
    argv = ["lorentz", "--knot", "trefoil-right", "--order", "1",
            "--check-equivalence", "--p", "2"]
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 1}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--m", "1"]
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert "compares against X(0, p)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, config, flags",
    [
        (["jones", "--knot", "unknot", "--order", "1", "--interpolate", "--framed"], None,
         ("--interpolate", "--framed")),
        (["jones", "--knot", "unknot", "--order", "1", "--interpolate", "--spin", "1"], None,
         ("--interpolate", "--spin")),
        (["weights", "--diagram", "ABAB", "--sl2", "--direct"], None, ("--sl2", "--direct")),
        (["weights", "--diagram", "ABAB", "--sl2", "--m", "1"], None, ("--sl2", "--m")),
        (["weights", "--diagram", "ABAB", "--sl2", "--m", "0"], None, ("--sl2", "--m")),
        (["weights", "--diagram", "ABAB", "--sl2"], {"m": 1}, ("--sl2", "--m")),
    ],
    ids=["interpolate-framed", "interpolate-spin", "sl2-direct", "sl2-m", "sl2-m-zero",
         "sl2-config-m"],
)
def test_flags_a_subcommand_would_ignore_are_usage_errors(tmp_path, capsys, extra, config, flags):
    # Each of these combinations used to run and silently drop a flag.
    argv = list(extra)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + argv
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags), err


@pytest.mark.parametrize(
    "extra, fmt, mode",
    [
        (["lorentz", "--knot", "unknot", "--order", "1", "--p", "1", "--check-equivalence"],
         "csv", "--check-equivalence"),
        (["lorentz", "--knot", "unknot", "--order", "1", "--p", "1", "--check-equivalence"],
         "pretty", "--check-equivalence"),
        (["diagrams", "--parse", "ABBA"], "csv", "--parse"),
        (["diagrams", "--parse", "ABBA"], "pretty", "--parse"),
        (["diagrams", "--four-t", "2"], "csv", "--four-t"),
        (["diagrams", "--quotient-dim", "2"], "pretty", "--quotient-dim"),
        (["diagrams", "--enumerate", "2"], "csv", "--enumerate"),
        (["weights", "--diagram", "ABAB", "--m", "1"], "csv", "weights"),
        (["weights", "--diagram", "ABAB", "--sl2"], "csv", "weights"),
    ],
    ids=["equivalence-csv", "equivalence-pretty", "parse-csv", "parse-pretty", "four-t-csv",
         "quotient-dim-pretty", "enumerate-csv", "weights-csv", "weights-sl2-csv"],
)
@pytest.mark.parametrize("from_config", [False, True])
def test_a_format_a_mode_does_not_print_is_a_usage_error(
    tmp_path, capsys, extra, fmt, mode, from_config
):
    # Each of these used to print another format and exit 0.
    argv = list(extra)
    if from_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))
        argv = ["--config", str(cfg)] + argv
    else:
        argv += ["--format", fmt]
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert mode in err and f"--format {fmt}" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["jones", "--knot", "unknot", "--interpolate", "--order", "1"],
        ["lorentz", "--knot", "unknot", "--order", "1"],
        ["qlg", "--knot", "unknot", "--order", "1", "--p", "2"],
        ["weights", "--diagram", "AA"],
        ["diagrams", "--enumerate", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_config_format_outside_the_choices_is_a_usage_error(tmp_path, capsys, argv):
    # The flag's choices are checked by argparse; a config value used to
    # fall through to the pretty printer and exit 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    code, text = run_cli(["--config", str(cfg)] + argv)
    assert code == 2 and text == ""
    assert "xml" in capsys.readouterr().err


def test_qlg_matches_lorentz_invariant_at_point():
    code, text = run_cli(
        [
            "lorentz", "--knot", "trefoil-left", "--m", "0", "--order", "2",
            "--p", "2", "--check-equivalence",
        ]
    )
    assert code == 0
    report = json.loads(text)
    assert report["pass"] is True
    assert report["lhs"] == report["rhs"]
    # qlg prints the same exact braid sum, in the encoding of jones
    code, text = run_cli(
        ["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(text) == {"order": 2, "coeffs": report["lhs"]}


def test_qlg_symbolic_runs():
    code, text = run_cli(
        ["qlg", "--braid", "-s1 -s1 -s1", "--order", "2", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["order"] == 2
    # h^2 coefficient 2 - 2 p^2, exactly
    assert doc["coeffs"][2] == [[2, 1, 0, 1], [0, 1, 0, 1], [-2, 1, 0, 1]]


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


def test_qlg_config_p_zero_is_the_point_zero(tmp_path):
    # A config p of 0 is the numeric point p = 0, as with the flag, not
    # symbolic p.
    argv = ["qlg", "--knot", "trefoil-left", "--order", "1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0}))
    code, from_config = run_cli(["--config", str(cfg)] + argv)
    assert code == 0
    assert run_cli(argv + ["--p", "0"]) == (0, from_config)
    assert "*p^" not in from_config


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _ = run_cli(["--config", str(cfg), "diagrams", "--enumerate", "1"])
    assert code == 2


def test_resource_guard_exit_code():
    code, _ = run_cli(["diagrams", "--enumerate", "9"])
    assert code == 3


@pytest.mark.parametrize("n, expect", [("-1", 2), ("0", 0), ("1", 0), ("7", 3)])
def test_four_t_exit_codes(n, expect):
    # A negative count is a usage error, not a resource guard; below two
    # chords there is no relation to print.
    code, text = run_cli(["diagrams", "--four-t", n])
    assert code == expect
    if expect == 0:
        assert json.loads(text) == []


def test_run_config_invariants_enforced():
    code, _ = run_cli(["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "-1"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:  # there is no crossing-spin cutoff
        main(["qlg", "--knot", "trefoil-left", "--p", "2", "--order", "3", "--cutoff", "4"])
    assert exc.value.code == 2


def test_cutoff_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cutoff": 3}))
    code, text = run_cli(["--config", str(cfg), "qlg", "--knot", "trefoil-left", "--p", "2"])
    assert code == 2 and text == ""
    assert "cutoff" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["diagrams", "--quotient-dim", "3", "--order", "99"],
        ["diagrams", "--quotient-dim", "3", "--precision", "40"],
        ["diagrams", "--quotient-dim", "3", "--workers", "2"],
        ["weights", "--diagram", "AA", "--order", "2"],
        ["weights", "--diagram", "AA", "--precision", "40"],
        ["weights", "--diagram", "AA", "--workers", "2"],
        ["jones", "--knot", "unknot", "--spin", "1", "--precision", "40"],
        ["jones", "--knot", "unknot", "--interpolate", "--workers", "7"],
        ["lorentz", "--knot", "unknot", "--order", "1", "--workers", "2"],
        ["lorentz", "--knot", "unknot", "--order", "1", "--precision", "40"],
        ["qlg", "--knot", "unknot", "--order", "1", "--workers", "2"],
        ["qlg", "--knot", "unknot", "--order", "1", "--precision", "40"],
        ["qlg", "--knot", "unknot", "--order", "1", "--save-cache", "x"],
        ["qlg", "--knot", "unknot", "--order", "1", "--load-cache", "x"],
        ["verify", "--criteria", "1", "--format", "json"],
        ["verify", "--criteria", "1", "--order", "3"],
        ["verify", "--criteria", "1", "--precision", "40"],
        ["verify", "--criteria", "1", "--workers", "2"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_config_rejects_workers_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    code, _ = run_cli(["--config", str(cfg), "diagrams", "--enumerate", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"precision": 5}, ["jones", "--knot", "unknot", "--spin", "1", "--order", "1"]),
        ({"m": 1}, ["diagrams", "--quotient-dim", "2"]),
        ({"p": 2}, ["weights", "--diagram", "AA"]),
        ({"precision": 40}, ["qlg", "--knot", "unknot", "--order", "1"]),
        ({"precision": 40}, ["lorentz", "--knot", "unknot", "--order", "1"]),
    ],
)
def test_config_rejects_keys_the_subcommand_does_not_read(tmp_path, capsys, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli(["--config", str(cfg)] + argv)
    assert code == 2 and text == ""
    assert f"config keys not read by {argv[0]}: {sorted(config)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"p": 2.5}, ["lorentz", "--knot", "trefoil-left", "--order", "1",
                      "--check-equivalence"]),
        ({"m": 1.5}, ["weights", "--diagram", "AA"]),
        ({"m": 1.5}, ["lorentz", "--knot", "unknot", "--order", "1"]),
        ({"order": 2.5}, ["jones", "--knot", "unknot", "--spin", "1"]),
        ({"strands": 2.5}, ["qlg", "--braid", "s1", "--p", "2", "--order", "1"]),
    ],
)
def test_config_rejects_non_integral_integer_keys(tmp_path, capsys, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli(["--config", str(cfg)] + argv)
    assert code == 2 and text == ""
    (key,) = config
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_qlg_config_with_every_key_it_reads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "braid": "-s1 -s1 -s1", "strands": 2, "p": 2, "order": 1, "format": "json",
    }))
    code, text = run_cli(["--config", str(cfg), "qlg"])
    assert code == 0
    doc = json.loads(text)
    assert doc["order"] == 1 and len(doc["coeffs"]) == 2
