"""Tests of the benchmark's oracles and checks.

Run from the repository root:  python3 -m pytest bench/tests

The oracles are checked against textbook values; each check is shown to
pass on a knot's own result and to fail when fed another knot's result.
The package results used here are computed at the benchmark's orders.
"""

from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import oracles as orc  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

F = Fraction


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["unknot", "trefoil-right", "trefoil-left", "5_1",
                                  "figure-eight", "5_2"])
def test_burau_alexander_matches_textbook(name):
    strands, letters = workloads.CATALOG[name]
    expected = orc.TEXTBOOK_ALEXANDER[workloads.KNOT_TYPE[name]]
    assert orc.alexander_polynomial(strands, letters) == expected


def test_burau_alexander_of_8_19_and_markov_moves():
    # 8_19 = (s1 s2)^4: t^3 - t^2 + 1 - t^-2 + t^-3
    got = orc.alexander_polynomial(3, [[1, 1], [2, 1]] * 4)
    assert {e: c for e, c in got.items() if c} == {-3: 1, -2: -1, 0: 1, 2: -1, 3: 1}
    trefoil = orc.TEXTBOOK_ALEXANDER["3_1"]
    assert orc.alexander_polynomial(*workloads.MARKOV_CONJUGATE) == trefoil
    for strands, letters in workloads.MARKOV_FAMILY:
        assert orc.alexander_polynomial(strands, letters) == trefoil


def test_burau_rejects_links():
    with pytest.raises(ValueError):
        orc.alexander_polynomial(2, [[1, 1], [1, 1]])


def test_mmr_diagonal_values():
    assert orc.inverse_alexander_exp_jet(orc.TEXTBOOK_ALEXANDER["3_1"], 4) == [
        1, 0, -1, 0, F(11, 12)]
    assert orc.inverse_alexander_exp_jet(orc.TEXTBOOK_ALEXANDER["4_1"], 4) == [
        1, 0, 1, 0, F(13, 12)]


def test_sinh_ratio_and_quantum_integer_jets():
    order = 4
    unknot = orc.unknot_jet(order)
    assert [orc.peval(c, 1) for c in unknot] == [1, 0, 0, 0, 0]
    qint = orc.quantum_integer_jet(order)
    # [2] = q + 1/q = 2 cosh(h/2);  [3] = 1 + 2 cosh(h)
    assert [orc.peval(c, 2) for c in qint] == [2, 0, F(1, 4), 0, F(1, 192)]
    assert [orc.peval(c, 3) for c in qint] == [3, 0, 1, 0, F(1, 12)]


# ---------------------------------------------------------------------------
# Checks on package results
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pkg():
    return worker._import_package(os.path.dirname(BENCH))


def _entry(name):
    strands, letters = workloads.CATALOG[name]
    return {"name": name, "strands": strands, "letters": letters,
            "knot_type": workloads.KNOT_TYPE[name]}


def _spin_values(pkg, names):
    spec = {"workload": "spin-expansion", "order": workloads.SPIN_ORDER,
            "knots": [_entry(n) for n in names]}
    rnd = worker.Round()
    worker.run_spin(pkg, spec, rnd)
    return spec, worker.serialize_spin(rnd)


def _relabel(values, old, new):
    return {k.replace(f"{old}:", f"{new}:"): v for k, v in values.items()
            if k.startswith(f"{old}:")}


def test_spin_checks_accept_own_and_reject_other_knot(pkg):
    spec, values = _spin_values(pkg, ["unknot", "trefoil-right", "figure-eight"])
    assert checks.check_spin(spec, values, set()) == []
    for own, other in (("trefoil-right", "figure-eight"),
                       ("figure-eight", "trefoil-right"),
                       ("unknot", "trefoil-right")):
        one = dict(spec, knots=[_entry(own)])
        swapped = _relabel(values, other, own)
        assert checks.check_spin(one, swapped, set()), (own, other)


def test_spin_x_check_rejects_other_knot_alone(pkg):
    spec, values = _spin_values(pkg, ["trefoil-right", "figure-eight"])
    x_fig8 = checks._real_jet(values["figure-eight:x"], "x", [])
    delta_trefoil = orc.TEXTBOOK_ALEXANDER["3_1"]
    assert checks.check_x_structure(x_fig8, delta_trefoil, spec["order"], "x")
    x_trefoil = checks._real_jet(values["trefoil-right:x"], "x", [])
    assert checks.check_x_structure(x_trefoil, delta_trefoil, spec["order"], "x") == []


@pytest.fixture(scope="module")
def braid_run(pkg):
    spec = workloads.braid_spec(1)
    spec["words"] = [w for w in spec["words"]
                     if w["name"] in ("trefoil-right", "trefoil-left", "figure-eight")]
    rnd = worker.Round()
    worker.run_oracle_x(pkg, spec, rnd)
    x_oracle = {k: [[F(re) for re, _ in poly] for poly in worker._poly_series(v.series)]
                for k, v in rnd.raw.items()}
    rnd = worker.Round()
    worker.run_braid(pkg, spec, rnd)
    return spec, worker.serialize_braid(rnd, spec), x_oracle


def test_braid_checks_accept_own_results(braid_run):
    spec, values, x_oracle = braid_run
    assert checks.check_braid(spec, values, set(), x_oracle) == []


def test_braid_checks_reject_other_knot(braid_run):
    spec, values, x_oracle = braid_run
    swapped = dict(values)
    swapped.update(_relabel(values, "figure-eight", "trefoil-right"))
    problems = checks.check_braid(spec, swapped, set(), x_oracle)
    assert any("trefoil-right:p=2" in p for p in problems)
    assert any("trefoil-right:p=symbolic" in p for p in problems)
    # the Alexander diagonal alone also catches the swapped symbolic sum
    polys = [[checks._big(c) for c in poly] for poly in values["figure-eight:p=symbolic"]]
    import mpmath
    with mpmath.workdps(80):
        assert checks._check_symbolic_diagonal(
            "x", polys, orc.TEXTBOOK_ALEXANDER["3_1"], spec["order"],
            mpmath.mpf(10) ** -45)


def test_braid_checks_reject_other_knots_x(braid_run):
    spec, values, x_oracle = braid_run
    wrong = {"3_1": x_oracle["4_1"], "4_1": x_oracle["3_1"]}
    assert checks.check_braid(spec, values, set(), wrong)


def test_braid_check_rejects_other_closed_sum(braid_run):
    spec, values, x_oracle = braid_run
    spec = dict(spec, closed_ps=[2])
    values = dict(values, **{"closed:p=2": values["figure-eight:p=2"]})
    problems = checks.check_braid(spec, values, set(), x_oracle)
    assert any("trefoil_closed_sum" in p for p in problems)


def test_failed_operation_skips_its_checks(braid_run):
    spec, values, x_oracle = braid_run
    values = {k: v for k, v in values.items() if k != "trefoil-right:p=2"}
    assert checks.check_braid(spec, values, {"trefoil-right:p=2"}, x_oracle) == []
    with pytest.raises(KeyError):
        checks.check_braid(spec, values, set(), x_oracle)


@pytest.fixture(scope="module")
def weight_run(pkg):
    spec = workloads.weight_spec(1)
    rnd = worker.Round()
    worker.run_weights(pkg, spec, rnd)
    return spec, worker.serialize_weights(rnd, spec)


def test_weight_checks_accept_own_results(weight_run):
    spec, values = weight_run
    assert checks.check_weights(spec, values, set()) == []


def test_weight_checks_reject_wrong_values(weight_run):
    spec, values = weight_run
    basis = values["enumerate_diagrams:4"]
    a = basis[0]
    b = next(t for t in basis if values[f"fact:{t}:m=1"] != values[f"fact:{a}:m=1"])
    swapped = dict(values, **{f"fact:{a}:m=1": values[f"fact:{b}:m=1"]})
    assert any("Lorentz m=1 weight" in p for p in checks.check_weights(spec, swapped, set()))
    wrong = copy.deepcopy(values)
    wrong["casimir-left:2"] = values["casimir-left:1"]
    wrong["qdim:4"] = 5
    problems = checks.check_weights(spec, wrong, set())
    assert any("left Casimir" in p for p in problems)
    assert any("quotient dimension" in p for p in problems)
    zero = copy.deepcopy(values)
    for key in zero:
        if key.startswith(("sl2:", "fact:")):
            zero[key] = []
    problems = checks.check_weights(spec, zero, set())
    assert any("isolated chords" in p for p in problems)
