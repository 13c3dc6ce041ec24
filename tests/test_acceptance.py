"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the tolerances coded in the runner and
prints the one-line verdict so a verbose run reads as a checklist.
"""

from colombeau import acceptance


def _run(fn):
    res = fn()
    print(f"{res.index:2d} {res.name}: {res.detail}")
    assert res.passed, res.detail
    return res


def test_01_order_calibration():
    res = _run(acceptance.criterion_order_calibration)
    assert "moderate(3)" in res.detail
    assert "negligible(2)" in res.detail


def test_02_route_agreement():
    res = _run(acceptance.criterion_route_agreement)
    assert "12/12" in res.detail


def test_03_vanishing_pair():
    res = _run(acceptance.criterion_vanishing_pair)
    assert "equivalent: False" in res.detail
    assert "0-associated: True" in res.detail


def test_04_step_powers():
    _run(acceptance.criterion_step_powers)


def test_05_mollifier_sensitivity():
    res = _run(acceptance.criterion_mollifier_sensitivity)
    assert "squares associated: False" in res.detail


def test_06_well_definedness():
    res = _run(acceptance.criterion_well_definedness)
    assert "5/5" in res.detail


def test_07_point_separation():
    res = _run(acceptance.criterion_point_separation)
    assert "6/6" in res.detail


def test_08_alignment_and_module_axioms():
    _run(acceptance.criterion_alignment)


def test_09_derivative_order_collapse():
    res = _run(acceptance.criterion_order_collapse)
    assert "6/6" in res.detail


def test_10_impulsive_wave_kink():
    res = _run(acceptance.criterion_kink)
    assert "c-bounded: True" in res.detail
