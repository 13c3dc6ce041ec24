"""Association verdicts do not depend on the scale of the test functions.

The paper's association reads nets through smooth test functions, and a
verdict cannot change when a test function is multiplied by a constant.
Each check below runs twice: once as built, and once with every bank test
(``check_k_associated``) or every density's pairing
(``check_associated_zero``) scaled by 10.  The verdicts, their routes and
their rows must agree.  The catalog is the association checks of the
acceptance criteria and of the CLI's built-in config, plus an O(eps)
perturbation of a config expression net.
"""

import pytest

from colombeau import association, geometry
from colombeau.association import (
    check_associated_zero,
    check_k_associated,
    embed_distribution,
    sharp_mollifier,
    standard_mollifier,
)
from colombeau.cli import load_config
from colombeau.geometry import CompactSet, default_densities, euclidean_atlas
from colombeau.manifold_maps import single_chart_map
from colombeau.nets import net_from_function

SCALE = 10.0
LINE = euclidean_atlas(1)
K1 = CompactSet("main", [(-1.0, 1.0)])


def _vanishing_pair():
    """Acceptance criterion 3: eps x against eps^2 x^2."""
    u = single_chart_map(LINE, LINE, lambda e, x: e * x, label="eps-x")
    v = single_chart_map(LINE, LINE, lambda e, x: e**2 * x**2, label="eps2-x2")
    return u, v, K1, {}


def _config_pair(names, ini=None):
    def make(tmp_path):
        path = None
        if ini is not None:
            path = tmp_path / "pair.ini"
            path.write_text(ini)
            path = str(path)
        cfg = load_config(path)
        u, v = (cfg.map_net(n) for n in names)
        return u, v, cfg.region, {"grid": cfg.grid, "assoc_tol": cfg.assoc_tol}

    return make


# an O(eps) perturbation through the CLI config path
EPS1_INI = "[net:base]\nexpr = 0.8*x + 0.4\n\n[net:moved]\nexpr = 0.8*x + 0.4 + 0.6*eps*(x)\n"

PAIRS = {
    "eps*x vs eps^2*x^2": lambda tmp_path: _vanishing_pair(),
    "config linear vs quadratic": _config_pair(("linear", "quadratic")),
    "config sine vs sine_tail": _config_pair(("sine", "sine_tail")),
    "O(eps) perturbation": _config_pair(("base", "moved"), EPS1_INI),
}


def _heaviside_defect():
    """Acceptance criterion 4: H^2 - H of the mollified step."""
    heavi = embed_distribution("heaviside", standard_mollifier(), LINE)
    net = net_from_function(
        lambda e, x: heavi.at(e)(x) ** 2 - heavi.at(e)(x), 1, 1, box=[(-10, 10)],
        label="step-defect", feature_scale=heavi.feature_scale,
    )
    return net, default_densities(), {}


def _spike_gaps(power):
    """Acceptance criterion 5: the gap between two mollified deltas, or
    between their squares, against nu0."""
    d1 = embed_distribution("delta", standard_mollifier(), LINE)
    d2 = embed_distribution("delta", sharp_mollifier(), LINE)
    net = net_from_function(
        lambda e, x: d1.at(e)(x) ** power - d2.at(e)(x) ** power, 1, 1,
        box=[(-10, 10)], label=f"gap-{power}", feature_scale=d1.feature_scale,
    )
    return net, default_densities()[:1], {}


def _config_zero(name):
    cfg = load_config(None)
    return (cfg.scalar_net(name), default_densities(),
            {"grid": cfg.grid, "assoc_tol": cfg.assoc_tol})


ZEROS = {
    "step defect": _heaviside_defect,
    "spike gap": lambda: _spike_gaps(1),
    "squared spike gap": lambda: _spike_gaps(2),
    "config quadratic": lambda: _config_zero("quadratic"),
    "config sine": lambda: _config_zero("sine"),
}


def _pair_verdict(rep):
    return (rep.associated, rep.route_distance, rep.route_bank,
            [(label, ok) for label, _, ok, _ in rep.rows])


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_bank_scale_moves_no_k_association(pair, monkeypatch, tmp_path):
    u, v, K, kw = PAIRS[pair](tmp_path)
    want = _pair_verdict(check_k_associated(u, v, 0, K, **kw))
    evaluate = geometry.TestBank.eval
    monkeypatch.setattr(
        geometry.TestBank, "eval", lambda bank, y: SCALE * evaluate(bank, y)
    )
    u, v, K, kw = PAIRS[pair](tmp_path)  # fresh nets: the pair memo holds bank rows
    got = _pair_verdict(check_k_associated(u, v, 0, K, **kw))
    assert got == want
    assert want[:3] == (True, True, True)  # each pair is 0-associated


@pytest.mark.parametrize("case", sorted(ZEROS))
def test_density_scale_moves_no_zero_association(case, monkeypatch):
    # a density scaled by 10 scales each pairing by 10, and the transform is
    # applied there: the quadrature's absolute tolerance would also scale
    # the work, and a squared spike gap against 2 nu0 already runs out of
    # memory
    net, densities, kw = ZEROS[case]()
    want = check_associated_zero(net, densities, **kw)
    pairings = association._pairings

    def scaled(*args):
        values, failure = pairings(*args)
        return SCALE * values, failure

    monkeypatch.setattr(association, "_pairings", scaled)
    got = check_associated_zero(net, densities, **kw)
    assert bool(got) == bool(want)
    assert [(r.ok, r.decreasing) for r in got.rows] == [
        (r.ok, r.decreasing) for r in want.rows
    ]
    assert [r.final for r in got.rows] == [SCALE * r.final for r in want.rows]
