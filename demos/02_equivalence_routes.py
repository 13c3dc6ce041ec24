"""Equivalence of manifold-valued nets, checked three independent ways.

Two nets are equivalent when their pointwise distance is negligible.
The checker runs a chord-distance route, a test-function-bank route,
and a raw chart-difference route; the three verdicts must agree, and a
pair that fails is separated by an adversarially chosen generalized
point that chases the largest difference as eps shrinks.

Point values do not depend on the chart a net is written in: the same map
written into two charts of a target atlas takes equal values at every
generalized point.
"""

import numpy as np

from colombeau.geometry import (
    Atlas,
    Chart,
    CompactSet,
    affine_transition,
    constant_metric,
    euclidean_atlas,
)
from colombeau.manifold_maps import (
    GeneralizedManifoldPoint,
    check_equivalent,
    check_pointvalue_equality,
    gpoints_equivalent,
    point_value,
    random_gpoints,
    single_chart_map,
)

LINE = euclidean_atlas(1)
K = CompactSet("main", [(-1.0, 1.0)])

pairs = [
    ("sin(x)", "sin(x) + exp(-1/eps)",
     lambda e, x: np.sin(x), lambda e, x: np.sin(x) + np.exp(-1.0 / e)),
    ("eps*x", "eps*x + eps*cos(x)",
     lambda e, x: e * x, lambda e, x: e * x + e * np.cos(x)),
    ("x", "2x",
     lambda e, x: x, lambda e, x: 2.0 * x),
]

for name_u, name_v, fu, fv in pairs:
    u = single_chart_map(LINE, LINE, fu, label=name_u)
    v = single_chart_map(LINE, LINE, fv, label=name_v)
    rep = check_equivalent(u, v, K)
    print(f"{name_u}  vs  {name_v}")
    print(f"    distance route {rep.route_distance}, "
          f"bank route {rep.route_bank}, chart route {rep.route_chart}"
          f"  ->  {'equivalent' if rep.equivalent else 'not equivalent'}")
    if not rep.equivalent:
        same, info = check_pointvalue_equality(u, v, [], K=K)
        print(f"    adversarial generalized point separates them: {not same}")
    print()

print("chart independence: 0.5 sin(x) written into charts a and b = a + 10")
TWO_CHARTS = Atlas(
    [Chart("a", [(-3.0, 3.0)]), Chart("b", [(7.0, 13.0)])],
    transitions={
        ("a", "b"): affine_transition(np.eye(1), np.array([10.0])),
        ("b", "a"): affine_transition(np.eye(1), np.array([-10.0])),
    },
    metric={"a": constant_metric([[1.0]]), "b": constant_metric([[1.0]])},
)
in_a = single_chart_map(LINE, TWO_CHARTS, lambda e, x: 0.5 * np.sin(x),
                        tgt_chart="a", label="in a")
in_b = single_chart_map(LINE, TWO_CHARTS, lambda e, x: 0.5 * np.sin(x) + 10.0,
                        tgt_chart="b", label="in b")
same, info = check_pointvalue_equality(in_a, in_b, random_gpoints(K, 5), K=K)
print(f"    equal point values at {info['tested']} generalized points: {same}")
moving = GeneralizedManifoldPoint(lambda e: np.array([0.3 + e]), K, label="0.3+eps")
print("    and at the moving point 0.3 + eps:", gpoints_equivalent(
    TWO_CHARTS, point_value(in_a, moving), point_value(in_b, moving)))
