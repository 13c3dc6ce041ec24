"""Vector-bundle homomorphisms over generalized base maps.

A hom net carries a base map together with fiber matrices.  Two homs
over slightly different bases can still be compared: alignment rebases
one onto the other's representative (base evaluations become bitwise
equal), after which fiberwise sum and scalar multiple are defined.  The
equivalence verdict is the same whether fiber jets are compared to
order 0 or order 2.

Tangent maps compose like their base maps (the chain rule holds up to
equivalence), homs act on generalized bundle points, and hybrid nets such
as generalized sections are determined by their values at generalized
points.
"""

import numpy as np

from colombeau.bundle_maps import (
    check_hybrid_pointvalues,
    check_vb_equivalent,
    compose_homs,
    constant_vb_point,
    hom_u_add,
    hybrid_point_value,
    hom_u_scale,
    section_net,
    single_chart_hom,
    tangent_map,
    vb_point_insert,
    vb_points_equivalent,
)
from colombeau.geometry import CompactSet, euclidean_atlas, trivial_bundle
from colombeau.manifold_maps import (
    compose,
    constant_gpoint,
    identity_map,
    random_gpoints,
    single_chart_map,
)

LINE = euclidean_atlas(1)
TX = trivial_bundle(LINE, 1)
K = CompactSet("main", [(-1.0, 1.0)])

base = identity_map(LINE)
drifted = single_chart_map(
    LINE, LINE, lambda e, x: x + np.exp(-1.0 / e), label="id+tail"
)

v = single_chart_hom(TX, TX, drifted, lambda e, x: 2.0 + np.sin(x), label="v")
w = single_chart_hom(TX, TX, base, lambda e, x: 1.0 + 0.5 * x, label="w")

print("alignment: rebasing v (base id + negligible drift) onto id")
from colombeau.bundle_maps import align_representative

aligned = align_representative(v, base, K)
print("    aligned base is the target representative:",
      aligned.base_net is base)
print("    aligned hom still equivalent to v:",
      check_vb_equivalent(aligned, v, K).equivalent)

print("\nmodule operations over the shared base")
s = hom_u_add(v, w, base, K)
s_flip = hom_u_add(w, v, base, K)
print("    v + w  ~  w + v :", check_vb_equivalent(s, s_flip, K).equivalent)
tw = hom_u_scale(2.0, w)
x, xi = np.array([[0.3]]), np.array([[1.0]])
print("    2*(w) doubles what w does to a fiber vector:",
      np.allclose(tw.apply(0.25, x, xi, "main")[2], 2 * w.apply(0.25, x, xi, "main")[2]))

print("\nderivative-order collapse: order-0 and order-2 verdicts agree")
for label, other in [
    ("same fiber + negligible", single_chart_hom(
        TX, TX, base, lambda e, x: 1.0 + 0.5 * x + np.exp(-1.0 / e), label="w'")),
    ("fiber off by eps*x", single_chart_hom(
        TX, TX, base, lambda e, x: 1.0 + 0.5 * x + e * x, label="w''")),
]:
    v0 = check_vb_equivalent(w, other, K, derivative_order=0).equivalent
    v2 = check_vb_equivalent(w, other, K, derivative_order=2).equivalent
    print(f"    {label}: order0={v0} order2={v2}")

print("\ntangent functor: T(sq o shift) ~ T(sq) o T(shift)")
sq = single_chart_map(LINE, LINE, lambda e, x: x**2, label="sq")
shift = single_chart_map(LINE, LINE, lambda e, x: x + 1.0, label="shift")
chain = check_vb_equivalent(
    tangent_map(compose(sq, shift)),
    compose_homs(tangent_map(sq), tangent_map(shift)), K,
)
print("    chain rule holds up to equivalence:", chain.equivalent)

print("\nhom acting on a generalized bundle point")
p = constant_vb_point(K, [0.5], [3.0], label="p")
wp = vb_point_insert(w, p)
_, x, xi = wp.at(0.01)
print(f"    w(p) = ({x[0]:.3f}; {xi[0]:.3f}), fiber 3 * (1 + 0.5 * 0.5) = 3.75")
print("    w(p) is a bundle point with moderate fiber:", wp.check())
print("    w(p) ~ (0.5; 3.75):",
      vb_points_equivalent(TX, wp, constant_vb_point(K, [0.5], [3.75])))

print("\nsections are determined by their point values")
s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
s_tail = section_net(
    TX, lambda e, x: e * np.sin(x / e) + np.exp(-1.0 / e), label="s+tail")
same, info = check_hybrid_pointvalues(s, s_tail, random_gpoints(K, 6), L=K)
print(f"    s and s + exp(-1/eps) agree at {info['tested']} generalized points: "
      f"{same}")
p0 = constant_gpoint(K, [0.25], label="0.25")
print("    s(0.25) ~ (s + exp(-1/eps))(0.25):", vb_points_equivalent(
    TX, hybrid_point_value(s, p0), hybrid_point_value(s_tail, p0)))
