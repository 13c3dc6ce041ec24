import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.asymptotics import EpsGrid
from colombeau.errors import (
    AlignmentError,
    AtlasMismatch,
    BallEscapesChart,
    ConfigError,
    DimensionMismatch,
    NotModerate,
    OutsideDomain,
)
from colombeau.geometry import (
    Atlas,
    Chart,
    CompactSet,
    VBAtlas,
    affine_transition,
    constant_metric,
    euclidean_atlas,
    trivial_bundle,
)
from colombeau.manifold_maps import (
    ManifoldNet,
    compose,
    constant_gpoint,
    random_gpoints,
    single_chart_map,
)
from colombeau.bundle_maps import (
    FiberNet,
    VBGeneralizedPoint,
    _fiber_cutoff,
    align_representative,
    check_hybrid_equivalent,
    check_hybrid_moderate,
    check_hybrid_pointvalues,
    check_vb_equivalent,
    check_vb_moderate,
    compose_homs,
    compose_hybrid,
    constant_vb_point,
    fiber_values,
    hom_u_add,
    hom_u_scale,
    hybrid_point_value,
    identity_hom,
    matrix_net,
    section_net,
    single_chart_hom,
    single_chart_hybrid,
    tangent_map,
    vb_point_insert,
    vb_points_equivalent,
)
from colombeau import nets
from colombeau.nets import net_from_function

LINE = euclidean_atlas(1, 10.0)
TX = trivial_bundle(LINE, 1)
K1 = CompactSet("main", [(-1.0, 1.0)])
# kept coarse enough that exp(1/eps) stays inside float range
SHORT_GRID = EpsGrid.dyadic(4, 9)


def base_identity(label="id"):
    # exact jets keep the tangent map noise-free
    def jet(e, x, alpha):
        k = sum(alpha)
        if k == 0:
            return x
        out = np.zeros_like(x)
        if k == 1:
            out[...] = 1.0
        return out

    return single_chart_map(LINE, LINE, lambda e, x: x, jet=jet, label=label)


def scaled_hom(factor_fn, base=None, label=""):
    """Hom over TX whose matrix is factor_fn(eps) times the identity."""
    base = base or base_identity()

    def mat(e, x):
        return factor_fn(e) * np.ones(x.shape[:-1] + (1, 1))

    return single_chart_hom(TX, TX, base, mat, label=label)


def flat_metric(x):
    n = x.shape[-1]
    return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n)).copy()


def two_chart_bundle():
    """Line covered by two shifted charts; the fiber rescales by 2 across."""
    fwd = affine_transition(np.eye(1), [-1.0])
    back = affine_transition(np.eye(1), [1.0])
    base = Atlas(
        [Chart("A", [(-4.0, 2.0)]), Chart("B", [(-2.0, 4.0)])],
        transitions={("A", "B"): fwd, ("B", "A"): back},
        metric={"A": flat_metric, "B": flat_metric},
    )

    def double(x):
        return np.broadcast_to(2.0 * np.eye(1), x.shape[:-1] + (1, 1)).copy()

    def halve(x):
        return np.broadcast_to(0.5 * np.eye(1), x.shape[:-1] + (1, 1)).copy()

    vb = VBAtlas(base, 1, fiber_transitions={("A", "B"): double, ("B", "A"): halve})
    return base, vb


class TestHomConstruction:
    def test_apply_maps_base_and_fiber(self):
        h = identity_hom(TX)
        tgt, y, eta = h.apply(0.1, np.array([[0.5]]), np.array([[3.0]]))
        assert tgt == "main"
        assert np.allclose(y, [[0.5]])
        assert np.allclose(eta, [[3.0]])

    # each constructor check runs for both fiber shapes: (m_out, m_in)
    # matrices over a bundle source, (m_out,) vectors over a manifold source
    SOURCES = {"hom": TX, "hybrid": LINE}

    @staticmethod
    def constant_fiber(kind, value, rows=1):
        shape = (rows, 1) if kind == "hom" else (rows,)
        return matrix_net(
            lambda e, x: value * np.ones(x.shape[:-1] + shape), 1, shape,
            box=LINE.chart("main").box,
        )

    def test_fiber_shape_mismatch_rejected(self):
        for kind, src in self.SOURCES.items():
            bad = self.constant_fiber(kind, 1.0, rows=2)
            with pytest.raises(DimensionMismatch):
                FiberNet(src, TX, base_identity(), "main", bad)

    def test_unknown_vb_chart_rejected(self):
        for kind, src in self.SOURCES.items():
            m = self.constant_fiber(kind, 1.0)
            with pytest.raises(AtlasMismatch):
                FiberNet(src, TX, base_identity(), "elsewhere", m)

    def test_base_net_over_another_atlas_rejected(self):
        # a second euclidean line of the same dimension is another atlas
        other = euclidean_atlas(1, 10.0)
        for kind, src in self.SOURCES.items():
            m = self.constant_fiber(kind, 1.0)
            for base in (
                single_chart_map(other, LINE, lambda e, x: x),
                single_chart_map(LINE, other, lambda e, x: x),
            ):
                with pytest.raises(AtlasMismatch, match="base atlases"):
                    FiberNet(src, TX, base, "main", m)

    def test_other_source_chart_rejected(self):
        _, vb = two_chart_bundle()
        s = section_net(vb, lambda e, x: np.ones_like(x), chart="A")
        x = np.array([[0.5]])
        assert s.fiber_for("A") == ("A", s.fiber)
        assert np.array_equal(s.fiber_matrix(0.1, x, "A")[1], [[1.0]])
        with pytest.raises(AtlasMismatch, match="source chart 'A', not 'B'"):
            s.fiber_for("B")
        with pytest.raises(AtlasMismatch):
            s.fiber_matrix(0.1, x, "B")
        with pytest.raises(AtlasMismatch):
            s.apply(0.1, x, src_chart="B")


class TestVBModerate:
    def test_identity_hom_is_order_zero(self):
        rep = check_vb_moderate(identity_hom(TX), K1)
        assert rep.verdict.classification == "moderate"
        assert rep.verdict.order == 0

    def test_inverse_square_scaling_is_order_two(self):
        const = single_chart_map(
            LINE, LINE, lambda e, x: np.zeros_like(x), label="const0"
        )
        h = scaled_hom(lambda e: e**-2, base=const, label="eps-2")
        rep = check_vb_moderate(h, K1)
        assert rep.verdict.classification == "moderate"
        assert rep.verdict.order == 2

    def test_exponential_scaling_is_neither(self):
        h = scaled_hom(lambda e: np.exp(1.0 / e), label="wild")
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_vb_moderate(h, K1, grid=SHORT_GRID)
        assert rep.verdict.classification == "neither"
        assert not rep

    def test_verdict_stable_under_jet_order(self):
        h = scaled_hom(lambda e: e**-2, label="eps-2")
        r0 = check_vb_moderate(h, K1, k_max=0)
        r2 = check_vb_moderate(h, K1, k_max=2)
        assert r0.verdict.classification == r2.verdict.classification


class TestVBEquivalence:
    def test_negligible_perturbation_is_equivalent(self):
        h = identity_hom(TX)
        pert = scaled_hom(lambda e: 1.0 + np.exp(-1.0 / e), label="pert")
        rep = check_vb_equivalent(h, pert, K1)
        assert rep
        assert rep.route_chart and rep.route_bank
        assert not rep.fiber_vacuous

    def test_eps_scaling_is_not_equivalent(self):
        h = identity_hom(TX)
        scaled = scaled_hom(lambda e: 1.0 + e, label="scaled")
        assert not check_vb_equivalent(h, scaled, K1)

    def test_reflexive(self):
        h = scaled_hom(lambda e: 2.0, label="two")
        assert check_vb_equivalent(h, h, K1)

    def test_negative_derivative_order_is_rejected(self):
        h = identity_hom(TX)
        with pytest.raises(
            ConfigError, match="derivative_order must be >= 0, got -1"
        ):
            check_vb_equivalent(h, h, K1, derivative_order=-1)

    def test_verdict_ignores_derivative_order(self):
        h = identity_hom(TX)
        pert = scaled_hom(lambda e: 1.0 + np.exp(-1.0 / e), label="pert")
        scaled = scaled_hom(lambda e: 1.0 + e, label="scaled")
        for a, b in ((h, pert), (h, scaled)):
            r0 = check_vb_equivalent(a, b, K1, derivative_order=0)
            r2 = check_vb_equivalent(a, b, K1, derivative_order=2)
            assert r0.equivalent == r2.equivalent

    def test_not_moderate_raises(self):
        h = identity_hom(TX)
        wild = scaled_hom(lambda e: np.exp(1.0 / e), label="wild")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotModerate):
                check_vb_equivalent(h, wild, K1, grid=SHORT_GRID)

    def test_swapping_the_pair_keeps_every_route(self):
        # the base witnesses differ, [-1.2, 1.2] for x and [-0.6, 0.6] for
        # x/2; a test-hom cutoff built on the second alone is not 1 at every
        # image of the first, and the fiber routes would split
        half = single_chart_map(LINE, LINE, lambda e, x: 0.5 * x, label="half")
        u = scaled_hom(lambda e: 1.0, label="u")
        v = scaled_hom(lambda e: 1.0, base=half, label="v")
        uv = check_vb_equivalent(u, v, K1)
        vu = check_vb_equivalent(v, u, K1)
        assert (uv.equivalent, uv.route_chart, uv.route_bank) == (
            vu.equivalent, vu.route_chart, vu.route_bank
        )
        assert not uv.equivalent and uv.route_chart and uv.route_bank

    @settings(max_examples=4, deadline=None)
    @given(scale=st.floats(0.1, 50.0))
    def test_routes_agree_for_any_negligible_scale(self, scale):
        h = identity_hom(TX)
        pert = scaled_hom(
            lambda e: 1.0 + scale * np.exp(-1.0 / e), label="scaled-pert"
        )
        rep = check_vb_equivalent(h, pert, K1)
        assert rep.route_chart == rep.route_bank
        assert rep


class TestFiberCutoff:
    def test_one_near_the_witness_centre_and_zero_off_its_support(self):
        # witness [-1, 1]: the bump is 1 within 0.9 of 0 and 0 beyond 1.5
        witness = CompactSet("main", [(-1.0, 1.0)])
        pts = np.array([[-0.5], [0.0], [0.8], [1.6], [3.0]])
        cutoff = _fiber_cutoff(LINE, witness, pts, "main")
        assert cutoff(base_identity(), 0.5).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_support_escaping_the_chart_is_rejected(self):
        # the ball around the widest axis does not fit the narrow one
        flat = Atlas([Chart("main", [(-2.0, 2.0), (-0.5, 0.5)])])
        witness = CompactSet("main", [(-1.0, 1.0), (-0.1, 0.1)])
        with pytest.raises(BallEscapesChart):
            _fiber_cutoff(flat, witness, witness.sample_points(), "main")


class TestTangentMap:
    def test_square_map_has_doubling_jacobian(self):
        sq = single_chart_map(LINE, LINE, lambda e, x: x**2, label="sq")
        T = tangent_map(sq)
        _, M = T.fiber_matrix(0.25, np.array([[0.5], [2.0]]))
        assert np.allclose(M.ravel(), [1.0, 4.0], atol=1e-7)

    def test_step_tangent_concentrates(self):
        step = single_chart_map(
            LINE,
            LINE,
            lambda e, x: 0.5 * (1.0 + np.tanh(np.clip(x / e, -50, 50))),
            label="step",
        )
        T = tangent_map(step)
        eps = 0.01
        _, M0 = T.fiber_matrix(eps, np.array([[0.0]]))
        assert np.isclose(M0.ravel()[0], 0.5 / eps, rtol=1e-4)
        _, M1 = T.fiber_matrix(eps, np.array([[0.5]]))
        assert abs(M1.ravel()[0]) < 1e-8

    def test_fiber_takes_the_base_jet_rule(self, monkeypatch):
        # the Jacobian goes through the base handle's jet rule where it has
        # one: the fiber of e*sin(x/e) is cos(x/e), with no finite difference
        def jet(e, x, alpha):
            k = alpha[0]
            table = [np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)]
            return e ** (1 - k) * table[k % 4](x / e)

        fd_calls = []
        fd = nets.finite_difference_jet
        monkeypatch.setattr(
            nets, "finite_difference_jet", lambda *a: fd_calls.append(a) or fd(*a)
        )
        wave = single_chart_map(
            LINE, LINE, lambda e, x: e * np.sin(x / e), jet=jet, label="wave"
        )
        T = tangent_map(wave)
        x = np.linspace(-1.0, 1.0, 41)[:, None]
        for eps in SHORT_GRID:
            _, M = T.fiber_matrix(eps, x)
            assert M.shape == (41, 1, 1)
            assert np.array_equal(
                M[..., 0].view(np.uint64), jet(eps, x, (1,)).view(np.uint64)
            )
        assert fd_calls == []

    def test_identity_tangent_is_identity_hom(self):
        T = tangent_map(base_identity())
        assert check_vb_equivalent(T, identity_hom(TX), K1)

    def test_chain_rule_up_to_equivalence(self):
        sq = single_chart_map(LINE, LINE, lambda e, x: x**2, label="sq")
        shift = single_chart_map(LINE, LINE, lambda e, x: x + 1.0, label="shift")
        lhs = tangent_map(compose(sq, shift))
        rhs = compose_homs(tangent_map(sq), tangent_map(shift))
        assert check_vb_equivalent(lhs, rhs, K1)


class TestPointInsertion:
    def test_identity_hom_leaves_points(self):
        p = constant_vb_point(K1, [0.5], [3.0])
        out = vb_point_insert(identity_hom(TX), p)
        assert vb_points_equivalent(TX, out, p)

    def test_inverse_scaling_recovers_unit_fiber(self):
        h = scaled_hom(lambda e: 1.0 / e, label="inv")
        p = VBGeneralizedPoint(
            lambda e: (np.array([0.5]), np.array([2.0 * e])), K1
        )
        out = vb_point_insert(h, p)
        assert vb_points_equivalent(TX, out, constant_vb_point(K1, [0.5], [2.0]))

    def test_zero_hom_sends_fiber_to_zero(self):
        h = scaled_hom(lambda e: 0.0, label="zero")
        p = constant_vb_point(K1, [0.3], [7.0])
        out = vb_point_insert(h, p)
        _, _, eta = out.at(0.05)
        assert np.allclose(eta, 0.0)

    def test_same_point_in_two_charts_is_equivalent(self):
        # base charts a and b = a + 10: moving the chart-b point back to a
        # is off by ulps of 10, which count as a measured zero
        unit = constant_metric([[1.0]])
        base = Atlas(
            [Chart("a", [(-3.0, 3.0)]), Chart("b", [(7.0, 13.0)])],
            transitions={
                ("a", "b"): affine_transition(np.eye(1), np.array([10.0])),
                ("b", "a"): affine_transition(np.eye(1), np.array([-10.0])),
            },
            metric={"a": unit, "b": unit},
        )
        one = lambda x: np.ones(np.shape(x)[:-1] + (1, 1))  # noqa: E731
        vb = VBAtlas(base, 1, fiber_transitions={("a", "b"): one, ("b", "a"): one})
        L = CompactSet("a", [(-1.0, 1.0)])
        x = np.array([0.1])
        assert (x + 10.0) - 10.0 != x  # the round trip really loses bits
        p = VBGeneralizedPoint(lambda e: ("a", x, np.array([2.0])), L)
        q = VBGeneralizedPoint(lambda e: ("b", x + 10.0, np.array([2.0])), L)
        assert vb_points_equivalent(vb, p, q)
        moved = VBGeneralizedPoint(
            lambda e: ("b", x + 10.0 + e, np.array([2.0])), L
        )
        assert not vb_points_equivalent(vb, p, moved)

    def test_growing_fiber_point_rejected(self):
        p = VBGeneralizedPoint(
            lambda e: (np.array([0.0]), np.array([np.exp(1.0 / e)])), K1
        )
        with np.errstate(over="ignore"):
            with pytest.raises(NotModerate):
                p.check(grid=SHORT_GRID)

    def test_escaping_base_point_rejected(self):
        p = VBGeneralizedPoint(
            lambda e: (np.array([1.0 / e]), np.array([1.0])), K1
        )
        with pytest.raises(OutsideDomain):
            p.check(grid=SHORT_GRID)


class TestComposition:
    def test_constant_bases_multiply_matrices(self):
        a = scaled_hom(lambda e: 3.0, label="A")
        b = scaled_hom(lambda e: 5.0, label="B")
        _, M = compose_homs(a, b).fiber_matrix(0.1, np.array([[0.2]]))
        assert np.allclose(M.ravel(), [15.0])

    def test_identity_composition_is_equivalent(self):
        a = scaled_hom(lambda e: 3.0, label="A")
        assert check_vb_equivalent(compose_homs(a, identity_hom(TX)), a, K1)

    def test_well_defined_under_negligible_perturbation(self):
        a = scaled_hom(lambda e: 3.0, label="A")
        a_pert = scaled_hom(lambda e: 3.0 + np.exp(-1.0 / e), label="A'")
        b = scaled_hom(lambda e: 5.0, label="B")
        assert check_vb_equivalent(compose_homs(a, b), compose_homs(a_pert, b), K1)

    def test_middle_bundle_mismatch_raises(self):
        plane = euclidean_atlas(2, 10.0)
        t2 = trivial_bundle(plane, 2)
        into_plane = single_chart_map(
            LINE, plane, lambda e, x: np.concatenate([x, x], axis=-1)
        )
        widen = FiberNet(
            TX,
            t2,
            into_plane,
            "main",
            matrix_net(
                lambda e, x: np.ones(x.shape[:-1] + (2, 1)),
                1,
                (2, 1),
                box=LINE.chart("main").box,
            ),
        )
        a = scaled_hom(lambda e: 3.0, label="A")
        with pytest.raises(AtlasMismatch):
            compose_homs(widen, a)

    def test_hybrid_after_net_into_another_atlas_raises(self):
        other = euclidean_atlas(1, 10.0)
        s = section_net(TX, lambda e, x: np.ones_like(x), label="one")
        with pytest.raises(AtlasMismatch, match="middle atlases"):
            compose_hybrid(single_chart_map(LINE, other, lambda e, x: x), s)

    def test_blowup_composite_rejected(self):
        a = scaled_hom(lambda e: 3.0, label="A")
        wild = scaled_hom(lambda e: np.exp(1.0 / e), label="wild")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotModerate):
                compose_homs(a, wild)


class TestHybrids:
    def test_oscillating_section_moderate_but_not_null(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        zero = section_net(TX, lambda e, x: np.zeros_like(x), label="zero")
        assert check_hybrid_moderate(s, K1)
        assert not check_hybrid_equivalent(s, zero, K1)

    def test_exponential_fiber_shift_is_equivalent(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        shifted = section_net(
            TX, lambda e, x: e * np.sin(x / e) + np.exp(-1.0 / e), label="s+"
        )
        rep = check_hybrid_equivalent(s, shifted, K1)
        assert rep
        assert rep.route_chart == rep.route_bank

    def test_base_perturbed_by_eps_not_equivalent(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        moved = single_chart_hybrid(
            LINE,
            TX,
            single_chart_map(LINE, LINE, lambda e, x: x + e, label="id+eps"),
            lambda e, x: e * np.sin(x / e),
            label="moved",
        )
        assert not check_hybrid_equivalent(s, moved, K1)

    def test_negative_derivative_order_is_rejected(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        with pytest.raises(
            ConfigError, match="derivative_order must be >= 0, got -1"
        ):
            check_hybrid_equivalent(s, s, K1, derivative_order=-1)

    def test_verdict_ignores_derivative_order(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        shifted = section_net(
            TX, lambda e, x: e * np.sin(x / e) + np.exp(-1.0 / e), label="s+"
        )
        r0 = check_hybrid_equivalent(s, shifted, K1, derivative_order=0)
        r2 = check_hybrid_equivalent(s, shifted, K1, derivative_order=2)
        assert r0.equivalent == r2.equivalent

    def test_compose_with_identity_base(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        assert check_hybrid_equivalent(
            compose_hybrid(base_identity(), s), s, K1
        )

    def test_identity_hom_after_hybrid(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        assert check_hybrid_equivalent(
            compose_homs(s, identity_hom(TX)), s, K1
        )


class TestHybridPointValues:
    def test_constant_section_gives_constant_point(self):
        s = section_net(TX, lambda e, x: 4.0 * np.ones_like(x), label="four")
        val = hybrid_point_value(s, constant_gpoint(K1, [0.25]))
        cid, x, xi = val.at(0.01)
        assert cid == "main"
        assert np.allclose(x, [0.25]) and np.allclose(xi, [4.0])

    def test_eps_section_separates_from_zero_at_origin(self):
        s_eps = section_net(TX, lambda e, x: e * np.ones_like(x), label="eps")
        zero = section_net(TX, lambda e, x: np.zeros_like(x), label="zero")
        p0 = constant_gpoint(K1, [0.0])
        v1 = hybrid_point_value(s_eps, p0)
        _, _, xi = v1.at(0.125)
        assert np.allclose(xi, [0.125])
        assert not vb_points_equivalent(TX, v1, hybrid_point_value(zero, p0))
        ok, info = check_hybrid_pointvalues(s_eps, zero, [p0], L=K1)
        assert not ok
        assert info["failed_points"]

    def test_equal_hybrids_have_equal_values(self):
        s = section_net(TX, lambda e, x: e * np.sin(x / e), label="s")
        shifted = section_net(
            TX, lambda e, x: e * np.sin(x / e) + np.exp(-1.0 / e), label="s+"
        )
        pts = random_gpoints(K1, 6, seed=3)
        ok, info = check_hybrid_pointvalues(s, shifted, pts, L=K1)
        assert ok
        assert info["tested"] == 7


class TestAlignment:
    def test_single_chart_rebase_is_bitwise(self):
        u_rep = base_identity()
        pert_base = single_chart_map(
            LINE, LINE, lambda e, x: x + np.exp(-1.0 / e), label="id+exp"
        )
        v = single_chart_hom(
            TX, TX, pert_base, lambda e, x: 2.0 + x[..., :1, None], label="v"
        )
        a = align_representative(v, u_rep, K1)
        assert a.base_net is u_rep
        eps = 0.01
        pts = np.array([[0.3], [-0.7]])
        _, ya = a.base_net.eval(eps, pts)
        _, yr = u_rep.eval(eps, pts)
        assert np.array_equal(ya, yr)
        old = fiber_values(v.fiber_for("main")[1], eps, pts)
        new = fiber_values(a.fiber_for("main")[1], eps, pts)
        assert np.array_equal(old, new)
        assert check_vb_equivalent(a, v, K1)

    def test_threshold_and_passthrough_recorded(self):
        u_rep = base_identity()
        drift = single_chart_map(LINE, LINE, lambda e, x: x + e, label="id+eps")
        v = single_chart_hom(
            TX, TX, drift, lambda e, x: np.ones(x.shape[:-1] + (1, 1)), label="v"
        )
        a = align_representative(v, u_rep, K1, radius=0.01)
        assert a.alignment.eps_threshold < 0.01
        assert a.alignment.passthrough

    def test_unreachable_threshold_raises(self):
        u_rep = base_identity()
        far = single_chart_map(LINE, LINE, lambda e, x: x + 5.0, label="id+5")
        v = single_chart_hom(
            TX, TX, far, lambda e, x: np.ones(x.shape[:-1] + (1, 1)), label="v"
        )
        with pytest.raises(AlignmentError):
            align_representative(v, u_rep, K1, radius=1.0)

    def test_multi_chart_transport(self):
        base, vb = two_chart_bundle()
        u_rep = ManifoldNet(
            LINE,
            base,
            "main",
            "A",
            net_from_function(
                lambda e, x: x, 1, 1, box=LINE.chart("main").box, label="id"
            ),
            label="id",
        )
        vbase = ManifoldNet(
            LINE,
            base,
            "main",
            "A",
            net_from_function(
                lambda e, x: x + np.exp(-1.0 / e),
                1,
                1,
                box=LINE.chart("main").box,
                label="pert",
            ),
            label="pert",
        )
        fib = matrix_net(
            lambda e, x: 2.0 + x[..., :1, None], 1, (1, 1),
            box=LINE.chart("main").box, label="M",
        )
        v = FiberNet(trivial_bundle(LINE, 1), vb, vbase, "A", fib)
        cores = [CompactSet("A", [(-1.4, 1.4)]), CompactSet("B", [(-1.9, 0.9)])]
        a = align_representative(v, u_rep, K1, cores=cores)
        assert a.base_net is u_rep
        assert a.alignment.radius == pytest.approx(1.5)
        assert check_vb_equivalent(a, v, K1)


class TestHomModule:
    def test_additive_inverse_gives_zero_fiber(self):
        u_rep = base_identity()
        v = single_chart_hom(
            TX, TX, u_rep, lambda e, x: 2.0 + x[..., :1, None], label="v"
        )
        summed = hom_u_add(v, hom_u_scale(-1.0, v), u_rep, K1)
        vals = fiber_values(
            summed.fiber_for("main")[1], 0.02, np.array([[0.5], [-0.3]])
        )
        assert np.allclose(vals, 0.0)

    def test_unit_scale_is_equivalent(self):
        u_rep = base_identity()
        v = single_chart_hom(
            TX, TX, u_rep, lambda e, x: 2.0 + x[..., :1, None], label="v"
        )
        assert check_vb_equivalent(hom_u_scale(1.0, v, u_rep, K1), v, K1)

    def test_addition_commutes(self):
        u_rep = base_identity()
        v = single_chart_hom(
            TX, TX, u_rep, lambda e, x: 2.0 + x[..., :1, None], label="v"
        )
        w = single_chart_hom(
            TX, TX, u_rep, lambda e, x: np.ones(x.shape[:-1] + (1, 1)), label="w"
        )
        assert check_vb_equivalent(
            hom_u_add(v, w, u_rep, K1), hom_u_add(w, v, u_rep, K1), K1
        )

    def test_scaling_without_region_raises(self):
        v = single_chart_hom(
            TX, TX, base_identity(), lambda e, x: np.ones(x.shape[:-1] + (1, 1))
        )
        with pytest.raises(AlignmentError):
            hom_u_scale(2.0, v, base_identity())
