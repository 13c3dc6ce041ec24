import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.errors import DimensionMismatch, OutsideDomain
from colombeau.nets import (
    _FD_NOISE_C,
    _RICHARDSON_LEVELS,
    CHAIN_ORDER_CAP,
    compose_nets,
    constant_net,
    fd_step,
    finite_difference_jet,
    identity_handle,
    make_handle,
    net_from_function,
)
from oracles import fd_jet_reference, handle_product


def slice_jet(net, eps, x, alpha):
    """The jet of the eps-slice the way the checkers take it."""
    return net.at(eps).jet(x, alpha, fd_step(eps))


def square_net():
    return net_from_function(lambda eps, x: x**2, 1, 1, box=[(-5, 5)], label="x^2")


def oscillator_net(analytic=True):
    jet = None
    if analytic:
        def jet(eps, x, alpha):
            return np.sin(x / eps + alpha[0] * np.pi / 2) / eps ** alpha[0]
    return net_from_function(
        lambda eps, x: np.sin(x / eps), 1, 1, box=[(-2, 2)], jet=jet, label="sin(x/e)"
    )


class TestEvalJet:
    """Jets of eps-slices, taken with the slice's finite-difference step."""

    def test_polynomial_first_derivative(self):
        u = square_net()
        assert slice_jet(u, 0.1, [3.0], (1,)) == pytest.approx(6.0)

    def test_oscillator_analytic_jet(self):
        v = oscillator_net()
        assert slice_jet(v, 0.01, [0.0], (1,)) == pytest.approx(100.0)

    def test_oscillator_fd_jet(self):
        w = oscillator_net(analytic=False)
        got = slice_jet(w, 0.05, [0.0], (1,))
        assert got == pytest.approx(20.0, rel=1e-6)

    def test_zero_index_is_evaluation(self):
        u = square_net()
        assert slice_jet(u, 0.3, [2.0], (0,)) == pytest.approx(4.0)

    def test_batched_points(self):
        u = square_net()
        xs = np.linspace(-1, 1, 7).reshape(-1, 1)
        got = slice_jet(u, 0.2, xs, (1,))
        assert np.allclose(got, 2 * xs)

    def test_bad_eps_raises(self):
        u = square_net()
        with pytest.raises(OutsideDomain):
            slice_jet(u, 1.5, [0.0], (0,))

    def test_wrong_index_length(self):
        u = square_net()
        with pytest.raises(DimensionMismatch):
            slice_jet(u, 0.1, [0.0], (1, 0))


class TestFiniteDifferences:
    @given(st.floats(-1.5, 1.5), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_analytic_sine(self, x0, k):
        def f(x):
            return np.sin(x)

        got = finite_difference_jet(f, np.array([x0]), (k,), 1e-3)
        want = math.sin(x0 + k * math.pi / 2)
        # rounding noise grows as h^-k; these floors are what float64 gives
        rel = {1: 1e-8, 2: 1e-6, 3: 5e-5}[k]
        assert got[0] == pytest.approx(want, rel=rel, abs=rel)

    def test_mixed_partial(self):
        def f(x):
            return (x[..., 0] ** 3 * x[..., 1] ** 2)[..., None]

        got = finite_difference_jet(f, np.array([1.2, -0.5]), (2, 1), 1e-3)
        assert got[0] == pytest.approx(6 * 1.2 * 2 * (-0.5), rel=1e-5)

    def test_gradient_matches_analytic_on_slices(self):
        # FD gradients must agree with analytic ones to 1e-5 relative for
        # eps >= 1e-3 on smooth slices
        v_an = oscillator_net(analytic=True)
        v_fd = oscillator_net(analytic=False)
        for eps in (1.0, 0.1, 1e-2, 1e-3):
            for x0 in (0.0, 0.4, -1.1):
                a = slice_jet(v_an, eps, [x0], (1,))[0]
                b = slice_jet(v_fd, eps, [x0], (1,))[0]
                assert b == pytest.approx(a, rel=1e-5, abs=1e-5)


def _first(x):
    return x[..., :1]


def _last(x):
    return x[..., -1:]


# evaluators over (..., d) points with (..., m) values, elementwise in the
# leading axes
FD_FUNCTIONS = {
    "sin": lambda x: np.sin(3.0 * _first(x) + _last(x)),
    "sin-fast": lambda x: np.sin(_first(x) / 0.01),
    "exp-cos": lambda x: np.exp(_first(x)) * np.cos(2.0 * _last(x)),
    "product": lambda x: np.concatenate(
        [_first(x) * _last(x) ** 2, _first(x) + _last(x)], axis=-1
    ),
    "kink-cubed": lambda x: np.where(_first(x) > 0, _first(x), 0.0) ** 3,
    "near-pole": lambda x: 1.0 / (_first(x) + 1e-3),
}

# evaluators that return nan or +-inf on some stencil points
FD_NON_FINITE = {
    "log-abs": lambda x: np.log(np.abs(_first(x))),
    "sqrt": lambda x: np.sqrt(_first(x)),
    "pole": lambda x: 1.0 / _first(x),
    "inf-plateau": lambda x: np.where(_first(x) > 0.5, np.inf, np.sin(_first(x))),
    "nan-plateau": lambda x: np.where(_last(x) < -0.5, np.nan, _last(x) ** 2),
    "huge": lambda x: 1e301 * np.sin(_first(x)),
    "overflow": lambda x: np.exp(700.0 * _first(x)),
}

FD_STEPS = (1e-7, 1e-4, 0.03)


def _fd_alphas(dim):
    return [
        a for a in itertools.product(range(CHAIN_ORDER_CAP + 1), repeat=dim)
        if 1 <= sum(a) <= CHAIN_ORDER_CAP
    ]


def _fd_points(dim):
    rng = np.random.default_rng(dim)
    special = np.array([0.0, 1e-3, -1e-3, 0.5, -0.5, 1.0125])
    cloud = np.stack([np.roll(special, j) for j in range(dim)], axis=-1)
    return [
        rng.uniform(-1.5, 1.5, size=(5, dim)),
        rng.uniform(-1.5, 1.5, size=(2, 3, dim)),
        rng.uniform(-1.5, 1.5, size=(dim,)),
        cloud,
    ]


def assert_same_bits(got, want):
    got = np.ascontiguousarray(got, dtype=float)
    want = np.ascontiguousarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFiniteDifferenceStack:
    """``finite_difference_jet`` equals the per-offset loop of
    ``oracles.fd_jet_reference`` bit for bit: the same stencil points, the
    same offset-by-offset sums, Richardson rounds and zero snap."""

    @staticmethod
    def compare(fn, dim):
        results = []
        with np.errstate(all="ignore"):
            for x in _fd_points(dim):
                for alpha in _fd_alphas(dim):
                    for step in FD_STEPS:
                        want = fd_jet_reference(fn, x, alpha, step)
                        got = finite_difference_jet(fn, x, alpha, step)
                        assert_same_bits(got, want)
                        results.append(np.ravel(want))
        return np.concatenate(results)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FD_FUNCTIONS))
    def test_equals_the_per_offset_loop(self, name, dim):
        self.compare(FD_FUNCTIONS[name], dim)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(FD_NON_FINITE))
    def test_non_finite_values_keep_the_snap_rule(self, name, dim):
        self.compare(FD_NON_FINITE[name], dim)

    def test_cases_reach_both_sides_of_the_snap(self):
        # the catalog holds snapped zeros, non-finite results and results
        # the snap leaves alone although its floor is not finite
        snapped = non_finite = 0
        with np.errstate(all="ignore"):
            for fns in (FD_FUNCTIONS, FD_NON_FINITE):
                for fn in fns.values():
                    want = self.compare(fn, 1)
                    snapped += int(np.sum(want == 0.0))
                    non_finite += int(np.sum(~np.isfinite(want)))
        # order-3 roundoff of 1e301*sin: finite estimates, an overflowing floor
        huge = FD_NON_FINITE["huge"]
        x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, 1))
        with np.errstate(all="ignore"):
            got = fd_jet_reference(huge, x, (3,), 1e-7)
            h_min = 1e-7 * (1.0 + np.abs(x)) / 4.0
            floor = _FD_NOISE_C * np.finfo(float).eps * 8.0 * np.abs(huge(x)) / h_min**3
        unsnapped_at_inf_floor = int(np.sum(
            np.isfinite(got) & (got != 0.0) & ~np.isfinite(floor)
        ))
        assert snapped > 0 and non_finite > 0
        assert unsnapped_at_inf_floor > 0

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_evaluation_per_jet(self, dim):
        calls = []

        def fn(x):
            calls.append(x.shape)
            return np.sin(_first(x))

        h = make_handle(fn, dim, 1)
        for x in _fd_points(dim):
            for alpha in _fd_alphas(dim):
                # every stencil point of every level, stacked on two axes
                stacked = (_RICHARDSON_LEVELS + 1, math.prod(a + 1 for a in alpha))
                calls.clear()
                finite_difference_jet(fn, x, alpha, 1e-4)
                assert calls == [stacked + x.shape]
                calls.clear()
                h.jet(x, alpha, 1e-4)
                assert calls == [stacked + x.shape]

    def test_order_zero_is_one_evaluation(self):
        x = np.array([[0.3], [-0.7]])
        fn = FD_FUNCTIONS["sin"]
        assert_same_bits(finite_difference_jet(fn, x, (0,), 1e-3), fn(x))


class TestComposition:
    def test_chain_rule_scaled_line(self):
        inner = net_from_function(lambda eps, x: eps * x, 1, 1, box=[(-3, 3)], label="ex")
        outer = net_from_function(lambda eps, y: y**2, 1, 1, label="sq")
        c = compose_nets(outer, inner)
        assert slice_jet(c, 0.1, [1.0], (1,)) == pytest.approx(2 * 0.1**2)

    def test_chain_rule_cos_scaled(self):
        # d/dx cos(eps * x) at 0 is 0; second derivative is -eps^2
        inner = net_from_function(lambda eps, x: eps * x, 1, 1, box=[(-3, 3)], label="ex")
        outer = net_from_function(lambda eps, y: np.cos(y), 1, 1, label="cos")
        c = compose_nets(outer, inner)
        assert slice_jet(c, 0.2, [0.0], (1,)) == pytest.approx(0.0, abs=1e-12)
        assert slice_jet(c, 0.2, [0.0], (2,)) == pytest.approx(-0.04, rel=1e-6)

    def test_multivariate_mixed_jets(self):
        inner = net_from_function(
            lambda eps, x: np.stack([x[..., 0] * x[..., 1], x[..., 0] + x[..., 1]], -1),
            2, 2, label="m",
        )
        outer = net_from_function(
            lambda eps, y: (y[..., 0] ** 2 * y[..., 1])[..., None], 2, 1, label="s"
        )
        c = compose_nets(outer, inner)
        x0 = np.array([1.5, -0.7])
        # h(x, y) = x^3 y^2 + x^2 y^3
        got = slice_jet(c, 0.3, x0, (1, 1))[0]
        x, y = 1.5, -0.7
        want = 6 * x**2 * y + 6 * x * y**2
        assert got == pytest.approx(want, rel=1e-9)
        got3 = slice_jet(c, 0.3, x0, (2, 1))[0]
        assert got3 == pytest.approx(12 * x * y + 6 * y**2, rel=1e-9)

    @given(
        st.floats(-1.0, 1.0),
        st.sampled_from([1.0, 0.5, 0.25, 0.1]),
    )
    @settings(max_examples=30, deadline=None)
    def test_associativity_of_composition(self, x0, eps):
        a = net_from_function(lambda e, x: x + 1.0, 1, 1, label="a")
        b = net_from_function(lambda e, y: 0.5 * y**2, 1, 1, label="b")
        c = net_from_function(lambda e, z: np.sin(z), 1, 1, label="c")
        left = compose_nets(compose_nets(c, b), a)
        right = compose_nets(c, compose_nets(b, a))
        p = np.array([x0])
        assert slice_jet(left, eps, p, (0,)) == pytest.approx(
            slice_jet(right, eps, p, (0,))
        )
        assert slice_jet(left, eps, p, (1,))[0] == pytest.approx(
            slice_jet(right, eps, p, (1,))[0], rel=1e-9, abs=1e-12
        )

    def test_dimension_mismatch(self):
        a = net_from_function(lambda e, x: x, 1, 1, label="a")
        b = net_from_function(lambda e, x: x, 2, 2, label="b")
        with pytest.raises(DimensionMismatch):
            compose_nets(a, b)


class TestCombinators:
    def test_product_leibniz(self):
        f = make_handle(lambda x: np.sin(x), 1, 1,
                        jet_fn=lambda x, a: np.sin(x + a[0] * np.pi / 2))
        g = make_handle(lambda x: x**2, 1, 1)
        p = handle_product(f, g)
        x0 = np.array([0.7])
        # (x^2 sin x)'' = 2 sin x + 4x cos x - x^2 sin x
        want = 2 * math.sin(0.7) + 4 * 0.7 * math.cos(0.7) - 0.49 * math.sin(0.7)
        assert p.jet(x0, (2,), 1e-4)[0] == pytest.approx(want, rel=1e-7)


class TestOneJetRule:
    """``make_handle`` answers with ``jet_fn`` up to ``k_max``, with finite
    differences above it."""

    @staticmethod
    def counted_sine(calls):
        def jf(x, alpha):
            calls.append(alpha)
            return np.sin(x + alpha[0] * np.pi / 2)

        return jf

    def test_k_max_switches_from_the_analytic_rule_to_finite_differences(self):
        calls = []
        h = make_handle(np.sin, 1, 1, jet_fn=self.counted_sine(calls), k_max=2)
        x0 = np.array([0.3])
        for k in (1, 2):
            want = math.sin(0.3 + k * math.pi / 2)
            assert h.jet(x0, (k,), 1e-3)[0] == pytest.approx(want, rel=1e-14)
        assert calls == [(1,), (2,)]
        got = h.jet(x0, (3,), 1e-3)
        assert calls == [(1,), (2,)]
        assert np.array_equal(got, finite_difference_jet(np.sin, x0, (3,), 1e-3))
        assert got[0] == pytest.approx(-math.cos(0.3), rel=5e-5)
        assert h.jet(x0, (0,))[0] == pytest.approx(math.sin(0.3), rel=1e-14)
        assert calls == [(1,), (2,)]

    def test_default_k_max_is_every_order(self):
        calls = []
        h = make_handle(np.sin, 1, 1, jet_fn=self.counted_sine(calls))
        h.jet(np.array([0.3]), (7,))
        assert calls == [(7,)]

    def test_no_analytic_rule_is_finite_differences_at_every_order(self):
        h = make_handle(np.sin, 1, 1)
        x0 = np.array([0.3, -1.2]).reshape(2, 1)
        for k in (1, 2, 3):
            assert np.array_equal(
                h.jet(x0, (k,), 1e-3), finite_difference_jet(np.sin, x0, (k,), 1e-3)
            )

    def test_identity_jets_are_exact(self):
        h = identity_handle(2)
        x0 = np.array([0.4, -2.0])
        assert np.array_equal(h.jet(x0, (0, 1)), [0.0, 1.0])
        assert np.array_equal(h.jet(x0, (2, 0)), [0.0, 0.0])


def test_fd_step_floor():
    assert fd_step(1e-8) == pytest.approx(1e-7)
    assert fd_step(0.25) == pytest.approx(0.25**1.5)


def test_constant_net_slices_share_handle():
    h = identity_handle(1)
    n = constant_net(h, label="idnet")
    assert n.at(0.5) is n.at(0.03125)


def _slabs(dim, lo, hi, seed=0):
    """Four (5, dim) point sets inside [lo, hi]^dim."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(lo, hi, size=(5, dim)) for _ in range(4)]


class TestLeadingAxes:
    """Every evaluator that ``finite_difference_jet`` reaches broadcasts
    over extra leading axes: evaluating stacked point sets equals
    evaluating each set on its own, bit for bit."""

    @staticmethod
    def assert_stacks(eval_fn, slabs):
        x1, x2, x3, x4 = slabs
        one = eval_fn(np.stack([x1, x2]))
        assert_same_bits(one, np.stack([eval_fn(x1), eval_fn(x2)]))
        two = eval_fn(np.stack([np.stack([x1, x2]), np.stack([x3, x4])]))
        assert_same_bits(two, np.stack([
            np.stack([eval_fn(x1), eval_fn(x2)]),
            np.stack([eval_fn(x3), eval_fn(x4)]),
        ]))

    def test_cli_expression_nets(self):
        from colombeau.bundle_maps import section_net, single_chart_hom
        from colombeau.cli import load_config
        from colombeau.geometry import trivial_bundle
        from colombeau.manifold_maps import identity_map

        cfg = load_config()
        vb = trivial_bundle(cfg.atlas, 1)
        base = identity_map(cfg.atlas)
        names = [n for n, spec in cfg.nets.items() if not spec.kind]
        assert len(names) >= 10
        slabs = _slabs(1, -1.0, 1.0)
        for name in names:
            fn = cfg.fiber_fn(name)
            for net in (
                cfg.scalar_net(name),
                cfg.map_net(name).net,
                single_chart_hom(vb, vb, base, fn).fiber,
                section_net(vb, fn).fiber,
            ):
                for eps in (0.5, 2.0**-7):
                    self.assert_stacks(net.at(eps).eval_fn, slabs)

    def test_bundle_fiber_nets(self):
        from colombeau.bundle_maps import (
            compose_homs,
            compose_hybrid,
            section_net,
            single_chart_hom,
            tangent_map,
        )
        from colombeau.geometry import euclidean_atlas, trivial_bundle
        from colombeau.manifold_maps import identity_map, single_chart_map

        for dim in (1, 2):
            line = euclidean_atlas(dim, 10.0)
            tx = trivial_bundle(line, dim)
            shape = (dim, dim)

            def mat(e, x, c=1.0):
                return c + e * np.sin(x[..., :1, None]) * np.ones(x.shape[:-1] + shape)

            base = identity_map(line)
            a = single_chart_hom(tx, tx, base, mat)
            post = single_chart_hom(tx, tx, base, lambda e, x: mat(e, x, 2.0))
            wave = single_chart_map(
                line, line, lambda e, x: 0.5 * x + e * np.sin(x / e), label="wave"
            )
            sec = section_net(tx, lambda e, x: np.cos(x) + e * x)
            pre = single_chart_map(line, line, lambda e, x: 0.5 * x - 0.1)
            fibers = [
                compose_homs(a, post).fiber,
                compose_homs(sec, post).fiber,
                compose_hybrid(pre, sec).fiber,
                tangent_map(wave).fiber,
                sec.fiber,
            ]
            slabs = _slabs(dim, -1.0, 1.0, seed=dim)
            for fiber in fibers:
                for eps in (0.5, 2.0**-7):
                    self.assert_stacks(fiber.at(eps).eval_fn, slabs)

    def test_geodesic_component_nets(self):
        from colombeau.association import standard_mollifier
        from colombeau.ppwave import GeodesicNet, default_profile

        gnet = GeodesicNet(
            default_profile(), standard_mollifier(), (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            (-1.0, 1.0),
        )
        slabs = _slabs(1, -0.9, 0.9)
        # points on the knots between the line pieces and the pulse
        slabs[0][:2, 0] = [-1.0 / 16.0, 1.0 / 16.0]
        for name in ("v", "x", "xdot"):
            net = gnet.component_net(name)
            self.assert_stacks(net.at(1.0 / 16.0).eval_fn, slabs)

    def test_bump_handles(self):
        from colombeau.geometry import make_box_bump, make_bump

        for dim in (1, 2, 3):
            slabs = _slabs(dim, -1.2, 1.2, seed=dim)
            for h in (
                make_bump(np.full(dim, 0.1), 0.3, 0.9),
                make_bump(np.zeros(dim), 0.05, 0.1),
                make_box_bump(
                    np.tile([-0.5, 0.4], (dim, 1)), np.tile([-1.0, 1.0], (dim, 1))
                ),
            ):
                self.assert_stacks(h.eval_fn, slabs)
