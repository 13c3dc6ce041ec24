import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colombeau.errors import DimensionMismatch, OutsideDomain
from colombeau.nets import (
    compose_nets,
    constant_net,
    fd_step,
    finite_difference_jet,
    handle_compose,
    handle_product,
    identity_handle,
    make_handle,
    net_from_function,
)


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
