from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

import oracles
from conftest import component_subnetworks, connected_random_network
from cowordmap.errors import InputError
from cowordmap.layout import (
    LayoutMap,
    LayoutParams,
    _inverse_scaling,
    _newton_cg,
    _Stress,
    classical_mds,
    graph_distances,
    kamada_kawai,
    layout_network,
    minimize,
    normalize_unit_square,
    pack_components,
    stress,
    stress_gradient,
)
from cowordmap.network import CoNetwork, make_network, threshold_filter


def full_distance_matrix(net):
    n = net.n_vertices
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for comp, mat in graph_distances(net):
        for a, i in enumerate(comp):
            for b, j in enumerate(comp):
                d[i, j] = mat[a, b]
    return d


def test_graph_distances_inverse_weight():
    net = make_network([("a", 2), ("b", 2)], [("a", "b", 2)])
    [(comp, d)] = graph_distances(net)
    assert comp == (0, 1)
    assert d[0, 1] == pytest.approx(0.5)


def test_graph_distances_path():
    net = make_network([("a", 1), ("b", 1), ("c", 1)], [("a", "b", 1), ("b", "c", 1)])
    [(comp, d)] = graph_distances(net)
    i, j = comp.index(net.index_of("a")), comp.index(net.index_of("c"))
    assert d[i, j] == pytest.approx(2.0)


def test_graph_distances_fixture_matches_floyd_warshall_oracle(fixture_network):
    # the fixture, then connected random graphs of 2 to 40 vertices
    rng = np.random.default_rng(1)
    cases = [fixture_network] + [connected_random_network(rng, n) for n in (2, 5, 17, 40)]
    for net in cases:
        lengths = {(i, j): 1.0 / c for i, j, c in net.edges}
        expected = oracles.floyd_warshall(net.n_vertices, lengths)
        got = full_distance_matrix(net)
        for i in range(net.n_vertices):
            for j in range(net.n_vertices):
                if math.isinf(expected[i][j]):
                    assert math.isinf(got[i, j])
                else:
                    assert got[i, j] == pytest.approx(expected[i][j], rel=1e-12), (net.n_vertices, i, j)


def random_positions(rng, n, spread=3.0):
    return spread * rng.standard_normal((n, 2))


def test_stress_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    net = connected_random_network(rng, 8)
    d = full_distance_matrix(net)
    pos = random_positions(rng, net.n_vertices)
    expected = oracles.stress_direct(pos.tolist(), d.tolist(), 1.0)
    assert stress(pos, d, 1.0) == pytest.approx(expected, rel=1e-12)


def test_stress_invariant_under_rigid_motion():
    rng = np.random.default_rng(5)
    net = connected_random_network(rng, 9)
    d = full_distance_matrix(net)
    pos = random_positions(rng, net.n_vertices)
    base = stress(pos, d, 1.0)
    shifted = pos + np.array([11.5, -3.25])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = pos @ rot.T
    assert abs(stress(shifted, d, 1.0) - base) < 1e-9
    assert abs(stress(rotated, d, 1.0) - base) < 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(5):
        net = connected_random_network(rng, 10)
        d = full_distance_matrix(net)
        pos = random_positions(rng, net.n_vertices)
        analytic = stress_gradient(pos, d, 1.0)
        fd = np.array(oracles.stress_gradient_fd(pos.tolist(), d.tolist(), 1.0))
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(analytic - fd) / denom < 1e-5


def test_objective_is_stress_and_gradient_in_one_pass():
    rng = np.random.default_rng(41)
    net = connected_random_network(rng, 15)
    d = full_distance_matrix(net)
    pos = random_positions(rng, net.n_vertices)
    value, grad = _Stress(d, 1.5).objective(pos.T.ravel())  # block order: every x, then every y
    assert value == stress(pos, d, 1.5)
    assert grad.shape == (2 * net.n_vertices,)
    assert np.array_equal(grad.reshape(2, -1).T, stress_gradient(pos, d, 1.5))
    # bit for bit the element-wise formula, summed in the same order
    dx, dy = pos[:, 0, None] - pos[None, :, 0], pos[:, 1, None] - pos[None, :, 1]
    r = np.sqrt(dx * dx + dy * dy)
    upper = np.triu(np.isfinite(d), 1)
    assert value == float(((r[upper] - 1.5 * d[upper]) ** 2 / (d[upper] * d[upper])).sum())
    finite = np.isfinite(d)
    np.fill_diagonal(finite, False)
    dd = np.where(finite, d, 1.0)
    factor = np.where(finite, (2.0 / (dd * dd)) * (1.0 - 1.5 * dd / np.maximum(r, 1e-12)), 0.0)
    expected = np.concatenate(((factor * dx).sum(axis=1), (factor * dy).sum(axis=1)))
    assert grad.tobytes() == expected.tobytes()


def test_objective_over_components_is_sum_of_parts():
    # two components with interleaved vertices plus an isolated vertex;
    # pairs at infinite distance must add nothing, not nan and not -0.0
    rng = np.random.default_rng(43)
    parts = [[0, 2, 4, 7], [1, 3, 5, 8, 9], [6]]
    n = 10
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for part in parts[:2]:
        d[np.ix_(part, part)] = full_distance_matrix(connected_random_network(rng, len(part)))
    pos = random_positions(rng, n)
    value, grad = _Stress(d, 1.0).objective(pos.T.ravel())
    grad = grad.reshape(2, n).T
    assert np.isfinite(value) and np.isfinite(grad).all()
    total = 0.0
    for part in parts:
        sub_value, sub_grad = _Stress(d[np.ix_(part, part)], 1.0).objective(pos[part].T.ravel())
        total += sub_value
        np.testing.assert_allclose(grad[part], sub_grad.reshape(2, -1).T, rtol=1e-12, atol=1e-15)
    assert value == pytest.approx(total, rel=1e-12)
    assert grad[6].tolist() == [0.0, 0.0]
    assert not np.signbit(grad[grad == 0.0]).any()


def unscaled(pair):
    """H from the ``(D^-1 H D^-1, D^-1)`` pair of ``_Stress.scaled_hessian``."""
    h, inverse = pair
    return h / np.outer(inverse, inverse)


def test_hessian_matches_central_differences_of_gradient():
    # two components with interleaved vertices plus an isolated vertex, as in
    # the test above: pairs at infinite distance must add nothing
    rng = np.random.default_rng(47)
    parts = [[0, 2, 4, 7], [1, 3, 5, 8, 9], [6]]
    n = 10
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for part in parts[:2]:
        d[np.ix_(part, part)] = full_distance_matrix(connected_random_network(rng, len(part)))
    pos = random_positions(rng, n)
    s = _Stress(d, 1.5)
    x, step = pos.T.ravel(), 1e-6  # block order: every x, then every y
    h = unscaled(s.scaled_hessian(x))
    assert h.shape == (2 * n, 2 * n)
    np.testing.assert_allclose(h, h.T, rtol=1e-12, atol=0)
    fd = np.empty((2 * n, 2 * n))
    for k in range(2 * n):
        e = np.zeros(2 * n)
        e[k] = step
        fd[:, k] = (s.objective(x + e)[1] - s.objective(x - e)[1]) / (2 * step)
    assert np.linalg.norm(h - fd) / np.linalg.norm(fd) < 1e-6
    for part in parts:
        rows = [a * n + i for a in (0, 1) for i in part]
        sub = unscaled(_Stress(d[np.ix_(part, part)], 1.5).scaled_hessian(pos[part].T.ravel()))
        np.testing.assert_allclose(h[np.ix_(rows, rows)], sub, rtol=1e-12, atol=1e-15)
        others = [k for k in range(2 * n) if k not in rows]
        assert not h[np.ix_(rows, others)].any()


def test_hub_with_equal_leaves_spreads_them_around_it():
    # the leaves' distance rows make a three-fold MDS eigenspace; a start
    # that puts two leaves on one ray leaves them there, at a saddle
    star = make_network([("hub", 9)] + [(f"leaf{i}", 2) for i in range(4)],
                        [("hub", f"leaf{i}", 1) for i in range(4)])
    lm = kamada_kawai(star)
    assert lm.converged
    hub = lm.coords[star.index_of("hub")]
    leaves = lm.coords[[star.index_of(f"leaf{i}") for i in range(4)]]
    radii = np.linalg.norm(leaves - hub, axis=1)
    np.testing.assert_allclose(radii, radii[0], rtol=1e-4)
    gaps = [np.linalg.norm(leaves[a] - leaves[b]) for a in range(4) for b in range(a + 1, 4)]
    assert min(gaps) > np.sqrt(2.0) * radii[0] * (1 - 1e-4)  # the corners of a square


@pytest.mark.parametrize("factor", [1_000, 10_000])
def test_cycle_layout_is_invariant_to_edge_weight_scale(factor):
    # a 6-cycle's top MDS eigenvalue is double, so its eigenvectors may turn
    # within their plane when every distance is rounded differently
    labels = [f"v{i}" for i in range(6)]

    def cycle(f):
        return make_network([(label, 2 * f) for label in labels],
                            [(labels[i], labels[(i + 1) % 6], f) for i in range(6)])

    light, heavy = layout_network(cycle(1)), layout_network(cycle(factor))
    assert light.converged and heavy.converged
    assert np.abs(heavy.coords - light.coords).max() < 1e-9


def test_two_vertices_reach_exact_separation():
    net = make_network([("a", 2), ("b", 2)], [("a", "b", 2)])
    lm = kamada_kawai(net, LayoutParams(tolerance=1e-10))
    separation = float(np.linalg.norm(lm.coords[0] - lm.coords[1]))
    assert abs(separation - 0.5) < 1e-9  # scale * d = 1.0 * (1/2)
    assert lm.final_stress < 1e-9
    assert lm.converged


def test_triangle_becomes_equilateral():
    net = make_network([(l, 2) for l in "abc"],
                       [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    lm = kamada_kawai(net, LayoutParams(tolerance=1e-9))
    d01 = np.linalg.norm(lm.coords[0] - lm.coords[1])
    d02 = np.linalg.norm(lm.coords[0] - lm.coords[2])
    d12 = np.linalg.norm(lm.coords[1] - lm.coords[2])
    mean = (d01 + d02 + d12) / 3
    for d in (d01, d02, d12):
        assert abs(d - mean) / mean < 1e-6


def test_stress_never_increases():
    # exactly, across the hand-over from the sweeps to Newton too; a hub with
    # equal leaves starts from a degenerate MDS eigenspace
    rng = np.random.default_rng(29)
    nets = [connected_random_network(rng, int(rng.integers(3, 12))) for _ in range(10)]
    nets += [make_network([("hub", 9)] + [(f"leaf{i}", 2) for i in range(k)],
                          [("hub", f"leaf{i}", 1) for i in range(k)]) for k in (4, 5, 8)]
    for net in nets:
        lm = kamada_kawai(net)
        for trace in lm.stress_history:
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier


def test_majorization_sweeps_come_before_the_newton_iterations():
    net = connected_random_network(np.random.default_rng(61), 20)
    full = kamada_kawai(net)
    [trace] = full.stress_history
    assert full.sweeps > 0 and full.iterations > 0
    assert len(trace) == 1 + full.sweeps + full.iterations
    assert all(later < earlier for earlier, later in zip(trace, trace[1:full.sweeps + 1]))
    # a budget of one Newton iteration leaves every earlier entry as it was
    short = kamada_kawai(net, LayoutParams(max_iterations=1))
    assert short.sweeps == full.sweeps and short.iterations == 1
    assert short.stress_history == (trace[:full.sweeps + 2],)


def test_fixture_layout_beats_circle_and_descent_oracle(fixture_network):
    net = threshold_filter(fixture_network, 5)
    [(comp, d)] = graph_distances(net)
    lm = kamada_kawai(net, LayoutParams(tolerance=1e-6))
    initial = lm.stress_history[0][0]
    assert lm.final_stress <= initial

    # independent oracle: plain gradient descent with backtracking from a
    # circle start (the layout itself starts from classical MDS), using
    # finite-difference gradients only
    m = len(comp)
    radius = float(d.max()) / 2.0
    angles = 2.0 * np.pi * np.arange(m) / m
    pos = np.column_stack((radius * np.cos(angles), radius * np.sin(angles))).tolist()
    dlist = d.tolist()
    current = oracles.stress_direct(pos, dlist, 1.0)
    for _ in range(400):
        grad = oracles.stress_gradient_fd(pos, dlist, 1.0)
        step = 0.5
        for _ in range(40):
            trial = [[p[0] - step * g[0], p[1] - step * g[1]] for p, g in zip(pos, grad)]
            value = oracles.stress_direct(trial, dlist, 1.0)
            if value < current:
                pos, current = trial, value
                break
            step /= 2
        else:
            break
    assert lm.final_stress <= current * 1.05


def test_layout_deterministic_bitwise(fixture_network):
    net = threshold_filter(fixture_network, 5)
    a = kamada_kawai(net)
    b = kamada_kawai(net)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.final_stress == b.final_stress and a.iterations == b.iterations
    packed_a = layout_network(net)
    packed_b = layout_network(net)
    assert packed_a.coords.tobytes() == packed_b.coords.tobytes()


def test_whole_network_layout_equals_per_component_layouts():
    # layout_network lays out the whole network at once; each component must
    # come out exactly as if it were laid out alone
    net = make_network(
        [("a", 5), ("b", 4), ("c", 4), ("d", 3), ("p", 3), ("q", 2), ("r", 2), ("x", 2), ("y", 2),
         ("lone", 1)],
        [("a", "b", 3), ("b", "c", 1), ("a", "d", 2), ("c", "d", 1),
         ("p", "q", 2), ("q", "r", 1), ("x", "y", 1)],
    )
    whole = kamada_kawai(net)
    subnets = component_subnetworks(net)
    assert [len(comp) for comp, _ in subnets] == [4, 3, 2, 1]
    iterations = 0
    for comp, sub in subnets:
        alone = kamada_kawai(sub)
        assert whole.coords[list(comp)].tobytes() == alone.coords.tobytes()
        iterations += alone.iterations
    assert whole.iterations == iterations


def test_budget_exhaustion_is_flagged():
    rng = np.random.default_rng(31)
    net = connected_random_network(rng, 12)
    lm = kamada_kawai(net, LayoutParams(tolerance=1e-12, max_iterations=1))
    assert not lm.converged
    assert lm.iterations <= 1
    assert lm.budget_spent
    assert not kamada_kawai(net).budget_spent


def test_float_precision_stop_is_not_a_spent_budget():
    # no gradient reaches 1e-300: the solver stops when no halving of its step
    # moves the point downhill
    rng = np.random.default_rng(31)
    net = connected_random_network(rng, 12)
    params = LayoutParams(tolerance=1e-300)
    lm = kamada_kawai(net, params)
    assert not lm.converged
    assert not lm.budget_spent
    assert lm.iterations < params.max_iterations


def rosenbrock(x):
    a, b = x
    return float(100 * (b - a * a) ** 2 + (1 - a) ** 2), np.array([-400 * a * (b - a * a) - 2 * (1 - a), 200 * (b - a * a)])


def rosenbrock_hessian(x):
    a, b = x
    return np.array([[1200 * a * a - 400 * b + 2, -400 * a], [-400 * a, 200.0]])


def scaled(hessian):
    """A plain Hessian function as the ``(D^-1 H D^-1, D^-1)`` pair ``minimize`` takes."""
    def pair(x):
        h = hessian(x)
        inverse = _inverse_scaling(np.diagonal(h))
        return h * inverse * inverse[:, None], inverse
    return pair


def hat(x):
    # -|x|^2/2 + |x|^4/4: every direction curves down near the origin
    s = x @ x
    return float(-s / 2 + s * s / 4), (s - 1) * x


def hat_hessian(x):
    return (x @ x - 1) * np.eye(2) + 2 * np.outer(x, x)


def test_minimize_reaches_the_minimiser_of_a_convex_quadratic():
    rng = np.random.default_rng(53)
    q = rng.standard_normal((6, 6))
    a = q @ q.T + 6 * np.eye(6)
    b = 10 * rng.standard_normal(6)

    def objective(x):
        return float(0.5 * x @ a @ x - b @ x), a @ x - b

    result = minimize(objective, np.zeros(6), scaled(lambda x: a), 1e-6, 100)
    assert np.linalg.norm(result.jac) < 1e-6
    assert np.array_equal(result.jac, objective(result.x)[1])
    np.testing.assert_allclose(result.x, np.linalg.solve(a, b), rtol=0, atol=1e-6)
    assert result.nit > 1  # CG stops at its forcing term, short of the exact Newton step
    assert result.nfev >= result.nit + 1


def test_minimize_scales_a_badly_conditioned_diagonal_quadratic():
    # condition number 1e6; the same Newton-CG without the diagonal scaling
    # (CG on H itself) takes 4 iterations here
    a = np.logspace(0, 6, 4)
    x_star = 3.0 / np.sqrt(a)

    def objective(x):
        return float(0.5 * (a * x) @ x - (a * x_star) @ x), a * (x - x_star)

    result = minimize(objective, np.zeros(4), scaled(lambda x: np.diag(a)), 1e-6, 100)
    assert result.nit <= 3
    assert np.linalg.norm(result.jac) < 1e-6
    np.testing.assert_allclose(result.x, x_star, rtol=1e-9)


def test_minimize_steps_downhill_under_negative_curvature():
    x0 = np.array([0.1, 0.05])
    start, g0 = hat(x0)
    assert np.linalg.eigvalsh(hat_hessian(x0)).max() < 0
    first = minimize(hat, x0, scaled(hat_hessian), 1e-10, 1)
    step = first.x - x0
    # CG meets negative curvature at once, so the step is along -D^-2 g, D from
    # the Hessian's diagonal, the full step or a halving of it
    diag = np.abs(np.diagonal(hat_hessian(x0)))
    scaling = np.sqrt(np.maximum(diag, 1e-3 * diag.max()))
    scaling /= np.exp(np.log(scaling).mean())
    direction = -g0 / (scaling * scaling)
    t = (step @ direction) / (direction @ direction)
    np.testing.assert_allclose(step, t * direction, rtol=1e-12, atol=0)
    assert any(t == pytest.approx(0.5 ** k, rel=1e-12) for k in range(53))
    assert step @ g0 < 0
    assert first.fun < start
    result = minimize(hat, x0, scaled(hat_hessian), 1e-10, 100)
    assert result.fun < start
    assert result.fun == pytest.approx(-0.25, rel=1e-12)
    assert result.nfev >= result.nit + 1


def test_minimize_stops_at_maxiter_and_the_layout_says_so():
    result = minimize(rosenbrock, np.array([-1.2, 1.0]), scaled(rosenbrock_hessian), 1e-8, 1)
    assert result.nit == 1
    assert result.nfev >= result.nit + 1
    net = connected_random_network(np.random.default_rng(59), 12)
    lm = kamada_kawai(net, LayoutParams(max_iterations=1))
    assert lm.iterations == 1
    assert not lm.converged


def test_minimize_lowers_the_value_at_every_iteration():
    x0 = np.array([-1.2, 1.0])
    trace = [rosenbrock(x0)[0]]
    values = []

    def counted(x):
        value = rosenbrock(x)
        values.append(value[0])
        return value

    result = minimize(counted, x0, scaled(rosenbrock_hessian), 1e-8, 1000, callback=trace.append)
    assert len(trace) == result.nit + 1
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
    # Rosenbrock's valley makes the line search backtrack: evaluations, not iterations
    assert len(values) == result.nfev > result.nit + 1
    assert any(value >= earlier for earlier, value in zip(values, values[1:]))
    assert trace[-1] == result.fun
    np.testing.assert_allclose(result.x, [1.0, 1.0], rtol=0, atol=1e-8)


def test_minimize_takes_no_step_that_leaves_the_value_as_it_was():
    # slope -1e-320: the Armijo bound 1e-4 t slope underflows to -0.0, which an
    # equal value would meet
    def flat(x):
        return 1.0, np.array([1e-160])

    result = minimize(flat, np.zeros(1), scaled(lambda x: np.eye(1)), 1e-300, 50)
    assert result.nit == 0 and result.nfev > 1
    assert result.x.tolist() == [0.0]


def component_stress(seed, n, scale=1.0):
    net = connected_random_network(np.random.default_rng(seed), n)
    [(_, d)] = graph_distances(net)
    return _Stress(d, scale), classical_mds(d).T.ravel()


def test_scaled_hessian_is_the_scaled_hessian_in_one_buffer():
    rng = np.random.default_rng(67)
    s, z = component_stress(67, 14, 1.5)
    for point in (z, z + 0.3 * rng.standard_normal(z.size)):
        h, inverse = s.scaled_hessian(point)
        # D comes from the diagonal of H itself
        np.testing.assert_allclose(inverse, _inverse_scaling(np.diagonal(h) / (inverse * inverse)),
                                   rtol=1e-12, atol=0)
        assert h is s.scaled


def test_minimize_builds_every_scaled_hessian_in_one_buffer():
    s, z = component_stress(71, 20)
    buffers = []

    def scaled_hessian(x):
        h, inverse = s.scaled_hessian(x)
        buffers.append(h)
        return h, inverse

    result = minimize(s.objective, z, scaled_hessian, 1e-6, 100)
    assert np.linalg.norm(result.jac) < 1e-6
    assert len(buffers) == result.nit > 1
    assert all(b is s.scaled for b in buffers)


def test_newton_cg_stops_inside_below_its_forcing_term():
    # positive definite systems, so CG stops on its residual; |g| above and below 0.01
    # gives both branches of min(0.1, sqrt|g|) |g|
    rng = np.random.default_rng(73)
    stopped_early = 0
    for n, g_scale in ((6, 10.0), (12, 1e-3), (40, 1.0), (40, 1e-5)):
        q = rng.standard_normal((n, n))
        h = q @ q.T + 0.1 * np.eye(n)
        g = g_scale * rng.standard_normal(n)
        step = _newton_cg(g, h)
        g_norm = np.linalg.norm(g)
        residual = np.linalg.norm(h @ step + g)
        assert residual < min(0.1, math.sqrt(g_norm)) * g_norm
        assert step @ g < 0
        stopped_early += residual > 1e-8 * g_norm
    assert stopped_early  # not every system was solved to the last digit
    # near a minimum of the stress, where CG meets no negative curvature
    s, z = component_stress(79, 25)
    z = minimize(s.objective, z, s.scaled_hessian, 1e-6, 100).x + 1e-3 * rng.standard_normal(z.size)
    h, inverse = s.scaled_hessian(z)
    g = s.objective(z)[1] * inverse
    step = _newton_cg(g, h)
    g_norm = np.linalg.norm(g)
    assert np.linalg.norm(h @ step + g) < min(0.1, math.sqrt(g_norm)) * g_norm


def test_newton_cg_under_non_positive_curvature():
    g = np.array([1.0, 0.5, -0.25])
    # the first direction, -g, meets it: steepest descent
    assert np.array_equal(_newton_cg(g, -np.eye(3)), -g)
    # a later direction meets it: the CG iterate so far, still downhill
    h = np.diag([1.0, 1.0, -1.0])
    step = _newton_cg(g, h)
    assert not np.array_equal(step, -g) and step @ g < 0


@pytest.mark.parametrize("factor", [1_000, 10_000])
def test_layout_is_invariant_to_edge_weight_scale(fixture_network, factor):
    # each component is solved in units of its mean graph distance, so weights
    # as heavy as a 20,000-record corpus's draw the map of light ones
    net = threshold_filter(fixture_network, 2)
    heavy = CoNetwork(net.labels, tuple(w * factor for w in net.weights),
                      tuple((i, j, c * factor) for i, j, c in net.edges))
    light, scaled = layout_network(net), layout_network(heavy)
    assert light.converged and scaled.converged
    assert np.abs(scaled.coords - light.coords).max() < 1e-9


@pytest.mark.parametrize("scale", [1e-100, 0.37, 3.7, 1e100])
def test_scale_is_divided_out_of_the_solve(fixture_network, scale):
    # every component is solved at scale 1: the scale multiplies the coordinates
    # and the stresses only, so the tolerance test cannot depend on it
    net = threshold_filter(fixture_network, 2)
    base, raw = kamada_kawai(net), kamada_kawai(net, LayoutParams(scale=scale))
    assert (raw.iterations, raw.sweeps, raw.converged) == (base.iterations, base.sweeps, base.converged)
    assert raw.converged and raw.max_gradient == base.max_gradient
    assert np.array_equal(raw.coords, base.coords * scale)
    assert raw.final_stress == pytest.approx(base.final_stress * scale * scale, rel=1e-12)
    for got, expected in zip(raw.stress_history, base.stress_history):
        np.testing.assert_allclose(got, np.array(expected) * scale * scale, rtol=1e-12, atol=0)
    recomputed = sum(stress(raw.coords[list(comp)], d, scale) for comp, d in graph_distances(net))
    assert raw.final_stress == pytest.approx(recomputed, rel=1e-9)
    drawn = layout_network(net, LayoutParams(scale=scale))
    assert np.abs(drawn.coords - layout_network(net).coords).max() < 1e-12


@pytest.mark.parametrize("scale", [1e160, 1e308, 1e-300, 5e-324])
def test_scale_out_of_the_float_range_is_an_input_error(fixture_network, scale):
    net = threshold_filter(fixture_network, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow on the way
        with pytest.raises(InputError, match=re.escape(f"layout scale {scale!r} ")):
            kamada_kawai(net, LayoutParams(scale=scale))


def test_max_gradient_is_the_largest_final_vertex_gradient(fixture_network):
    net = threshold_filter(fixture_network, 2)
    tolerance = LayoutParams().tolerance
    for params, converged in ((LayoutParams(), True), (LayoutParams(max_iterations=1), False)):
        lm = kamada_kawai(net, params)
        expected = 0.0
        for comp, d in graph_distances(net):
            if len(comp) > 1:  # in units of the component's mean graph distance
                unit = d.sum() / (len(comp) * (len(comp) - 1))
                g = stress_gradient(lm.coords[list(comp)] / unit, d / unit, 1.0)
                expected = max(expected, np.sqrt((g * g).sum(axis=1)).max())
        assert lm.max_gradient == pytest.approx(expected, rel=1e-6)
        assert lm.converged is converged is (lm.max_gradient < tolerance)
        assert layout_network(net, params).max_gradient == lm.max_gradient


def test_params_validation():
    with pytest.raises(ValueError):
        LayoutParams(tolerance=0.0)
    with pytest.raises(ValueError):
        LayoutParams(max_iterations=0)
    with pytest.raises(ValueError):
        LayoutParams(scale=-1.0)


def test_pack_single_component_is_renormalization():
    net = make_network([(l, 2) for l in "abc"],
                       [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
    raw = kamada_kawai(net)
    [packed] = pack_components([raw.coords])
    assert packed.min() >= 0.0 and packed.max() <= 1.0
    # relative geometry preserved: distance ratios unchanged
    def ratios(c):
        d01 = np.linalg.norm(c[0] - c[1])
        d02 = np.linalg.norm(c[0] - c[2])
        return d01 / d02
    assert ratios(packed) == pytest.approx(ratios(raw.coords), rel=1e-9)


def bounding_box(coords):
    return (coords[:, 0].min(), coords[:, 1].min(), coords[:, 0].max(), coords[:, 1].max())


def boxes_disjoint(b1, b2):
    return b1[2] < b2[0] or b2[2] < b1[0] or b1[3] < b2[1] or b2[3] < b1[1]


def test_pack_two_equal_components_disjoint():
    net = make_network(
        [("a", 2), ("b", 2), ("x", 2), ("y", 2)],
        [("a", "b", 1), ("x", "y", 1)],
    )
    subnets = component_subnetworks(net)
    c1, c2 = pack_components([kamada_kawai(sub).coords for _, sub in subnets])
    assert boxes_disjoint(bounding_box(c1), bounding_box(c2))


def test_pack_three_components_pairwise_disjoint():
    net = make_network(
        [("a", 3), ("b", 3), ("c", 3), ("p", 2), ("q", 2), ("lone", 1)],
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("p", "q", 1)],
    )
    subnets = component_subnetworks(net)
    packed = pack_components([kamada_kawai(sub).coords for _, sub in subnets])
    assert [c.shape for c in packed] == [(sub.n_vertices, 2) for _, sub in subnets]
    boxes = [bounding_box(c) for c in packed]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert boxes_disjoint(boxes[i], boxes[j]), (i, j)
    assert min(c.min() for c in packed) >= 0.0 and max(c.max() for c in packed) <= 1.0


def test_layout_network_covers_unit_square(fixture_network):
    lm = layout_network(fixture_network)
    assert lm.normalized
    assert lm.coords.shape == (fixture_network.n_vertices, 2)
    assert lm.coords.min() >= 0.0 and lm.coords.max() <= 1.0
    assert np.isfinite(lm.coords).all()


def test_normalize_unit_square_degenerate():
    assert np.allclose(normalize_unit_square(np.array([[3.0, 7.0]])), [[0.5, 0.5]])
    two = normalize_unit_square(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(two, [[0.0, 0.5], [1.0, 0.5]])


def test_layout_map_rejects_bad_coords():
    with pytest.raises(ValueError, match="finite"):
        LayoutMap(np.array([[np.nan, 0.0]]), final_stress=0.0)
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        LayoutMap(np.zeros((2, 3)), final_stress=0.0)


def test_layout_empty_network_rejected():
    with pytest.raises(ValueError, match="empty"):
        kamada_kawai(make_network([], []))
