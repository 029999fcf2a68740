"""Kamada-Kawai stress-minimizing layout over graph-theoretic distances.

Edge length is the inverse co-occurrence weight (heavier tie = closer), and
the target separation of vertices i and j is ``scale * d_ij`` where d_ij is
their shortest-path distance. Stress is

    E = sum_{i<j} (|p_i - p_j| - scale * d_ij)^2 / d_ij^2

minimized per connected component over all of its coordinates at once.
Each component starts from its classical-MDS layout, turned to match a
circle in canonical vertex order, so runs are reproducible without a seed.
Stress majorization (SMACOF, ``_majorize``), whose every sweep lowers E,
brings it near a minimum; line-search Newton-CG (``minimize``: truncated
conjugate gradient on the diagonally scaled dense analytic Hessian, then
backtracking, in numpy) then converges. ``_Stress`` is the one
implementation of E: built once per component, with every term that depends
only on the distances precomputed, it returns E and its analytic gradient
from a single pass over the pair matrix, and from that pass's pair geometry
the one Hessian form ``minimize`` takes, ``(D^-1 H D^-1, D^-1)`` for the
diagonal scaling D. ``stress`` and ``stress_gradient`` evaluate E at
``(m, 2)`` coordinates. Each component is solved at scale 1 in units of its
mean graph distance, which is also the unit of ``LayoutParams.tolerance``; E
is quadratic in the coordinates, so the map at ``scale`` is the solved one
times ``scale`` and its stress times ``scale**2``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError
from .network import CoNetwork, components, edge_matrix


@dataclass(frozen=True)
class LayoutParams:
    """``scale`` multiplies only the raw coordinates and the reported stress:
    the solve, and so the unit-square map, is the same at any scale."""

    scale: float = 1.0
    tolerance: float = 1e-4
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class LayoutMap:
    """Vertex coordinates plus the state the optimizer finished in.

    Raw optimizer output keeps display units (``normalized=False``);
    ``layout_network`` returns unit-square coordinates. ``final_stress``
    always refers to the raw coordinates, at ``LayoutParams.scale``.
    ``iterations`` counts Newton iterations and ``sweeps`` majorization
    sweeps, each summed over components. ``budget_spent`` says that some
    component that did not converge used all of its Newton iterations, and
    ``max_gradient`` is the largest final vertex gradient norm, in the units
    of ``LayoutParams.tolerance`` (``kamada_kawai``). ``stress_history``
    holds one decreasing trace per component when present: the stress of the
    classical-MDS start, then one entry per majorization sweep, then one per
    Newton iteration, each strictly below the one before. ``components``
    lists the vertex indices of each connected component the optimizer
    solved apart, in the order of ``stress_history``; it is empty when
    unknown.
    """

    coords: np.ndarray
    final_stress: float | None
    converged: bool = True
    iterations: int = 0
    sweeps: int = 0
    normalized: bool = False
    budget_spent: bool = False
    stress_history: tuple[tuple[float, ...], ...] | None = None
    components: tuple[tuple[int, ...], ...] = ()
    max_gradient: float = 0.0

    def __post_init__(self):
        coords = np.ascontiguousarray(np.asarray(self.coords, dtype=np.float64))
        if coords.ndim != 2 or (coords.size and coords.shape[1] != 2):
            raise ValueError("coords must be an (n, 2) array")
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)


def graph_distances(net: CoNetwork) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All-pairs shortest paths per component over edge lengths 1/weight.

    Returns (original vertex indices, distance matrix) pairs; cross-component
    distances are simply absent. One Floyd-Warshall pass over the whole network
    gives each component's matrix bit for bit as a pass over that component
    alone: a vertex outside it adds ``inf``, and those inside relax in order.
    """
    d = _kernels.floyd_warshall(edge_matrix(net, 1.0 / net.edge_array[:, 2], np.inf))
    return [(comp, d[np.ix_(comp, comp)]) for comp in components(d)]


class _Stress:
    """One component's stress over block-ordered coordinates
    ``[x_0, ..., x_{m-1}, y_0, ..., y_{m-1}]``.

    Everything that depends only on ``dmat`` and ``scale`` is computed here,
    once. ``objective`` forms a point's pair geometry (the offsets ``dx``,
    ``dy`` and the distances ``r``) in preallocated buffers and returns
    ``(stress, gradient)`` from that one pass; ``scaled_hessian`` at the same
    point reuses the geometry. Pairs at infinite graph distance, and each
    vertex with itself, add nothing.
    """

    def __init__(self, dmat: np.ndarray, scale: float):
        self.m = m = dmat.shape[0]
        finite = np.isfinite(dmat)
        np.fill_diagonal(finite, False)
        self.off = ~finite
        self.upper = np.flatnonzero(np.triu(finite, 1))
        d_up = dmat.ravel().take(self.upper)
        self.target_up = scale * d_up
        self.d2_up = d_up * d_up
        d = np.where(finite, dmat, 1.0)
        self.target = scale * d
        self.weight = np.where(finite, 2.0 / (d * d), 0.0)
        self.weight_target = self.weight * self.target
        self.dx, self.dy, self.r, self.work = (np.empty((m, m)) for _ in range(4))
        self.scaled = np.empty((2 * m, 2 * m))  # every scaled_hessian, in place
        self.at: np.ndarray | None = None  # the point the geometry belongs to

    def objective(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        m, dx, dy, r, work = self.m, self.dx, self.dy, self.r, self.work
        np.subtract.outer(z[:m], z[:m], out=dx)
        np.subtract.outer(z[m:], z[m:], out=dy)
        np.multiply(dx, dx, out=r)
        np.multiply(dy, dy, out=work)
        np.add(r, work, out=r)
        np.sqrt(r, out=r)
        self.at = np.array(z, dtype=np.float64)
        # value: sum over i<j of (r - scale d)^2 / d^2
        e = r.take(self.upper)
        np.subtract(e, self.target_up, out=e)
        np.multiply(e, e, out=e)
        np.divide(e, self.d2_up, out=e)
        value = float(e.sum())
        # gradient factor 2/d^2 (1 - scale d / r), +0.0 off the finite pairs
        np.maximum(r, 1e-12, out=work)
        np.divide(self.target, work, out=work)
        np.subtract(1.0, work, out=work)
        np.multiply(self.weight, work, out=work)
        np.copyto(work, 0.0, where=self.off)
        return value, np.concatenate(((work * dx).sum(axis=1), (work * dy).sum(axis=1)))

    def scaled_hessian(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(D^-1 H D^-1, D^-1)`` at ``z`` for the scaling D of
        ``_inverse_scaling``, H in blocks ``[[xx, xy], [xy, yy]]``, written
        into ``self.scaled``, the same array at every call.

        With ``w = 2/d^2``, ``t = scale d`` and ``delta = p_i - p_j``, pair i, j
        adds ``w [(1 - t/r) I + t delta delta^T / r^3]`` to the diagonal
        entries of i and j and subtracts it from the entries between them. D
        comes from the blocks' row sums, which are H's diagonal.
        """
        if not np.array_equal(self.at, z):
            self.objective(z)
        m, dx, dy, iso, h = self.m, self.dx, self.dy, self.work, self.scaled  # iso: w (1 - t/r), the gradient factor
        inv_r = 1.0 / np.maximum(self.r, 1e-12)
        outer = self.weight_target * inv_r
        outer *= inv_r
        outer *= inv_r
        pairs = (iso + outer * dx * dx, outer * dx * dy, iso + outer * dy * dy)
        sums = [pair.sum(axis=1) for pair in pairs]
        inverse = _inverse_scaling(np.concatenate((sums[0], sums[2])))
        ix, iy = inverse[:m], inverse[m:]
        for block, pair, total, rows, cols in zip((h[:m, :m], h[:m, m:], h[m:, m:]), pairs, sums,
                                                  (ix, ix, iy), (ix, iy, iy)):
            pair *= rows[:, None]
            np.multiply(pair, -cols, out=block)
            np.fill_diagonal(block, total * rows * cols)
        h[m:, :m] = h[:m, m:].T
        return h, inverse


def _blocks(x: np.ndarray) -> np.ndarray:
    """Coordinates ``(m, 2)`` or flat ``x0, y0, x1, ...`` in block order."""
    return np.asarray(x, dtype=np.float64).reshape(-1, 2).T.ravel()


def stress(coords: np.ndarray, dmat: np.ndarray, scale: float) -> float:
    """Total stress; pairs at infinite graph distance contribute nothing."""
    return _Stress(dmat, scale).objective(_blocks(coords))[0]


def stress_gradient(coords: np.ndarray, dmat: np.ndarray, scale: float) -> np.ndarray:
    """Analytic gradient of ``stress`` with respect to every coordinate, ``(m, 2)``."""
    return _Stress(dmat, scale).objective(_blocks(coords))[1].reshape(2, -1).T


@dataclass(frozen=True)
class Solution:
    """Where ``minimize`` stopped: point, value and gradient there, and its work."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int


def _inverse_scaling(diag: np.ndarray) -> np.ndarray:
    """``D^-1`` for the diagonal Hessian scaling
    ``D = sqrt(max(|diag H|, 1e-3 max |diag H|))``, normalized to geometric mean 1."""
    diag = np.abs(diag)
    top = diag.max()
    scaling = np.sqrt(np.maximum(diag, 1e-3 * top)) if top > 0 else np.ones_like(diag)
    scaling /= np.exp(np.log(scaling).mean())
    return 1.0 / scaling


def _newton_cg(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A Newton direction: conjugate gradient on ``h q = -g`` (Nocedal & Wright
    2006, Alg. 7.1) until the residual is below ``min(0.1, sqrt|g|) |g|``
    (forcing term 0.1; Eisenstat & Walker 1996). Non-positive curvature in the
    first CG direction gives ``-g``, in a later one the current iterate. CG
    needs at most ``g.size`` steps in exact arithmetic; twenty times that
    bounds it in floating point.
    """
    rr = g @ g
    g_norm = math.sqrt(rr)
    tolerance = min(0.1, math.sqrt(g_norm)) * g_norm
    z, r, d = np.zeros_like(g), g, -g
    for j in range(20 * g.size):
        hd = h @ d
        curvature = d @ hd
        if not curvature > 0:
            return -g if j == 0 else z
        alpha = rr / curvature
        z = z + alpha * d
        r = r + alpha * hd
        rr_next = r @ r
        if math.sqrt(rr_next) < tolerance:
            break
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z


def minimize(objective: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray,
             hessian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], gtol: float,
             maxiter: int, callback: Callable[[float], None] | None = None) -> Solution:
    """Line-search Newton-CG (Nocedal & Wright 2006, Alg. 7.1) on a diagonally
    scaled Newton system.

    ``hessian(x)`` returns the pair ``(D^-1 H D^-1, D^-1)`` for the Hessian H
    at x and its scaling D of ``_inverse_scaling``, as
    ``_Stress.scaled_hessian`` does. ``_newton_cg`` solves for ``q = D p`` on
    ``D^-1 g`` and ``D^-1 H D^-1``, which evens out the curvature CG sees, so
    the direction is ``p = D^-1 q``, or ``-D^-2 g`` under negative curvature.
    Backtracking halves the step from ``p`` until the value falls strictly and
    by at least ``1e-4`` of the slope ``g.p`` times the step (Armijo). Stops
    when the norm of the gradient is below ``gtol``, after ``maxiter``
    iterations, or at float precision: ``p`` is not downhill, or the step has
    shrunk until it no longer moves the point. ``nit`` counts iterations and
    ``nfev`` every evaluation, backtracks included; ``callback`` gets the value
    after every iteration, each strictly below the one before.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    f, g = objective(x)
    nfev, nit = 1, 0
    while math.sqrt(g @ g) >= gtol and nit < maxiter:
        h, inverse = hessian(x)
        p = _newton_cg(g * inverse, h) * inverse
        slope, t = g @ p, 1.0
        while slope < 0 and not np.array_equal(x_new := x + t * p, x):
            f_new, g_new = objective(x_new)
            nfev += 1
            if f_new < f and f_new - f <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:  # no step moves the point downhill: float precision
            break
        x, f, g = x_new, f_new, g_new
        nit += 1
        if callback is not None:
            callback(f)
    return Solution(x, f, g, nit, nfev)


def classical_mds(dmat: np.ndarray) -> np.ndarray:
    """Classical (Torgerson) MDS of one component's finite distances, in 2-D.

    The top two eigenvectors of the double-centred squared distances, turned
    (an orthogonal Procrustes fit) to best match the unit circle in canonical
    vertex order, which fixes the eigenvectors' signs and the rotation of a
    degenerate eigenspace. ``0.01 x`` that circle is then added, so vertices
    with the same distances to all others (a hub's equal leaves) do not start
    on one point, where the stress gradient could never separate them.
    """
    m = dmat.shape[0]
    sq = dmat * dmat
    centred = sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean()
    values, vectors = np.linalg.eigh(-0.5 * centred)
    mds = vectors[:, -1:-3:-1] * np.sqrt(np.maximum(values[-1:-3:-1], 0.0))
    angles = 2.0 * np.pi * np.arange(m) / m
    circle = np.column_stack((np.cos(angles), np.sin(angles)))
    u, _, vt = np.linalg.svd(mds.T @ circle)
    return mds @ (u @ vt) + 0.01 * circle


MAX_SWEEPS = 200  # a backstop; maps settle within a few dozen sweeps


def _majorize(stress: _Stress, z: np.ndarray, trace: list[float]) -> tuple[np.ndarray, int]:
    """Stress majorization (SMACOF; Gansner, Koren & North 2004) from ``z``.

    With weights ``w = 1/d^2`` and ``V`` their Laplacian, each sweep is the
    Guttman transform ``z <- V^+ B(z) z``, which is ``centre(z) - V^+ g / 2``
    for the stress gradient g at z; ``V^+ = inv(V + J) - J`` with
    ``J = 11^T / m``. Appends the stress of the start, then of each sweep,
    to ``trace``. Stops when a sweep lowers the stress by less than 1e-2 of
    its value, where Newton takes over, or does not lower it (that sweep is
    dropped), or after ``MAX_SWEEPS`` sweeps. Returns the point and the
    sweeps made.
    """
    m = stress.m
    w = 0.5 * stress.weight
    j = np.full((m, m), 1.0 / m)
    v_plus = np.linalg.inv(np.diag(w.sum(axis=1)) - w + j) - j
    f, g = stress.objective(z)
    trace.append(f)
    sweeps = 0
    while sweeps < MAX_SWEEPS:
        p = z.reshape(2, m)
        z_new = (p - p.mean(axis=1, keepdims=True) - 0.5 * (g.reshape(2, m) @ v_plus)).ravel()
        f_new, g_new = stress.objective(z_new)
        if not f_new < f:
            break
        trace.append(f_new)
        sweeps += 1
        settled = f - f_new < 1e-2 * f
        z, f, g = z_new, f_new, g_new
        if settled:
            break
    return z, sweeps


def _minimize_component(dmat: np.ndarray, params: LayoutParams) -> tuple[np.ndarray, int, int, float, list[float]]:
    """``_majorize`` from the classical-MDS layout, then ``minimize`` over all
    coordinates of one component, at scale 1 in units of its mean graph
    distance (stress is the same in any unit). Returns (coordinates, Newton
    iterations, sweeps, the largest vertex gradient norm, stress trace: the
    start, then one entry per sweep and one per Newton iteration).
    """
    m = dmat.shape[0]
    unit = float(dmat.sum()) / (m * (m - 1))  # every pair of a component is finite
    scaled = dmat / unit
    stress = _Stress(scaled, 1.0)
    trace: list[float] = []
    start, sweeps = _majorize(stress, classical_mds(scaled).T.ravel(), trace)
    # the whole gradient's norm bounds each vertex's gradient norm
    result = minimize(stress.objective, start, stress.scaled_hessian,
                      params.tolerance, params.max_iterations, callback=trace.append)
    gx, gy = result.jac.reshape(2, m)
    gradient = float(np.sqrt(gx * gx + gy * gy).max())
    return result.x.reshape(2, m).T * unit, result.nit, sweeps, gradient, trace


def kamada_kawai(net: CoNetwork, params: LayoutParams = LayoutParams()) -> LayoutMap:
    """Stress-minimize every component independently; coordinates stay raw.

    Each component starts from its classical-MDS layout (``classical_mds``)
    around its own origin, so components of a disconnected network overlap
    until ``pack_components`` arranges them. A component is brought near its
    minimum by stress majorization (``_majorize``), then solved by Newton-CG
    (``minimize``) for at most ``params.max_iterations`` iterations, at scale
    1; the scale then multiplies only the coordinates, and the stresses by
    its square. A scale that takes either past the largest float, or the
    coordinates or a positive final stress below the smallest normal one, is
    an ``InputError``. ``converged`` means every vertex's
    stress-gradient norm, the largest of which is ``max_gradient``, ended
    below ``params.tolerance``, in units of the component's mean graph
    distance (so multiplying every edge weight by one constant gives the same
    map, up to the limit that ``classical_mds`` cannot fix: a component whose
    top MDS eigenvalue has multiplicity above two, such as a hub with four or
    more equal leaves, may come out rotated). A budget used up, or a solver
    stopped by float precision first, leaves it false and is never raised;
    ``budget_spent`` tells the two apart.
    """
    if net.n_vertices == 0:
        raise ValueError("cannot lay out an empty network")
    coords = np.zeros((net.n_vertices, 2))
    histories: list[tuple[float, ...]] = []
    iterations = sweeps = 0
    max_gradient, budget_spent = 0.0, False
    distances = graph_distances(net)
    for comp, dmat in distances:
        if len(comp) == 1:
            histories.append((0.0,))
            continue
        pos, it, sw, gradient, trace = _minimize_component(dmat, params)
        coords[list(comp)] = pos
        histories.append(tuple(trace))
        iterations += it
        sweeps += sw
        max_gradient = max(max_gradient, gradient)
        budget_spent = budget_spent or (gradient >= params.tolerance and it == params.max_iterations)
    s = params.scale
    solved = sum(trace[-1] for trace in histories)
    histories = [tuple(v * s * s for v in trace) for trace in histories]
    final_stress = sum(trace[-1] for trace in histories)
    extent = float(np.abs(coords).max()) * s
    if (not (sys.float_info.min <= extent < math.inf or extent == 0.0) or sum(t[0] for t in histories) == math.inf
            or 0 < solved and final_stress < sys.float_info.min):
        raise InputError(f"layout scale {s!r} takes the map's coordinates or stress out of the float range")
    return LayoutMap(
        coords * s,
        final_stress=final_stress,
        converged=max_gradient < params.tolerance,
        iterations=iterations,
        sweeps=sweeps,
        budget_spent=budget_spent,
        stress_history=tuple(histories),
        components=tuple(comp for comp, _ in distances),
        max_gradient=max_gradient,
    )


def normalize_unit_square(coords: np.ndarray, side: float = 1.0) -> np.ndarray:
    """Uniformly rescale into [0, side]^2, centering the short dimension."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] == 0:
        return coords.copy()
    mins = coords.min(axis=0)
    spans = coords.max(axis=0) - mins
    largest = float(spans.max())
    if largest == 0.0:
        return np.full_like(coords, side / 2.0)
    s = side / largest
    return (coords - mins) * s + (side - s * spans) / 2.0


def pack_components(components: list[np.ndarray]) -> list[np.ndarray]:
    """Arrange per-component coordinates on a shelf-packed grid, then normalize.

    Components are scaled to boxes with side proportional to sqrt(vertex
    count) and placed largest first, left to right, wrapping onto new shelves
    (y grows downward). Bounding boxes never touch; the combined picture is
    renormalized to the unit square with preserved aspect ratio. Returns the
    unit-square coordinates of each component, in input order.
    """
    if not components:
        raise ValueError("nothing to pack")

    boxes = []  # (side, content coords relative to the box origin)
    for c in components:
        side = float(np.sqrt(c.shape[0]))
        boxes.append((side, normalize_unit_square(c, side)))

    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i][0], i))
    max_side = max(side for side, _ in boxes)
    gap = 0.08 * max_side
    total_area = sum(side * side for side, _ in boxes)
    shelf_width = max(max_side, float(np.sqrt(total_area)) * 1.2)

    placed: dict[int, np.ndarray] = {}
    x = 0.0
    y = 0.0
    shelf_height = 0.0
    for i in order:
        side, rel = boxes[i]
        if x > 0.0 and x + side > shelf_width:
            x = 0.0
            y += shelf_height + gap
            shelf_height = 0.0
        placed[i] = rel + np.array([x, y])
        x += side + gap
        shelf_height = max(shelf_height, side)

    combined = normalize_unit_square(np.vstack([placed[i] for i in range(len(boxes))]))
    return np.split(combined, np.cumsum([c.shape[0] for c in components])[:-1])


def layout_network(net: CoNetwork, params: LayoutParams = LayoutParams()) -> LayoutMap:
    """Layout for a whole network: Kamada-Kawai per component, then packing.

    Coordinates come back in the network's vertex order, normalized to the
    unit square.
    """
    raw = kamada_kawai(net, params)
    comps = [list(comp) for comp in raw.components]
    coords = np.zeros((net.n_vertices, 2))
    for comp, packed in zip(comps, pack_components([raw.coords[comp] for comp in comps])):
        coords[comp] = packed
    return LayoutMap(
        coords,
        final_stress=raw.final_stress,
        converged=raw.converged,
        iterations=raw.iterations,
        sweeps=raw.sweeps,
        normalized=True,
        budget_spent=raw.budget_spent,
        max_gradient=raw.max_gradient,
    )
