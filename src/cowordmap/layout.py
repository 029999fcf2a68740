"""Kamada-Kawai stress-minimizing layout over graph-theoretic distances.

Edge length is the inverse co-occurrence weight (heavier tie = closer), and
the target separation of vertices i and j is ``scale * d_ij`` where d_ij is
their shortest-path distance. Stress is

    E = sum_{i<j} (|p_i - p_j| - scale * d_ij)^2 / d_ij^2

minimized per connected component over all of its coordinates at once.
Each component starts from its classical-MDS layout, turned to match a
circle in canonical vertex order, so runs are reproducible without a seed.
Stress majorization (SMACOF, ``_majorize``), whose every sweep lowers E,
brings it near a minimum; trust-region Newton (``minimize``: Steihaug's
truncated conjugate gradient on the dense analytic Hessian, in a diagonally
scaled region, in numpy) then converges. ``_Stress`` is the one
implementation of E: built once per component, with every term that depends
only on the distances precomputed, it returns E and its analytic gradient
from a single pass over the pair matrix, and its Hessian reuses that pass's
pair geometry. ``stress`` and ``stress_gradient`` evaluate it at ``(m, 2)``
coordinates. Each component is solved in units of its mean graph distance,
which is also the unit of ``LayoutParams.tolerance``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .network import CoNetwork, component_subnetworks, edge_matrix


@dataclass(frozen=True)
class LayoutParams:
    scale: float = 1.0
    tolerance: float = 1e-4
    max_iterations: int = 10_000

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class LayoutMap:
    """Vertex coordinates plus the state the optimizer finished in.

    Raw optimizer output keeps display units (``normalized=False``);
    ``layout_network`` returns unit-square coordinates. ``final_stress``
    always refers to the optimizer's coordinate frame. ``iterations`` counts
    Newton iterations and ``sweeps`` majorization sweeps, each summed over
    components. ``stress_history`` holds one non-increasing trace per
    component when present: the stress of the classical-MDS start, then one
    entry per majorization sweep, then one per Newton iteration, where a
    rejected step repeats the value before it. ``components`` lists the
    vertex indices of each connected component the optimizer solved apart,
    in the order of ``stress_history``; it is empty when unknown.
    """

    coords: np.ndarray
    final_stress: float | None
    converged: bool = True
    iterations: int = 0
    sweeps: int = 0
    normalized: bool = False
    stress_history: tuple[tuple[float, ...], ...] | None = None
    components: tuple[tuple[int, ...], ...] = ()

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
    distances are simply absent.
    """
    out = []
    for comp, sub in component_subnetworks(net):
        d = edge_matrix(sub, 1.0 / sub.edge_array[:, 2], np.inf)
        out.append((comp, _kernels.floyd_warshall(d)))
    return out


class _Stress:
    """One component's stress over block-ordered coordinates
    ``[x_0, ..., x_{m-1}, y_0, ..., y_{m-1}]``.

    Everything that depends only on ``dmat`` and ``scale`` is computed here,
    once. ``objective`` forms a point's pair geometry (the offsets ``dx``,
    ``dy`` and the distances ``r``) in preallocated buffers and returns
    ``(stress, gradient)`` from that one pass; ``hessian`` at the same point
    reuses the geometry. Pairs at infinite graph distance, and each vertex
    with itself, add nothing.
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

    def hessian(self, z: np.ndarray) -> np.ndarray:
        """A fresh dense ``(2m, 2m)`` Hessian in blocks ``[[xx, xy], [xy, yy]]``.

        With ``w = 2/d^2``, ``t = scale d`` and ``delta = p_i - p_j``, pair i, j
        adds ``w [(1 - t/r) I + t delta delta^T / r^3]`` to the diagonal
        entries of i and j and subtracts it from the entries between them.
        """
        if not np.array_equal(self.at, z):
            self.objective(z)
        m, dx, dy, iso = self.m, self.dx, self.dy, self.work  # w (1 - t/r), the gradient factor
        inv_r = 1.0 / np.maximum(self.r, 1e-12)
        outer = self.weight_target * inv_r
        outer *= inv_r
        outer *= inv_r
        h = np.empty((2 * m, 2 * m))
        for block, pair in ((h[:m, :m], iso + outer * dx * dx), (h[:m, m:], outer * dx * dy),
                            (h[m:, m:], iso + outer * dy * dy)):
            np.negative(pair, out=block)
            np.fill_diagonal(block, pair.sum(axis=1))
        h[m:, :m] = h[:m, m:]
        return h


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


def _model(f: float, g: np.ndarray, h: np.ndarray, p: np.ndarray) -> float:
    return f + g @ p + 0.5 * (p @ (h @ p))


def _to_boundary(z: np.ndarray, d: np.ndarray, radius: float) -> tuple[float, float]:
    """Both roots t of ``|z + t d| = radius``, low first, in the stable form."""
    a, b, c = d @ d, 2.0 * (z @ d), z @ z - radius * radius
    aux = b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b)
    return tuple(sorted((-aux / (2.0 * a), -2.0 * c / aux)))


def _steihaug(f: float, g: np.ndarray, h: np.ndarray, radius: float) -> tuple[np.ndarray, bool]:
    """Truncated CG on the model ``f + g.p + p.H.p / 2`` within ``|p| <= radius``
    (Steihaug 1983; Nocedal & Wright 2006, Alg. 7.2). Returns (step, on boundary).
    CG needs at most ``g.size`` steps in exact arithmetic; twenty times that
    bounds it in floating point.
    """
    g_norm = math.sqrt(g @ g)
    tolerance = min(0.5, math.sqrt(g_norm)) * g_norm
    z, r, d = np.zeros_like(g), g, -g
    for _ in range(20 * g.size):
        hd = h @ d
        curvature = d @ hd
        if not curvature > 0:  # negative curvature: the better end of the line
            pa, pb = (z + t * d for t in _to_boundary(z, d, radius))
            return (pa if _model(f, g, h, pa) < _model(f, g, h, pb) else pb), True
        rr = r @ r
        alpha = rr / curvature
        z_next = z + alpha * d
        if math.sqrt(z_next @ z_next) >= radius:
            return z + _to_boundary(z, d, radius)[1] * d, True
        r = r + alpha * hd
        rr_next = r @ r
        if math.sqrt(rr_next) < tolerance:
            return z_next, False
        d = -r + (rr_next / rr) * d
        z = z_next
    return z, False


def minimize(objective: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray,
             hessian: Callable[[np.ndarray], np.ndarray], gtol: float, maxiter: int,
             callback: Callable[[float], None] | None = None) -> Solution:
    """Trust-region Newton with Steihaug's truncated CG (Nocedal & Wright 2006,
    Alg. 4.1) in a diagonally scaled trust region.

    At each new point the Hessian H is rebuilt, with the scaling
    ``D = sqrt(max(|diag H|, 1e-3 max |diag H|))`` normalized to geometric
    mean 1. ``_steihaug`` solves the model in ``q = D p``, on ``D^-1 g`` and
    ``D^-1 H D^-1``, so the region is ``|D p| <= radius`` and each step is
    ``D^-1 q``; that evens out the curvature CG sees. The radius starts at 1
    and never exceeds 1000; a step is taken when the actual reduction is
    above 0.15 of the model's, the radius shrinks by 4 below 0.25 and doubles
    above 0.75 if the step reached it. Stops when the norm of the unscaled
    gradient is below ``gtol``, after ``maxiter`` iterations, or when the
    model predicts no reduction. ``callback`` gets the value at the current
    point after every iteration, so a rejected step repeats the value before
    it.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    f, g = objective(x)
    nfev, nit, radius, h = 1, 0, 1.0, None
    while math.sqrt(g @ g) >= gtol and nit < maxiter:
        if h is None:
            h = hessian(x)
            diag = np.abs(np.diagonal(h))
            top = diag.max()
            scaling = np.sqrt(np.maximum(diag, 1e-3 * top)) if top > 0 else np.ones_like(diag)
            scaling /= np.exp(np.log(scaling).mean())
            inverse = 1.0 / scaling
            h = h * inverse  # a new array: the caller's Hessian stays as it was
            h *= inverse[:, None]
            gs = g * inverse
        q, on_boundary = _steihaug(f, gs, h, radius)
        predicted = f - _model(f, gs, h, q)
        if not predicted > 0:
            break
        x_new = x + q * inverse
        f_new, g_new = objective(x_new)
        nfev += 1
        rho = (f - f_new) / predicted
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_boundary:
            radius = min(2.0 * radius, 1000.0)
        if rho > 0.15:
            x, f, g, h = x_new, f_new, g_new, None
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
    to ``trace``. Stops when a sweep lowers the stress by less than 1e-3 of
    its value, or does not lower it (that sweep is dropped), or after
    ``MAX_SWEEPS`` sweeps. Returns the point and the sweeps made.
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
        settled = f - f_new < 1e-3 * f
        z, f, g = z_new, f_new, g_new
        if settled:
            break
    return z, sweeps


def _minimize_component(dmat: np.ndarray, params: LayoutParams) -> tuple[np.ndarray, int, int, bool, list[float]]:
    """Stress majorization (``_majorize``) from the classical-MDS layout, then
    trust-region Newton (``minimize``, with the analytic Hessian) over all
    coordinates of one component, in units of the component's mean graph
    distance (stress is the same in any unit).

    Returns (coordinates, Newton iterations, sweeps, converged, stress
    trace); the trace starts at the stress of the start, adds one entry per
    sweep, then one per Newton iteration, a rejected step repeating the value
    before it.
    """
    m = dmat.shape[0]
    unit = float(dmat.sum()) / (m * (m - 1))  # every pair of a component is finite
    scaled = dmat / unit
    stress = _Stress(scaled, params.scale)
    trace: list[float] = []
    start, sweeps = _majorize(stress, (params.scale * classical_mds(scaled)).T.ravel(), trace)
    # the whole gradient's norm bounds each vertex's gradient norm
    result = minimize(stress.objective, start, stress.hessian,
                      params.tolerance, params.max_iterations, callback=trace.append)
    gx, gy = result.jac.reshape(2, m)
    converged = bool((np.sqrt(gx * gx + gy * gy) < params.tolerance).all())
    return result.x.reshape(2, m).T * unit, result.nit, sweeps, converged, trace


def kamada_kawai(net: CoNetwork, params: LayoutParams = LayoutParams()) -> LayoutMap:
    """Stress-minimize every component independently; coordinates stay raw.

    Each component starts from its classical-MDS layout (``classical_mds``)
    around its own origin, so components of a disconnected network overlap
    until ``pack_components`` arranges them. A component is brought near its
    minimum by stress majorization (``_majorize``, at most ``MAX_SWEEPS``
    sweeps), then solved by trust-region Newton over all of its coordinates
    at once, for at most ``params.max_iterations`` iterations.
    ``iterations`` sums the Newton iterations over components, rejected
    steps included, and ``sweeps`` the majorization sweeps. ``converged`` means
    every vertex's stress-gradient norm ended below ``params.tolerance``, in
    units of the component's mean graph distance (so multiplying every edge
    weight by one constant gives the same map, up to the limit that
    ``classical_mds`` cannot fix: a component whose top MDS eigenvalue has
    multiplicity above two, such as a hub with four or more equal leaves,
    may come out rotated); a budget used up, or a solver stopped by float
    precision first, leaves it false and is never raised.
    """
    if net.n_vertices == 0:
        raise ValueError("cannot lay out an empty network")
    coords = np.zeros((net.n_vertices, 2))
    histories: list[tuple[float, ...]] = []
    total = 0.0
    iterations = sweeps = 0
    converged = True
    distances = graph_distances(net)
    for comp, dmat in distances:
        if len(comp) == 1:
            histories.append((0.0,))
            continue
        pos, it, sw, conv, trace = _minimize_component(dmat, params)
        for local, orig in enumerate(comp):
            coords[orig] = pos[local]
        histories.append(tuple(trace))
        total += trace[-1]
        iterations += it
        sweeps += sw
        converged = converged and conv
    return LayoutMap(
        coords,
        final_stress=total,
        converged=converged,
        iterations=iterations,
        sweeps=sweeps,
        normalized=False,
        stress_history=tuple(histories),
        components=tuple(comp for comp, _ in distances),
    )


def normalize_unit_square(coords: np.ndarray) -> np.ndarray:
    """Uniformly rescale into [0,1]^2, centering the short dimension."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape[0] == 0:
        return coords.copy()
    mins = coords.min(axis=0)
    spans = coords.max(axis=0) - mins
    largest = float(spans.max())
    if largest == 0.0:
        return np.full_like(coords, 0.5)
    s = 1.0 / largest
    return (coords - mins) * s + (1.0 - s * spans) / 2.0


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
        size = c.shape[0]
        side = float(np.sqrt(size))
        mins = c.min(axis=0) if size else np.zeros(2)
        spans = (c.max(axis=0) - mins) if size else np.zeros(2)
        largest = float(spans.max()) if size else 0.0
        if largest == 0.0:
            rel = np.full((size, 2), side / 2.0)
        else:
            s = side / largest
            rel = (c - mins) * s + (side - s * spans) / 2.0
        boxes.append((side, rel))

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
    )
