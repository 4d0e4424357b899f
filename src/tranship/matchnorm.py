"""Kantorovich norm of balanced atom measures: minimal connection, dual
Lipschitz potential, and the flat norm with its bounded-potential variant.

Three independent routes to the same value:

* :func:`minimal_connection` -- primal transport, one min-cost flow on the
  complete bipartite graph for every mass pattern, certified by the
  c-transform of the flow's sink potentials,
* :func:`dual_potential` -- the finite dual LP over all support pairs,
* :func:`brute_force_connection` -- exhaustive matching oracle for tiny
  unit-mass instances.

The LP solver comes from :mod:`scipy.optimize`, which is imported on the
first call of :func:`linprog`, so importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import TranshipError, ValidationError
from .geom import dist, dists
from .measures import SignedAtomMeasure
from .mincostflow import solve_min_cost_flow

__all__ = [
    "Matching",
    "Potential",
    "minimal_connection",
    "dual_potential",
    "flat_norm",
    "brute_force_connection",
]


# scipy.optimize takes about half a second to import, so it is loaded on the
# first solve; the names stay module attributes so callers can rebind them
# (linear_sum_assignment too, although no solver here calls it).
def linprog(*args, **kwargs):
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def linear_sum_assignment(cost_matrix):
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost_matrix)


_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class Matching:
    """Transport edges (source point, target point, mass > 0), their cost and,
    when built by :func:`minimal_connection`, a potential certifying the cost:
    1-Lipschitz, minimum 0, aligned with the measure's points, and with
    ``sum(masses * potential) == cost`` up to roundoff."""

    edges: tuple  # ((source, target, mass), ...) lexicographic by atom index
    cost: float
    potential: np.ndarray | None = field(default=None, compare=False)

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class Potential:
    """Dual potential on the atom support with a certified Lipschitz constant."""

    values: np.ndarray  # read-only, aligned with the measure's points
    lip_bound: float


def _matching_cost(edges) -> float:
    # canonical accumulation order: the oracle sums the same floats the same way
    cost = 0.0
    for source, target, mass in edges:
        cost += mass * dist(source, target)
    return cost


def _edges_from_pairs(pos_pts, neg_pts, triples):
    edges = []
    for i, j, mass in sorted(triples):
        edges.append((pos_pts[i].copy(), neg_pts[j].copy(), float(mass)))
    for source, target, _ in edges:
        source.setflags(write=False)
        target.setflags(write=False)
    return tuple(edges)


def minimal_connection(f: SignedAtomMeasure) -> Matching:
    """Min-cost transport between the positive and negative parts of `f`.

    An uncapacitated min-cost flow on the complete bipartite graph, for equal
    and distinct masses alike.  Edges are ordered lexicographically by
    (source, target) atom index, and the cost equals the Kantorovich norm of
    `f`.  The potential is the c-transform of the flow's sink potentials.
    """
    f.require_balanced()
    pos_pts, pos_mass = f.positive_part()
    neg_pts, neg_mass = f.negative_part()
    if len(pos_pts) == 0:
        return Matching(edges=(), cost=0.0, potential=_read_only(np.zeros(len(f))))

    # arcs of the complete bipartite graph, source-major like the rows of d
    d = dists(pos_pts[:, None], neg_pts[None])
    n_pos, n_neg = d.shape
    src, dst = np.divmod(np.arange(d.size), n_neg)
    arcs = np.column_stack([src, n_pos + dst])
    supply = np.concatenate([pos_mass, -neg_mass])
    sol = solve_min_cost_flow(n_pos + n_neg, arcs, d.ravel(), supply)
    triples = [
        (int(src[a]), int(dst[a]), float(sol.arc_flows[a]))
        for a in np.flatnonzero(sol.arc_flows > 0.0)
    ]
    edges = _edges_from_pairs(pos_pts, neg_pts, triples)
    potential = _c_transform(f.points, neg_pts, sol.potentials[n_pos:])
    return Matching(edges=edges, cost=_matching_cost(edges), potential=potential)


def _c_transform(points, sinks, sink_values):
    """phi(x) = min_t (v_t + |x - t|) at `points`, shifted to minimum 0.

    A minimum of 1-Lipschitz cones is 1-Lipschitz, so sum(m phi) is a lower
    bound on the transport cost (weak duality).  With the flow's potentials
    (v_s - v_t <= |s - t|, equality on flow-carrying arcs) phi equals them at
    every atom the flow passes through, so the bound reaches the cost.
    """
    phi = np.min(sink_values[None] + dists(points[:, None], sinks[None]), axis=1)
    return _read_only(phi - phi.min())


def _read_only(values):
    values.setflags(write=False)
    return values


def _pair_constraints(points):
    """Rows of u_i - u_j <= |x_i - x_j| over all ordered support pairs,
    ordered by (i, j)."""
    n = len(points)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.arange(i.size)
    a_ub = np.zeros((i.size, n))
    a_ub[rows, i] = 1.0
    a_ub[rows, j] = -1.0
    return a_ub, dists(points[i], points[j])


def dual_potential(f: SignedAtomMeasure):
    """Solve max sum_i m_i u(x_i) subject to the pairwise Lipschitz constraints.

    Returns ``(Potential, value)`` with the potential shifted so its minimum
    is zero; by strong duality the value equals the minimal-connection cost.
    """
    f.require_balanced()
    n = len(f)
    if n == 0:
        return Potential(values=_read_only(np.zeros(0)), lip_bound=0.0), 0.0
    points = f.points
    a_ub, b_ub = _pair_constraints(points)
    # pin u[0] = 0: the balanced objective is invariant under constant shifts
    res = linprog(
        c=-f.masses[1:],
        A_ub=a_ub[:, 1:],
        b_ub=b_ub,
        bounds=[(None, None)] * (n - 1),
        method="highs",
        options=_LP_OPTIONS,
    )
    if not res.success:
        raise TranshipError(f"dual potential LP failed: {res.message}")
    u = np.concatenate([[0.0], res.x])
    u -= u.min()
    value = float(np.sum(f.masses * u))
    i, j = np.triu_indices(n, 1)
    d = dists(points[i], points[j])
    apart = d > 0.0
    lip = float(np.max(np.abs(u[i] - u[j])[apart] / d[apart], initial=0.0))
    return Potential(values=_read_only(u), lip_bound=lip), value


def flat_norm(f: SignedAtomMeasure, convention: str = "max") -> float:
    """Flat norm of `f` (which need not be balanced).

    ``max``  : sup of the pairing over |u| <= 1 with Lipschitz constant <= 1.
    ``sum``  : the uniform bound and the Lipschitz budget share a total of 1,
               encoded with an explicit budget variable L.
    """
    if convention not in ("max", "sum"):
        raise ValidationError(f"unknown flat norm convention {convention!r}")
    value, _ = _flat_norm_lp(f, convention)
    return value


def _flat_norm_lp(f: SignedAtomMeasure, convention: str):
    n = len(f)
    if n == 0:
        return 0.0, np.zeros(0)
    a_pairs, b_pairs = _pair_constraints(f.points)
    if convention == "max":
        res = linprog(
            c=-f.masses,
            A_ub=a_pairs,
            b_ub=b_pairs,
            bounds=[(-1.0, 1.0)] * n,
            method="highs",
            options=_LP_OPTIONS,
        )
    else:
        # variables (u_1..u_n, L): u_i - u_j <= L d_ij and |u_i| <= 1 - L
        n_rows = a_pairs.shape[0]
        a_ub = np.zeros((n_rows + 2 * n, n + 1))
        b_ub = np.zeros(n_rows + 2 * n)
        a_ub[:n_rows, :n] = a_pairs
        a_ub[:n_rows, n] = -b_pairs
        cols = np.arange(n)
        a_ub[n_rows + 2 * cols, cols] = 1.0
        a_ub[n_rows + 2 * cols + 1, cols] = -1.0
        a_ub[n_rows:, n] = 1.0
        b_ub[n_rows:] = 1.0
        res = linprog(
            c=np.concatenate([-f.masses, [0.0]]),
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * n + [(0.0, 1.0)],
            method="highs",
            options=_LP_OPTIONS,
        )
    if not res.success:
        raise TranshipError(f"flat norm LP failed: {res.message}")
    u = res.x[: len(f)]
    return float(-res.fun), u


@lru_cache(maxsize=8)
def _all_permutations(k: int) -> np.ndarray:
    return np.array(list(permutations(range(k))), dtype=int)


def brute_force_connection(f: SignedAtomMeasure, max_dipoles: int = 7) -> float:
    """Exhaustive minimum over all perfect matchings; unit masses only.

    Testing oracle: enumerates every permutation, so it is independent of the
    solver it checks.  The per-permutation cost is accumulated in source-index
    order, the same order :func:`minimal_connection` uses.
    """
    f.require_balanced()
    pos_pts, pos_mass = f.positive_part()
    neg_pts, neg_mass = f.negative_part()
    if len(pos_pts) == 0:
        return 0.0
    magnitude = pos_mass[0]
    if len(pos_pts) != len(neg_pts) or not (
        np.all(pos_mass == magnitude) and np.all(neg_mass == magnitude)
    ):
        raise ValidationError("brute force oracle requires equal unit masses")
    k = len(pos_pts)
    if k > max_dipoles:
        raise ValidationError(f"brute force oracle limited to {max_dipoles} dipoles, got {k}")
    d = dists(pos_pts[:, None], neg_pts[None])
    perms = _all_permutations(k)
    costs = d[np.arange(k)[None, :], perms].sum(axis=1)
    return float(magnitude * costs.min())
