"""Kantorovich norm of balanced atom measures: minimal connection, dual
Lipschitz potential, and the flat norm with its bounded-potential variant.

Three independent routes to the same value:

* :func:`minimal_connection` -- primal transport, one min-cost flow on the
  complete bipartite graph for every mass pattern, certified by the
  c-transform of the flow's sink potentials,
* :func:`dual_potential` -- the finite dual LP: maximize the pairing over
  potentials with u_i - u_j <= |x_i - x_j| on every ordered support pair,
* :func:`brute_force_connection` -- exhaustive matching oracle for tiny
  unit-mass instances.

The dual LP and both flat-norm LPs (:func:`flat_norm`) have one Lipschitz
row per ordered atom pair, n(n-1) in all.  They are solved by row generation
(:func:`_row_generated`): each LP starts from every atom's ``NEIGHBOURS``
nearest atoms plus a star through atom 0, one all-pairs distance matrix
checks the optimum against every pair, the violated pairs are added and the
LP is solved again.  The optimum that violates no pair is the all-pairs
optimum, with a few rows per atom instead of n.

The LP solver comes from :mod:`scipy.optimize`, which is imported on the
first call of :func:`linprog`, so importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import TranshipError, ValidationError
from .geom import dists, ordered_sum
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


# HiGHS's feasibility tolerances; row generation adds a pair when the optimum
# violates its Lipschitz row by more than the same amount
LP_FEASIBILITY_TOL = 1e-10
_LP_OPTIONS = {
    "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
}
# nearest neighbours per atom in the LPs' starting rows
NEIGHBOURS = 8


@dataclass(frozen=True, eq=False)
class Matching:
    """Transport over the atoms `points` (the measure's own read-only array):
    ``edges`` holds (source, target) atom indices, lexicographically ordered,
    ``masses`` the mass > 0 each edge carries, ``cost`` their transport cost.
    When built by :func:`minimal_connection`, ``potential`` certifies the
    cost: aligned with `points`, 1-Lipschitz, minimum 0, tight on every edge,
    and paired with the measure's masses it gives the cost up to roundoff."""

    points: np.ndarray  # (n, dim)
    edges: np.ndarray  # (k, 2) int
    masses: np.ndarray  # (k,)
    cost: float
    potential: np.ndarray | None = None

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class Potential:
    """Dual potential on the atom support with a certified Lipschitz constant."""

    values: np.ndarray  # read-only, aligned with the measure's points
    lip_bound: float


def minimal_connection(f: SignedAtomMeasure) -> Matching:
    """Min-cost transport between the positive and negative parts of `f`.

    An uncapacitated min-cost flow on the complete bipartite graph, for equal
    and distinct masses alike.  The matching's points are ``f.points``; its
    edges come out of the flow's arcs, which are source-major, so they are
    ordered lexicographically by (source, target) atom index.  The cost sums
    mass * distance over the edges in that order
    (:func:`~tranship.geom.ordered_sum`) and equals the Kantorovich norm of
    `f`.  The potential is the c-transform of the flow's sink potentials.
    """
    f.require_balanced()
    pos = np.flatnonzero(f.masses > 0)
    neg = np.flatnonzero(f.masses < 0)
    if pos.size == 0:  # balanced, so there are no atoms at all
        empty = _read_only(np.zeros(0))
        return Matching(f.points, _read_only(np.zeros((0, 2), dtype=int)), empty, 0.0, empty)

    # arcs of the complete bipartite graph, source-major like the rows of d
    d = dists(f.points[pos][:, None], f.points[neg][None])
    n_pos, n_neg = d.shape
    src, dst = np.divmod(np.arange(d.size), n_neg)
    arcs = np.column_stack([src, n_pos + dst])
    lengths = d.ravel()
    sol = solve_min_cost_flow(n_pos + n_neg, arcs, lengths, f.masses[np.r_[pos, neg]])
    carrying = np.flatnonzero(sol.arc_flows > 0.0)
    edges = _read_only(np.column_stack([pos[src[carrying]], neg[dst[carrying]]]))
    masses = _read_only(sol.arc_flows[carrying])
    potential = _c_transform(f.points, f.points[neg], sol.potentials[n_pos:])
    return Matching(f.points, edges, masses, ordered_sum(masses * lengths[carrying]), potential)


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


def _pair_constraints(points, i, j):
    """Rows of u_i - u_j <= |x_i - x_j| for the ordered pairs (i[k], j[k]),
    in the order given."""
    rows = np.arange(i.size)
    a_ub = np.zeros((i.size, len(points)))
    a_ub[rows, i] = 1.0
    a_ub[rows, j] = -1.0
    return a_ub, dists(points[i], points[j])


def _highs(what, **lp):
    res = linprog(**lp, method="highs", options=_LP_OPTIONS)
    if not res.success:
        raise TranshipError(f"{what} LP failed: {res.message}")
    return res


def _candidate_pairs(d):
    """Mask of the ordered pairs (i, j) the rows start from, given the
    all-pairs distances `d`: each atom's ``NEIGHBOURS`` nearest atoms in both
    directions, plus the star (0, i), (i, 0) through atom 0, which keeps the
    restricted LP bounded when the neighbour graph is disconnected."""
    n = len(d)
    k = min(NEIGHBOURS, n - 1)
    active = np.zeros((n, n), dtype=bool)
    if k > 0:
        off = d + np.diag(np.full(n, np.inf))
        near = np.argpartition(off, k - 1, axis=1)[:, :k]
        rows = np.repeat(np.arange(n), k)
        active[rows, near.ravel()] = True
        active |= active.T
        active[0, 1:] = active[1:, 0] = True
    return active


def _row_generated(points, solve):
    """Solve a Lipschitz-constrained LP by row generation.

    `solve(a_ub, b_ub)` solves the LP with the pair rows of
    :func:`_pair_constraints` and returns ``(res, u, lip)``: the result, the
    potential at every atom and its Lipschitz budget.  The rows start from
    :func:`_candidate_pairs`; after each solve every pair (i, j) is checked
    at once, and the pairs with ``u_i - u_j - lip * d_ij > LP_FEASIBILITY_TOL``
    join the rows for the next solve.  The loop ends because every round adds
    a pair.  The last optimum is feasible for the LP over all pairs and
    optimal for a relaxation of it, so it is optimal for the full LP.
    Returns ``(res, u, d)`` with `d` the all-pairs distance matrix.
    """
    d = dists(points[:, None], points[None])
    active = _candidate_pairs(d)
    while True:
        i, j = np.nonzero(active)
        res, u, lip = solve(*_pair_constraints(points, i, j))
        violated = u[:, None] - u[None] - lip * d > LP_FEASIBILITY_TOL
        violated &= ~active
        if not violated.any():
            return res, u, d
        active |= violated


def dual_potential(f: SignedAtomMeasure):
    """Solve max sum_i m_i u(x_i) subject to the pairwise Lipschitz constraints.

    Solved by row generation (:func:`_row_generated`): the LP starts from the
    nearest-neighbour pairs and gains the pairs its optimum violates, until
    the optimum satisfies u_i - u_j <= |x_i - x_j| on all pairs.  Returns
    ``(Potential, value)`` with the potential shifted so its minimum is zero;
    by strong duality the value equals the minimal-connection cost.  The
    potential's ``lip_bound`` is its largest slope over all pairs.
    """
    f.require_balanced()
    n = len(f)
    if n == 0:
        return Potential(values=_read_only(np.zeros(0)), lip_bound=0.0), 0.0

    def solve(a_ub, b_ub):
        # pin u[0] = 0: the balanced objective is invariant under constant shifts
        res = _highs(
            "dual potential",
            c=-f.masses[1:],
            A_ub=a_ub[:, 1:],
            b_ub=b_ub,
            bounds=[(None, None)] * (n - 1),
        )
        return res, np.concatenate([[0.0], res.x]), 1.0

    _, u, d = _row_generated(f.points, solve)
    u -= u.min()
    value = float(np.sum(f.masses * u))
    apart = d > 0.0
    lip = float(np.max(np.abs(u[:, None] - u[None])[apart] / d[apart], initial=0.0))
    return Potential(values=_read_only(u), lip_bound=lip), value


def flat_norm(f: SignedAtomMeasure, convention: str = "max") -> float:
    """Flat norm of `f` (which need not be balanced).

    ``max``  : sup of the pairing over |u| <= 1 with Lipschitz constant <= 1.
    ``sum``  : the uniform bound and the Lipschitz budget share a total of 1,
               encoded with an explicit budget variable L.

    Both LPs are solved by row generation over the atom pairs, as in
    :func:`dual_potential`; in the ``sum`` convention a pair is violated when
    u_i - u_j exceeds L d_ij.
    """
    if convention not in ("max", "sum"):
        raise ValidationError(f"unknown flat norm convention {convention!r}")
    value, _ = _flat_norm_lp(f, convention)
    return value


def _flat_norm_lp(f: SignedAtomMeasure, convention: str):
    n = len(f)
    if n == 0:
        return 0.0, np.zeros(0)

    def solve_max(a_pairs, b_pairs):
        res = _highs("flat norm", c=-f.masses, A_ub=a_pairs, b_ub=b_pairs, bounds=[(-1.0, 1.0)] * n)
        return res, res.x, 1.0

    def solve_sum(a_pairs, b_pairs):
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
        res = _highs(
            "flat norm",
            c=np.concatenate([-f.masses, [0.0]]),
            A_ub=a_ub,
            b_ub=b_ub,
            bounds=[(None, None)] * n + [(0.0, 1.0)],
        )
        return res, res.x[:n], res.x[n]

    res, u, _ = _row_generated(f.points, solve_max if convention == "max" else solve_sum)
    if convention == "max" and f.balanced:
        # u + c stays optimal while |u + c| <= 1; report the centred one, not
        # whichever optimal vertex the solver reached
        u = u - (np.max(u) + np.min(u)) / 2
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
