"""Kantorovich norm of balanced atom measures: minimal connection, dual
Lipschitz potential, and the flat norm with its bounded-potential variant.

Three independent routes to the same value:

* :func:`minimal_connection` -- primal transport, one min-cost flow on the
  complete bipartite graph for every mass pattern at Euclidean costs
  (:func:`~tranship.mincostflow.transport`, numpy only), certified by the
  c-transform of the flow's sink potentials,
* :func:`dual_potential` -- the finite dual LP: maximize the pairing over
  potentials with u_i - u_j <= |x_i - x_j| on every ordered support pair,
* :func:`brute_force_connection` -- exhaustive matching oracle for tiny
  unit-mass instances.

The dual LP and the ``sum`` flat-norm LP (:func:`flat_norm`) are one LP
(:func:`_lipschitz_lp`): maximize the pairing over potentials u, plus a
Lipschitz budget L for ``sum``, with one row u_i - u_j <= L |x_i - x_j| per
ordered atom pair, n(n-1) in all.  The kinds differ only in their row of the
bounds table ``_LP_BOUNDS``: ``dual`` pins u_0 = 0 and fixes L = 1, and
``sum`` bounds L to [0, 1] with the rows |u_i| + L <= 1.  The LP is solved
by row generation: it starts from every atom's ``NEIGHBOURS`` nearest atoms
plus a star through atom 0, one all-pairs distance matrix checks the optimum
against every pair, the violated pairs are added and the LP is solved
again.  The optimum that violates no pair is the all-pairs optimum, with a
few rows per atom instead of n.  The ``max`` flat norm is no LP here: it is
a transport through one extra ground node (:func:`_ground_transport`),
solved with :func:`~tranship.mincostflow.solve_transport`.

The LP solver is HiGHS's dual simplex, called by :func:`linprog` through
the bindings scipy ships (``scipy.optimize._highspy._core``).  They are
loaded from their file on the first LP, without running ``scipy.optimize``'s
package init, and pass HiGHS the model and options that
``scipy.optimize.linprog(method="highs")`` does, so the optimum has its
bits.  Importing this module loads no scipy, and neither do
:func:`minimal_connection` and the ``max`` flat norm.  The third
route, graph flow on the complete network (:mod:`tranship.beckmann`),
solves with :func:`~tranship.mincostflow.solve_complete`, with numpy alone.
"""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from itertools import permutations

import numpy as np

from .errors import TranshipError, ValidationError
from .geom import c_transform, dists, ordered_sum, pair_costs
from .measures import SignedAtomMeasure
from .mincostflow import solve_transport, transport

__all__ = [
    "Matching",
    "Potential",
    "minimal_connection",
    "dual_potential",
    "flat_norm",
    "brute_force_connection",
]


# HiGHS's feasibility tolerances; row generation adds a pair when the optimum
# violates its Lipschitz row by more than the same amount
LP_FEASIBILITY_TOL = 1e-10
_LP_OPTIONS = {
    "primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
    "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
}
# the HiGHS bindings that scipy ships; 1.17 is the oldest scipy known to ship
# them at this path with the interface used here
_HIGHS_MODULE = "scipy.optimize._highspy._core"
# scipy.optimize.linprog's acceptance test: a bound or row violated by more
# than this voids an optimal status
_LP_CHECK_TOL = np.sqrt(1e-9) * 10


@lru_cache(maxsize=1)
def _highs():
    """scipy's HiGHS bindings, loaded from their file.  Importing them by name
    would first run ``scipy.optimize``'s package init, about 0.4 s of imports
    (``scipy.linalg``, ``scipy.sparse``, ...) that the solve does not use."""
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None:
        folder = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
        finder = FileFinder(folder, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(_HIGHS_MODULE)
    if spec is None:
        raise TranshipError(
            f"the LP solver needs scipy>=1.17, whose HiGHS bindings {_HIGHS_MODULE} were not found"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class LPResult:
    """What :func:`linprog` returns: the optimum `x` and its objective `fun`
    (both None on failure), the simplex iterations `nit`, and `success` with
    a `message`."""

    x: np.ndarray | None
    fun: float | None
    nit: int
    success: bool
    message: str


def linprog(*, c, A_ub, b_ub, bounds) -> LPResult:
    """Minimize ``c @ x`` subject to ``A_ub @ x <= b_ub`` and the column
    `bounds` (``(lower, upper)`` pairs, None for no bound), with HiGHS's dual
    simplex.

    The model and options are the ones ``scipy.optimize.linprog(method=
    "highs", options=_LP_OPTIONS)`` passes to HiGHS, so the optimum has its
    bits, and so does its acceptance test: a non-optimal model status, or an
    optimum with a NaN or a bound or row violated by more than
    ``_LP_CHECK_TOL``, is ``success=False``.  The dense `A_ub` is the
    benchmark tracer's measure of the LP's size (``perfbench/tracer.py``
    reads its shape and bytes); it is passed to HiGHS column-wise, with its
    zeros dropped.
    """
    h = _highs()
    c = np.asarray(c, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    lower = np.array([-np.inf if lo is None else lo for lo, _ in bounds], dtype=float)
    upper = np.array([np.inf if hi is None else hi for _, hi in bounds], dtype=float)
    # column-major order of the nonzeros: a scan of the contiguous rows and a
    # stable sort by column is about 2.5x faster than a scan of A_ub.T
    rows, cols = np.nonzero(A_ub)
    order = np.argsort(cols, kind="stable")
    rows, cols = rows[order], cols[order]
    n_row, n_col = A_ub.shape
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n_col
    lp.num_row_ = lp.a_matrix_.num_row_ = n_row
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.full(n_row, -h.kHighsInf)
    lp.row_upper_ = b_ub
    start = np.zeros(n_col + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_col), out=start[1:])
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = rows.astype(np.int32)
    lp.a_matrix_.value_ = A_ub[rows, cols]
    options = h.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = options.output_flag = False
    options.simplex_strategy = h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    for key, value in _LP_OPTIONS.items():
        setattr(options, key, value)
    highs = h._Highs()
    error = h.HighsStatus.kError
    ran = (
        highs.passOptions(options) != error
        and highs.passModel(lp) != error
        and highs.run() != error
    )
    status = highs.getModelStatus()
    info = highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if not ran or status != h.HighsModelStatus.kOptimal:
        return LPResult(None, None, nit, False, f"model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = info.objective_function_value
    slack = b_ub - np.array(solution.row_value)
    # a NaN fails every comparison, so it fails the test as scipy's does
    feasible = (
        not np.isnan(fun)
        and np.all((x >= lower - _LP_CHECK_TOL) & (x <= upper + _LP_CHECK_TOL))
        and np.all(slack >= -_LP_CHECK_TOL)
    )
    if not feasible:
        return LPResult(x, fun, nit, False, "optimum violates its constraints beyond tolerance")
    return LPResult(x, fun, nit, True, "optimal")


# unused by the solvers; kept as a module attribute because the benchmark's
# tracer rebinds it, and scipy.optimize is imported only if it is called
def linear_sum_assignment(cost_matrix):
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost_matrix)


# nearest neighbours per atom in the LPs' starting rows
NEIGHBOURS = 8
# brute_force_connection enumerates k! matchings, so it refuses k beyond this
_BRUTE_FORCE_MAX_DIPOLES = 7


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
    `f`.  The potential, the c-transform of the flow's sink potentials shifted
    to minimum 0, is 1-Lipschitz and tight on every edge: it certifies the cost.
    """
    f.require_balanced()
    edges, masses, costs, phi = transport(f.points, f.masses)
    # shifted to minimum 0; the initial inf leaves an empty potential empty
    potential = phi - np.min(phi, initial=np.inf)
    cost = ordered_sum(masses * costs)
    return Matching(f.points, _read_only(edges), _read_only(masses), cost, _read_only(potential))


def _read_only(values):
    values.setflags(write=False)
    return values


def _pair_constraints(points, i, j, budget=False):
    """Rows of u_i - u_j <= |x_i - x_j| for the ordered pairs (i[k], j[k]),
    in the order given.

    With a `budget` the columns are (u, L) and this is the whole
    ``sum`` matrix: the pair rows u_i - u_j - L |x_i - x_j| <= 0, then the
    rows u_k + L <= 1 and -u_k + L <= 1 for each atom k in turn."""
    n, rows = len(points), np.arange(i.size)
    d = dists(points[i], points[j])
    a_ub = np.zeros((i.size + 2 * n * budget, n + budget))
    a_ub[rows, i] = 1.0
    a_ub[rows, j] = -1.0
    if not budget:
        return a_ub, d
    a_ub[rows, n] = -d
    atoms = np.arange(n)
    a_ub[i.size + 2 * atoms, atoms] = 1.0
    a_ub[i.size + 2 * atoms + 1, atoms] = -1.0
    a_ub[i.size:, n] = 1.0
    return a_ub, np.repeat([0.0, 1.0], [i.size, 2 * n])


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


# the Lipschitz LPs: bounds of u_0, of the other u_i and of the budget L,
# which is the constant 1 where it is None.  `dual` pins u_0 = 0, since its
# balanced objective is invariant under constant shifts.
_LP_BOUNDS = {
    "dual": ((0.0, 0.0), (None, None), None),
    "sum": ((None, None), (None, None), (0.0, 1.0)),
}


def _lipschitz_lp(f: SignedAtomMeasure, kind: str):
    """Maximize sum_i m_i u_i subject to u_i - u_j <= L |x_i - x_j| on every
    ordered atom pair, with the bounds of ``_LP_BOUNDS[kind]``.

    Solved by row generation: the rows start from :func:`_candidate_pairs`;
    after each solve every pair (i, j) is checked at once, and the pairs with
    ``u_i - u_j - L d_ij > LP_FEASIBILITY_TOL`` join the rows for the next
    solve.  The loop ends because every round adds a pair.  The last optimum
    is feasible for the LP over all pairs and optimal for a relaxation of
    it, so it is optimal for the full LP.  Returns ``(value, u, d)`` with `d`
    the all-pairs distance matrix.
    """
    n = len(f)
    first, rest, budget = _LP_BOUNDS[kind]
    c = -f.masses if budget is None else np.concatenate([-f.masses, [0.0]])
    bounds = [first] + [rest] * (n - 1) + ([] if budget is None else [budget])
    d = dists(f.points[:, None], f.points[None])
    active = _candidate_pairs(d)
    while True:
        a_ub, b_ub = _pair_constraints(f.points, *np.nonzero(active), budget is not None)
        res = linprog(c=c, A_ub=a_ub, b_ub=b_ub, bounds=bounds)
        del a_ub, b_ub  # free the matrix before the n x n arrays below
        if not res.success:
            raise TranshipError(f"{kind} Lipschitz LP failed: {res.message}")
        u, lip = res.x[:n], 1.0 if budget is None else res.x[n]
        violated = u[:, None] - u[None] - lip * d > LP_FEASIBILITY_TOL
        violated &= ~active
        if not violated.any():
            return float(-res.fun), u, d
        active |= violated


def dual_potential(f: SignedAtomMeasure):
    """Solve max sum_i m_i u(x_i) subject to the pairwise Lipschitz constraints.

    Solved by row generation (:func:`_lipschitz_lp`): the LP starts from the
    nearest-neighbour pairs and gains the pairs its optimum violates, until
    the optimum satisfies u_i - u_j <= |x_i - x_j| on all pairs.  Returns
    ``(Potential, value)`` with the potential shifted so its minimum is zero;
    by strong duality the value equals the minimal-connection cost.  The
    potential's ``lip_bound`` is its largest slope over all pairs.
    """
    f.require_balanced()
    if len(f) == 0:
        return Potential(values=_read_only(np.zeros(0)), lip_bound=0.0), 0.0
    _, u, d = _lipschitz_lp(f, "dual")
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

    ``max`` is the cost of a transport in which mass may also be created or
    removed at cost 1 per unit (:func:`_ground_transport`, numpy only).
    ``sum`` is the LP :func:`_lipschitz_lp`, solved by row generation over
    the atom pairs as :func:`dual_potential` is; a pair is violated when
    u_i - u_j exceeds L d_ij.
    """
    if convention not in ("max", "sum"):
        raise ValidationError(f"unknown flat norm convention {convention!r}")
    value, _ = _flat_norm_lp(f, convention)
    return value


def _flat_norm_lp(f: SignedAtomMeasure, convention: str):
    """``(value, potential)`` of the flat norm: :func:`_ground_transport`
    for ``max``, the Lipschitz LP for ``sum``.  The benchmark's tracer
    (``perfbench/tracer.py``) times both conventions under this name."""
    if len(f) == 0:
        return 0.0, np.zeros(0)
    if convention == "sum":
        value, u, _ = _lipschitz_lp(f, convention)
        return value, u
    value, u = _ground_transport(f)
    if f.balanced:
        # u + c stays optimal while |u + c| <= 1; report the centred one, not
        # whichever optimal potential the solver reached
        u = u - (np.max(u) + np.min(u)) / 2
    return value, u


def _ground_transport(f: SignedAtomMeasure):
    """The ``max`` flat norm of `f` as a transport through a ground node,
    with its potential.

    Mass may travel from a positive atom to a negative one at their
    distance, or be created or removed at cost 1 (Hanin, *Proc. AMS* 1992;
    Piccoli & Rossi's generalized Wasserstein distance, *ARMA* 2014).  That
    is the (p + 1) x (q + 1) transport whose ground source G supplies the
    total negative mass at cost 1 to every negative atom, and whose ground
    sink takes the total positive mass at cost 1 from every positive atom;
    G to the ground sink costs 0 and carries what neither side needs.  The
    value is the flow's cost.  With ``u_G`` the ground source's potential
    and ``v`` the negative atoms', the potential
    ``psi(x) = min(min_j (v_j - u_G + |x - y_j|), 1)`` is 1-Lipschitz,
    at least -1 (G's arcs are feasible) and pairs with the masses to the
    value; with no negative atoms it is 1 everywhere.
    """
    pos = np.flatnonzero(f.masses > 0.0)
    neg = np.flatnonzero(f.masses < 0.0)
    p, q = pos.size, neg.size
    cost = np.ones((p + 1, q + 1))
    cost[p, q] = 0.0
    pair_costs(f.points[pos], f.points[neg], out=cost[:p, :q])
    negative, positive = f.masses[neg], f.masses[pos]
    supply = np.concatenate([positive, [-np.sum(negative)], negative, [-np.sum(positive)]])
    sol = solve_transport(cost, supply)
    carrying = np.flatnonzero(sol.arc_flows > 0.0)
    value = ordered_sum(sol.arc_flows[carrying] * cost.ravel()[carrying])
    if q == 0:
        return value, np.ones(len(f))
    values = sol.potentials[p + 1 : p + 1 + q] - sol.potentials[p]
    return value, np.minimum(c_transform(f.points, f.points[neg], values), 1.0)


@lru_cache(maxsize=8)
def _all_permutations(k: int) -> np.ndarray:
    return np.array(list(permutations(range(k))), dtype=int)


def brute_force_connection(f: SignedAtomMeasure) -> float:
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
    if k > _BRUTE_FORCE_MAX_DIPOLES:
        raise ValidationError(
            f"brute force oracle limited to {_BRUTE_FORCE_MAX_DIPOLES} dipoles, got {k}"
        )
    d = dists(pos_pts[:, None], neg_pts[None])
    perms = _all_permutations(k)
    costs = d[np.arange(k)[None, :], perms].sum(axis=1)
    return float(magnitude * costs.min())
