"""Transshipment norms for measures and first-order distributions.

Three mutually verifying routes to the Kantorovich norm of a balanced atom
measure (matching, dual potential, minimal-divergence flow), generalized
transport plans unifying rays and flux elements, transport densities on
grids, and the tangential/normal decomposition measuring the distance to
the closure of balanced measures.

The names in ``__all__`` are exported lazily (PEP 562): ``import tranship``
loads no submodule and no numpy, and the first access to a name imports the
submodule that defines it.  The command line (``tranship.cli``) relies on
this to parse its arguments before anything heavy is imported.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the names it exports
_EXPORTS = {
    "beckmann": (
        "Flow",
        "FlowNetwork",
        "anisotropy_bound",
        "complete_network",
        "flow_to_vector_measure",
        "grid_network",
        "solve_beckmann",
    ),
    "density": ("GridDensity", "export", "rasterize_plan", "rasterize_vector_measure"),
    "errors": (
        "InfeasibleFlowError",
        "TailBoundError",
        "TranshipError",
        "UnbalancedMeasureError",
        "ValidationError",
        "VerificationError",
    ),
    "funcs": ("Coordinate", "Polynomial", "RadialBump", "polynomial_family"),
    "genplan": (
        "GeneralizedPlan",
        "PlanAtom",
        "pair_plan",
        "plan_from_matching",
        "plan_from_vector_measure",
        "ray_quotient",
        "split",
        "to_vector_measure",
        "verify_projection",
    ),
    "geom": ("Domain", "Grid"),
    "matchnorm": (
        "Matching",
        "Potential",
        "brute_force_connection",
        "dual_potential",
        "flat_norm",
        "minimal_connection",
    ),
    "measures": (
        "CellField",
        "DipoleChain",
        "Distribution",
        "NotAMeasure",
        "SignedAtomMeasure",
        "StructuredVectorMeasure",
        "divergence_as_measure",
        "from_dipoles",
        "pair",
    ),
    "sharpspace": (
        "Decomposition",
        "ModulusCurve",
        "TangentialSplit",
        "decompose",
        "distance_to_sharp",
        "modulus",
        "sharp_distance_via_plan",
        "tangential_cycle",
        "tangential_split",
        "verify_modulus_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # only exports resolve here: any other name raises, so that
    # ``from tranship import beckmann`` falls back to importing the submodule
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
