"""JSON problem documents: parsing, validation and typed access.

A document carries the instance geometry (atoms, dipoles, segments, vector
atoms, cell fields, plans, test functions) plus named options.  Unknown keys
are rejected so typos fail loudly; the domain may be given explicitly or is
the 5%-padded bounding box of everything in the file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .funcs import Coordinate, Polynomial, RadialBump, polynomial_family
from .genplan import GeneralizedPlan
from .geom import Domain, Grid
from .measures import (
    CellField,
    DipoleChain,
    Distribution,
    SignedAtomMeasure,
    StructuredVectorMeasure,
    from_dipoles,
)

__all__ = ["ProblemDocument", "load_document", "parse_document"]

_TOP_KEYS = {
    "version",
    "domain",
    "atoms",
    "dipoles",
    "segments",
    "vector_atoms",
    "cells",
    "plan",
    "test_functions",
    "options",
}


def _require_keys(obj, allowed, where: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return obj[key]


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    """An integer, or a float with an integral value; booleans are rejected."""
    number = _as_float(value, where)
    if not number.is_integer():
        raise ValidationError(f"{where}: expected an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True)
class ProblemDocument:
    version: int
    domain: Domain
    atoms: SignedAtomMeasure
    dipoles: Optional[DipoleChain]
    vector_measure: StructuredVectorMeasure
    plan: Optional[GeneralizedPlan]
    test_functions: Optional[tuple]
    options: dict = field(default_factory=dict)

    def atom_distribution(self) -> Distribution:
        """The measure-type distribution of the document: atoms plus truncated
        dipole pairs.  A truncation with a nonzero error bound is reported
        by a warning, which ``cli.run`` records in the report."""
        measure = self.atoms
        if self.dipoles is not None:
            eps = self.options.get("truncation_eps", 0.0)
            truncated, bound = from_dipoles(self.dipoles, truncation_eps=eps)
            measure = measure + truncated.measure_part
            if bound > 0.0:
                warnings.warn(f"dipole chain truncated: norm error bound {bound!r}", stacklevel=2)
        return Distribution.from_measure(measure)

    def full_distribution(self) -> Distribution:
        f = self.atom_distribution()
        return Distribution(f.measure_part, self.vector_measure)

    def family(self, dim: int):
        if self.test_functions is not None:
            return self.test_functions
        return polynomial_family(dim, 3)


def _parse_point(value, where: str):
    if not isinstance(value, (list, tuple)) or not 2 <= len(value) <= 3:
        raise ValidationError(f"{where}: expected a 2-d or 3-d coordinate list")
    return [_as_float(v, where) for v in value]


def _point_at(obj: dict, key: str, where: str):
    return _parse_point(_get(obj, key, where), f"{where}.{key}")


def _number_at(obj: dict, key: str, where: str) -> float:
    return _as_float(_get(obj, key, where), f"{where}.{key}")


def _parse_domain(block: dict, where: str) -> Domain:
    return Domain(_point_at(block, "lower", where), _point_at(block, "upper", where))


def _parse_test_function(obj: dict, dim: int, idx: int):
    where = f"test_functions[{idx}]"
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{where}: expected an object with a 'kind'")
    kind = obj["kind"]
    if kind == "coordinate":
        _require_keys(obj, {"kind", "axis"}, where)
        axis = _as_int(obj.get("axis", 0), f"{where}.axis")
        if not 0 <= axis < dim:
            raise ValidationError(f"{where}: axis {axis} out of range for dim {dim}")
        return Coordinate(axis=axis, dim=dim)
    if kind == "polynomial":
        _require_keys(obj, {"kind", "coeffs"}, where)
        block = obj.get("coeffs", {})
        if not isinstance(block, dict):
            raise ValidationError(f"{where}.coeffs: expected an object")
        coeffs = {}
        for key, c in block.items():
            try:
                exps = tuple(int(e) for e in key.split(","))
            except ValueError as exc:
                raise ValidationError(
                    f"{where}.coeffs: bad exponent key {key!r}, expected e.g. \"1,0\""
                ) from exc
            coeffs[exps] = _as_float(c, f"{where}.coeffs[{key!r}]")
        return Polynomial(coeffs=coeffs, dim=dim)
    if kind == "radial_bump":
        _require_keys(obj, {"kind", "center", "radius", "amplitude"}, where)
        return RadialBump(
            center=_parse_point(_get(obj, "center", where), where),
            radius=_number_at(obj, "radius", where),
            amplitude=_as_float(obj.get("amplitude", 1.0), f"{where}.amplitude"),
        )
    raise ValidationError(f"{where}: unknown test function kind {kind!r}")


def parse_document(data: dict) -> ProblemDocument:
    if not isinstance(data, dict):
        raise ValidationError("document root must be a JSON object")
    _require_keys(data, _TOP_KEYS, "document root")
    version = data.get("version")
    if version != 1:
        raise ValidationError(f"unsupported document version {version!r} (expected 1)")

    atoms = []
    for k, entry in enumerate(data.get("atoms", [])):
        where = f"atoms[{k}]"
        _require_keys(entry, {"point", "mass"}, where)
        atoms.append((_point_at(entry, "point", where), _number_at(entry, "mass", where)))

    dipoles = None
    if "dipoles" in data:
        block = data["dipoles"]
        _require_keys(block, {"pairs", "tail"}, "dipoles")
        pairs = []
        for k, entry in enumerate(block.get("pairs", [])):
            where = f"dipoles.pairs[{k}]"
            _require_keys(entry, {"p", "n"}, where)
            pairs.append((_point_at(entry, "p", where), _point_at(entry, "n", where)))
        tail = None
        if block.get("tail") is not None:
            keys = ("ratio", "first_term")
            _require_keys(block["tail"], keys, "dipoles.tail")
            tail = tuple(_number_at(block["tail"], key, "dipoles.tail") for key in keys)
        dipoles = DipoleChain(pairs=tuple(pairs), tail=tail)

    segments = []
    for k, entry in enumerate(data.get("segments", [])):
        keys, where = ("a", "b", "density"), f"segments[{k}]"
        _require_keys(entry, keys, where)
        segments.append(tuple(_point_at(entry, key, where) for key in keys))

    vector_atoms = []
    for k, entry in enumerate(data.get("vector_atoms", [])):
        keys, where = ("point", "vector"), f"vector_atoms[{k}]"
        _require_keys(entry, keys, where)
        vector_atoms.append(tuple(_point_at(entry, key, where) for key in keys))

    plan_atoms = []
    for k, entry in enumerate(data.get("plan", [])):
        where = f"plan[{k}]"
        _require_keys(entry, {"base", "dir", "t", "mass"}, where)
        base, direction = (_point_at(entry, key, where) for key in ("base", "dir"))
        t, mass = (_number_at(entry, key, where) for key in ("t", "mass"))
        plan_atoms.append((base, direction, t, mass))

    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object")
    options = dict(options)
    if "truncation_eps" in options:
        options["truncation_eps"] = _as_float(options["truncation_eps"], "options.truncation_eps")
    if "eps" in options:
        if not isinstance(options["eps"], list):
            raise ValidationError(f"options.eps: expected a list of numbers, got {options['eps']!r}")
        options["eps"] = [_as_float(v, f"options.eps[{k}]") for k, v in enumerate(options["eps"])]

    # the instance dimension: from any geometry present
    dims = set()
    for p, _ in atoms:
        dims.add(len(p))
    if dipoles is not None and len(dipoles):
        dims.add(dipoles.dim)
    for a, b, d in segments:
        dims.update({len(a), len(b), len(d)})
    for p, v in vector_atoms:
        dims.update({len(p), len(v)})
    for base, direction, _t, _mass in plan_atoms:
        dims.update({len(base), len(direction)})
    if "domain" in data:
        _require_keys(data["domain"], {"lower", "upper"}, "domain")
        dims.add(len(_get(data["domain"], "lower", "domain")))
    if len(dims) > 1:
        raise ValidationError(f"mixed dimensions in document: {sorted(dims)}")
    dim = dims.pop() if dims else 2
    plan = GeneralizedPlan.from_atoms(plan_atoms, dim) if "plan" in data else None

    if "cells" in data:
        _require_keys(data["cells"], {"resolution", "vectors", "domain"}, "cells")
        if "domain" not in data and "domain" not in data["cells"]:
            raise ValidationError("cells require an explicit domain")

    measure = SignedAtomMeasure.from_atoms(atoms, dim=dim)

    geometry = [measure.points] if len(measure) else []
    if dipoles is not None and len(dipoles):
        geometry.append(dipoles.pairs.reshape(-1, dim))
    for a, b, _ in segments:
        geometry.append(np.array([a, b], dtype=float))
    for p, _ in vector_atoms:
        geometry.append(np.array([p], dtype=float))
    if plan is not None and len(plan):
        heads = plan.base + plan.t[:, None] * plan.dir
        geometry.append(np.stack([plan.base, heads], axis=1).reshape(-1, dim))

    if "domain" in data:
        domain = _parse_domain(data["domain"], "domain")
    elif geometry:
        domain = Domain.from_geometry(np.vstack(geometry))
    else:
        domain = Domain([0.0] * dim, [1.0] * dim)

    cell_field = None
    if "cells" in data:
        block = data["cells"]
        if "domain" in block:
            cell_domain = _parse_domain(block["domain"], "cells.domain")
        else:
            cell_domain = domain
        resolution = _get(block, "resolution", "cells")
        if not isinstance(resolution, list):
            raise ValidationError("cells.resolution: expected a list of integers")
        grid = Grid(cell_domain, tuple(_as_int(r, "cells.resolution") for r in resolution))
        try:
            vectors = np.asarray(_get(block, "vectors", "cells"), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"cells.vectors: {exc}") from exc
        cell_field = CellField(grid=grid, vectors=vectors)

    vector_measure = StructuredVectorMeasure.build(
        dim, atoms=vector_atoms, segments=segments, cells=cell_field
    )

    if geometry:
        domain.require_inside(np.vstack(geometry), "geometry point {} lies outside the domain")

    test_functions = None
    if "test_functions" in data:
        test_functions = tuple(
            _parse_test_function(obj, dim, k) for k, obj in enumerate(data["test_functions"])
        )

    return ProblemDocument(
        version=1,
        domain=domain,
        atoms=measure,
        dipoles=dipoles,
        vector_measure=vector_measure,
        plan=plan,
        test_functions=test_functions,
        options=options,
    )


def load_document(path: str) -> ProblemDocument:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"document is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_document(data)
