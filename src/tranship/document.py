"""JSON problem documents: parsing, validation and typed access.

A document carries the instance geometry (atoms, dipoles, segments, vector
atoms, cell fields, plans, test functions) plus named options.  Unknown keys
are rejected so typos fail loudly; the domain may be given explicitly or is
the 5%-padded bounding box of everything in the file.  Every number must be
finite: ``NaN`` and ``Infinity``, which Python's ``json`` accepts although
JSON has neither, are rejected with the path of their field.
"""

from __future__ import annotations

import json
import math
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
    """A finite float; booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{where}: expected a finite number, got {number!r}")
    return number


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
            center=_point_at(obj, "center", where),
            radius=_number_at(obj, "radius", where),
            amplitude=_as_float(obj.get("amplitude", 1.0), f"{where}.amplitude"),
        )
    raise ValidationError(f"{where}: unknown test function kind {kind!r}")


def _cell_vectors(block: dict, dim: int) -> np.ndarray:
    """The (n_cells, dim) rows of ``cells.vectors``, each entry a finite
    number; `CellField` checks the row count."""
    rows = _get(block, "vectors", "cells")
    if not isinstance(rows, list):
        raise ValidationError("cells.vectors: expected a list of vectors")
    vectors = []
    for i, row in enumerate(rows):
        where = f"cells.vectors[{i}]"
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{where}: expected a list of {dim} numbers")
        vectors.append([_as_float(x, f"{where}[{k}]") for k, x in enumerate(row)])
    return np.array(vectors, dtype=float).reshape(-1, dim)


def _columns(entries, where: str, points=(), numbers=()) -> tuple:
    """One list per key, `points` (coordinate lists) then `numbers`, from the
    objects `entries`, which must have exactly these keys; checked entry by
    entry and key by key in that order."""
    keys = (*points, *numbers)
    columns = tuple([] for _ in keys)
    for k, entry in enumerate(entries):
        at = f"{where}[{k}]"
        _require_keys(entry, keys, at)
        for key, column in zip(keys, columns):
            parse = _parse_point if key in points else _as_float
            column.append(parse(_get(entry, key, at), f"{at}.{key}"))
    return columns


def parse_document(data: dict) -> ProblemDocument:
    if not isinstance(data, dict):
        raise ValidationError("document root must be a JSON object")
    _require_keys(data, _TOP_KEYS, "document root")
    version = data.get("version")
    if version != 1:
        raise ValidationError(f"unsupported document version {version!r} (expected 1)")

    atom_points, masses = _columns(data.get("atoms", []), "atoms", ["point"], ["mass"])

    dipoles = None
    if "dipoles" in data:
        block = data["dipoles"]
        _require_keys(block, {"pairs", "tail"}, "dipoles")
        p, n = _columns(block.get("pairs", []), "dipoles.pairs", ["p", "n"])
        tail = None
        if block.get("tail") is not None:
            keys = ("ratio", "first_term")
            _require_keys(block["tail"], keys, "dipoles.tail")
            tail = tuple(_number_at(block["tail"], key, "dipoles.tail") for key in keys)
        dipoles = DipoleChain(pairs=tuple(zip(p, n)), tail=tail)

    segments = _columns(data.get("segments", []), "segments", ["a", "b", "density"])
    vector_atoms = _columns(data.get("vector_atoms", []), "vector_atoms", ["point", "vector"])
    base, direction, t, mass = _columns(data.get("plan", []), "plan", ["base", "dir"], ["t", "mass"])

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
    point_columns = (atom_points, *segments, *vector_atoms, base, direction)
    dims = {len(point) for column in point_columns for point in column}
    if dipoles is not None and len(dipoles):
        dims.add(dipoles.dim)
    if "domain" in data:
        _require_keys(data["domain"], {"lower", "upper"}, "domain")
        dims.add(len(_get(data["domain"], "lower", "domain")))
    if len(dims) > 1:
        raise ValidationError(f"mixed dimensions in document: {sorted(dims)}")
    dim = dims.pop() if dims else 2

    def rows(column):
        return np.array(column, dtype=float).reshape(-1, dim)

    def ends(a, b):  # a[0], b[0], a[1], b[1], ...
        return np.stack([a, b], axis=1).reshape(-1, dim)

    seg_a, seg_b, seg_density = map(rows, segments)
    vector_points, vectors = map(rows, vector_atoms)
    base, direction = rows(base), rows(direction)
    plan = GeneralizedPlan(base, direction, t, mass) if "plan" in data else None

    if "cells" in data:
        _require_keys(data["cells"], {"resolution", "vectors", "domain"}, "cells")
        if "domain" not in data and "domain" not in data["cells"]:
            raise ValidationError("cells require an explicit domain")

    measure = SignedAtomMeasure(rows(atom_points), masses)

    dipole_points = dipoles.pairs.reshape(-1, dim) if dipoles is not None else rows([])
    heads = base + np.array(t, dtype=float)[:, None] * direction
    geometry = np.concatenate(
        [measure.points, dipole_points, ends(seg_a, seg_b), vector_points, ends(base, heads)]
    )

    if "domain" in data:
        domain = _parse_domain(data["domain"], "domain")
    elif len(geometry):
        domain = Domain.from_geometry(geometry)
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
        cell_field = CellField(grid=grid, vectors=_cell_vectors(block, grid.dim))

    vector_measure = StructuredVectorMeasure(
        dim, vector_points, vectors, seg_a, seg_b, seg_density, cell_field
    )

    if len(geometry):
        domain.require_inside(geometry, "geometry point {} lies outside the domain")

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
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ValidationError(f"document number out of range: {exc}") from exc
    return parse_document(data)
