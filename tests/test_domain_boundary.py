"""One containment rule: geometry within GEOMETRY_RTOL * max(extent, 1) of
the domain counts as inside, for documents, grids and rasterizers alike."""

import json

import numpy as np
import pytest

from tranship.beckmann import grid_network
from tranship.cli import run
from tranship.density import rasterize_plan, rasterize_vector_measure
from tranship.document import parse_document
from tranship.errors import ValidationError
from tranship.geom import GEOMETRY_RTOL, Domain, Grid
from tranship.matchnorm import minimal_connection
from tranship.measures import CellField, SignedAtomMeasure, StructuredVectorMeasure

EDGE_X = 1.0000000000001  # 1e-13 past the unit box, inside the pad

EDGE_DOC = {
    "version": 1,
    "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "atoms": [
        {"point": [EDGE_X, 0.5], "mass": 1.0},
        {"point": [0.2, 0.5], "mass": -1.0},
    ],
}


def _run(tmp_path, payload, command, *flags):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload))
    out = tmp_path / f"{command}.out"
    status = run([command, str(doc), "--out", str(out), *flags])
    return status, out


def test_grids_accept_what_documents_accept(tmp_path):
    status, out = _run(tmp_path, EDGE_DOC, "connect")
    assert status == 0
    cost = json.loads(out.read_text())["values"]["cost"]
    assert cost == pytest.approx(0.8000000000001, rel=1e-15)

    status, out = _run(tmp_path, EDGE_DOC, "beckmann", "--grid", "4x4")
    assert status == 0
    # the edge atom is binned into the boundary cell: centers 0.875 and 0.125
    assert json.loads(out.read_text())["values"]["cost"] == pytest.approx(0.75, abs=1e-15)

    status, out = _run(tmp_path, EDGE_DOC, "density", "--grid", "4x4")
    assert status == 0
    rows = out.read_text().splitlines()[1:]
    total = sum(float(row.split(",")[-1]) for row in rows)
    assert abs(total - cost) <= 1e-12 * cost


def test_geometry_beyond_the_pad_exits_2_for_every_command(tmp_path):
    payload = json.loads(json.dumps(EDGE_DOC))
    payload["atoms"][0]["point"][0] = 1.0 + 2 * GEOMETRY_RTOL
    for command, flags in (
        ("connect", ()),
        ("beckmann", ("--grid", "4x4")),
        ("density", ("--grid", "4x4")),
    ):
        status, _ = _run(tmp_path, payload, command, *flags)
        assert status == 2, command


# (domain lower, upper, outward unit offset direction): the pad is
# GEOMETRY_RTOL * max(extent, 1) per axis, so the long axis of the second box
# gets a pad 4x wider than its short one
BOXES = [
    ([0.0, 0.0], [1.0, 1.0], [1.0, 0.0]),
    ([-2.0, 0.0], [2.0, 0.5], [1.0, 0.0]),
    ([-2.0, 0.0], [2.0, 0.5], [0.0, -1.0]),
    ([0.0, 0.0, 0.0], [1.0, 3.0, 0.25], [0.0, 1.0, 0.0]),
]


def _edge_point(lower, upper, outward, factor):
    """A point `factor` pads outside the face that `outward` points through."""
    lower, upper, outward = (np.asarray(v, dtype=float) for v in (lower, upper, outward))
    axis = int(np.flatnonzero(outward)[0])
    pad = GEOMETRY_RTOL * max(upper[axis] - lower[axis], 1.0)
    point = 0.5 * (lower + upper)
    face = upper[axis] if outward[axis] > 0 else lower[axis]
    point[axis] = face + outward[axis] * factor * pad
    return point


def _checks(domain, point):
    """Every consumer of geometry, each fed `point` (and an interior partner)."""
    inside = 0.5 * (domain.lower + domain.upper)
    dim = domain.dim
    grid = Grid(domain, (4,) * dim)
    f = SignedAtomMeasure(np.array([point, inside]), np.array([1.0, -1.0]))

    def document():
        atoms = [{"point": point.tolist(), "mass": 1.0}, {"point": inside.tolist(), "mass": -1.0}]
        bounds = {"lower": domain.lower.tolist(), "upper": domain.upper.tolist()}
        parse_document({"version": 1, "domain": bounds, "atoms": atoms})

    def network():
        grid_network(domain, (4,) * dim, f)

    def plan():
        rasterize_plan(minimal_connection(f), grid)

    def vector_atoms():
        nu = StructuredVectorMeasure.build(dim, atoms=[(point, np.ones(dim))])
        rasterize_vector_measure(nu, grid)

    def cell_corners():
        # a 1-cell field whose upper (or lower) corner is `point`'s offset
        lower = np.minimum(domain.lower, point)
        upper = np.maximum(domain.upper, point)
        src = Grid(Domain(lower, upper), (1,) * dim)
        cells = CellField(grid=src, vectors=np.ones((1, dim)))
        rasterize_vector_measure(StructuredVectorMeasure.build(dim, cells=cells), Grid(domain, (1,) * dim))

    return [document, network, plan, vector_atoms, cell_corners]


@pytest.mark.parametrize("lower, upper, outward", BOXES)
def test_half_a_pad_outside_is_accepted(lower, upper, outward):
    domain = Domain(lower, upper)
    point = _edge_point(lower, upper, outward, 0.5)
    assert not np.all((point >= domain.lower) & (point <= domain.upper))
    assert domain.contains(point)
    for check in _checks(domain, point):
        check()


@pytest.mark.parametrize("lower, upper, outward", BOXES)
def test_two_pads_outside_is_rejected(lower, upper, outward):
    domain = Domain(lower, upper)
    point = _edge_point(lower, upper, outward, 2.0)
    assert not domain.contains(point)
    for check in _checks(domain, point):
        with pytest.raises(ValidationError, match="outside"):
            check()
