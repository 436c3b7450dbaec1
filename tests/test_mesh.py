import numpy as np
import pytest

from stfr import mesh as mesh_module
from stfr.basis import make_basis
from stfr.cli import MESHES
from stfr.geometry import spatial_face_points
from stfr.mesh import (
    EDGE_ENDS,
    FaceList,
    MeshFormatError,
    disk_mesh,
    interval_mesh,
    read_mesh,
    rect_mesh,
    refined_spec,
    write_mesh,
)


def _edge_pair(elem_nodes, edge, dim):
    """End nodes of one local edge of an element, as ints."""
    return tuple(int(v) for v in np.asarray(elem_nodes)[EDGE_ENDS[dim][edge]])


def quad_signed_area2(p):
    return sum(p[i][0] * p[(i + 1) % 4][1] - p[(i + 1) % 4][0] * p[i][1]
               for i in range(4))


@pytest.mark.parametrize("edge", range(4))
def test_edge_ends_run_along_the_face_points(edge):
    # the two ends of a local edge are the reference corners at the first
    # and at the last of the flux points the geometry puts on that edge
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    a, b = corners[EDGE_ENDS[2][edge]]
    pts = np.stack(spatial_face_points(make_basis(3), 2, edge), axis=-1)
    (tx, ty), (dx, dy) = b - a, (pts - a).T
    along = (tx * dx + ty * dy) / 4
    assert np.allclose(tx * dy - ty * dx, 0)
    assert np.all(np.diff(along) > 0) and 0 < along[0] and along[-1] < 1


def test_interval_periodic_faces():
    m = interval_mesh(4)
    assert len(m.faces.elem_l) == 4 and len(m.dirichlet) == 0
    m2 = interval_mesh(4, periodic=False)
    assert len(m2.faces.elem_l) == 3 and len(m2.dirichlet) == 2


def test_rect_counts_and_pairing():
    m = rect_mesh(3, 2)
    assert m.n_elems == 6
    # interior: 4 x-faces + 3 y-faces; periodic: 2 + 3
    assert len(m.faces.elem_l) == 12
    assert not np.any(m.faces.flip)  # structured mesh is orientation-aligned


def test_rect_dirichlet():
    m = rect_mesh(3, 2, periodic=False)
    assert len(m.dirichlet) == 2 * 3 + 2 * 2
    assert len(m.faces.elem_l) == 4 + 3


def test_every_interior_face_two_elements():
    m = disk_mesh(0)
    counts = {}
    for e, en in enumerate(m.elems):
        for edge in range(4):
            key = tuple(sorted(_edge_pair(en, edge, 2)))
            counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) <= {1, 2}
    n_interior = sum(1 for v in counts.values() if v == 2)
    assert len(m.faces.elem_l) == n_interior


@pytest.mark.parametrize("level,expected", [(0, 20), (1, 80), (2, 320)])
def test_disk_element_counts(level, expected):
    assert disk_mesh(level).n_elems == expected


def test_disk_boundary_on_circle():
    m = disk_mesh(1)
    ids = set()
    for e, g in m.dirichlet:
        ids.update(_edge_pair(m.elems[e], g, 2))
    r = np.linalg.norm(m.nodes[sorted(ids)], axis=1)
    assert np.all(np.abs(r - 0.5) <= 1e-12)


def test_disk_ccw_and_valid():
    m = disk_mesh(1)
    for q in m.elems:
        assert quad_signed_area2(m.nodes[q]) > 0


def test_refinement():
    for spec, n_elems in [({"type": "interval", "n": 8}, 16),
                          ({"type": "rect", "nx": 4, "ny": 4}, 64),
                          ({"type": "disk", "level": 0}, 80)]:
        s = refined_spec(spec)
        assert MESHES[s.pop("type")](**s).n_elems == n_elems


def test_mesh_file_roundtrip(tmp_path):
    for m in (interval_mesh(5), rect_mesh(3, 3), disk_mesh(0),
              rect_mesh(2, 2, periodic=False)):
        path = tmp_path / "m.txt"
        write_mesh(m, path)
        m2 = read_mesh(str(path))
        assert m2.dim == m.dim
        assert m2.nodes.dtype == m.nodes.dtype and np.array_equal(m2.nodes, m.nodes)
        assert m2.elems.dtype == m.elems.dtype and np.array_equal(m2.elems, m.elems)
        _assert_same_faces(m2, m.faces, m.dirichlet)


def test_read_mesh_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a header\n")
    with pytest.raises(MeshFormatError, match=":1:"):
        read_mesh(str(p))
    p.write_text("1 2 1 0\n0.0\n")
    with pytest.raises(MeshFormatError):
        read_mesh(str(p))
    p.write_text("1 2 1 2\n0.0\n1.0\n0 1\n0 badtag\n1 badtag\n")
    with pytest.raises(MeshFormatError, match="unknown boundary tag"):
        read_mesh(str(p))


# the 2 x 1 rectangle of quads 0 1 4 3 and 1 2 5 4, then its boundary lines
TWO_QUADS = "2 6 2 {}\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n0 1 4 3\n1 2 5 4\n"
# its six boundary edges but the left one, each tagged dirichlet
OUTER_DIRICHLET = "".join(f"{a} {b} dirichlet\n"
                          for a, b in [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3)])
# lines on an interior edge and on no edge: the middle edge 1 4 is periodic,
# or dirichlet, and the diagonal 0 4 of the left quad is dirichlet
INTERIOR_PERIODIC = TWO_QUADS.format(7) + "1 4 periodic:a\n0 3 periodic:a\n" + OUTER_DIRICHLET
INTERIOR_DIRICHLET = TWO_QUADS.format(7) + OUTER_DIRICHLET + "3 0 dirichlet\n1 4 dirichlet\n"
DIAGONAL_DIRICHLET = TWO_QUADS.format(7) + OUTER_DIRICHLET + "3 0 dirichlet\n0 4 dirichlet\n"


@pytest.mark.parametrize("text, error, message", [
    (TWO_QUADS.format(1) + "0 6 dirichlet\n", MeshFormatError,
     ":10: node index out of range"),
    (TWO_QUADS.format(1) + "-1 0 dirichlet\n", MeshFormatError,
     ":10: node index out of range"),
    (TWO_QUADS.format(2) + "0 3 periodic:a\n2 4 periodic:a\n", MeshFormatError,
     r":11: boundary face nodes \(2, 4\) are no element edge"),
    (TWO_QUADS.format(1) + "0 3 periodic:a\n", MeshFormatError,
     ":10: periodic pair 'a' has 1 faces"),
    (TWO_QUADS.format(1) + "0 3 dirichlet\n", ValueError,
     r"boundary edge \(0, 1\) has no tag"),
    ("2 6 3 0\n0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n0 1 4 3\n1 2 5 4\n1 4 3 0\n",
     ValueError, r"edge \(1, 4\) shared by more than two elements"),
    (INTERIOR_PERIODIC, MeshFormatError,
     r":10: boundary face nodes \(1, 4\) are an interior edge"),
    (INTERIOR_DIRICHLET, MeshFormatError,
     r":16: boundary face nodes \(1, 4\) are an interior edge"),
    (DIAGONAL_DIRICHLET, MeshFormatError,
     r":16: boundary face nodes \(0, 4\) are no element edge"),
    # one edge on two lines: a periodic pair with itself, or an edge both
    # dirichlet and periodic
    (TWO_QUADS.format(7) + OUTER_DIRICHLET + "3 0 periodic:a\n0 3 periodic:a\n",
     MeshFormatError, r":16: boundary face nodes \(0, 3\) already on line 15"),
    (TWO_QUADS.format(8) + OUTER_DIRICHLET + "3 0 dirichlet\n2 5 periodic:a\n"
     "0 3 periodic:a\n", MeshFormatError,
     r":16: boundary face nodes \(2, 5\) already on line 12"),
])
def test_read_mesh_rejects_bad_boundaries(tmp_path, text, error, message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(error, match=message):
        read_mesh(str(p))


@pytest.mark.parametrize("old, new, message", [
    ("\n2 1\n", "\n2 nan\n", ":7: non-finite coordinate"),
    ("\n2 1\n", "\n2 -inf\n", ":7: non-finite coordinate"),
    ("\n1 1\n", "\n1e400 1\n", ":6: non-finite coordinate"),
    ("\n0 1 4 3\n", "\n0 1 4 99999999999999999999\n", ":8: bad node index"),
    ("\n1 2 5 4\n", "\n1 2 5 5\n", ":9: element names node 5 twice"),
    ("\n2 1\n", "\n1 0\n", r":9: element nodes 1 and 5 are at one point \(1.0, 0.0\)"),
], ids=["nan", "-inf", "1e400", "index beyond int64", "repeated node",
        "coincident nodes"])
def test_read_mesh_rejects_unrepresentable_numbers(tmp_path, old, new, message):
    # values that parse but are no finite coordinate, no index or no quad:
    # the last moves node 5 onto node 1, a corner of the right quad only
    p = tmp_path / "bad.txt"
    p.write_text(TWO_QUADS.format(0).replace(old, new))
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(str(p))


def test_read_mesh_rejects_a_zero_length_1d_element(tmp_path):
    # its two end nodes are distinct but at one point
    p = tmp_path / "bad.txt"
    p.write_text("1 3 2 0\n0\n0.5\n0.5\n0 1\n1 2\n")
    with pytest.raises(MeshFormatError,
                       match=r":6: element nodes 1 and 2 are at one point \(0.5,\)"):
        read_mesh(str(p))


@pytest.mark.parametrize("header", ["2 -1 0 0", "2 4 -1 0", "2 4 1 -3",
                                    "2 4 0 0", "1 0 0 0"])
def test_read_mesh_rejects_bad_header_counts(tmp_path, header):
    # no node or no element, or a negative boundary-face count, followed by
    # the nodes and the element of a unit quad
    p = tmp_path / "bad.txt"
    p.write_text(header + "\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n")
    with pytest.raises(MeshFormatError, match=f":1: bad header '{header}': "
                       "need n_nodes >= 1, n_elems >= 1 and n_bfaces >= 0"):
        read_mesh(str(p))


def test_read_mesh_rejects_lines_after_the_counted_ones(tmp_path):
    # a boundary-face count that is too small would drop the lines after it
    p = tmp_path / "extra.txt"
    p.write_text(TWO_QUADS.format(0) + "\n  \nextra junk\n")
    with pytest.raises(MeshFormatError,
                       match=":12: expected 9 lines, found more: 'extra junk'"):
        read_mesh(str(p))
    p.write_text(TWO_QUADS.format(0) + "\n  \n\n")  # trailing blank lines
    assert read_mesh(str(p)).n_elems == 2


def test_periodic_flip_from_file(tmp_path):
    # two quads side by side, periodic in x via tags, dirichlet in y
    text = """2 6 2 6
0.0 0.0
1.0 0.0
2.0 0.0
0.0 1.0
1.0 1.0
2.0 1.0
0 1 4 3
1 2 5 4
0 3 periodic:a
2 5 periodic:a
0 1 dirichlet
1 2 dirichlet
3 4 dirichlet
4 5 dirichlet
"""
    p = tmp_path / "two.txt"
    p.write_text(text)
    m = read_mesh(str(p))
    assert len(m.faces.elem_l) == 2  # one interior + one periodic
    assert len(m.dirichlet) == 4


# -- vectorised face pairing against the loop it replaced --------------------


def _reference_faces(dim, elems, periodic_pairs, dirichlet_keys):
    """Face pairing by a dict over edge keys, in first-appearance order."""
    n_edges = 2 if dim == 1 else 4
    seen = {}
    for e, en in enumerate(elems):
        for edge in range(n_edges):
            pair = _edge_pair(en, edge, dim)
            seen.setdefault(tuple(sorted(pair)), []).append((e, edge, pair))
    rows, boundary = [], []
    for key, hits in seen.items():
        assert len(hits) <= 2
        if len(hits) == 2:
            (eL, gL, pL), (eR, gR, pR) = hits
            rows.append((eL, gL, eR, gR, pL != pR))
        else:
            boundary.append(hits[0])
    matched = set()
    for ea, ga, eb, gb, fp in periodic_pairs:
        rows.append((ea, ga, eb, gb, bool(fp)))
        matched |= {(ea, ga), (eb, gb)}
    diri = []
    for e, edge, pair in boundary:
        if (e, edge) in matched:
            continue
        assert dirichlet_keys is None or tuple(sorted(pair)) in dirichlet_keys
        diri.append((e, edge))
    cols = list(zip(*rows)) or [()] * 5
    faces = FaceList(*(np.asarray(c, dtype=int) for c in cols[:4]),
                     flip=np.asarray(cols[4], dtype=bool))
    return faces, np.asarray(diri, dtype=int).reshape(-1, 2)


def _reference_rect_inputs(nx, ny, periodic):
    """Elements, periodic pairs and dirichlet keys of rect_mesh, by loops."""
    def nid(i, j):
        return j * (nx + 1) + i

    def eid(i, j):
        return j * nx + i

    elems = np.asarray([[nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)]
                        for j in range(ny) for i in range(nx)], dtype=int)
    if periodic:
        pairs = ([(eid(nx - 1, j), 1, eid(0, j), 3, False) for j in range(ny)]
                 + [(eid(i, ny - 1), 2, eid(i, 0), 0, False) for i in range(nx)])
        return elems, pairs, None
    keys = set()
    for i in range(nx):
        keys |= {(nid(i, 0), nid(i + 1, 0)), (nid(i, ny), nid(i + 1, ny))}
    for j in range(ny):
        keys |= {(nid(0, j), nid(0, j + 1)), (nid(nx, j), nid(nx, j + 1))}
    return elems, [], keys


def _reference_disk(level, radius=0.5):
    """Nodes and elements of disk_mesh, by loops: nodes numbered through a
    dict over rounded coordinates, clockwise ring quads reordered after."""
    n = 2 * 2**level
    a = 0.5 * radius
    key2id, coords, elems = {}, [], []

    def add_node(x, y):
        key = (round(float(x), 12), round(float(y), 12))
        if key not in key2id:
            key2id[key] = len(coords)
            coords.append((float(x), float(y)))
        return key2id[key]

    s = np.linspace(-1.0, 1.0, n + 1)
    cid = [[add_node(a * si, a * sj) for si in s] for sj in s]
    for j in range(n):
        for i in range(n):
            elems.append([cid[j][i], cid[j][i + 1], cid[j + 1][i + 1], cid[j + 1][i]])

    def ring_block(inner_fn, phi0):
        u = np.linspace(-1.0, 1.0, n + 1)
        w = np.linspace(0.0, 1.0, n + 1)
        ids = np.empty((n + 1, n + 1), dtype=int)
        for iu, uu in enumerate(u):
            xi, yi = inner_fn(uu)
            phi = phi0 + uu * np.pi / 4
            xo, yo = radius * np.cos(phi), radius * np.sin(phi)
            for iw, ww in enumerate(w):
                ids[iu, iw] = add_node((1 - ww) * xi + ww * xo,
                                       (1 - ww) * yi + ww * yo)
        for iu in range(n):
            for iw in range(n):
                elems.append([ids[iu, iw], ids[iu + 1, iw],
                              ids[iu + 1, iw + 1], ids[iu, iw + 1]])

    ring_block(lambda u: (a, a * u), 0.0)
    ring_block(lambda u: (-a * u, a), np.pi / 2)
    ring_block(lambda u: (-a, -a * u), np.pi)
    ring_block(lambda u: (a * u, -a), 3 * np.pi / 2)
    nodes = np.asarray(coords)
    elems = np.asarray(elems, dtype=int)
    for q in elems:  # clockwise quads to counter-clockwise
        if quad_signed_area2(nodes[q]) < 0:
            q[1], q[3] = q[3], q[1]
    return nodes, elems


def _assert_same_faces(mesh, faces, diri):
    for name in ("elem_l", "edge_l", "elem_r", "edge_r", "flip"):
        got, want = getattr(mesh.faces, name), getattr(faces, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.dirichlet.dtype == diri.dtype
    assert np.array_equal(mesh.dirichlet, diri)


@pytest.mark.parametrize("nx, ny, periodic", [
    (1, 1, True), (3, 2, True), (3, 2, False), (8, 8, True), (5, 7, False)])
def test_rect_faces_match_reference_loop(nx, ny, periodic):
    m = rect_mesh(nx, ny, periodic=periodic)
    elems, pairs, keys = _reference_rect_inputs(nx, ny, periodic)
    assert m.elems.dtype == elems.dtype and np.array_equal(m.elems, elems)
    _assert_same_faces(m, *_reference_faces(2, elems, pairs, keys))


@pytest.mark.parametrize("level", range(4))
def test_disk_matches_reference_loop(level):
    m = disk_mesh(level)
    nodes, elems = _reference_disk(level)
    assert m.nodes.dtype == nodes.dtype and np.array_equal(m.nodes, nodes)
    assert m.elems.dtype == elems.dtype and np.array_equal(m.elems, elems)
    _assert_same_faces(m, *_reference_faces(2, elems, [], None))


@pytest.mark.parametrize("build", [
    lambda tmp: interval_mesh(5),
    lambda tmp: interval_mesh(5, periodic=False),
    lambda tmp: disk_mesh(0),
    lambda tmp: disk_mesh(1),
    lambda tmp: disk_mesh(2),
    lambda tmp: _file_mesh(tmp, disk_mesh(0)),
    lambda tmp: _file_mesh(tmp, rect_mesh(3, 2)),
], ids=["interval", "interval_dirichlet", "disk0", "disk1", "disk2",
        "file_disk", "file_periodic_rect"])
def test_faces_match_reference_loop(build, tmp_path, monkeypatch):
    calls = []
    real = mesh_module._build_faces

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(mesh_module, "_build_faces", spy)
    m = build(tmp_path)
    args, kwargs = calls[-1]
    _assert_same_faces(m, *_reference_faces(*args, **kwargs))


def _file_mesh(tmp, mesh):
    path = tmp / "m.txt"
    write_mesh(mesh, path)
    return read_mesh(str(path))


@pytest.mark.parametrize("n_levels", [1, 3])
def test_side_rows_partition_the_trace_rows(n_levels):
    """Left, right and dirichlet sides cover every (element, level, edge)
    row once, and `order` gathers the stacked sides back into rows."""
    m = disk_mesh(1)
    left, right, bound, order = m.side_rows(n_levels)
    f = m.faces
    for rows, elem, edge in [(left, f.elem_l, f.edge_l), (right, f.elem_r, f.edge_r),
                             (bound, m.dirichlet[:, 0], m.dirichlet[:, 1])]:
        e, t, g = np.unravel_index(rows, (m.n_elems, n_levels, 4))
        assert (e == elem[:, None]).all() and (g == edge[:, None]).all()
        assert (t == np.arange(n_levels)).all()
    stacked = np.concatenate([left.ravel(), right.ravel(), bound.ravel()])
    assert np.array_equal(stacked[order], np.arange(m.n_elems * n_levels * 4))
    assert m.side_rows(n_levels) is m.side_rows(n_levels)


def test_side_rows_follow_replaced_faces():
    m = rect_mesh(2, 2, periodic=False)
    assert len(m.side_rows(1)[2]) == 8
    m.faces, m.dirichlet = rect_mesh(2, 2).faces, np.zeros((0, 2), dtype=int)
    assert len(m.side_rows(1)[2]) == 0
    m.dirichlet = m.dirichlet[:0]
    m.faces = rect_mesh(2, 2, periodic=False).faces
    with pytest.raises(ValueError, match="every element edge"):
        m.side_rows(1)
