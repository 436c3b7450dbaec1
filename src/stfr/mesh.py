"""Meshes: interval (1D), structured rectangle and butterfly disk (2D quads),
plus the plain-text mesh file format.

`EDGE_ENDS` is the one statement of the local edge convention, which face
pairing, the file reader and the writer read.  For quads (element nodes
CCW, mapped to reference corners (-1,-1), (1,-1), (1,1), (-1,1)):

    edge 0: eta = -1, nodes (n0, n1), parametrized by increasing xi
    edge 1: xi  = +1, nodes (n1, n2), parametrized by increasing eta
    edge 2: eta = +1, nodes (n3, n2), parametrized by increasing xi
    edge 3: xi  = -1, nodes (n0, n3), parametrized by increasing eta

1D elements (n0, n1): edge 0 is the left end, edge 1 the right end.

Interior/periodic faces carry a `flip` flag: True when the two elements
traverse the shared edge in opposite tangential order.
"""

from dataclasses import dataclass, field

import numpy as np

# dim -> (local edge, end) -> local node
EDGE_ENDS = {1: np.array([[0], [1]]), 2: np.array([[0, 1], [1, 2], [3, 2], [0, 3]])}


class MeshFormatError(ValueError):
    """Malformed mesh file; message carries the offending line number."""


@dataclass
class FaceList:
    """Paired faces (interior + periodic) as flat index arrays."""

    elem_l: np.ndarray
    edge_l: np.ndarray
    elem_r: np.ndarray
    edge_r: np.ndarray
    flip: np.ndarray


@dataclass
class Mesh:
    """Spatial mesh with connectivity, face pairing, and boundary tags.

    `nodes` holds the reference (t = 0) coordinates; motion prescriptions
    produce displaced copies and never mutate the mesh.
    """

    dim: int
    nodes: np.ndarray            # (n_nodes, dim)
    elems: np.ndarray            # (n_elems, 2) or (n_elems, 4), CCW
    faces: FaceList
    dirichlet: np.ndarray        # (n_bf, 2): (elem, edge)
    _side_rows: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)  # `side_rows` per level count

    @property
    def n_elems(self) -> int:
        return len(self.elems)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def elem_corners(self, coords: np.ndarray | None = None) -> np.ndarray:
        """Corner coordinates per element, (n_elems, n_corners, dim)."""
        c = self.nodes if coords is None else coords
        return c[self.elems]

    def side_rows(self, n_levels: int):
        """Rows of the face sides in an array whose rows run over (element,
        level, edge), n_levels levels per element.

        Returns (left, right, dirichlet, order): the rows of the left and
        right sides of the faces and of the dirichlet faces, each
        (n_sides, n_levels), and for every row its position among those
        three stacked and flattened, which gathers values computed per
        side back into rows.  Built once per level count and kept with the
        mesh until its faces or dirichlet faces are replaced.
        """
        hit = self._side_rows.get(n_levels)
        if hit is not None and hit[0] is self.faces and hit[1] is self.dirichlet:
            return hit[2]
        n_edges = 2 * self.dim
        level = np.arange(n_levels)

        def side(elem, edge):
            return (elem[:, None] * n_levels + level) * n_edges + edge[:, None]

        f = self.faces
        d_e, d_edge = np.asarray(self.dirichlet, int).reshape(-1, 2).T
        sides = [side(f.elem_l, f.edge_l), side(f.elem_r, f.edge_r), side(d_e, d_edge)]
        flat = np.concatenate([r.ravel() for r in sides])
        n = self.n_elems * n_levels * n_edges
        if flat.size != n or np.bincount(flat, minlength=n).max() != 1:
            raise ValueError("every element edge must be one face side or "
                             "one dirichlet face")
        order = np.empty(n, dtype=flat.dtype)
        order[flat] = np.arange(n)
        rows = (*sides, order)
        for r in rows:
            r.setflags(write=False)
        self._side_rows[n_levels] = (self.faces, self.dirichlet, rows)
        return rows


def refined_spec(spec: dict, levels: int = 1) -> dict:
    """A mesh builder recipe after `levels` uniform refinement levels."""
    s = dict(spec)
    kind = s.get("type")
    if kind == "interval":
        s["n"] *= 2**levels
    elif kind == "rect":
        s["nx"] *= 2**levels
        s["ny"] *= 2**levels
    elif kind == "disk":
        s["level"] = s.get("level", 0) + levels
    else:
        raise ValueError(f"mesh of type {kind!r} cannot be refined automatically")
    return s


def _edge_ends(elems, dim: int) -> np.ndarray:
    """End nodes of every element edge, (n_elems, 2 * dim, dim)."""
    return np.asarray(elems)[:, EDGE_ENDS[dim]]


def _edge_keys(ends, n: int):
    """One integer per node set of an edge (last axis); n > every node."""
    lo, hi = ends[..., 0], ends[..., -1]
    return np.minimum(lo, hi) * n + np.maximum(lo, hi)


def _build_faces(dim, elems, periodic_pairs, dirichlet_keys):
    """Pair element edges into faces.

    Edges are keyed by their sorted end nodes.  Two edges with one key make
    an interior face; faces come in order of first appearance (element by
    element, local edge by local edge) with the first hit on the left, and
    are flipped when the two traverse the edge in opposite order.  Then
    come the periodic pairs, rows (elemA, edgeA, elemB, edgeB, flip).  The
    edges left unpaired are dirichlet faces.

    dirichlet_keys: set of sorted node tuples tagged dirichlet, or None
    when every unpaired edge is.
    """
    n_edges = 2 * dim
    ends = _edge_ends(elems, dim).reshape(-1, dim)
    n = int(elems.max()) + 1
    key = _edge_keys(ends, n)  # hit h = elem * n_edges + edge

    def nodes_of(h):
        return tuple(sorted(ends[h].tolist()))

    hits = np.argsort(key, kind="stable")  # grouped by key, in hit order
    same = np.diff(key[hits]) == 0  # hits[i] and hits[i + 1] share an edge
    three = same[1:] & same[:-1]
    if three.any():
        raise ValueError(f"edge {nodes_of(hits[np.argmax(three)])} shared by "
                         "more than two elements")
    pairs = np.flatnonzero(same)
    order = np.argsort(hits[pairs])
    left, right = hits[pairs][order], hits[pairs + 1][order]

    per = np.asarray(periodic_pairs, dtype=int).reshape(-1, 5)
    unpaired = np.ones(key.size, dtype=bool)
    unpaired[left] = unpaired[right] = False
    unpaired[per[:, [0, 2]] * n_edges + per[:, [1, 3]]] = False
    boundary = np.flatnonzero(unpaired)
    if dirichlet_keys is not None:
        tagged = [t[0] * n + t[-1] for t in dirichlet_keys]
        untagged = boundary[~np.isin(key[boundary], tagged)]
        if untagged.size:
            raise ValueError(f"boundary edge {nodes_of(untagged[0])} has no tag")

    ids = np.concatenate([[*divmod(left, n_edges), *divmod(right, n_edges),
                           ends[left, 0] != ends[right, 0]], per.T], axis=1)
    faces = FaceList(*ids[:4], flip=ids[4] != 0)
    return faces, np.stack([boundary // n_edges, boundary % n_edges], axis=1)


def interval_mesh(n: int, xmin: float = 0.0, xmax: float = 1.0,
                  periodic: bool = True) -> Mesh:
    """Uniform 1D mesh of n elements on [xmin, xmax]."""
    if n < 1:
        raise ValueError("interval_mesh requires n >= 1")
    if not xmax > xmin:
        raise ValueError(f"interval_mesh requires xmax > xmin, got [{xmin}, {xmax}]")
    nodes = np.linspace(xmin, xmax, n + 1)[:, None]
    elems = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    periodic_pairs = [(n - 1, 1, 0, 0, False)] if periodic else []
    # unpaired ends are both dirichlet
    faces, diri = _build_faces(1, elems, periodic_pairs, None)
    return Mesh(dim=1, nodes=nodes, elems=elems, faces=faces, dirichlet=diri)


def rect_mesh(nx: int, ny: int, xmin: float = 0.0, xmax: float = 1.0,
              ymin: float = 0.0, ymax: float = 1.0,
              periodic: bool = True) -> Mesh:
    """Structured nx-by-ny quad mesh of [xmin, xmax] x [ymin, ymax]."""
    if nx < 1 or ny < 1:
        raise ValueError("rect_mesh requires nx, ny >= 1")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"rect_mesh requires xmax > xmin and ymax > ymin, got "
                         f"[{xmin}, {xmax}] x [{ymin}, {ymax}]")
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    nodes = np.empty((ny + 1, nx + 1, 2))  # node (i, j) is j * (nx + 1) + i
    nodes[..., 0] = xs
    nodes[..., 1] = ys[:, None]
    nodes = nodes.reshape(-1, 2)

    elems = _grid_quads(nx, ny)

    periodic_pairs = np.zeros((nx + ny if periodic else 0, 5), dtype=int)
    if periodic:  # east edges onto west edges, then north edges onto south
        west, south = np.arange(ny) * nx, np.arange(nx)
        periodic_pairs[:ny, 0] = west + nx - 1
        periodic_pairs[:ny, 1] = 1
        periodic_pairs[:ny, 2] = west
        periodic_pairs[:ny, 3] = 3
        periodic_pairs[ny:, 0] = south + (ny - 1) * nx
        periodic_pairs[ny:, 1] = 2
        periodic_pairs[ny:, 2] = south
    # unpaired edges lie on the rectangle's sides, all dirichlet
    faces, diri = _build_faces(2, elems, periodic_pairs, None)
    return Mesh(dim=2, nodes=nodes, elems=elems, faces=faces, dirichlet=diri)


def _grid_quads(nx: int, ny: int) -> np.ndarray:
    """The quads of a row-major grid of ny + 1 rows of nx + 1 points, point
    (i, j) being j * (nx + 1) + i: quad (i, j) is j * nx + i, with first
    node (i, j), and runs (i, j), (i+1, j), (i+1, j+1), (i, j+1)."""
    n0 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return n0[:, None] + [0, 1, nx + 2, nx + 1]


def disk_mesh(level: int = 0, radius: float = 0.5) -> Mesh:
    """All-quad butterfly mesh of the disk of given radius centered at (0,0).

    Five blocks (center square plus four ring blocks); refinement level r
    gives 20 * 4**r elements.  Every boundary node sits exactly on the
    circle.  Boundary faces are tagged dirichlet (analytic states).
    """
    if level < 0:
        raise ValueError("disk_mesh requires level >= 0")
    if not radius > 0:
        raise ValueError(f"disk_mesh requires radius > 0, got {radius}")
    n = 2 * 2**level          # divisions per block edge
    a = 0.5 * radius          # half-width of the central square block

    # each block an (n+1)^2 point grid: the center square in (x, y) rows,
    # then the ring blocks in (u, w) rows, u along the square edge and the
    # arc, w from the inner curve (w = 0) to the outer one (w = 1)
    s = np.linspace(-1.0, 1.0, n + 1)
    blocks = [np.broadcast_arrays(a * s, a * s[:, None])]
    u, w = s[:, None], np.linspace(0.0, 1.0, n + 1)
    for (xi, yi), phi0 in [((a, a * u), 0.0),                # east
                           ((-a * u, a), np.pi / 2),         # north
                           ((-a, -a * u), np.pi),            # west
                           ((a * u, -a), 3 * np.pi / 2)]:    # south
        phi = phi0 + u * np.pi / 4
        blocks.append(np.broadcast_arrays((1 - w) * xi + w * (radius * np.cos(phi)),
                                          (1 - w) * yi + w * (radius * np.sin(phi))))
    pts = np.moveaxis(np.array(blocks), 1, -1).reshape(-1, 2)  # block by block

    # points that coincide to 12 decimals are one node, numbered by first
    # appearance
    _, first, inverse = np.unique(pts.round(12), axis=0, return_index=True,
                                  return_inverse=True)
    number = np.argsort(np.argsort(first))
    quads = np.arange(5)[:, None, None] * (n + 1) ** 2 + _grid_quads(n, n)
    elems = number[inverse.ravel()][quads.reshape(-1, 4)]

    # all untagged boundary edges of this generator lie on the circle
    faces, diri = _build_faces(2, elems, [], dirichlet_keys=None)
    return Mesh(dim=2, nodes=pts[np.sort(first)], elems=elems, faces=faces,
                dirichlet=diri)


def write_mesh(mesh: Mesh, path: str) -> None:
    """Serialize a mesh to the plain-text format (see read_mesh)."""
    # boundary-face lines: the dirichlet faces, then both sides of every
    # face whose two sides have different nodes (a periodic pair)
    ends, f, n = _edge_ends(mesh.elems, mesh.dim), mesh.faces, mesh.n_nodes
    left, right = ends[f.elem_l, f.edge_l], ends[f.elem_r, f.edge_r]
    periodic = np.flatnonzero(_edge_keys(left, n) != _edge_keys(right, n))
    bfaces = [(p, "dirichlet") for p in ends[tuple(mesh.dirichlet.T)]]
    bfaces += [(side[i], f"periodic:{pid}") for pid, i in enumerate(periodic)
               for side in (left, right)]
    lines = [f"{mesh.dim} {mesh.n_nodes} {mesh.n_elems} {len(bfaces)}"]
    for p in mesh.nodes:
        lines.append(" ".join(repr(float(v)) for v in p))
    for en in mesh.elems:
        lines.append(" ".join(str(int(v)) for v in en))
    for pair, tag in bfaces:
        lines.append(" ".join(str(v) for v in pair) + f" {tag}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path: str) -> Mesh:
    """Parse the plain-text mesh format.

    Header `dim n_nodes n_elems n_bfaces`, then node lines `x [y]`,
    element lines of 0-based CCW node indices, and boundary-face lines
    `node_a [node_b] tag` with tag `periodic:<pair_id>` or `dirichlet`.

    Raises:
        MeshFormatError: on malformed content, naming the line number.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()

    def fail(lineno, msg):
        raise MeshFormatError(f"{path}:{lineno}: {msg}")

    if not raw:
        fail(1, "empty file")
    try:
        dim, n_nodes, n_elems, n_bf = (int(v) for v in raw[0].split())
    except Exception:
        fail(1, f"bad header {raw[0]!r}")
    if dim not in (1, 2):
        fail(1, f"unsupported dim {dim}")
    if min(n_nodes, n_elems) < 1 or n_bf < 0:
        fail(1, f"bad header {raw[0]!r}: need n_nodes >= 1, n_elems >= 1 "
                "and n_bfaces >= 0")
    need = 1 + n_nodes + n_elems + n_bf
    if len(raw) < need:
        fail(len(raw), f"expected {need} lines, found {len(raw)}")
    for ln, line in enumerate(raw[need:], need + 1):
        if line.strip():
            fail(ln, f"expected {need} lines, found more: {line!r}")

    def block(start, count, kind, width, noun, word, check):
        """The `count` lines after line `start`, `width` values of `kind`
        each, as an array; fails on the first line with another number of
        values, a value `kind` does not parse, or a row for which `check`
        returns a message."""
        out = np.zeros((count, width), dtype=kind)
        for i, line in enumerate(raw[start:start + count]):
            ln = start + i + 1
            parts = line.split()
            if len(parts) != width:
                fail(ln, f"expected {width} {noun}, got {len(parts)}")
            try:
                out[i] = [kind(v) for v in parts]
            except (ValueError, OverflowError):
                fail(ln, f"bad {word} in {line!r}")
            msg = check(out[i])
            if msg:
                fail(ln, msg)
        return out

    def elem_error(ids):
        if not (0 <= ids.min() and ids.max() < n_nodes):
            return "node index out of range"
        s = sorted(ids.tolist())
        twice = [a for a, b in zip(s, s[1:]) if a == b]
        if twice:
            return f"element names node {twice[0]} twice"
        x = nodes[ids]
        same = np.argwhere(np.triu((x[:, None] == x[None]).all(axis=-1), 1))
        if same.size:
            a, b = ids[same[0]]
            return (f"element nodes {a} and {b} are at one point "
                    f"{tuple(x[same[0, 0]].tolist())}")
        return None

    nodes = block(1, n_nodes, float, dim, "coordinates", "coordinate",
                  lambda x: None if np.isfinite(x).all() else "non-finite coordinate")
    npc, n_edges = 2 ** dim, 2 * dim
    elems = block(1 + n_nodes, n_elems, int, npc, "node indices", "node index",
                  elem_error)

    # boundary faces, each on an element edge that no other element shares
    ends = _edge_ends(elems, dim).reshape(-1, dim)
    keys, first, count = np.unique(_edge_keys(ends, n_nodes), return_index=True,
                                   return_counts=True)
    diri_keys = set()
    periodic_groups: dict[str, list] = {}
    named = {}  # edge key -> the line that names it
    for i in range(n_bf):
        ln = 1 + n_nodes + n_elems + i
        parts = raw[ln].split()
        if len(parts) != dim + 1:
            fail(ln + 1, f"expected {dim} node indices and a tag")
        try:
            ids = tuple(int(v) for v in parts[:dim])
        except ValueError:
            fail(ln + 1, f"bad node index in {raw[ln]!r}")
        if min(ids) < 0 or max(ids) >= n_nodes:
            fail(ln + 1, "node index out of range")
        k = _edge_keys(np.array(ids), n_nodes)
        j = np.searchsorted(keys, k)
        if j == keys.size or keys[j] != k:
            fail(ln + 1, f"boundary face nodes {ids} are no element edge")
        if count[j] != 1:
            fail(ln + 1, f"boundary face nodes {ids} are an interior edge")
        if k in named:
            fail(ln + 1, f"boundary face nodes {ids} already on line {named[k]}")
        named[k] = ln + 1
        tag = parts[dim]
        if tag == "dirichlet":
            diri_keys.add(tuple(sorted(ids)))
        elif tag.startswith("periodic:"):
            periodic_groups.setdefault(tag[len("periodic:"):], []).append(
                (first[j], ln + 1))  # elem * n_edges + edge
        else:
            fail(ln + 1, f"unknown boundary tag {tag!r}")

    periodic_pairs = []
    for pid, group in periodic_groups.items():
        if len(group) != 2:
            fail(group[0][1], f"periodic pair {pid!r} has {len(group)} faces")
        (ha, _), (hb, _) = group
        # orientation from the translation between the two faces (in 1D
        # the two distances are both 0: never flipped)
        pa, pb = ends[ha], ends[hb]
        t = nodes[pb].mean(axis=0) - nodes[pa].mean(axis=0)
        d_same = np.linalg.norm(nodes[pa[0]] + t - nodes[pb[0]])
        d_flip = np.linalg.norm(nodes[pa[0]] + t - nodes[pb[-1]])
        periodic_pairs.append((*divmod(ha, n_edges), *divmod(hb, n_edges),
                               d_flip < d_same))

    faces, diri = _build_faces(dim, elems, periodic_pairs, diri_keys or None)
    return Mesh(dim=dim, nodes=nodes, elems=elems, faces=faces, dirichlet=diri)
