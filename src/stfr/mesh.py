"""Meshes: interval (1D), structured rectangle and butterfly disk (2D quads),
plus the plain-text mesh file format.

Local edge conventions for quads (element nodes CCW, mapped to reference
corners (-1,-1), (1,-1), (1,1), (-1,1)):

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

EDGE_NODES_2D = ((0, 1), (1, 2), (3, 2), (0, 3))


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

    @property
    def n(self) -> int:
        return len(self.elem_l)


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


def _edge_pair(elem_nodes, edge: int, dim: int):
    if dim == 1:
        return (int(elem_nodes[edge]),)
    a, b = EDGE_NODES_2D[edge]
    return (int(elem_nodes[a]), int(elem_nodes[b]))


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
    n_edges = 2 if dim == 1 else 4
    if dim == 1:
        a = b = elems.ravel()
    else:  # EDGE_NODES_2D
        a = elems[:, [0, 1, 3, 0]].ravel()
        b = elems[:, [1, 2, 2, 3]].ravel()
    n = int(elems.max()) + 1
    key = np.minimum(a, b) * n + np.maximum(a, b)  # hit h = elem * n_edges + edge

    def nodes_of(k):
        return (int(k // n),) if dim == 1 else (int(k // n), int(k % n))

    hits = np.argsort(key, kind="stable")  # grouped by key, in hit order
    sk = key[hits]
    new = np.ones(sk.size + 1, dtype=bool)
    new[1:-1] = sk[1:] != sk[:-1]
    start = np.flatnonzero(new)  # group starts, then the end
    count = np.diff(start)
    start = start[:-1]
    if count.max() > 2:
        k = sk[start[np.argmax(count > 2)]]
        raise ValueError(f"edge {nodes_of(k)} shared by more than two elements")
    pairs = start[count == 2]
    order = np.argsort(hits[pairs])
    left, right = hits[pairs][order], hits[pairs + 1][order]

    per = np.asarray(periodic_pairs, dtype=int).reshape(-1, 5)
    unpaired = np.zeros(key.size, dtype=bool)
    unpaired[hits[start[count == 1]]] = True
    unpaired[per[:, [0, 2]] * n_edges + per[:, [1, 3]]] = False
    boundary = np.flatnonzero(unpaired)
    if dirichlet_keys is not None:
        tagged = [t[0] * n + t[-1] for t in dirichlet_keys if 0 <= t[0] and t[-1] < n]
        untagged = boundary[~np.isin(key[boundary], tagged)]
        if untagged.size:
            raise ValueError(f"boundary edge {nodes_of(key[untagged[0]])} has no tag")

    ids = np.concatenate([[left // n_edges, left % n_edges, right // n_edges,
                           right % n_edges, a[left] != a[right]], per.T], axis=1)
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

    # element (i, j) is j * nx + i, with lower left node (i, j)
    n0 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    elems = n0[:, None] + [0, 1, nx + 2, nx + 1]

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


def _ccw_fix(nodes, elems):
    """Reorder any clockwise quad to counter-clockwise in place."""
    for q in elems:
        p = nodes[q]
        area2 = 0.0
        for i in range(4):
            x0, y0 = p[i]
            x1, y1 = p[(i + 1) % 4]
            area2 += x0 * y1 - x1 * y0
        if area2 < 0:
            q[1], q[3] = q[3], q[1]
    return elems


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

    key2id: dict[tuple, int] = {}
    coords: list[tuple] = []

    def add_node(x, y):
        key = (round(float(x), 12), round(float(y), 12))
        if key not in key2id:
            key2id[key] = len(coords)
            coords.append((float(x), float(y)))
        return key2id[key]

    elems = []

    # center block
    s = np.linspace(-1.0, 1.0, n + 1)
    cid = [[add_node(a * si, a * sj) for si in s] for sj in s]
    for j in range(n):
        for i in range(n):
            elems.append([cid[j][i], cid[j][i + 1], cid[j + 1][i + 1], cid[j + 1][i]])

    # ring blocks: inner curve = square edge, outer curve = circular arc
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

    ring_block(lambda u: (a, a * u), 0.0)                 # east
    ring_block(lambda u: (-a * u, a), np.pi / 2)          # north
    ring_block(lambda u: (-a, -a * u), np.pi)             # west
    ring_block(lambda u: (a * u, -a), 3 * np.pi / 2)      # south

    nodes = np.asarray(coords)
    elems = _ccw_fix(nodes, np.asarray(elems, dtype=int))

    # all untagged boundary edges of this generator lie on the circle
    faces, diri = _build_faces(2, elems, [], dirichlet_keys=None)
    return Mesh(dim=2, nodes=nodes, elems=elems, faces=faces, dirichlet=diri)


def write_mesh(mesh: Mesh, path: str) -> None:
    """Serialize a mesh to the plain-text format (see read_mesh)."""
    lines = []
    # reconstruct boundary-face lines: dirichlet faces plus periodic pairs
    bfaces = []
    for e, g in mesh.dirichlet:
        bfaces.append((_edge_pair(mesh.elems[e], g, mesh.dim), "dirichlet"))
    pid = 0
    for i in range(mesh.faces.n):
        eL, gL = mesh.faces.elem_l[i], mesh.faces.edge_l[i]
        eR, gR = mesh.faces.elem_r[i], mesh.faces.edge_r[i]
        pL = _edge_pair(mesh.elems[eL], gL, mesh.dim)
        pR = _edge_pair(mesh.elems[eR], gR, mesh.dim)
        if tuple(sorted(pL)) != tuple(sorted(pR)):  # periodic, not interior
            bfaces.append((pL, f"periodic:{pid}"))
            bfaces.append((pR, f"periodic:{pid}"))
            pid += 1
    lines.append(f"{mesh.dim} {mesh.n_nodes} {mesh.n_elems} {len(bfaces)}")
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
    need = 1 + n_nodes + n_elems + n_bf
    if len(raw) < need:
        fail(len(raw), f"expected {need} lines, found {len(raw)}")

    nodes = np.zeros((n_nodes, dim))
    for i in range(n_nodes):
        ln = 1 + i
        parts = raw[ln].split()
        if len(parts) != dim:
            fail(ln + 1, f"expected {dim} coordinates, got {len(parts)}")
        try:
            nodes[i] = [float(v) for v in parts]
        except ValueError:
            fail(ln + 1, f"bad coordinate in {raw[ln]!r}")

    npc = 2 if dim == 1 else 4
    elems = np.zeros((n_elems, npc), dtype=int)
    for i in range(n_elems):
        ln = 1 + n_nodes + i
        parts = raw[ln].split()
        if len(parts) != npc:
            fail(ln + 1, f"expected {npc} node indices, got {len(parts)}")
        try:
            elems[i] = [int(v) for v in parts]
        except ValueError:
            fail(ln + 1, f"bad node index in {raw[ln]!r}")
        if np.any(elems[i] < 0) or np.any(elems[i] >= n_nodes):
            fail(ln + 1, "node index out of range")

    # boundary faces
    diri_keys = set()
    periodic_groups: dict[str, list] = {}
    nk = 1 if dim == 1 else 2
    for i in range(n_bf):
        ln = 1 + n_nodes + n_elems + i
        parts = raw[ln].split()
        if len(parts) != nk + 1:
            fail(ln + 1, f"expected {nk} node indices and a tag")
        try:
            ids = tuple(int(v) for v in parts[:nk])
        except ValueError:
            fail(ln + 1, f"bad node index in {raw[ln]!r}")
        tag = parts[nk]
        if tag == "dirichlet":
            diri_keys.add(tuple(sorted(ids)))
        elif tag.startswith("periodic:"):
            periodic_groups.setdefault(tag[len("periodic:"):], []).append(
                (ids, ln + 1))
        else:
            fail(ln + 1, f"unknown boundary tag {tag!r}")

    # locate (elem, edge) owning each tagged boundary edge
    owner = {}
    n_edges = 2 if dim == 1 else 4
    for e, en in enumerate(elems):
        for edge in range(n_edges):
            pair = _edge_pair(en, edge, dim)
            owner.setdefault(tuple(sorted(pair)), []).append((e, edge, pair))

    periodic_pairs = []
    for pid, group in periodic_groups.items():
        if len(group) != 2:
            fail(group[0][1], f"periodic pair {pid!r} has {len(group)} faces")
        (ids_a, ln_a), (ids_b, _) = group
        hits_a = owner.get(tuple(sorted(ids_a)))
        hits_b = owner.get(tuple(sorted(ids_b)))
        if not hits_a or not hits_b:
            fail(ln_a, f"periodic face nodes {ids_a} or {ids_b} not on any element")
        (ea, ga, pa), (eb, gb, pb) = hits_a[0], hits_b[0]
        if dim == 1:
            fp = False
        else:
            # orientation from the translation between the two faces
            t = nodes[list(pb)].mean(axis=0) - nodes[list(pa)].mean(axis=0)
            d_same = np.linalg.norm(nodes[pa[0]] + t - nodes[pb[0]])
            d_flip = np.linalg.norm(nodes[pa[0]] + t - nodes[pb[1]])
            fp = d_flip < d_same
        periodic_pairs.append((ea, ga, eb, gb, fp))

    faces, diri = _build_faces(dim, elems, periodic_pairs, diri_keys or None)
    return Mesh(dim=dim, nodes=nodes, elems=elems, faces=faces, dirichlet=diri)
