"""Frozen references for the tube geometry and the tube rows, kept as
independent oracles.

A tube of diameter delta around the segment [a, b] is the set of points
whose coordinate along the segment lies in [0, |b - a|] and whose
transverse coordinates, in an orthonormal frame completed from b - a, are
all below delta/2 in absolute value (square cross-section).  This is the
geometry the tree set's per-tube records computed before it moved to the
rows of ``subfun.TubeTable``; the tests measure the tubes ``tree.json``
records with it (``tubes_of``, ``FrozenTube.distance``).

The rows of ``subfun.build_tau`` and ``subfun.build_u`` are made as they
were before ``subfun._tree_rows`` made them as columns: one ``TubeField``
per branch (``junction_branch``, through ``Frame.along`` and
``np.linalg.norm``), the cells walked recursively, and the fields turned
into columns at the end (``FieldRows``).  ``tree_rows`` takes the
arguments of ``subfun._tree_rows``, so that it can stand in for it.
``TubeField``, its ``Frame`` and its guard (``GuardRegion``) are the
per-row record the package used before a row was only the columns of
``subfun.TubeTable``, and ``complete_frame`` the one-axis frame
completion before ``subfun._frames`` completed every axis of a batch at
once; ``field(table, i)`` reads row i back as a ``TubeField``.

A tube table is evaluated as it was before ``TubeTable`` evaluated the
tiles of a batch in array passes: the batch split into a list of tiles,
each tile's candidate rows looked up on their own (``tile_rows``) and the
tile evaluated on its own (``tile``), with its guards tested on the
tile's (candidate, point) matrix (``guarded``).  ``evaluate(table, X,
slack)`` stands in for ``TubeTable.eval_log`` (slack None) and
``upper_local``.

``near(table, x, r)`` finds the rows within distance r of a point from
the distance to every row of the table, where ``TubeTable.box_rows``
looks them up through the table's grid.

A census cube is classified as it was before ``verify.classify_cubes``
classified a level's cubes together (``classify_cube``): its rows from
``near``, P1 from the low half of one ``max_log`` of its own points
(``sup_points``, with the centerline points of ``support_sup_points``),
``covers`` searched depth first on its own sub-boxes, as a verdict on the
whole cube, and P2's axes taken in turn, each through
``content_lower_projection`` on one ``ZeroSet`` whose lines are sampled in
one pass.  A cube that ``covers`` refuses has every sample evaluated here,
where the census skips those in the cells ``TubeTable.covers`` certifies.

The chain contraction is measured as it was before ``verify._sup_lows``
took the suprema of a whole extent's boxes together
(``chain_contraction``): one box at a time, each with its own
``box_rows``, sample points and ``max_log``.
"""

import itertools
import math

import numpy as np

from oscillab.geometry import InvalidRegionError
from oscillab.subfun import (
    COVER_DEPTH,
    EXACT_BLOCK,
    NEG_INF,
    PI,
    TILE,
    TILE_PAIRS,
    TableBuilder,
    _affine,
    _column_bounds,
    _frame_coords,
    g_threshold,
    log_cosh,
    log_L_profile,
    log_L_upper,
)
from oscillab.mainlemma import ContractionRow
from oscillab.treeset import _distinct
from oscillab.verify import (
    LINE_STEPS,
    P1_STEP,
    PROJECTION_SAMPLES,
    OscillationReport,
)


def complete_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal frame (rows) with rows[0] = axis.

    Deterministic completion: Gram-Schmidt against the standard basis in
    fixed order, skipping near-parallel candidates.
    """
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0:
        raise InvalidRegionError("zero direction vector")
    rows = [axis / n]
    d = axis.shape[0]
    for i in range(d):
        if len(rows) == d:
            break
        cand = np.zeros(d)
        cand[i] = 1.0
        for r in rows:
            cand = cand - np.dot(cand, r) * r
        nc = np.linalg.norm(cand)
        if nc > 1e-9:
            rows.append(cand / nc)
    return np.asarray(rows)


class Frame:
    """Orthonormal frame: local = rows @ (x - origin)."""

    def __init__(self, rows, origin):
        self.rows = rows
        self.origin = origin

    @classmethod
    def along(cls, origin, direction):
        return cls(complete_frame(np.asarray(direction, dtype=float)),
                   np.asarray(origin, dtype=float))

    def to_local(self, X):
        return (np.atleast_2d(X) - self.origin) @ self.rows.T

    def from_local(self, L):
        return np.atleast_2d(L) @ self.rows + self.origin


class GuardRegion:
    """Anchored one-sided copy of G_eps along a tube frame: the set
    {g <= x_1 <= x1_max, |x_j| <= eps/3} in the frame's coordinates."""

    def __init__(self, frame, eps, d, x1_max):
        self.frame = frame
        self.eps = eps
        self.d = d
        self.x1_max = x1_max
        self.g = g_threshold(eps, d)

    def contains(self, X):
        loc = self.frame.to_local(X)
        return (
            (loc[:, 0] >= self.g)
            & (loc[:, 0] <= self.x1_max)
            & np.all(np.abs(loc[:, 1:]) <= self.eps / 3.0, axis=1)
        )


class TubeField:
    """One row of a tube table: the branch profile exp(log_amp) L_eps in
    the frame's coordinates, with support truncated at local x_1 = cut."""

    def __init__(self, frame, eps, d, log_amp, cut, tag="branch", generation=0):
        self.frame = frame
        self.eps = eps
        self.d = d
        self.log_amp = float(log_amp)
        self.cut = float(cut)
        self.tag = tag
        self.generation = generation
        self.a = np.asarray(frame.origin, dtype=float)
        self.b = frame.from_local(np.array([[self.cut] + [0.0] * (d - 1)]))[0]
        # axis-aligned bounding box of the tube around [a, b]
        r = eps / 2.0 * math.sqrt(d - 1)
        self.box = np.minimum(self.a, self.b) - r, np.maximum(self.a, self.b) + r

    def guard(self):
        return GuardRegion(self.frame, self.eps, self.d, self.cut)


def field(table, i):
    """Row i of a tube table as a TubeField, in the coordinates of its
    chain."""
    return TubeField(Frame(table.rows[i], table.origin[i]), float(table.eps[i]), table.d,
                     float(table.log_amp[i]), float(table.cut[i]), str(table.tag[i]),
                     int(table.generation[i]))


class FrozenTube:
    def __init__(self, a, b, diameter):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.diameter = float(diameter)
        self.length = float(np.linalg.norm(self.b - self.a))
        self.frame = complete_frame(self.b - self.a)

    def local(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.a) @ self.frame.T

    def contains(self, points):
        loc = self.local(points)
        axial = (loc[:, 0] >= 0.0) & (loc[:, 0] <= self.length)
        trans = np.all(np.abs(loc[:, 1:]) < self.diameter / 2.0, axis=1)
        return axial & trans

    def distance(self, points):
        """Euclidean distance to the tube (exact: box in frame coordinates)."""
        loc = self.local(points)
        dx = np.maximum(np.maximum(-loc[:, 0], loc[:, 0] - self.length), 0.0)
        dt = np.maximum(np.abs(loc[:, 1:]) - self.diameter / 2.0, 0.0)
        return np.sqrt(dx**2 + np.sum(dt**2, axis=1))


def tubes_of(a, b, diameters):
    """Frozen tubes around the segments [a[i], b[i]]."""
    return [FrozenTube(x, y, e) for x, y, e in zip(a, b, diameters)]


def junction_branch(anchor, direction, eps, d, log_amp, run, tag="branch", generation=0):
    """Branch anchored with x_1 = 2 g(eps) at ``anchor``, growing along
    ``direction`` and truncated after ``run`` further length (so the
    truncation face sits at anchor + run * direction)."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    g2 = 2.0 * g_threshold(eps, d)
    origin = np.asarray(anchor, dtype=float) - g2 * direction
    return TubeField(Frame.along(origin, direction), eps, d, log_amp, g2 + run, tag, generation)


def leaf_fields(cell_corner, d, eps1, amp):
    corner = np.asarray(cell_corner, dtype=float)
    center = corner + 1.0
    out = []
    for offs in np.ndindex(*(2,) * d):
        tip = corner + np.asarray(offs, dtype=float) + 0.5
        direction = center - tip
        run = float(np.linalg.norm(direction))
        out.append(junction_branch(tip, direction, eps1, d, amp, run, tag="leaf", generation=-1))
    return out


def subtree_rows(rows, generations, order, corner, parent_junction, generation, guards):
    """Rows of the dyadic cell of the given order: its branch tube running
    to the parent junction, then all lower generations glued on below its
    junction; generations[m - 1] is the (eps, log amplitude, tag) of
    generation m, generations[-1] that of the leaves."""
    d = rows.d
    edge = 2.0**order
    center = corner + edge / 2.0
    diam, amp, tag = generations[generation - 1]
    run = float(np.linalg.norm(parent_junction - center))
    keep = rows.add(junction_branch(center, parent_junction - center, diam, d, amp, run,
                                    tag=tag, generation=generation), guards)
    guards = guards + (keep,)
    if order == 1:
        eps, amp, _tag = generations[-1]
        for leaf in leaf_fields(corner, d, eps, amp):
            rows.add(leaf, guards)
    else:
        half = edge / 2.0
        for offs in np.ndindex(*(2,) * d):
            sub = corner + np.asarray(offs, dtype=float) * half
            subtree_rows(rows, generations, order - 1, sub, center, generation + 1, guards)


class FieldRows:
    """Rows of a tube table added one ``TubeField`` at a time, each below
    the junctions of the given rows; ``part`` gives them as the columns
    ``TableBuilder.add`` takes."""

    def __init__(self, d):
        self.d = d
        self.fields = []

    def add(self, field, guards=()):
        """Append one field; returns its row."""
        self.fields.append((field, tuple(guards)))
        return len(self.fields) - 1

    def part(self):
        fs = [f for f, _g in self.fields]
        columns = {
            "origin": np.array([f.frame.origin for f in fs]),
            "rows": np.array([f.frame.rows for f in fs]),
            "eps": np.array([f.eps for f in fs]),
            "cut": np.array([f.cut for f in fs]),
            "log_amp": np.array([f.log_amp for f in fs]),
            "end": np.array([f.b for f in fs]),
            "box_lo": np.array([f.box[0] for f in fs]),
            "box_hi": np.array([f.box[1] for f in fs]),
            "generation": np.array([f.generation for f in fs]),
            "tag": np.array([f.tag for f in fs]),
        }
        counts = np.array([len(g) for _f, g in self.fields])
        keeps = np.array([k for _f, g in self.fields for k in g], dtype=np.intp)
        return columns, counts, keeps

    def table(self):
        rows = TableBuilder(self.d)
        rows.add(*self.part())
        return rows.table()


def tree_rows(rows, stems, order, generations):
    """``subfun._tree_rows`` one field at a time."""
    d = rows.d
    fields = FieldRows(d)
    for i, (anchor, direction, eps, log_amp, run, tag) in enumerate(stems):
        fields.add(junction_branch(anchor, direction, eps, d, log_amp, run, tag=tag), range(i))
    guards = tuple(range(len(stems)))
    if order == 1:
        eps, amp, _tag = generations[-1]
        for leaf in leaf_fields(np.zeros(d), d, eps, amp):
            fields.add(leaf, guards)
    else:
        centre = np.full(d, 2.0 ** (order - 1))
        for offs in np.ndindex(*(2,) * d):
            sub = np.asarray(offs, dtype=float) * 2.0 ** (order - 1)
            subtree_rows(fields, generations, order - 1, sub, centre, 1, guards)
    columns, counts, keeps = fields.part()
    rows.add(columns, counts, keeps + rows.size)


def evaluate(table, X, slack=None):
    """``table.eval_log(X)`` (slack None) or ``table.upper_local(X, slack)``,
    one tile at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.full(X.shape[0], NEG_INF)
    for part, P, lo, hi in tiles(table, X):
        out[part] = tile(table, P, tile_rows(table, lo, hi, slack), slack)
    return out


def tiles(table, X):
    """X split into the tiles it is evaluated in, as (indices of the
    tile's points in X, ascending; its points; their per-coordinate
    bounds).  A point with a non-finite coordinate is in no tile: its
    value is -inf.  A batch within TILE, or one whose (row, point)
    pairs are few, is a single tile, however wide."""
    if X.shape[0] == 0:
        return []
    lo, hi = _column_bounds(X)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        ok = np.flatnonzero(np.all(np.isfinite(X), axis=1))
        return [(ok[part], P, plo, phi) for part, P, plo, phi in tiles(table, X[ok])]
    if np.all(hi - lo <= TILE) or len(table) * X.shape[0] <= TILE_PAIRS:
        return [(np.arange(X.shape[0]), X, lo, hi)]
    key = np.floor(np.minimum((X - lo) / TILE, 2.0**20)).astype(np.int64)
    lin = np.ravel_multi_index(key.T, key.max(axis=0) + 1)
    order = np.argsort(lin, kind="stable")
    out = []
    for part in np.split(order, np.flatnonzero(np.diff(lin[order])) + 1):
        P = X[part]
        out.append((part, P, *_column_bounds(P)))
    return out


def tile_rows(table, lo, hi, slack):
    """The candidate rows of a tile with bounds lo, hi: with a slack,
    the rows whose support, widened by the slack's box, meets it."""
    if slack is None:
        return candidates(table, lo, hi, 0.0, 0.0)
    return candidates(table, lo, hi, slack, slack * math.sqrt(table.d))


def candidates(table, lo, hi, pad, r):
    """Rows that can be finite in [lo, hi]: their global box widened by
    ``pad`` meets it, and so does their support widened by ``r`` along
    each of the tube's own axes."""
    ranges = []
    for ax, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        c0 = max(math.floor((a - pad) / TILE) - int(table._cell0[ax]), 0)
        c1 = min(math.floor((b + pad) / TILE) - int(table._cell0[ax]),
                 int(table._cells[ax]) - 1)
        if c1 < c0:
            return np.zeros(0, dtype=np.intp)
        step = table._strides[ax]
        ranges.append(range(c0 * step, (c1 + 1) * step, step))
    cells = [sum(idx) for idx in itertools.product(*ranges)]
    cand = _distinct(np.concatenate(
        [table._cell_fields[table._cell_ptr[c]:table._cell_ptr[c + 1]] for c in cells]))[0]
    # the grid holds the rows of the whole table; keep this range's
    cand = cand - table._first
    cand = cand[(cand >= 0) & (cand < len(table))]
    clo, chi = table.glo[cand], table.ghi[cand]
    cand = cand[np.all((clo <= hi + pad) & (chi >= lo - pad), axis=1)]
    centre, extent = (lo + hi) / 2.0, (hi - lo) / 2.0
    rows = table.global_rows[cand]
    proj = np.einsum("fji,fi->fj", rows, centre - table.tube_a[cand])
    reach = np.abs(rows) @ extent + (r + table._margin32)
    meets = (proj[:, 0] + reach[:, 0] >= 0.0) & (proj[:, 0] - reach[:, 0] <= table.cut[cand])
    for j in range(1, table.d):
        meets &= np.abs(proj[:, j]) - reach[:, j] <= table.half[cand]
    return cand[meets]


def near(table, x, r):
    """Ascending rows of the table whose support lies within Euclidean
    distance r of the point x, measured in the row's own global frame,
    from each row's squared distance with the bits ``box_rows`` computes."""
    loc = np.einsum("fji,fi->fj", table.global_rows, x - table.tube_a)
    dx = np.maximum(np.maximum(-loc[:, 0], loc[:, 0] - table.cut), 0.0)
    dt = np.maximum(np.abs(loc[:, 1:]) - table.half[:, None], 0.0)
    return np.flatnonzero(dx**2 + np.sum(dt**2, axis=1) <= r * r)


def tile(table, X, cand, slack):
    """The values at the points X of one tile, from its candidate rows
    (``tile_rows``)."""
    n, d = X.shape
    out = np.full(n, NEG_INF)
    pad = 0.0 if slack is None else slack
    r = 0.0 if slack is None else slack * math.sqrt(d)
    if cand.size == 0:
        return out
    cand = cand[np.argsort(table.chain[cand], kind="stable")]
    fchain = table.chain[cand]
    # the points in the coordinates of every chain in use, through its
    # isometry (chain 0 is the identity)
    chains = sorted(set(fchain.tolist()))
    pos = np.zeros(len(table.chains), dtype=np.intp)
    pos[chains] = np.arange(len(chains))
    Y = np.empty((len(chains), d, n))
    for k, c in enumerate(chains):
        Y[k] = _affine(X.T, *table.chains[c]) if c else X.T
    # single-precision frame coordinates rows . y - rows . origin of
    # every (candidate, point) pair, one broadcast per chain; pairs
    # within the rounding margin of the support (or of its slack-widened
    # copy) go on to the exact coordinates
    Y32 = Y.astype(np.float32)
    rows, offset = table.rows32[cand], table.offset32[cand]
    loc = [np.empty((cand.size, n), dtype=np.float32) for _ in range(d)]
    tmp = np.empty((cand.size, n), dtype=np.float32)
    groups = np.flatnonzero(np.diff(fchain)).tolist()
    for s, e in zip([0] + [g + 1 for g in groups], [g + 1 for g in groups] + [cand.size]):
        y = Y32[pos[fchain[s]]]
        for j in range(d):
            np.multiply(y[0], rows[s:e, j, 0, None], out=loc[j][s:e])
            for i in range(1, d):
                loc[j][s:e] += np.multiply(y[i], rows[s:e, j, i, None], out=tmp[s:e])
            loc[j][s:e] -= offset[s:e, j, None]
    del tmp, y, Y32
    margin = r + table._margin32 * (1.0 + 2.0 * pad)
    near = ((loc[0] > np.float32(-margin))
            & (loc[0] < (table.cut[cand] + margin).astype(np.float32)[:, None]))
    reach = (table.half[cand] + margin).astype(np.float32)[:, None]
    for t in loc[1:]:
        near &= np.abs(t) < reach
    cp = pos[fchain]
    if slack is None:
        gone = guarded(table, cand, cp, loc, Y, table._margin32)
        if gone is not None:
            near &= ~gone
    del loc
    fi, pi = np.nonzero(near)
    for k in range(0, fi.size, EXACT_BLOCK):
        fk, pk = fi[k:k + EXACT_BLOCK], pi[k:k + EXACT_BLOCK]
        f, ck = cand[fk], cp[fk]
        loc = exact_coords(table, f, ck, pk, Y)
        if slack is None:
            vals, pk = profile(table, f, pk, loc)
        else:
            vals = upper_profile(table, f, loc, r)
            for i in range(d):
                yi = Y[ck, i, pk]
                vals[(yi < table.box_lo[f, i] - pad) | (yi > table.box_hi[f, i] + pad)] = NEG_INF
        np.maximum.at(out, pk, vals)
    return out


def exact_coords(table, f, cp, pi, Y):
    """Frame coordinates of field f at point pi, from the points in the
    field's chain coordinates Y[cp]."""
    return _frame_coords([Y[cp, i, pi] - table.origin[f, i] for i in range(table.d)],
                         table.rows[f])


def guarded(table, cand, cp, loc, Y, margin):
    """(candidate, point) pairs of the tile where one of the field's
    guards contains the point, or None.  A guard is the core of its
    keep field, so only guards whose keep is a candidate can contain a
    point of the tile; each is tested once, on the keep's single
    precision coordinates, and exactly where those are within the
    margin of its boundary."""
    owner, flat = table._guard_pairs(cand)
    if flat.size == 0:
        return None
    order = np.argsort(cand)
    at = np.minimum(np.searchsorted(cand[order], flat), cand.size - 1)
    live = cand[order][at] == flat
    if not live.any():
        return None
    # a guard is named by its keep row: the keep's anchored G region,
    # g <= x_1 <= cut and |x_j| <= eps/3 in the keep's frame
    guards, slot = _distinct(flat[live])
    keep = np.empty(guards.size, dtype=np.intp)
    keep[slot] = order[at[live]]
    # |x1 - mid| against the half length and |t| against the half
    # width, each with the margin inwards (surely inside) and outwards
    lo, hi = g_threshold(table.eps[guards], table.d), table.cut[guards]
    wall = table.eps[guards] / 3.0
    mid = (lo + hi) / 2.0
    tests = [(loc[0], mid, hi - mid)] + [(t, None, wall) for t in loc[1:]]
    inside = maybe = True
    for coord, centre, half in tests:
        u = coord[keep]
        if centre is not None:
            u -= centre.astype(np.float32)[:, None]
        np.abs(u, out=u)
        inside = inside & (u <= (half - margin).astype(np.float32)[:, None])
        maybe = maybe & (u <= (half + margin).astype(np.float32)[:, None])
        del u
    gi, pi = np.nonzero(maybe & ~inside)
    for b in range(0, gi.size, EXACT_BLOCK):
        gb, pb = gi[b:b + EXACT_BLOCK], pi[b:b + EXACT_BLOCK]
        k = keep[gb]
        ex = exact_coords(table, cand[k], cp[k], pb, Y)
        ok = (ex[0] >= lo[gb]) & (ex[0] <= hi[gb])
        for t in ex[1:]:
            ok &= np.abs(t) <= wall[gb]
        inside[gb, pb] = ok
    # OR over each candidate's guards, taking the r-th guard of every
    # candidate at once (the pairs are grouped by candidate)
    owner = owner[live]
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    rank = np.arange(owner.size) - np.repeat(starts, np.diff(starts, append=owner.size))
    gone = np.zeros((cand.size, inside.shape[1]), dtype=bool)
    for r in range(int(rank.max()) + 1):
        sel = rank == r
        gone[owner[sel]] |= inside[slot[sel]]
    return gone


def profile(table, f, pi, loc):
    """The rows' log amplitude plus log L_eps truncated at the cut, at
    frame coordinates, at the pairs where it is finite."""
    local = np.column_stack(loc)
    vals = log_L_profile(table.eps[f], table.d, local)
    vals[local[:, 0] > table.cut[f]] = NEG_INF
    ok = np.isfinite(vals)
    f = f[ok]
    return vals[ok] + table.log_amp[f], pi[ok]


def upper_profile(table, f, loc, r):
    """``log_L_upper`` plus the rows' log amplitude at frame coordinates,
    for every pair."""
    return (log_L_upper(table.eps[f], table.d, table.cut[f], np.column_stack(loc), r)
            + table.log_amp[f])


def box_rows(table, lo, hi):
    """A cube's (rows, near, vanishes) by the distance to every row."""
    centre, r = (lo + hi) / 2.0, float(np.linalg.norm(hi - lo)) / 2.0
    rows = near(table, centre, r + table._margin32)
    return rows, near(table, centre, r), not np.isfinite(table.log_amp[rows]).any()


def covers(table, lo, hi, near_rows):
    """``TubeTable.covers`` of one box, searched depth first, 256 sub-boxes
    at a time."""
    d = table.d
    rows = near_rows[np.isfinite(table.log_amp[near_rows])]
    if rows.size == 0:
        return False
    mu = 2.0**-24 * table._margin32
    eps, cut, half = table.eps[rows], table.cut[rows], table.half[rows]
    slope = PI * math.sqrt(d - 1) / eps
    top = slope * cut
    start = table.guard_ptr[rows]
    count = table.guard_ptr[rows + 1] - start
    flat = np.concatenate([table.guard_idx[a:a + c] for a, c in zip(start, count)]
                          + [np.zeros(0, dtype=np.intp)]) - table._first
    owner = np.repeat(np.arange(rows.size), count)
    mine = flat >= 0
    keeps, slot = _distinct(flat[mine])
    guard = np.zeros((keeps.size, rows.size), dtype=bool)
    guard[slot, owner[mine]] = True
    g, wall = g_threshold(table.eps[keeps], d), table.eps[keeps] / 3.0
    corners = np.array(list(np.ndindex(*(2,) * d)), dtype=float)
    stack = [(lo[None, :], hi - lo, 0)]
    while stack:
        boxes, edge, level = stack.pop()
        low, high = _frame_ranges(table, rows, boxes, edge, mu)
        with np.errstate(divide="ignore", invalid="ignore"):
            best = np.minimum(high[..., 0], cut)
            cosines = np.cos(PI * np.maximum(np.maximum(low[..., 1:], -high[..., 1:]), 0.0)
                             / eps[:, None])
            alive = (best >= 0.0) & (low[..., 0] <= cut) & np.all(cosines > 0.0, axis=-1)
            alive &= log_cosh(slope * best) + np.sum(np.log(cosines), axis=-1) > 0.0
            if not alive.any(axis=1).all():
                return False
            x1 = low[..., 0]
            xj = np.maximum(-low[..., 1:], high[..., 1:])
            cosines = np.cos(PI * xj / eps[:, None])
            sec = np.sum(1.0 / cosines, axis=-1)
            log_t = log_cosh(slope * x1) + np.sum(np.log(cosines), axis=-1)
            ok = ((x1 > 0.0) & (high[..., 0] < cut) & np.all(xj < half[:, None], axis=-1)
                  & (sec < 2.0**40) & (log_t > 2.0**-44 * (top + sec + 1.0)))
        if keeps.size:
            low, high = _frame_ranges(table, keeps, boxes, edge, mu)
            clear = ((high[..., 0] < g) | (low[..., 0] > table.cut[keeps])
                     | np.any((high[..., 1:] < -wall[:, None])
                              | (low[..., 1:] > wall[:, None]), axis=-1))
            ok &= ~(~clear @ guard)
        boxes = boxes[~ok.any(axis=1)]
        if boxes.size and level == COVER_DEPTH:
            return False
        parts = (boxes[:, None, :] + corners * (edge / 2.0)).reshape(-1, d)
        stack += [(parts[i:i + 256], edge / 2.0, level + 1) for i in range(0, len(parts), 256)]
    return True


def _frame_ranges(table, rows, lo, edge, mu):
    frames = table.global_rows[rows]
    half = edge / 2.0
    proj = np.einsum("fji,nfi->nfj", frames, (lo + half)[:, None, :] - table.tube_a[rows])
    reach = np.abs(frames) @ half + mu
    return proj - reach, proj + reach


class ZeroSet:
    """The zero set of a table in one cube, its lines sampled in one pass."""

    def __init__(self, table, lo, hi, whole):
        self.table, self.dimension = table, lo.size
        self._lo, self._hi, self._whole = lo, hi, whole

    def bounds(self):
        return self._lo, self._hi

    def line_hits(self, origins, direction):
        direction = np.asarray(direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
        ts = np.linspace(float(np.min(self._lo @ direction)), float(np.max(self._hi @ direction)),
                         LINE_STEPS)
        offs = ts[None, :] - (origins @ direction)[:, None]
        pts = (origins[:, None, :] + offs[:, :, None] * direction[None, None, :])
        pts = pts.reshape(-1, self.dimension)
        inside = np.logical_and.reduce([(c >= a) & (c <= b)
                                        for c, a, b in zip(pts.T, self._lo, self._hi)])
        free = np.zeros(pts.shape[0], dtype=bool)
        if inside.any():
            free[inside] = True if self._whole else ~np.isfinite(self.table.eval_log(pts[inside]))
        return free.reshape(origins.shape[0], len(ts)).any(axis=1)


def content_lower_projection(shape, axis, samples):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    shadow_factor = float(np.sum(np.abs(axis)))
    lo, hi = shape.bounds()
    d = lo.shape[0]
    frame = complete_frame(axis)
    corners = np.array([[lo[i] if not (j >> i) & 1 else hi[i] for i in range(d)]
                        for j in range(2**d)])
    tcoords = corners @ frame[1:].T
    tlo, thi = tcoords.min(axis=0), tcoords.max(axis=0)
    n = max(2, int(round(samples ** (1.0 / (d - 1)))))
    axes = [np.linspace(tlo[i], thi[i], n) for i in range(d - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    origins = np.column_stack([m.ravel() for m in mesh]) @ frame[1:]
    hits = shape.line_hits(origins, axis)
    cell = float(np.prod((thi - tlo) / (n - 1)))
    return max(0.0, float(np.sum(hits)) - 1.0) * cell / shadow_factor


def zero_set_projection(table, lo, hi, near_rows, whole, eps_d):
    """P2's projection of one cube: 0.0 where ``covers``, else the axes
    in turn until one reaches eps_d."""
    if covers(table, lo, hi, near_rows):
        return 0.0
    zset = ZeroSet(table, lo, hi, whole)
    first = near_rows[:4]
    axes = list(np.eye(table.d))
    axes += [(b - a) / np.linalg.norm(b - a)
             for a, b in zip(table.tube_a[first], table.tube_b[first])]
    best = 0.0
    for ax in axes:
        best = max(best, content_lower_projection(zset, ax, PROJECTION_SAMPLES))
        if best >= eps_d:
            break
    return best


def sup_points(lo, hi, h, extra_points):
    """The sample points of a supremum over the box [lo, hi] (a grid of
    step at most h, in C order, then the extra points) and the slack, half
    the grid's largest step."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.shape[0]
    ns = [max(2, int(math.ceil((hi[i] - lo[i]) / h)) + 1) for i in range(d)]
    axes = [np.linspace(lo[i], hi[i], n) for i, n in enumerate(ns)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    pts = np.vstack([pts, extra_points])
    slack = max((hi[i] - lo[i]) / (n - 1) for i, n in enumerate(ns)) / 2.0
    return pts, slack


def support_sup_points(a, b, lo, hi):
    """Per segment [a[i], b[i]], its nine evenly spaced points inside the
    box [lo, hi], segment after segment."""
    ts = np.linspace(0.0, 1.0, 9)
    seg = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
    return seg[np.all((seg >= lo) & (seg <= hi), axis=2)]


def chain_contraction(u, config, result):
    """The contraction rows of ``mainlemma.chain_contraction`` (64 cubes at
    most, drawn with seed 3, sampled at step 0.25), each box's supremum on
    its own."""
    rng = np.random.default_rng(3)
    N, d = config.N, config.d
    half = N // 2
    k_max = config.k_max
    corners = result.corners
    central = np.flatnonzero(np.all((-half + k_max <= corners)
                                    & (corners + 1 + k_max <= half), axis=1))
    if not len(central):
        return []
    pick = central[rng.choice(len(central), size=min(64, len(central)), replace=False)]

    def sup(lo, hi):
        held = u.box_rows(lo, hi).rows
        extra = support_sup_points(u.tube_a[held], u.tube_b[held], lo, hi)
        pts, slack = sup_points(lo, hi, 0.25, extra)
        return u.max_log(pts, slack)[0]

    m_q = sup(np.full(d, -half, dtype=float), np.full(d, half, dtype=float))
    rows = []
    for idx in pick.tolist():
        corner = tuple(corners[idx].tolist())
        kappas = (np.flatnonzero(result.kappas[:, idx]) + 1).tolist()
        lo = np.asarray(corner, dtype=float)
        hi = lo + 1.0
        sups = [sup(lo, hi)] + [sup(lo - kap, hi + kap) for kap in kappas]
        per_step = [sups[i + 1] - sups[i] for i in range(len(sups) - 1)]
        rows.append(ContractionRow(corner, len(kappas), sups[0] - m_q, per_step))
    return rows


def classify_cube(table, corner, eps_d=0.25):
    """The census report of the basic cube at ``corner``, on its own."""
    lo = np.asarray(corner, dtype=float)
    hi = lo + 1.0
    _rows, near_rows, whole = box_rows(table, lo, hi)
    extra = support_sup_points(table.tube_a[near_rows], table.tube_b[near_rows], lo, hi)
    pts, slack = sup_points(lo, hi, P1_STEP, extra)
    low = table.max_log(pts, slack)[0]
    proj = zero_set_projection(table, lo, hi, near_rows, whole, eps_d)
    p1, p2 = low >= 0.0, proj >= eps_d
    return OscillationReport(tuple(corner), p1, p2, "oscillating" if (p1 and p2) else "rogue",
                             low, proj, float(np.max(table.eps[near_rows], initial=0.0)))
