"""Frozen references for the tube geometry and the tube rows, kept as
independent oracles.

A tube of diameter delta around the segment [a, b] is the set of points
whose coordinate along the segment lies in [0, |b - a|] and whose
transverse coordinates, in an orthonormal frame completed from b - a, are
all below delta/2 in absolute value (square cross-section).  This is the
geometry ``TubeSpec`` computed, and the sparseness measure on it, as they
were before both moved to the rows of ``subfun.TubeTable``; the tests
compare the table against it.

The rows of ``subfun.build_tau`` and ``subfun.build_u`` are made as they
were before ``subfun._tree_rows`` made them as columns: one ``TubeField``
per branch (``junction_branch``, through ``Frame.along`` and
``np.linalg.norm``), the cells walked recursively, and the fields turned
into columns at the end (``FieldRows``).  ``tree_rows`` takes the
arguments of ``subfun._tree_rows``, so that it can stand in for it.

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
"""

import itertools
import math

import numpy as np

from oscillab.subfun import (
    EXACT_BLOCK,
    NEG_INF,
    TILE,
    TILE_PAIRS,
    Frame,
    TableBuilder,
    TubeField,
    _affine,
    _column_bounds,
    _distinct,
    _frame_coords,
    g_threshold,
    log_L_profile,
    log_L_upper,
)
from oscillab.treeset import complete_frame


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


def _cell_vs_tubes(lo, hi, tubes):
    """-1 cell disjoint from all tubes, +1 cell inside some tube, 0 unresolved."""
    corners = np.asarray(
        [[lo[i] if not (j >> i) & 1 else hi[i] for i in range(len(lo))]
         for j in range(2 ** len(lo))]
    )
    center = (np.asarray(lo) + np.asarray(hi)) / 2.0
    circum = float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)) / 2.0)
    survivors = []
    for t in tubes:
        if bool(np.all(t.contains(corners))):
            return 1, ()
        if float(t.distance(center[None, :])[0]) <= circum:
            survivors.append(t)
    if not survivors:
        return -1, ()
    return 0, tuple(survivors)


def tube_measure_in_cube(cube_lo, cube_hi, tubes, depth_cap=8, mc_samples=100_000,
                         seed=2024):
    """(low, high, estimate, standard error) of the measure of the box's
    intersection with the union of the tubes, by depth-first dyadic
    subdivision and a fixed-seed Monte-Carlo sweep over the cells left at
    the depth cap."""
    cube_lo = np.asarray(cube_lo, dtype=float)
    cube_hi = np.asarray(cube_hi, dtype=float)
    inside_vol = 0.0
    unresolved = []
    state, survivors = _cell_vs_tubes(cube_lo, cube_hi, tubes)
    stack = [(cube_lo, cube_hi, survivors, 0)] if state == 0 else []
    if state == 1:
        inside_vol = float(np.prod(cube_hi - cube_lo))
    while stack:
        lo, hi, cand, depth = stack.pop()
        if depth >= depth_cap:
            unresolved.append((lo, hi, cand))
            continue
        mid = (lo + hi) / 2.0
        for idx in np.ndindex(*(2,) * len(lo)):
            sub_lo = np.where(np.asarray(idx) == 0, lo, mid)
            sub_hi = np.where(np.asarray(idx) == 0, mid, hi)
            state, surv = _cell_vs_tubes(sub_lo, sub_hi, cand)
            if state == 1:
                inside_vol += float(np.prod(sub_hi - sub_lo))
            elif state == 0:
                stack.append((sub_lo, sub_hi, surv, depth + 1))
    unresolved_vol = float(sum(np.prod(hi - lo) for lo, hi, _ in unresolved))
    if not unresolved:
        return inside_vol, inside_vol, inside_vol, 0.0
    rng = np.random.default_rng(
        np.random.SeedSequence([seed] + [int(v * 16) & 0xFFFF for v in cube_lo]))
    per_cell = max(16, mc_samples // len(unresolved))
    hits = 0
    total = 0
    for lo, hi, cand in unresolved:
        pts = rng.uniform(lo, hi, size=(per_cell, len(lo)))
        inside = np.zeros(per_cell, dtype=bool)
        for t in cand:
            inside |= t.contains(pts)
        hits += int(inside.sum())
        total += per_cell
    frac = hits / total
    est = inside_vol + frac * unresolved_vol
    se = unresolved_vol * math.sqrt(max(frac * (1 - frac), 1e-12) / total)
    return inside_vol, inside_vol + unresolved_vol, est, se


def cube_measure(corner, tubes, depth_cap, mc_samples, seed=2024):
    """``tube_measure_in_cube`` on the unit cube at ``corner``, over the
    tubes within its circumradius of its centre."""
    lo = np.asarray(corner, dtype=float)
    centre = (lo + 0.5)[None, :]
    near = [t for t in tubes if float(t.distance(centre)[0]) <= math.sqrt(len(lo)) / 2]
    return tube_measure_in_cube(lo, lo + 1.0, near, depth_cap, mc_samples, seed)


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


def subtree_rows(rows, generations, order, corner, parent_junction, generation, guards, log_c):
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
                                    tag=tag, generation=generation), guards, log_c)
    guards = guards + (keep,)
    if order == 1:
        eps, amp, _tag = generations[-1]
        for leaf in leaf_fields(corner, d, eps, amp):
            rows.add(leaf, guards, log_c)
    else:
        half = edge / 2.0
        for offs in np.ndindex(*(2,) * d):
            sub = corner + np.asarray(offs, dtype=float) * half
            subtree_rows(rows, generations, order - 1, sub, center, generation + 1, guards, log_c)


class FieldRows:
    """Rows of a tube table added one ``TubeField`` at a time, each below
    the junctions of the given rows and scaled by exp(log_c); ``part``
    gives them as the columns ``TableBuilder.add`` takes."""

    def __init__(self, d):
        self.d = d
        self.fields = []

    def add(self, field, guards=(), log_c=0.0):
        """Append one field; returns its row."""
        self.fields.append((field, tuple(guards), log_c))
        return len(self.fields) - 1

    def part(self):
        fs = [f for f, _g, _c in self.fields]
        columns = {
            "origin": np.array([f.frame.origin for f in fs]),
            "rows": np.array([f.frame.rows for f in fs]),
            "eps": np.array([f.eps for f in fs]),
            "cut": np.array([f.cut for f in fs]),
            "log_amp": np.array([f.log_amp for f in fs]),
            "log_c": np.array([c for _f, _g, c in self.fields], dtype=float),
            "end": np.array([f.b for f in fs]),
            "box_lo": np.array([f.box[0] for f in fs]),
            "box_hi": np.array([f.box[1] for f in fs]),
            "generation": np.array([f.generation for f in fs]),
            "tag": np.array([f.tag for f in fs]),
        }
        counts = np.array([len(g) for _f, g, _c in self.fields])
        keeps = np.array([k for _f, g, _c in self.fields for k in g], dtype=np.intp)
        return columns, counts, keeps

    def table(self):
        rows = TableBuilder(self.d)
        rows.add(*self.part())
        return rows.table()


def tree_rows(rows, stems, order, generations, log_c=0.0):
    """``subfun._tree_rows`` one field at a time."""
    d = rows.d
    fields = FieldRows(d)
    for i, (anchor, direction, eps, log_amp, run, tag) in enumerate(stems):
        fields.add(junction_branch(anchor, direction, eps, d, log_amp, run, tag=tag), range(i))
    guards = tuple(range(len(stems)))
    if order == 1:
        eps, amp, _tag = generations[-1]
        for leaf in leaf_fields(np.zeros(d), d, eps, amp):
            fields.add(leaf, guards, log_c)
    else:
        centre = np.full(d, 2.0 ** (order - 1))
        for offs in np.ndindex(*(2,) * d):
            sub = np.asarray(offs, dtype=float) * 2.0 ** (order - 1)
            subtree_rows(fields, generations, order - 1, sub, centre, 1, guards, log_c)
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
    # the points in the coordinates of every chain in use, applying its
    # isometries one at a time from the outermost
    chains = sorted(set(fchain.tolist()))
    pos = np.zeros(len(table.chains), dtype=np.intp)
    pos[chains] = np.arange(len(chains))
    Y = np.empty((len(chains), d, n))
    for k, c in enumerate(chains):
        y = X.T
        for link in table._closure[c][1:]:
            _parent, m, s = table.chains[link]
            y = _affine(y, m, s)
        Y[k] = y
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
    """The rows' log amplitude (times their rescale factor) plus log L_eps
    truncated at the cut, at frame coordinates, at the pairs where it
    is finite."""
    local = np.column_stack(loc)
    vals = log_L_profile(table.eps[f], table.d, local)
    vals[local[:, 0] > table.cut[f]] = NEG_INF
    ok = np.isfinite(vals)
    f = f[ok]
    return vals[ok] + table.log_amp[f] + table.log_c[f], pi[ok]


def upper_profile(table, f, loc, r):
    """``log_L_upper`` plus the rows' log amplitude and rescale factor at
    frame coordinates, for every pair."""
    return (log_L_upper(table.eps[f], table.d, table.cut[f], np.column_stack(loc), r)
            + table.log_amp[f] + table.log_c[f])
