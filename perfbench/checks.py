"""Correctness checks computed apart from the program.

Nothing here trusts a program output: the benchmark recomputes leaf
geometry from the domain bounds, road distances with its own
``scipy.sparse.csgraph`` Dijkstra, and the exact output distribution of
the walk as the product of per-level node rows (with the uniform-row
fallback wherever the walk leaves the node that holds the true point).
The node matrices themselves are read from the mechanism and checked
here for row-stochasticity and per-level GeoInd before they are used.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import dijkstra
from scipy.spatial import cKDTree
from scipy.stats import chisquare

#: Absolute tolerance on coordinates recomputed from the bounds.
COORD_TOL = 1e-9
#: Rows must sum to one within this.
ROW_TOL = 1e-6
#: Entries below this are LP dust (the program's guard uses the same).
ZERO_TOL = 1e-12
#: Relative slack on epsilon (the program's guard uses the same).
EPS_SLACK = 1e-6


class CheckFailure(AssertionError):
    """An output or mechanism failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ----------------------------------------------------------------------
# node mechanisms
# ----------------------------------------------------------------------
def check_node(k: np.ndarray, dist: np.ndarray, epsilon: float, where: str) -> None:
    """Row-stochastic and epsilon-GeoInd between the children's points:
    K[x, z] <= exp(eps * d(x, x')) * K[x', z] for all x, x', z."""
    require(bool(np.all(np.isfinite(k))) and k.min() >= 0.0, f"{where}: bad entries")
    rows = np.abs(k.sum(axis=1) - 1.0).max()
    require(rows <= ROW_TOL, f"{where}: rows off stochastic by {rows:.3g}")
    bound = np.exp(epsilon * (1.0 + EPS_SLACK) * dist)[:, :, None] * k[None, :, :]
    lhs = np.broadcast_to(k[:, None, :], bound.shape)
    worst = float((lhs - bound).max())
    require(worst <= ZERO_TOL, f"{where}: violates {epsilon:.4g}-GeoInd by {worst:.3g}")


class ExactWalk:
    """The walk's exact output law over the stop nodes.

    ``mats[l]`` holds the matrices of the depth-``l`` nodes, shape
    ``(F**l, F, F)``, indexed by the base-``F`` number of the node's
    path.  An input is described by its path digits: at a node on its
    own path the walk uses the row of the child that holds it; at any
    other node the walk has left the true point's region and draws the
    row uniformly, i.e. uses the mean row.
    """

    def __init__(self, fanout: int, mats: list[np.ndarray]):
        self.fanout = fanout
        self.mats = mats
        self.levels = len(mats)

    @classmethod
    def from_cache(cls, snapshot: dict, fanout: int, levels: int) -> "ExactWalk":
        mats = []
        for depth in range(levels):
            count = fanout**depth
            level = np.full((count, fanout, fanout), np.nan)
            seen = 0
            for path, entry in snapshot.items():
                if len(path) != depth:
                    continue
                k = np.asarray(entry.matrix.k, dtype=float)
                require(k.shape == (fanout, fanout), f"node {path}: shape {k.shape}")
                level[path_index(path, fanout)] = k
                seen += 1
            require(seen == count, f"depth {depth}: {seen} of {count} node mechanisms")
            mats.append(level)
        return cls(fanout, mats)

    def distribution(self, digits: np.ndarray) -> np.ndarray:
        """``(n, F**L)`` stop-node probabilities for ``n`` inputs given
        by their ``(n, L)`` path digits."""
        n = digits.shape[0]
        f = self.fanout
        probs = np.ones((n, 1))
        ancestor = np.zeros(n, dtype=np.int64)
        rows = np.arange(n)
        for depth, k in enumerate(self.mats):
            step = np.broadcast_to(k.mean(axis=1), (n,) + k.shape[::2]).copy()
            step[rows, ancestor, :] = k[ancestor, digits[:, depth], :]
            probs = (probs[:, :, None] * step).reshape(n, -1)
            ancestor = ancestor * f + digits[:, depth]
        return probs


def path_index(path, fanout: int) -> int:
    out = 0
    for digit in path:
        out = out * fanout + int(digit)
    return out


def unique_rows(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniq, inverse = np.unique(digits, axis=0, return_inverse=True)
    return uniq, inverse.ravel()


# ----------------------------------------------------------------------
# GIHI geometry
# ----------------------------------------------------------------------
class GihiGeometry:
    """Cell arithmetic of a ``g``-ary grid hierarchy over square bounds."""

    def __init__(self, bounds, granularity: int, levels: int):
        self.min_x = bounds.min_x
        self.min_y = bounds.min_y
        self.side = bounds.width
        self.g = granularity
        self.levels = levels
        self.leaf_n = granularity**levels
        self.leaf_side = self.side / self.leaf_n

    def cell_centres(self, depth: int, rows, cols) -> np.ndarray:
        side = self.side / self.g**depth
        return np.column_stack(
            [self.min_x + (np.asarray(cols) + 0.5) * side,
             self.min_y + (np.asarray(rows) + 0.5) * side]
        )

    def leaf_cells(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        col = np.floor((xy[:, 0] - self.min_x) / self.leaf_side)
        row = np.floor((xy[:, 1] - self.min_y) / self.leaf_side)
        last = self.leaf_n - 1
        return (np.clip(row, 0, last).astype(np.int64), np.clip(col, 0, last).astype(np.int64))

    def digits(self, xy: np.ndarray) -> np.ndarray:
        """Row-major child digits of each point's cell at every level."""
        row, col = self.leaf_cells(xy)
        out = np.empty((xy.shape[0], self.levels), dtype=np.int64)
        for depth in range(1, self.levels + 1):
            scale = self.g ** (self.levels - depth)
            out[:, depth - 1] = ((row // scale) % self.g) * self.g + (col // scale) % self.g
        return out

    def node_cell(self, path) -> tuple[int, int]:
        row = col = 0
        for digit in path:
            row = row * self.g + digit // self.g
            col = col * self.g + digit % self.g
        return row, col

    def child_centres(self, path) -> np.ndarray:
        row, col = self.node_cell(path)
        j = np.arange(self.g * self.g)
        return self.cell_centres(len(path) + 1, row * self.g + j // self.g, col * self.g + j % self.g)

    def leaf_points(self) -> np.ndarray:
        """Leaf centres in stop-node order (base-``g*g`` path order)."""
        n_leaves = (self.g * self.g) ** self.levels
        ids = np.arange(n_leaves)
        digits = np.empty((n_leaves, self.levels), dtype=np.int64)
        for depth in range(self.levels - 1, -1, -1):
            digits[:, depth] = ids % (self.g * self.g)
            ids = ids // (self.g * self.g)
        row = np.zeros(n_leaves, dtype=np.int64)
        col = np.zeros(n_leaves, dtype=np.int64)
        for depth in range(self.levels):
            row = row * self.g + digits[:, depth] // self.g
            col = col * self.g + digits[:, depth] % self.g
        return self.cell_centres(self.levels, row, col)

    def leaf_of_outputs(self, out_xy: np.ndarray) -> np.ndarray:
        """Stop-node id of each reported point; fails unless every
        point is exactly a leaf centre."""
        row, col = self.leaf_cells(out_xy)
        centres = self.cell_centres(self.levels, row, col)
        err = float(np.abs(centres - out_xy).max()) if out_xy.size else 0.0
        require(err <= COORD_TOL, f"reported point is not a leaf centre (off by {err:.3g} km)")
        digits = self.digits(out_xy)
        return digits @ (self.g * self.g) ** np.arange(self.levels - 1, -1, -1)


def check_gihi_nodes(snapshot: dict, geometry: GihiGeometry, budgets) -> ExactWalk:
    """Every node mechanism: children's points from the bounds,
    row-stochastic, GeoInd at its level budget.  Returns the exact walk."""
    fanout = geometry.g * geometry.g
    for path, entry in snapshot.items():
        centres = geometry.child_centres(path)
        inputs = np.asarray([(p.x, p.y) for p in entry.matrix.inputs])
        require(
            inputs.shape == centres.shape and np.abs(inputs - centres).max() <= COORD_TOL,
            f"node {path}: inputs are not its children's centres",
        )
        dist = np.hypot(*(centres[:, None, :] - centres[None, :, :]).transpose(2, 0, 1))
        check_node(np.asarray(entry.matrix.k), dist, budgets[len(path)], f"node {path}")
    return ExactWalk.from_cache(snapshot, fanout, len(budgets))


# ----------------------------------------------------------------------
# road geometry
# ----------------------------------------------------------------------
class RoadGeometry:
    """Leaves, medoids and network distances of a graph partition,
    with distances from the benchmark's own Dijkstra."""

    def __init__(self, city, partition):
        self.coords = np.asarray(city.coords, dtype=float)
        self.csr = city.csr
        self.tree = cKDTree(self.coords)
        leaves = sorted(partition.leaves(), key=lambda node: tuple(node.path))
        self.fanout = partition.fanout
        self.levels = partition.height
        require(
            len(leaves) == self.fanout**self.levels,
            f"partition has {len(leaves)} leaves, expected {self.fanout ** self.levels}",
        )
        n = self.coords.shape[0]
        self.leaf_of_vertex = np.full(n, -1, dtype=np.int64)
        self.leaf_digits = np.asarray([leaf.path for leaf in leaves], dtype=np.int64)
        ids = self.leaf_digits @ self.fanout ** np.arange(self.levels - 1, -1, -1)
        self.leaf_vertex = np.empty(len(leaves), dtype=np.int64)
        for lid, leaf in zip(ids, leaves):
            members = np.asarray(leaf.vertex_ids, dtype=np.int64)
            require(bool(np.all(self.leaf_of_vertex[members] == -1)), "leaves overlap")
            self.leaf_of_vertex[members] = lid
            self.leaf_vertex[lid] = self.vertex_at(leaf.center)
            require(self.leaf_vertex[lid] in set(members.tolist()), f"leaf {leaf.path}: medoid outside it")
        require(bool(np.all(self.leaf_of_vertex >= 0)), "leaves do not cover the road graph")
        self.leaf_dist = dijkstra(self.csr, directed=False, indices=self.leaf_vertex)
        self._leaf_index = {int(v): i for i, v in enumerate(self.leaf_vertex)}

    def vertex_at(self, point) -> int:
        d, v = self.tree.query([point.x, point.y])
        require(d <= COORD_TOL, f"representative {point} is not a road vertex")
        return int(v)

    def vertices(self, xy: np.ndarray) -> np.ndarray:
        return self.tree.query(xy)[1].astype(np.int64)

    def digits(self, xy: np.ndarray) -> np.ndarray:
        return self.leaf_digits_of(self.leaf_of_vertex[self.vertices(xy)])

    def leaf_digits_of(self, leaf_ids: np.ndarray) -> np.ndarray:
        out = np.empty((leaf_ids.size, self.levels), dtype=np.int64)
        ids = leaf_ids.copy()
        for depth in range(self.levels - 1, -1, -1):
            out[:, depth] = ids % self.fanout
            ids //= self.fanout
        return out

    def leaf_of_outputs(self, out_xy: np.ndarray) -> np.ndarray:
        d, v = self.tree.query(out_xy)
        require(float(np.max(d, initial=0.0)) <= COORD_TOL, "reported point is not a road vertex")
        try:
            return np.asarray([self._leaf_index[int(x)] for x in v], dtype=np.int64)
        except KeyError:
            raise CheckFailure("reported vertex is not a leaf medoid") from None


def check_road_nodes(msm, geometry: RoadGeometry, partition) -> ExactWalk:
    snapshot = msm.cache.snapshot()
    for path, entry in snapshot.items():
        parent = _node_at(partition, path)
        children = partition.children(parent)
        covered = set()
        for child in children:
            members = set(child.vertex_ids)
            require(not (covered & members), f"node {path}: children overlap")
            covered |= members
        require(covered == set(parent.vertex_ids), f"node {path}: children do not cover it")
        verts = np.asarray([geometry.vertex_at(c.center) for c in children])
        inputs = np.asarray([(p.x, p.y) for p in entry.matrix.inputs])
        require(
            np.abs(inputs - geometry.coords[verts]).max() <= COORD_TOL,
            f"node {path}: inputs are not its children's medoids",
        )
        dist = dijkstra(geometry.csr, directed=False, indices=verts)[:, verts]
        check_node(np.asarray(entry.matrix.k), dist, msm.budgets[len(path)], f"node {path}")
    return ExactWalk.from_cache(snapshot, geometry.fanout, geometry.levels)


def _node_at(partition, path):
    node = partition.root
    for digit in path:
        node = partition.children(node)[digit]
    return node


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson chi-square p-value, bins with expected count < 5 pooled."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    small = expected < 5.0
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0
    require(bool(np.all(obs[~keep] == 0)), "output outside the walk's support")
    obs, exp = obs[keep], exp[keep]
    exp = exp * (obs.sum() / exp.sum())
    return float(chisquare(obs, exp).pvalue)


def expected_losses(cells: np.ndarray, probs: np.ndarray, distances, chunk: int = 4096) -> np.ndarray:
    """Exact E[d(x, Z)] per input: ``probs[cells[i]]`` is input i's law
    over the stop nodes and ``distances(start, stop)`` gives the
    ``(stop - start, n_stops)`` distances from inputs to stop points."""
    out = np.empty(cells.size)
    for start in range(0, cells.size, chunk):
        stop = min(start + chunk, cells.size)
        out[start:stop] = (probs[cells[start:stop]] * distances(start, stop)).sum(axis=1)
    return out


def euclidean_to(xy: np.ndarray, points: np.ndarray):
    """``distances`` callback of :func:`expected_losses` in the plane
    (single precision: far below the 4-standard-error tolerance)."""
    xy32 = xy.astype(np.float32)
    pts32 = points.astype(np.float32)

    def distances(start: int, stop: int) -> np.ndarray:
        dx = xy32[start:stop, 0, None] - pts32[None, :, 0]
        dy = xy32[start:stop, 1, None] - pts32[None, :, 1]
        return np.sqrt(dx * dx + dy * dy)

    return distances


def check_loss(observed: np.ndarray, expected: np.ndarray, weights: np.ndarray, what: str) -> None:
    """The observed mean loss lies within 4 standard errors of the exact
    expectation over the same inputs (``expected`` per distinct input,
    ``weights`` how often each was released)."""
    expected_mean = float(expected @ weights) / float(weights.sum())
    n = observed.size
    se = float(observed.std(ddof=1)) / np.sqrt(n)
    gap = abs(float(observed.mean()) - expected_mean)
    require(gap <= 4.0 * se + 1e-12,
            f"{what}: mean loss {observed.mean():.5f} km is {gap / se:.1f} SE from "
            f"the exact {expected_mean:.5f} km")
