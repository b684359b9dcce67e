"""Batch-release workloads: a data publisher sanitises its check-ins.

``release-batch``  the raw walk over GIHI (compiled kernel path);
``release-remap``  the same walk through the optimal Bayesian remap;
``release-road``   the walk over a road-graph partition with
                   shortest-path distance (staged path: graph trees do
                   not compile).

Each run sets the publisher up several times (the median is
``setup_s``), then spends 60% of its time releasing fixed-size batches
(``throughput_per_s`` from the interquartile mean batch time) and 40%
releasing small batches one after the other (their latency
percentiles), and finally checks every output.  Releases take
consecutive records of the data set, from an offset the workload seed
picks.  Each timed release starts from a collected heap, with the run's
long-lived objects (data set, mechanism) frozen out of the collector,
and is rescaled to the reference host (see ``calibrate.py``); set-up
times are rescaled by the run's median factor over the batch releases.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import calibrate
import checks
import scenario
from measure import Result, interquartile_mean, median, peak_rss_mb, percentile

#: Records per release batch: large enough that per-call overhead is
#: negligible, small enough for several batches in one run.
BATCH = 16_384
#: Records per small release (below the kernel's 1,024-point minimum,
#: so it runs the staged walk on every index).
SMALL_BATCH = 256
#: Set-ups per run; the median is reported.
SETUPS = {"release-batch": 5, "release-remap": 3, "release-road": 3}
#: Fixed inputs of the chi-square test, as fractions of the domain:
#: the downtown core, the west suburbs and a far corner.
CHI_INPUTS = ((0.61, 0.42), (0.30, 0.55), (0.05, 0.95))
CHI_SAMPLES = 20_000
#: Fixed seed of the chi-square draws, so the test's outcome does not
#: depend on the workload seed.
CHI_SEED = 20190326
CHI_ALPHA = 1e-4
THROUGHPUT_SHARE = 0.6


def install_layers(layers) -> None:
    from repro.core.budget.allocation import allocate_budget
    from repro.core.cache import NodeMechanismCache
    from repro.core.engine import OptimalRemapPostProcessor, WalkEngine
    from repro.core.kernel import CompiledWalk
    from repro.core.resilience import ResilientSolver
    from repro.geo.point import points_to_array
    from repro.graph import GraphMetric, GraphPartitionIndex
    from repro.grid.hierarchy import HierarchicalGrid
    from repro.mechanisms.matrix import MechanismMatrix
    from repro.privacy.guard import guard_mechanism

    layers.wrap_function(points_to_array, "geo.convert")
    layers.wrap_function(guard_mechanism, "privacy.guard")
    layers.wrap_function(allocate_budget, "budget.allocate")
    layers.wrap_method(WalkEngine, "walk", "engine.walk")
    layers.wrap_method(WalkEngine, "compile", "kernel.compile")
    layers.wrap_method(CompiledWalk, "walk_arrays", "kernel.walk")
    layers.wrap_method(OptimalRemapPostProcessor, "finalise", "engine.remap")
    layers.wrap_method(HierarchicalGrid, "locate_child_indices", "grid.locate")
    layers.wrap_method(GraphPartitionIndex, "locate_child_indices", "grid.locate")
    layers.wrap_method(MechanismMatrix, "sample_rows", "mechanisms.sample")
    layers.wrap_method(NodeMechanismCache, "get_or_build_many", "cache.resolve")
    layers.wrap_method(ResilientSolver, "solve", "lp.solve")
    layers.wrap_method(GraphMetric, "precompute", "graph.dijkstra")
    layers.wrap_method(GraphMetric, "pairwise", "graph.dijkstra")


class _Releases:
    """What the timed releases reported, as stop-node ids.

    Outputs are mapped to stop nodes as they arrive (a point that is no
    stop node's point is recorded as a failure), so the memory kept per
    release is a few int32 per record and peak RSS does not grow with
    the number of releases a run completes."""

    def __init__(self, geometry, remap: bool):
        self.geometry = geometry
        self.remap = remap
        self.inputs: list[np.ndarray] = []
        self.outputs: list[np.ndarray] = []
        self.raw: list[np.ndarray] = []
        self.failure: str | None = None

    def _leaves(self, points) -> np.ndarray:
        try:
            return self.geometry.leaf_of_outputs(np.asarray([(p.x, p.y) for p in points]))
        except checks.CheckFailure as exc:
            self.failure = self.failure or str(exc)
            return np.full(len(points), -1, dtype=np.int32)

    def add(self, idx: np.ndarray, results) -> None:
        self.inputs.append(idx.astype(np.int32))
        self.outputs.append(self._leaves([r.point for r in results]).astype(np.int32))
        if self.remap:
            self.raw.append(self._leaves([r.raw_point for r in results]).astype(np.int32))

    def stacked(self):
        checks.require(self.failure is None, self.failure or "")
        raw = np.concatenate(self.raw) if self.remap else None
        return np.concatenate(self.inputs), np.concatenate(self.outputs), raw


def _timed_releases(msm, points, batch, seconds, rng, releases, start=0):
    """Release consecutive ``batch``-record slices of the data set
    (cycling) until ``seconds`` have passed, each bracketed by reference
    units; returns per-release seconds, raw and rescaled."""
    n = len(points)
    times, refs = [], []
    pos = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not times:
        idx = np.arange(pos, pos + batch) % n
        pos = (pos + batch) % n
        xs = [points[i] for i in idx]
        gc.collect()
        refs.append(calibrate.reference_seconds())
        t0 = time.perf_counter()
        results = msm.sanitize_batch(xs, rng, trace=False)
        times.append(time.perf_counter() - t0)
        releases.add(idx, results)
        del results  # a publisher does not hold on to the last batch
    refs.append(calibrate.reference_seconds())
    return np.asarray(times), calibrate.scale_between(times, refs)


def run(workload: str, seed: int, seconds: float, layers) -> Result:
    walk_seed, offset_seed = scenario.seeds(seed, 2)
    road = workload == "release-road"
    remap = workload == "release-remap"
    dataset = scenario.checkins()
    xy, bounds = dataset.xy, dataset.bounds
    points = scenario.to_points(xy)
    prior, prior_probs = scenario.grid_prior(xy, bounds, scenario.PRIOR_CELLS)

    before = layers.snapshot() if layers else None
    setups = []
    for _ in range(SETUPS[workload]):
        t0 = time.perf_counter()
        if road:
            msm, city, partition = scenario.build_road(xy, layers)
        else:
            msm = scenario.build_gihi(prior, remap=remap)
        setups.append(time.perf_counter() - t0)
    setup_delta = layers.since(layers.snapshot(), before) if layers else None

    if road:
        geometry = checks.RoadGeometry(city, partition)
    else:
        geometry = checks.GihiGeometry(bounds, scenario.GRANULARITY, len(msm.budgets))
    # Everything built so far lives for the whole run: keep it out of the
    # collector's scans, so each release pays for its own garbage only.
    gc.collect()
    gc.freeze()
    result = Result()
    rng = np.random.default_rng(walk_seed)
    releases = _Releases(geometry, remap)
    t_big = THROUGHPUT_SHARE * seconds
    before = layers.snapshot() if layers else None
    offset = int(np.random.default_rng(offset_seed).integers(len(points)))
    big_raw, big = _timed_releases(msm, points, BATCH, t_big, rng, releases, start=offset)
    walk_delta = layers.since(layers.snapshot(), before) if layers else None
    small_raw, small = _timed_releases(msm, points, SMALL_BATCH, seconds - t_big, rng,
                                       releases, start=offset + len(points) // 2)
    result.attempted = len(big) + len(small)
    peak_rss = peak_rss_mb()
    # The host's speed during the releases rescales the set-ups too: a
    # reference taken around a set-up misreads it (the heap changes
    # under it), but drift over a run's seconds is shared.
    host = median(big / big_raw)

    if road:
        loss = result.check(_check_road, msm, geometry, partition, releases, xy)
    else:
        loss = result.check(_check_gihi, msm, geometry, releases, xy, prior_probs)
    result.end_to_end = {
        "setup_s": median(setups) * host,
        "throughput_per_s": BATCH / interquartile_mean(big),
        "p50_ms": 1e3 * percentile(small, 50),
        "p75_ms": 1e3 * percentile(small, 75),
        "loss_km": loss if loss is not None else 0.0,
        "peak_rss_mb": peak_rss,
    }
    result.notes.update({
        "setups": len(setups), "releases": len(big), "small_releases": len(small),
        "raw_setup_s": round(median(setups), 4),
        "raw_throughput_per_s": round(BATCH / interquartile_mean(big_raw), 1),
        "raw_p50_ms": round(1e3 * percentile(small_raw, 50), 3),
        "raw_p75_ms": round(1e3 * percentile(small_raw, 75), 3),
    })
    if layers:
        result.per_layer = _layer_metrics(setup_delta, len(setups), walk_delta, len(big), host, msm)
    return result


def _layer_metrics(setup, n_setups, walk, n_releases, host, msm) -> dict:
    """Set-up layers per set-up and walk layers per release batch,
    rescaled to the reference host like the end-to-end figures."""
    from layers import calls, inclusive, self_time

    per_setup = lambda layer: inclusive(setup, layer) * host / n_setups  # noqa: E731
    per_release = lambda layer: inclusive(walk, layer) * host / n_releases  # noqa: E731
    return {
        "geo.convert_s": per_release("geo.convert"),
        "kernel.walk_s": per_release("kernel.walk"),
        "engine.materialise_s": self_time(walk, "engine.walk") * host / n_releases,
        "engine.remap_s": per_release("engine.remap"),
        "grid.locate_s": per_release("grid.locate"),
        "mechanisms.sample_s": per_release("mechanisms.sample"),
        "mechanisms.sample_calls": calls(walk, "mechanisms.sample") / n_releases,
        "cache.resolve_s": per_release("cache.resolve"),
        "cache.builds": float(msm.cache.builds),
        "lp.solve_s": per_setup("lp.solve"),
        "lp.solves": calls(setup, "lp.solve") / n_setups,
        "privacy.guard_s": per_setup("privacy.guard"),
        "budget.allocate_s": per_setup("budget.allocate"),
        "kernel.compile_s": per_setup("kernel.compile"),
        "graph.partition_s": per_setup("graph.partition"),
        "graph.dijkstra_s": per_setup("graph.dijkstra"),
    }


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _chi_square(msm, geometry, walk, inputs, raw: bool) -> None:
    from repro.geo.point import Point

    rng = np.random.default_rng(CHI_SEED)
    for x in inputs:
        results = msm.sanitize_batch([Point(*x)] * CHI_SAMPLES, rng, trace=False)
        pts = [r.raw_point if raw else r.point for r in results]
        leaves = geometry.leaf_of_outputs(np.asarray([(p.x, p.y) for p in pts]))
        probs = walk.distribution(geometry.digits(np.asarray([x])))[0]
        observed = np.bincount(leaves, minlength=probs.size)
        p = checks.chi_square_pvalue(observed, probs * CHI_SAMPLES)
        checks.require(p >= CHI_ALPHA, f"chi-square at {x}: p = {p:.2e}")


def _chi_inputs(bounds) -> list[tuple[float, float]]:
    return [
        (bounds.min_x + fx * bounds.width, bounds.min_y + fy * bounds.height)
        for fx, fy in CHI_INPUTS
    ]


def _check_gihi(msm, geometry, releases, xy, prior_probs) -> float:
    checks.require(sum(msm.budgets) <= scenario.EPSILON * (1 + 1e-9), "budgets exceed epsilon")
    walk = checks.check_gihi_nodes(msm.cache.snapshot(), geometry, msm.budgets)
    idx, out_leaf, raw_leaf = releases.stacked()
    leaf_xy = geometry.leaf_points()
    targets = leaf_xy
    if raw_leaf is not None:
        remap_of = _remap_table(msm, geometry, leaf_xy)
        checks.require(
            bool(np.all(remap_of[raw_leaf] == out_leaf)),
            "remapped output is not a function of the raw walk output",
        )
        _check_remap_gain(walk, geometry, prior_probs, leaf_xy, remap_of)
        targets = leaf_xy[remap_of]
    bounds = msm.index.bounds
    _chi_square(msm, geometry, walk, _chi_inputs(bounds), raw=raw_leaf is not None)

    records, weights = np.unique(idx, return_counts=True)
    digits, cells = checks.unique_rows(geometry.digits(xy[records]))
    probs = walk.distribution(digits)
    exact = checks.expected_losses(cells, probs, checks.euclidean_to(xy[records], targets))
    observed = np.hypot(*(leaf_xy[out_leaf] - xy[idx]).T)
    checks.check_loss(observed, exact, weights, "release")
    return float(observed.mean())


def _remap_table(msm, geometry, leaf_xy) -> np.ndarray:
    """The program's remap table as stop-node id -> stop-node id."""
    table = msm.postprocessor.table
    row, col = geometry.leaf_cells(leaf_xy)
    mapped = [table[int(r * geometry.leaf_n + c)] for r, c in zip(row, col)]
    return geometry.leaf_of_outputs(np.asarray([(p.x, p.y) for p in mapped]))


def _check_remap_gain(walk, geometry, prior_probs, leaf_xy, remap_of) -> None:
    """Exact prior-expected loss with the remap is no higher than the
    raw walk's, over leaf-centre inputs weighted by the leaf prior."""
    n = geometry.leaf_n
    k = scenario.PRIOR_CELLS // n
    leaf_prior = prior_probs.reshape(n, k, n, k).sum(axis=(1, 3)).ravel()
    centres = geometry.cell_centres(geometry.levels, *np.divmod(np.arange(n * n), n))
    probs = walk.distribution(geometry.digits(centres))
    d_raw = np.hypot(centres[:, None, 0] - leaf_xy[None, :, 0], centres[:, None, 1] - leaf_xy[None, :, 1])
    mapped = leaf_xy[remap_of]
    d_map = np.hypot(centres[:, None, 0] - mapped[None, :, 0], centres[:, None, 1] - mapped[None, :, 1])
    raw_loss = float(leaf_prior @ (probs * d_raw).sum(axis=1))
    map_loss = float(leaf_prior @ (probs * d_map).sum(axis=1))
    checks.require(map_loss <= raw_loss * (1 + 1e-9),
                   f"remap raises the expected loss: {map_loss:.5f} > {raw_loss:.5f} km")


def _check_road(msm, geometry, partition, releases, xy) -> float:
    checks.require(sum(msm.budgets) <= scenario.EPSILON * (1 + 1e-9), "budgets exceed epsilon")
    walk = checks.check_road_nodes(msm, geometry, partition)
    idx, out_leaf, _ = releases.stacked()
    records, weights = np.unique(idx, return_counts=True)
    verts = geometry.vertices(xy[records])
    digits, cells = checks.unique_rows(geometry.leaf_digits_of(geometry.leaf_of_vertex[verts]))
    probs = walk.distribution(digits)
    exact = checks.expected_losses(
        cells, probs, lambda a, b: geometry.leaf_dist[:, verts[a:b]].T
    )
    observed = geometry.leaf_dist[out_leaf, geometry.vertices(xy[idx])]
    checks.check_loss(observed, exact, weights, "road release")
    vertex_inputs = [
        tuple(geometry.coords[v])
        for v in geometry.vertices(np.asarray(_chi_inputs(msm.index.bounds)))
    ]
    _chi_square(msm, geometry, walk, vertex_inputs, raw=False)
    return float(observed.mean())
