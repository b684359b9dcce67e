"""Inputs and mechanism configurations shared by the workloads.

The check-ins are generated in-process from the synthetic Austin city
model (never read from a file in the working directory), and the
program only ever receives the generated inputs.  The data set and the
road city are fixed, like the paper's one evaluation data set: a
different data set changes the prior, the node mechanisms and the
spatial spread of the records, and with them the loss and the walk's
cost by several percent, which would drown the changes the benchmark
exists to show.  The workload seed drives every random choice made on
top of them (the walk's random stream, which records each release
starts from, the users and locations of served requests).

The fixed parameters are the paper's evaluation setting (epsilon = 2,
granularity 3, a 20 km window) so that Algorithm 2 yields three levels
and 91 node mechanisms.
"""

from __future__ import annotations

import numpy as np

from repro.core.msm import MultiStepMechanism
from repro.datasets.gowalla import austin_city_model
from repro.datasets.synthetic import generate_checkins
from repro.geo.point import Point
from repro.graph import GraphMetric, GraphPartitionIndex, synthetic_city
from repro.grid.regular import RegularGrid
from repro.priors.base import GridPrior

#: Seed of the synthetic check-ins and of the road city (the default of
#: ``load_gowalla_austin``: the paper's presentation date).
DATA_SEED = 20190326

#: Total GeoInd budget of one report, as in the paper's Austin runs.
EPSILON = 2.0
#: GIHI granularity; at EPSILON it gives 3 levels of 3x3 children.
GRANULARITY = 3
#: Prior resolution: 81 = 27 * 3, so the prior aggregates exactly onto
#: the 27x27 leaf grid the remap post-processor works on.
PRIOR_CELLS = 81
#: Additive pseudo-count per prior cell (no cell has zero mass).
PRIOR_SMOOTHING = 1.0

#: Road network: 41x41 intersections, 0.5 km blocks -> the same 20 km
#: window as the check-ins, 1,681 vertices.
ROAD_BLOCKS = 40
ROAD_BLOCK_KM = 0.5
ROAD_FANOUT = 4
ROAD_HEIGHT = 3
ROAD_BUDGETS = (EPSILON / 3,) * 3
ROAD_PRIOR_CELLS = 40


def seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from the workload seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1)[0]) for c in children]


def checkins():
    """The synthetic Gowalla-Austin check-ins (265,571 records)."""
    return generate_checkins(austin_city_model(), seed=DATA_SEED)


def prior_counts(xy: np.ndarray, bounds, cells: int) -> np.ndarray:
    """Row-major check-in counts over a ``cells x cells`` grid on
    ``bounds`` (row 0 at the bottom; the top/right edge folds into the
    last row/column)."""
    col = np.floor((xy[:, 0] - bounds.min_x) / (bounds.width / cells))
    row = np.floor((xy[:, 1] - bounds.min_y) / (bounds.height / cells))
    col = np.clip(col, 0, cells - 1).astype(np.int64)
    row = np.clip(row, 0, cells - 1).astype(np.int64)
    return np.bincount(row * cells + col, minlength=cells * cells).astype(float)


def grid_prior(xy: np.ndarray, bounds, cells: int) -> tuple[GridPrior, np.ndarray]:
    """The empirical prior handed to the program, and its probabilities
    as the benchmark computed them (for the independent checks)."""
    counts = prior_counts(xy, bounds, cells) + PRIOR_SMOOTHING
    prior = GridPrior.from_counts(RegularGrid(bounds, cells), counts, name="empirical")
    return prior, counts / counts.sum()


def build_gihi(prior: GridPrior, remap: bool = False) -> MultiStepMechanism:
    """Algorithm 2 allocation + every node LP + guard + kernel compile
    (+ the remap table when ``remap``): one publisher set-up."""
    msm = MultiStepMechanism.build(EPSILON, GRANULARITY, prior, remap=remap)
    msm.precompute()
    if msm.engine.compile(build=False) is None:
        raise RuntimeError("the GIHI mechanism did not compile to the kernel")
    if remap:
        msm.postprocessor.table  # built lazily; force it into set-up
    return msm


def build_road(prior_xy: np.ndarray, layers=None):
    """City + partition + shortest-path metric + node LPs: one road
    publisher set-up.  Returns ``(msm, city, partition)``."""
    city = synthetic_city(blocks=ROAD_BLOCKS, block_km=ROAD_BLOCK_KM, seed=DATA_SEED)
    metric = GraphMetric(city)
    if layers is not None:
        with layers.span("graph.partition"):
            partition = GraphPartitionIndex(city, fanout=ROAD_FANOUT, height=ROAD_HEIGHT)
    else:
        partition = GraphPartitionIndex(city, fanout=ROAD_FANOUT, height=ROAD_HEIGHT)
    prior, _ = grid_prior(prior_xy, city.bounds, ROAD_PRIOR_CELLS)
    msm = MultiStepMechanism(partition, ROAD_BUDGETS, prior, dq=metric, dx=metric)
    msm.precompute()
    return msm, city, partition


def to_points(xy: np.ndarray) -> list[Point]:
    return [Point(float(x), float(y)) for x, y in xy]
