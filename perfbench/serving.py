"""Online serving through the multi-worker ``ServingPool``.

``serve-longlived``: rounds of requests from a few hundred users each,
Zipf-skewed, at locations drawn from the check-ins.  Every user's
lifetime budget buys thousands of reports, so nobody is refused and
admission (which simulates every remaining report) is the expensive
step.  No ledger.  Each round uses fresh user ids, so a user's history
depends on the round's make-up alone, never on how many rounds a fast
or slow run completes; every round has the same make-up and loads the
worker shards alike (see :class:`Traffic`).

A run sets the service up several times (store warm start, arena
export, pool start until the workers are ready; the median is
``setup_s``), then runs a closed loop with a fixed number of requests in
flight for half its time and an open loop at one fixed offered rate for
the other half.  ``throughput_per_s`` is the median over the closed-loop
rounds of answered requests per second, each round rescaled to the
reference host by reference units taken just before and after it on
every CPU the pool may use (see ``calibrate.py``): the workers'
admission work is CPU-bound, and the host's cores drift in speed apart
from each other, so raw rates moved from run to run.  The latency
percentiles are taken per open-loop round, timed from each request's
scheduled send time over delivered reports, with the frontend and the
workers confined to one CPU; the part above the coalescing window (a
fixed wait) is rescaled like the throughput, by reference units on that
CPU, and the median over rounds is reported.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from functools import partial

import numpy as np

import calibrate
import checks
import scenario
from measure import Result, median, peak_rss_mb, percentile

WORKERS = max(1, min(2, os.cpu_count() or 1))
#: Requests in flight in the closed loop (larger windows coalesce into
#: larger batches; 128 gave the steadiest rates on 2 cores).
WINDOW = 128
#: Offered rate of the open loop, far below the pool's capacity.
OPEN_RATE = 200.0
ZIPF_S = 1.1
SETUPS = 9
#: Untimed closed-loop rounds first: the first rounds after a pool
#: starts ran up to 30% slower than the rest.
WARMUP_ROUNDS = 2
#: Share of the run in the closed loop: throughput needs more rounds
#: than the open loop's medians to be steady.
CLOSED_SHARE = 0.5
#: Reference units between two closed-loop rounds (the fastest counts).
REFERENCE_UNITS = 3
#: Length of one open-loop round: 100 requests, so its p75 has 25
#: samples beyond it.
OPEN_ROUND_S = 0.5
#: Chi-square threshold; pool outputs depend on batching, so the draws
#: are not reproducible and the threshold is set very low.
CHI_ALPHA = 1e-6
#: Untimed requests from one fixed input (the downtown core, as a
#: fraction of the domain), one per fresh user, for a per-input test.
CHI_INPUT = (0.61, 0.42)
CHI_SAMPLES = 2_000

#: Users per round, requests per round, and the reports a lifetime buys
#: (the hottest user sends about 95 requests a round).
USERS = 300
ROUND = 500
LIFETIME_REPORTS = 2_000

PENDING, DELIVERED, REFUSED, FAILED = 0, 1, 2, 3


def install_layers(layers) -> None:
    from repro.core.budget.allocation import allocate_budget
    from repro.core.engine import WalkEngine
    from repro.core.resilience import ResilientSolver
    from repro.privacy.guard import guard_mechanism
    from repro.serve import MechanismArena, ServingPool

    layers.wrap_function(guard_mechanism, "privacy.guard")
    layers.wrap_function(allocate_budget, "budget.allocate")
    layers.wrap_method(WalkEngine, "compile", "kernel.compile")
    layers.wrap_method(ResilientSolver, "solve", "lp.solve")
    layers.wrap_method(MechanismArena, "freeze", "arena.freeze")
    layers.wrap_method(ServingPool, "submit", "pool.submit")


class Round:
    """One round of requests and what became of each."""

    def __init__(self, ids: list, users: np.ndarray, xy: np.ndarray, sem=None):
        self.ids = ids
        self.users = users
        self.xy = xy
        n = users.size
        self.status = np.full(n, PENDING, dtype=np.int8)
        self.out = np.full((n, 2), np.nan)
        self.done_at = np.full(n, np.nan)
        self.sem = sem

    def record(self, j: int, future) -> None:
        from repro.exceptions import BudgetError

        exc = future.exception()
        if exc is None:
            report = future.result()
            self.out[j] = (report.reported.x, report.reported.y)
            self.status[j] = DELIVERED
        else:
            self.status[j] = REFUSED if isinstance(exc, BudgetError) else FAILED
        self.done_at[j] = time.perf_counter()
        if self.sem is not None:
            self.sem.release()


class Traffic:
    """Seeded request rounds of one fixed make-up.

    A round of ``size`` requests gives each of the ``users`` Zipf ranks
    its apportioned share (largest remainders), so every round carries
    the same per-user counts.  The ranks are spread over the pool's
    shards by count, heaviest first, and each round's fresh user ids are
    salted until they land on their rank's shard: every round loads the
    shards alike, and its time does not depend on where a hash happened
    to put the hottest users.  The seed drives the order of the requests
    and their locations (drawn from the check-ins)."""

    def __init__(self, xy: np.ndarray, users: int, shards: int, seed: int):
        self.xy = xy
        self.shards = shards
        self.rng = np.random.default_rng(seed)
        pmf = np.arange(1, users + 1, dtype=float) ** -ZIPF_S
        self.pmf = pmf / pmf.sum()
        self._makeup: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def makeup(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Requests per rank and each rank's shard, for rounds of ``size``."""
        if size not in self._makeup:
            share = self.pmf * size
            counts = np.floor(share).astype(int)
            extra = np.argsort(-(share - counts), kind="stable")[: size - counts.sum()]
            counts[extra] += 1
            shard = np.zeros(counts.size, dtype=int)
            load = np.zeros(self.shards)
            for u in np.argsort(-counts, kind="stable"):
                shard[u] = int(np.argmin(load))
                load[shard[u]] += counts[u]
            self._makeup[size] = counts, shard
        return self._makeup[size]

    def round(self, name: str, size: int, sem=None) -> Round:
        from repro.serve import shard_for_user

        counts, shard = self.makeup(size)
        ids = {}
        for u in np.flatnonzero(counts):
            salt = 0
            while shard_for_user(f"{name}-{u}.{salt}", self.shards) != shard[u]:
                salt += 1
            ids[u] = f"{name}-{u}.{salt}"
        users = self.rng.permutation(np.repeat(np.arange(counts.size), counts))
        where = self.xy[self.rng.integers(self.xy.shape[0], size=size)]
        return Round([ids[u] for u in users], users, where, sem)


def _submit(pool, rnd: Round, j: int) -> None:
    from repro.geo.point import Point

    request = pool.submit(rnd.ids[j], Point(float(rnd.xy[j, 0]), float(rnd.xy[j, 1])))
    request.future.add_done_callback(partial(rnd.record, j))


def _send_round(pool, rnd: Round, sem: threading.Semaphore) -> None:
    """Send a whole round with at most ``WINDOW`` requests in flight and
    wait until every one is answered."""
    for j in range(rnd.users.size):
        sem.acquire()
        _submit(pool, rnd, j)
    for _ in range(WINDOW):
        sem.acquire()
    for _ in range(WINDOW):
        sem.release()


def closed_loop(pool, traffic: Traffic, size: int, seconds: float):
    """Whole rounds with ``WINDOW`` requests in flight until ``seconds``
    have passed; each round drains before the next starts.  The first
    ``WARMUP_ROUNDS`` are served and checked but not timed.  Returns the
    rounds, each timed round's answered requests per second rescaled to
    the reference host, and the same rates raw."""
    sem = threading.Semaphore(WINDOW)
    rounds: list[Round] = []
    times, refs = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(rounds) <= WARMUP_ROUNDS:
        rnd = traffic.round(f"c{len(rounds)}", size, sem)
        rounds.append(rnd)
        timed = len(rounds) > WARMUP_ROUNDS
        if timed:
            refs.append(_host_reference())
        t0 = time.perf_counter()
        _send_round(pool, rnd, sem)
        if timed:
            times.append(time.perf_counter() - t0)
    refs.append(_host_reference())
    return rounds, size / calibrate.scale_between(times, refs), size / np.asarray(times)


def _host_reference() -> float:
    """The reference-unit time of the slowest CPU this process (and so
    the pool's workers) may run on: the host's cores drift in speed
    apart from each other, and a round of balanced shards ends when the
    slower worker does.  Each CPU counts the fastest of a few units, as
    one unit right after a round reads slow (its caches were the
    pool's)."""
    cpus = sorted(os.sched_getaffinity(0))
    slowest = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            unit = min(calibrate.reference_seconds() for _ in range(REFERENCE_UNITS))
            slowest = max(slowest, unit)
    finally:
        os.sched_setaffinity(0, cpus)
    return slowest


def open_loop(pool, traffic: Traffic, seconds: float, window: float):
    """Requests sent on a fixed schedule at ``OPEN_RATE`` in rounds of
    ``OPEN_ROUND_S`` seconds that each drain before the next, with the
    whole service confined to one CPU (see :func:`_confine`).  Returns
    the rounds, each round's delivered latencies from the scheduled send
    times (the part above the coalescing ``window`` rescaled to the
    reference host by reference units on that CPU just before and after
    the round), and how late each request was sent."""
    per_round = int(OPEN_RATE * OPEN_ROUND_S)
    rounds, raw, refs, late = [], [], [], []
    everywhere = os.sched_getaffinity(0)
    _confine({min(everywhere)})
    try:
        refs.append(_host_reference())
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds or not rounds:
            rnd = traffic.round(f"o{len(rounds)}", per_round)
            start = time.perf_counter() + 0.005
            scheduled = start + np.arange(per_round) / OPEN_RATE
            for j in range(per_round):
                wait = scheduled[j] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                late.append(time.perf_counter() - scheduled[j])
                _submit(pool, rnd, j)
            deadline = time.perf_counter() + 60.0
            while np.any(rnd.status == PENDING) and time.perf_counter() < deadline:
                time.sleep(0.002)
            raw.append((rnd.done_at - scheduled)[rnd.status == DELIVERED])
            rounds.append(rnd)
            refs.append(_host_reference())
    finally:
        _confine(everywhere)
    factors = calibrate.scale_between(np.ones(len(raw)), refs)
    latencies = [window + (lat - window) * f for lat, f in zip(raw, factors)]
    return rounds, latencies, np.asarray(late)


def _confine(cpus) -> None:
    """Pin every thread of this process and every worker process to
    ``cpus``.  At the open loop's low load the CPUs are mostly idle, and
    each hand-off between the frontend and a worker that crossed CPUs
    waited for the other CPU to wake: on the shared host that wake-up
    cost drifted from run to run and moved the latency median by 20-40%
    between runs of the same code.  On one CPU every hand-off is a local
    context switch.  (A worker's own helper threads, if any, keep their
    affinity; the pool does its work on each worker's main thread.)"""
    import multiprocessing

    ids = [t.native_id for t in threading.enumerate()]
    ids += [child.pid for child in multiprocessing.active_children()]
    for task in ids:
        try:
            os.sched_setaffinity(task, cpus)
        except ProcessLookupError:  # ended since it was listed
            pass


def run(seed: int, seconds: float, layers, work) -> Result:
    from repro.core.msm import MultiStepMechanism
    from repro.core.store import MechanismStore
    from repro.obs import Observability
    from repro.serve import MechanismArena, ServerConfig, ServingPool

    traffic_seed, pool_seed = scenario.seeds(seed, 2)
    dataset = scenario.checkins()
    xy, bounds = dataset.xy, dataset.bounds
    prior, _ = scenario.grid_prior(xy, bounds, scenario.PRIOR_CELLS)

    store = MechanismStore(work / "store")
    store.get_or_build(MultiStepMechanism.build(scenario.EPSILON, scenario.GRANULARITY, prior))
    before = layers.snapshot() if layers else None
    setups = []
    pool = None
    try:
        for k in range(SETUPS):
            if pool is not None:
                pool.stop()
            start = time.perf_counter()
            msm = MultiStepMechanism.build(scenario.EPSILON, scenario.GRANULARITY, prior)
            with _span(layers, "store.warm_start"):
                record = store.warm_start(msm)
            checks.require(record is not None, "store warm start missed")
            arena = store.export_arena(msm, directory=work / f"arena-{k}")
            if layers:
                with layers.span("arena.open"):  # what each worker does on start
                    MechanismArena.open(arena.directory)
            per_report = msm.epsilon
            config = ServerConfig(
                lifetime_epsilon=per_report * LIFETIME_REPORTS,
                per_report_epsilon=per_report,
            )
            pool = ServingPool(
                arena, config, workers=WORKERS, seed=pool_seed,
                obs=Observability.collecting() if layers else None,
            )
            with _span(layers, "pool.start"):
                pool.start()
            setups.append(time.perf_counter() - start)
        setup_delta = layers.since(layers.snapshot(), before) if layers else None

        traffic = Traffic(xy, USERS, WORKERS, traffic_seed)
        closed_seconds = CLOSED_SHARE * seconds
        rounds, rates, raw_rates = closed_loop(pool, traffic, ROUND, closed_seconds)
        if layers:
            front_closed, workers_closed = _pool_metrics(pool)
            before = layers.snapshot()
        opened, latencies, late = open_loop(pool, traffic, seconds - closed_seconds,
                                           config.coalesce_window)
        if layers:
            front_open, workers_open = _pool_metrics(pool)
            open_delta = layers.since(layers.snapshot(), before)
        fixed = (bounds.min_x + CHI_INPUT[0] * bounds.width,
                 bounds.min_y + CHI_INPUT[1] * bounds.height)
        sem = threading.Semaphore(WINDOW)
        chi = Round([f"chi-{j}" for j in range(CHI_SAMPLES)], np.arange(CHI_SAMPLES),
                    np.tile(fixed, (CHI_SAMPLES, 1)), sem)
        _send_round(pool, chi, sem)
    finally:
        if pool is not None:
            pool.stop()

    result = Result()
    peak_rss = peak_rss_mb(with_children=True)
    everything = rounds + opened
    statuses = np.concatenate([r.status for r in everything])
    result.attempted = int(statuses.size)
    result.failed = int(np.sum((statuses == FAILED) | (statuses == PENDING)))
    delivered = statuses == DELIVERED
    true_xy = np.concatenate([r.xy for r in everything])[delivered]
    out_xy = np.concatenate([r.out for r in everything])[delivered]

    result.check(_check_outputs, msm, bounds, true_xy, out_xy, chi)
    result.check(checks.require, not np.any(statuses == REFUSED), "a long-lived user was refused")

    result.end_to_end = {
        "setup_s": median(setups),
        "throughput_per_s": median(rates),
        "p50_ms": 1e3 * median([percentile(lat, 50) for lat in latencies]),
        "p75_ms": 1e3 * median([percentile(lat, 75) for lat in latencies]),
        "loss_km": float(np.hypot(*(out_xy - true_xy).T).mean()),
        "peak_rss_mb": peak_rss,
    }
    result.notes.update({
        "rounds": len(rounds),
        "refused": int(np.sum(statuses == REFUSED)),
        "open_requests": sum(int(r.status.size) for r in opened),
        "late_p90_ms": round(1e3 * percentile(late, 90), 3),
        "raw_throughput_per_s": round(median(raw_rates), 1),
    })
    if layers:
        per_layer = _setup_layers(setup_delta, len(setups))
        per_layer.update(_pool_layers(open_delta, front_closed, workers_closed, front_open,
                                      workers_open))
        per_layer.update(_replay_layers(layers, rounds[0], per_report, work))
        per_layer["loadgen.late_ms"] = 1e3 * percentile(late, 90)
        result.per_layer = per_layer
    return result


def _span(layers, name):
    return layers.span(name) if layers else nullcontext()


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _check_outputs(msm, bounds, true_xy, out_xy, chi: Round) -> None:
    """Leaf centres, guarded node mechanisms, the output law at one
    fixed input and over all served inputs, and the mean loss, all
    against the benchmark's exact walk."""
    geometry = checks.GihiGeometry(bounds, scenario.GRANULARITY, len(msm.budgets))
    walk = checks.check_gihi_nodes(msm.cache.snapshot(), geometry, msm.budgets)
    checks.require(bool(np.all(chi.status == DELIVERED)), "a fixed-input request was not served")
    law = walk.distribution(geometry.digits(chi.xy[:1]))[0]
    seen = np.bincount(geometry.leaf_of_outputs(chi.out), minlength=law.size)
    p = checks.chi_square_pvalue(seen, law * chi.users.size)
    checks.require(p >= CHI_ALPHA, f"outputs at ({chi.xy[0, 0]:.3f}, {chi.xy[0, 1]:.3f}) "
                                   f"fail the chi-square test: p = {p:.2e}")
    out_leaf = geometry.leaf_of_outputs(out_xy)
    digits, cells = checks.unique_rows(geometry.digits(true_xy))
    probs = walk.distribution(digits)
    expected = np.bincount(cells, minlength=len(digits)) @ probs
    observed = np.bincount(out_leaf, minlength=expected.size)
    p = checks.chi_square_pvalue(observed, expected)
    checks.require(p >= CHI_ALPHA, f"served outputs fail the chi-square test: p = {p:.2e}")
    exact = checks.expected_losses(cells, probs, checks.euclidean_to(true_xy, geometry.leaf_points()))
    observed_loss = np.hypot(*(out_xy - true_xy).T)
    checks.check_loss(observed_loss, exact, np.ones(exact.size), "served reports")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _pool_metrics(pool):
    front = pool.observability.snapshot()
    snapshots = [s for s in pool.worker_snapshots() if s is not None]
    merged = snapshots[0]
    for s in snapshots[1:]:
        merged = merged.merge(s)
    return front, merged


def _hist_delta(after, before, name) -> tuple[float, int]:
    a = after.histogram_value(name)
    b = before.histogram_value(name) if before is not None else None
    total = (a.sum if a else 0.0) - (b.sum if b else 0.0)
    count = (a.count if a else 0) - (b.count if b else 0)
    return total, count


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _setup_layers(delta, n) -> dict:
    from layers import calls, inclusive

    out = {
        name + "_s": inclusive(delta, name) / n
        for name in ("store.warm_start", "arena.freeze", "arena.open", "pool.start",
                     "kernel.compile", "budget.allocate", "privacy.guard", "lp.solve")
    }
    out["lp.solves"] = calls(delta, "lp.solve") / n
    return out


def _pool_layers(open_delta, front_closed, workers_closed, front_open, workers_open) -> dict:
    """Batch size over the closed loop; per-call and per-batch times
    over the open loop (not rescaled, like the latencies)."""
    from layers import calls, inclusive

    points, batches = _hist_delta(front_closed, None, "repro_pool_batch_points")
    batch_s, n_batch = _hist_delta(front_open, front_closed, "repro_pool_batch_seconds")
    walk_s, n_walk = _hist_delta(workers_open, workers_closed, "repro_pool_worker_walk_seconds")
    batch, walk = _mean(batch_s, n_batch), _mean(walk_s, n_walk)
    return {
        "pool.submit_s": _mean(inclusive(open_delta, "pool.submit"), calls(open_delta, "pool.submit")),
        "pool.batch_points": _mean(points, batches),
        "pool.batch_s": batch,
        "pool.worker_walk_s": walk,
        "pool.ipc_admit_s": batch - walk,
    }


def _replay_layers(layers, rnd: Round, per_report, work) -> dict:
    """Replay one closed-loop round's admissions in this process through
    the workers' budget books, timing the budget layers (worker
    processes do not carry the benchmark's timers).  The replay journals
    to fsync'd shard ledgers in the checkout, so the ledger layers are
    measured on the workload's own admissions and filesystem."""
    from layers import calls, inclusive
    from repro.core.ledger import BudgetLedger
    from repro.privacy.composition import BudgetAccountant
    from repro.serve import ShardBudgetBook, shard_for_user, shard_journal_path

    layers.wrap_method(BudgetAccountant, "affordable", "composition.affordable")
    layers.wrap_method(BudgetLedger, "reserve", "ledger.reserve")
    layers.wrap_method(BudgetLedger, "commit", "ledger.commit")
    before = layers.snapshot()
    ledgers = []
    try:
        books = []
        for shard in range(WORKERS):
            ledger = BudgetLedger(shard_journal_path(work / "replay", shard))
            ledgers.append(ledger)
            books.append(ShardBudgetBook(per_report * LIFETIME_REPORTS, per_report, ledger=ledger))
        from repro.exceptions import BudgetError

        for user in rnd.ids:
            book = books[shard_for_user(user, WORKERS)]
            try:
                entry = book.admit(user)
            except BudgetError:
                continue
            book.settle(user, entry)
    finally:
        for ledger in ledgers:
            ledger.close()
    delta = layers.since(layers.snapshot(), before)
    return {
        f"{name}_s": _mean(inclusive(delta, name), calls(delta, name))
        for name in ("composition.affordable", "ledger.reserve", "ledger.commit")
    }
