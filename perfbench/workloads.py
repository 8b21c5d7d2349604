"""The four workloads: set-up, timed phases, writer loop and checks.

Every call into the program goes through a public entry point:
``register_table``, ``build_synopsis``, ``execute_batch``,
``append_rows``, ``refresh_stale``, ``QueryServer`` / ``PoolServer``
(``start``, ``submit``, ``submit_many``, ``stats``, ``stop``).

The pool is never republished after an append: back-to-back
``republish`` calls let ``PoolServer`` retire an epoch a worker has been
told to swap to but has not attached yet, and the worker exits (code 3)
and requests degrade to ``fallback``.  Without a republish the pool
answers post-append queries by recomputing them on the parent, which
the freshness probes of ``serve-pool`` therefore measure.  The program
only ever sees the generated inputs.
"""

from __future__ import annotations

import array
import gc
import threading
import time

import numpy as np

from perfbench import inputs as gen
from perfbench.oracle import AGGREGATES, COUNT, Ledger, References, check_read_only, close
from repro.engine.engine import AggregateQuery, ApproximateQueryEngine
from repro.engine.sharding import shard_boundaries
from repro.engine.table import Table
from repro.serving import PoolServer, QueryServer

TABLE = "bench"
COLUMN = "v"
METHOD = "sap1"
BUDGET_WORDS = 4096
SHARDS = 256
POOL_WORKERS = 2

SETUP_REPEATS = 3
RESULT_TIMEOUT_S = 30.0
#: Open-loop writer: one append every WRITER_PERIOD_S.
WRITER_PERIOD_S = 0.25
#: Freshness cycles after the traced phase of the read-only workloads, on
#: the writer's schedule, for the mutation layers' metrics.
POST_APPENDS = 40
#: A traced run first runs the workload untraced for this long, then for
#: half of ``--seconds`` as the untraced comparison, then traced.
TRACE_WARMUP_S = 1.0

WORKLOADS = ("batch", "serve", "serve-pool", "ingest")
FRESH, STALE, OTHER = range(3)
_TAGS = {"fresh": FRESH, "stale": STALE}


def _query(agg: int, low: int, high: int) -> AggregateQuery:
    return AggregateQuery(TABLE, COLUMN, AGGREGATES[agg], low, high)


def _queries(aggs, lows, highs) -> list:
    return [
        AggregateQuery(TABLE, COLUMN, AGGREGATES[a], lo, hi)
        for a, lo, hi in zip(aggs.tolist(), lows.tolist(), highs.tolist())
    ]


def _unpack(results) -> tuple[np.ndarray, np.ndarray]:
    n = len(results)
    estimates = np.fromiter((r.estimate for r in results), np.float64, n)
    tags = np.fromiter((_TAGS.get(r.degradation, OTHER) for r in results), np.int8, n)
    return estimates, tags


def _wait_all(futures) -> tuple[list, int]:
    """Results of ``futures`` (None where one failed) and the failure count."""
    results, failed = [], 0
    for future in futures:
        try:
            results.append(future.result(RESULT_TIMEOUT_S))
        except Exception:  # noqa: BLE001 — any refusal is a failed operation
            results.append(None)
            failed += 1
    return results, failed


class Phase:
    """Timing and answers of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.answered = 0
        #: Queries the clients sent, and how many of them were shard-aligned.
        self.sent = 0
        self.aligned = 0
        self.wall_s = 0.0
        self.start = 0.0
        self.end = 0.0

    @property
    def qps(self) -> float:
        return self.answered / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def aligned_share(self) -> float:
        return self.aligned / self.sent if self.sent else 0.0


class Writer:
    """Appends seeded rows on a schedule, refreshes, probes until fresh.

    Each cycle's freshness runs from the append's due time to the first
    probe answer tagged ``fresh`` that equals the new exact count of a
    shard that received rows.  Event times (perf_counter) are kept per
    data version for the read checks of ``ingest``.
    """

    def __init__(self, bench) -> None:
        self.bench = bench
        self.version = 0
        self.append_start = [0.0]
        self.append_end = [0.0]
        self.refresh_start = [0.0]
        self.refresh_end = [0.0]
        self.freshness: list[float] = []
        self.lag: list[float] = []

    def run(self, cycles: int, stop: threading.Event | None = None) -> None:
        """``cycles`` appends, one every WRITER_PERIOD_S seconds."""
        bench, ledger = self.bench, self.bench.ledger
        origin = time.perf_counter()
        for cycle in range(cycles):
            due = origin + cycle * WRITER_PERIOD_S
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.lag.append(time.perf_counter() - due)
            rows = bench.inputs.appends[self.version]
            self.version += 1
            version = self.version
            self.append_start.append(time.perf_counter())
            try:
                bench.engine.append_rows(TABLE, {COLUMN: rows})
                self.append_end.append(time.perf_counter())
                self.refresh_start.append(time.perf_counter())
                bench.engine.refresh_stale()
                self.refresh_end.append(time.perf_counter())
            except Exception as error:  # noqa: BLE001 — counted, then the run fails
                ledger.record(1, 1, f"append/refresh raised {type(error).__name__}: {error}")
                break
            ledger.record(2, 0)
            self._probe(version, rows, due)
        if stop is not None:
            stop.set()

    def _probe(self, version: int, rows, due: float) -> None:
        refs, ledger = self.bench.refs, self.bench.ledger
        shard = int(refs.shards_of(rows[:1])[0])
        low, high = int(refs.starts[shard]), int(refs.starts[shard + 1]) - 1
        new = float(refs.exact(version, [COUNT], [low], [high])[0])
        old = float(refs.exact(version - 1, [COUNT], [low], [high])[0])
        query = _query(COUNT, low, high)
        deadline = time.perf_counter() + RESULT_TIMEOUT_S
        while True:
            try:
                result = self.bench.answer_one(query)
            except Exception as error:  # noqa: BLE001
                ledger.record(1, 1, f"probe raised {type(error).__name__}: {error}")
                return
            if result.degradation == "fresh":
                if close(result.estimate, new):
                    ledger.record(1, 0)
                    self.freshness.append(time.perf_counter() - due)
                elif close(result.estimate, old):
                    ledger.record(1, 1, "probe returned the pre-append count tagged fresh")
                else:
                    ledger.record(1, 1, "probe returned a wrong count tagged fresh")
                return
            if result.degradation != "stale" or time.perf_counter() > deadline:
                ledger.record(1, 1, f"probe answered {result.degradation!r} until timeout")
                return
            ledger.record(1, 0)
            time.sleep(0.0005)

    def events(self) -> dict[str, np.ndarray]:
        return {
            name: np.asarray(getattr(self, name))
            for name in ("append_start", "append_end", "refresh_start", "refresh_end")
        }


class Bench:
    """One run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, perturb: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.perturb = bool(perturb)
        self.ledger = Ledger()
        self.tracer = None
        self.engine = None
        self.server = None
        self._worker_private_kb = 0
        if workload == "ingest":
            durations = ([TRACE_WARMUP_S, self.seconds / 2] if trace else []) + [self.seconds]
            appends = sum(round(d / WRITER_PERIOD_S) for d in durations)
        else:
            appends = POST_APPENDS if trace else 0
        starts = shard_boundaries(gen.DOMAIN, SHARDS)
        self.base_values = gen.reference_column()
        self.inputs = gen.Inputs(workload, seed, self.seconds, appends, starts)
        self.refs = References(
            self.base_values, self.inputs.appends, gen.DOMAIN, METHOD, BUDGET_WORDS // 2, SHARDS
        )
        self.writer = Writer(self)
        self.setup_samples: list[dict] = []
        # Answers kept for the oracle: (version, aggs, lows, highs, estimates, tags).
        self._answers: list[tuple] = []
        self._reads: list[dict] = []
        self._cursor = 0

    # -- set-up -----------------------------------------------------------
    def _setup_once(self) -> dict:
        started = time.perf_counter()
        engine = ApproximateQueryEngine()
        engine.register_table(Table(TABLE, {COLUMN: self.base_values}))
        built = time.perf_counter()
        engine.build_synopsis(
            TABLE, COLUMN, method=METHOD, budget_words=BUDGET_WORDS, shards=SHARDS
        )
        serving = time.perf_counter()
        server = None
        if self.workload in ("serve", "ingest"):
            server = QueryServer(engine).start()
        elif self.workload == "serve-pool":
            server = PoolServer(engine, workers=POOL_WORKERS).start()
            self._await_heartbeats(server)
        ready = time.perf_counter()
        self.engine, self.server = engine, server
        return {
            "setup_s": ready - started,
            "build_s": serving - built,
            "start_s": ready - serving,
        }

    @staticmethod
    def _await_heartbeats(server) -> None:
        deadline = time.perf_counter() + 60.0
        while True:
            slots = server.supervisor.snapshot().values()
            if sum(1 for slot in slots if slot["heartbeats"] >= 1) >= POOL_WORKERS:
                return
            if time.perf_counter() > deadline:
                raise RuntimeError("pool workers sent no heartbeat within 60 s")
            time.sleep(0.001)

    def setup(self) -> None:
        # Peak memory counts from here: inputs and references are built.
        with open("/proc/self/clear_refs", "w") as clear:
            clear.write("5")
        for repeat in range(SETUP_REPEATS):
            self.teardown()
            self.engine = None
            gc.collect()
            self.setup_samples.append(self._setup_once())
        catalog = self.engine.synopsis_catalog()[0]
        if (catalog["count_words"], catalog["sum_words"]) != (
            self.refs.storage_words["count"],
            self.refs.storage_words["sum"],
        ):
            raise RuntimeError("twin synopsis does not match the engine's configuration")

    def teardown(self) -> None:
        if self.server is not None:
            self.sample_workers()
            self.server.stop()
            self.server = None

    def sample_workers(self) -> None:
        """Keep the largest private memory the pool's workers have held."""
        if self.workload != "serve-pool" or self.server is None:
            return
        total = 0
        for slot in self.server.supervisor.snapshot().values():
            if slot["pid"] is None:
                continue
            try:
                with open(f"/proc/{slot['pid']}/smaps_rollup") as rollup:
                    total += sum(
                        int(line.split()[1]) for line in rollup
                        if line.startswith(("Private_Clean:", "Private_Dirty:"))
                    )
            except FileNotFoundError:  # the worker has just exited
                continue
        self._worker_private_kb = max(self._worker_private_kb, total)

    # -- program access ---------------------------------------------------
    def answer_one(self, query):
        if self.server is None:
            return self.engine.execute_batch([query])[0]
        return self.server.submit(query).result(RESULT_TIMEOUT_S)

    def _root(self, name: str):
        return self.tracer.begin(name) if self.tracer is not None else None

    def _close(self, span) -> None:
        if span is not None:
            self.tracer.end(span)

    def _keep(self, version, aggs, lows, highs, estimates, tags) -> None:
        """Keep answers for :meth:`verify`, which checks them after the run."""
        self._answers.append((version, aggs, lows, highs, estimates, tags))

    # -- timed phases -----------------------------------------------------
    def run_phase(self, duration: float) -> Phase:
        """One timed phase of ``duration`` seconds."""
        phase = Phase()
        phase.start = time.perf_counter()
        if self.workload == "batch":
            self._batch_loop(phase, duration)
        elif self.workload in ("serve", "serve-pool"):
            self._panel_loops(phase, duration)
        else:
            self._ingest_loops(phase, duration)
        phase.end = time.perf_counter()
        if self.workload != "batch":
            phase.wall_s = phase.end - phase.start
        self.sample_workers()
        return phase

    def _batch_loop(self, phase: Phase, duration: float) -> None:
        """Each batch is checked right after its call, outside the timing.

        Checking as it goes keeps the answers of a run from piling up in
        memory, where a faster program would raise ``peak_rss_mb``.
        """
        lows_all, highs_all = self.inputs.batch_lows, self.inputs.batch_highs
        aggs = gen.cycled_aggregates(gen.BATCH_SIZE)
        while time.perf_counter() - phase.start < duration:
            index = self._cursor % len(lows_all)
            self._cursor += 1
            phase.sent += gen.BATCH_SIZE
            phase.aligned += int(self.inputs.batch_aligned[index])
            lows, highs = lows_all[index], highs_all[index]
            queries = _queries(aggs, lows, highs)
            span = self._root("client.batch")
            begin = time.perf_counter()
            try:
                results = self.engine.execute_batch(queries)
            except Exception as error:  # noqa: BLE001
                self._close(span)
                self.ledger.record(len(queries), len(queries), f"execute_batch raised {error!r}")
                continue
            elapsed = time.perf_counter() - begin
            self._close(span)
            phase.latencies.append(elapsed)
            phase.wall_s += elapsed
            phase.answered += len(results)
            self._check(0, aggs, lows, highs, *_unpack(results))

    def _panel_loops(self, phase: Phase, duration: float) -> None:
        stop = threading.Event()
        aggs = gen.cycled_aggregates(gen.PANEL_SIZE)
        lock = threading.Lock()
        cursor = self._cursor

        def client(slot: int) -> None:
            lows_all = self.inputs.panel_lows[slot]
            highs_all = self.inputs.panel_highs[slot]
            aligned_all = self.inputs.panel_aligned[slot]
            index = cursor
            sent = aligned = 0
            while not stop.is_set():
                lows, highs = lows_all[index % len(lows_all)], highs_all[index % len(lows_all)]
                sent += gen.PANEL_SIZE
                aligned += int(aligned_all[index % len(lows_all)])
                index += 1
                queries = _queries(aggs, lows, highs)
                span = self._root("client.panel")
                begin = time.perf_counter()
                try:
                    futures = self.server.submit_many(queries)
                except Exception as error:  # noqa: BLE001
                    self._close(span)
                    self.ledger.record(len(queries), len(queries), f"submit_many raised {error!r}")
                    continue
                results, failed = _wait_all(futures)
                elapsed = time.perf_counter() - begin
                self._close(span)
                if failed:
                    self.ledger.record(failed, failed, "panel query raised or timed out")
                    keep = [i for i, r in enumerate(results) if r is not None]
                    results = [results[i] for i in keep]
                    aggs_kept, lows, highs = aggs[keep], lows[keep], highs[keep]
                else:
                    aggs_kept = aggs
                with lock:
                    phase.latencies.append(elapsed)
                    phase.answered += len(results)
                    self._keep(0, aggs_kept, lows, highs, *_unpack(results))
            with lock:
                self._cursor = max(self._cursor, index)
                phase.sent += sent
                phase.aligned += aligned

        threads = [threading.Thread(target=client, args=(slot,)) for slot in range(gen.CLIENTS)]
        for thread in threads:
            thread.start()
        time.sleep(duration)
        stop.set()
        for thread in threads:
            thread.join()

    def _ingest_loops(self, phase: Phase, duration: float) -> None:
        stop = threading.Event()
        draws = self.inputs.draws
        hot = [
            _query(a, lo, hi)
            for a, lo, hi in zip(
                self.inputs.hot_aggs.tolist(),
                self.inputs.hot_lows.tolist(),
                self.inputs.hot_highs.tolist(),
            )
        ]
        reads = {name: array.array(code) for name, code in
                 (("index", "l"), ("estimate", "d"), ("tag", "b"), ("sent", "d"), ("done", "d"))}
        failures = [0]

        def reader() -> None:
            index = self._cursor
            while not stop.is_set():
                which = int(draws[index % len(draws)])
                index += 1
                span = self._root("client.read")
                sent = time.perf_counter()
                try:
                    result = self.server.submit(hot[which]).result(RESULT_TIMEOUT_S)
                except Exception:  # noqa: BLE001
                    self._close(span)
                    failures[0] += 1
                    continue
                done = time.perf_counter()
                self._close(span)
                phase.latencies.append(done - sent)
                reads["index"].append(which)
                reads["estimate"].append(result.estimate)
                reads["tag"].append(_TAGS.get(result.degradation, OTHER))
                reads["sent"].append(sent)
                reads["done"].append(done)
            self._cursor = index

        thread = threading.Thread(target=reader)
        thread.start()
        self.writer.run(round(duration / WRITER_PERIOD_S), stop)
        thread.join()
        if failures[0]:
            self.ledger.record(failures[0], failures[0], "read raised or timed out")
        phase.answered = len(reads["index"])
        phase.sent = phase.answered
        which = np.asarray(reads["index"])
        phase.aligned = int(self.inputs.hot_aligned[which].sum())
        self._reads.append({name: np.asarray(values) for name, values in reads.items()})

    # -- after the timed phases -------------------------------------------
    def count_sse(self) -> float:
        """SSE per query of seeded COUNT ranges, through the workload's path."""
        lows, highs = self.inputs.sse_lows, self.inputs.sse_highs
        aggs = np.full(lows.size, COUNT)
        estimates, tags = [], []
        for begin in range(0, lows.size, gen.BATCH_SIZE):
            chunk = _queries(aggs[begin : begin + gen.BATCH_SIZE], lows[begin : begin + gen.BATCH_SIZE],
                             highs[begin : begin + gen.BATCH_SIZE])
            if self.server is None:
                results = self.engine.execute_batch(chunk)
            else:
                results, failed = _wait_all(self.server.submit_many(chunk))
                if failed:
                    raise RuntimeError(f"{failed} COUNT queries of the SSE pass failed")
            est, tag = _unpack(results)
            estimates.append(est)
            tags.append(tag)
        estimates, tags = np.concatenate(estimates), np.concatenate(tags)
        version = self.writer.version
        self._keep(version, aggs, lows, highs, estimates, tags)
        exact = self.refs.exact(version, aggs, lows, highs)
        return float(np.mean((estimates - exact) ** 2))

    def freshness_cycles(self) -> None:
        self.writer.run(POST_APPENDS)

    def peak_rss_mb(self) -> float:
        """Peak RSS since set-up began, plus the pool workers' private memory.

        A forked worker's RSS includes the pages it shares with the parent,
        which the parent's peak already counts; its private pages are what
        it adds.
        """
        with open("/proc/self/status") as status:
            peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        return (peak_kb + self._worker_private_kb) / 1024.0

    # -- correctness --------------------------------------------------------
    def _check(self, version, aggs, lows, highs, estimates, tags) -> None:
        if self.perturb:
            self._perturb(estimates)
        check_read_only(self.ledger, self.refs, version, aggs, lows, highs, estimates, tags == FRESH)

    def _perturb(self, estimates) -> None:
        """Deliberately corrupt the first checked answer: the run must fail."""
        if estimates.size:
            estimates[0] += 1.0
            self.perturb = False

    def verify(self) -> None:
        """Check every kept answer; failures go to the ledger."""
        by_version: dict[int, list] = {}
        for answer in self._answers:
            by_version.setdefault(answer[0], []).append(answer[1:])
        for reads in self._reads:
            if self.perturb:
                self._perturb(reads["estimate"])
            self._check_reads(reads)
        for version, parts in sorted(by_version.items()):
            self._check(version, *(np.concatenate(column) for column in zip(*parts)))
        self._answers.clear()
        self._reads.clear()

    def _check_reads(self, reads: dict) -> None:
        """``ingest`` reads: value and tag against the writer's events.

        A read sent at ``s`` and answered at ``r`` saw a synopsis version
        between the refreshes finished by ``s`` and those started by
        ``r``; its estimate must equal the twin at one of them (and the
        exact answer, for shard-aligned ranges).  A read tagged ``fresh``
        must match a version no older than the appends finished by ``s``:
        the pre-append answer tagged fresh is a failure, however long the
        refresh takes.  A read that lies wholly between a refresh and the
        next append must be tagged ``fresh``.
        """
        events = self.writer.events()
        cycles = min(len(values) for values in events.values()) - 1
        append_start, append_end, refresh_start, refresh_end = (
            events[name][1 : cycles + 1]
            for name in ("append_start", "append_end", "refresh_start", "refresh_end")
        )
        which, estimates, tags = reads["index"], reads["estimate"], reads["tag"]
        sent, done = reads["sent"], reads["done"]
        hot = self.inputs
        fresh = tags == FRESH
        low_version = np.searchsorted(refresh_end, sent, side="right")
        lowest = np.where(
            fresh, np.maximum(low_version, np.searchsorted(append_end, sent, side="right")), low_version
        )
        high_version = np.searchsorted(refresh_start, done, side="right")
        aligned = hot.hot_aligned[which]
        matched = np.zeros(which.size, dtype=bool)
        for version in range(int(lowest.min(initial=0)), int(high_version.max(initial=0)) + 1):
            mask = (lowest <= version) & (version <= high_version)
            if not mask.any():
                continue
            expected = self.refs.expected(version, hot.hot_aggs, hot.hot_lows, hot.hot_highs)
            exact = self.refs.exact(version, hot.hot_aggs, hot.hot_lows, hot.hot_highs)
            ok = close(estimates[mask], expected[which[mask]])
            ok &= close(estimates[mask], exact[which[mask]]) | ~aligned[mask]
            matched[mask] |= ok
        must_fresh = done <= np.append(append_start, np.inf)[low_version]
        problems = {
            "match no twin/exact version their tag allows": ~matched,
            "are neither fresh nor stale": tags == OTHER,
            "are not fresh between a refresh and the next append": must_fresh & ~fresh,
        }
        bad = np.logical_or.reduce(list(problems.values()))
        summary = "; ".join(f"{int(m.sum())} {what}" for what, m in problems.items() if m.any())
        self.ledger.record(which.size, int(bad.sum()), f"ingest reads: {summary}")
