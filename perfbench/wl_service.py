"""``service_mixed``: mixed read/write job traffic against ``repro serve``.

``repro serve --workers 1`` runs as its own process.  One generator drives
it over two connections, one per tenant, in **rounds** of two phases.
First both tenants submit their share of :data:`NOVEL_PER_ROUND` novel
scenarios back to back, without waiting for any job to finish, so a
backlog builds on the single worker.  These take the write path: engine
run, fsynced segment store, job journal, cache seal.  Right behind them go
:data:`FOLLOWERS_PER_ROUND` repeats of scenarios from the back half of that
backlog, each from the tenant that did not submit it; their runs have not
started yet, so the repeats coalesce onto them.  The phase ends when the
backlog has drained.  Then :data:`HITS_PER_ROUND` repeats of scenarios
sealed so far go out back to back, one at a time, alternating between the
tenants' connections.  These take the read path: a sealed-cache hit,
answered without the engine.  Half of a round's submissions repeat an
earlier scenario.  A run is ``--seconds / ROUND_SECONDS`` rounds (at least
two): a fixed amount of work, so a faster server finishes sooner rather
than doing more and holding more jobs in memory.

The inputs come from the seed: scenario order, trace seeds and which
earlier scenario each repeat names.  Each job is timed from the moment its
submit was sent to the terminal ``updated_at`` the server journaled.  That
timestamp is read back once per job after the run, so polling never loads
the server.  Every job's fetched payload bytes must equal a direct engine
run of its scenario.

This is a backlog (burst) load rather than an open loop at a fixed arrival
rate.  Open-loop Poisson traffic at 7-20 arrivals/s gave latency
percentiles that moved by 15-60 % between runs of one and the same schedule
on a shared 2-vCPU host.  That is wider than any regression bound the
benchmark could set.  Back-to-back submission keeps the server busy; on a
quiet host its figures repeated within a few percent.  Running the hits
while the engine is busy (reads contending with writes) made the novel-job
rate swing by half between rounds, so the hits run in a phase of their
own.  The novel-job rate is taken from the intervals between consecutive
completions inside each round's backlog (one job's time on the worker
each), pooled over the rounds; the hit latency is the median of every hit.
Per-round figures moved by 15 % between the rounds of one run, so they are
only printed.  Both gated figures are scaled by the run's slowdown (see
``harness.HostSpeed``), from calibration loops run before each server start
and before each round's hits, while the server is idle.  The server's job
time follows those loops only in part, since both paths also wait on fsync
and on the scheduler: over three sets of ten runs, scaling cut the spread
of the novel-job rate in two and widened it in one, and cut that of the
hit latency in all three.

With tracing on, the service runs in-process instead, so that its methods
can be wrapped.  It runs once untraced and once traced on the same inputs;
the difference is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness
import layers

NOVEL_PER_ROUND = 60
FOLLOWERS_PER_ROUND = 12
HITS_PER_ROUND = 48
#: Nominal length of one round (60 novel jobs of ~40 ms, then the hits).
ROUND_SECONDS = 2.5
TENANTS = ("alice", "bob")
#: Novel scenarios run the private baseline on one generated C4-shaped mix
#: (two class-A programs, one B, one C) at the ``smoke-tiny`` scale and
#: plan: one engine task of ~40 ms per job.
SCHEMES = ("l2p",)
SLOTS = ("A", "A", "B", "C")
#: Novel mixes cycle through this many generated draws, the same for every
#: seed, so seeds differ in trace seeds and order but not in the cost mix
#: of the jobs offered.
MIX_DRAWS = 21
SECRET = "perfbench-shared-secret"
#: Give up on a round whose jobs are not all terminal after this long.
ROUND_TIMEOUT = 90.0
#: Calibration loops (see ``harness.HostSpeed``) before each round's hits,
#: while the server is idle.
HIT_CALIBRATIONS = 5


def novel_scenario(seed: int, index: int):
    """Novel scenario *index*: a generated mix and its own trace seed."""
    from repro.scenario import load_scenario_file
    from repro.scenario.workload import GeneratedMixSpec, WorkloadSpec

    base = load_scenario_file("smoke-tiny")
    derived = seed * 100_000 + index
    mix = GeneratedMixSpec(count=1, slots=SLOTS, seed=index % MIX_DRAWS, id_prefix="svc")
    return dataclasses.replace(
        base,
        name=f"perfbench-{seed}-{index}",
        description="",
        schemes=SCHEMES,
        system=dataclasses.replace(base.system, seed=derived),
        workload=WorkloadSpec(generated=(mix,)),
        plan=dataclasses.replace(base.plan, seed=derived),
    )


# -- server process -------------------------------------------------------------


class ServerProcess:
    """``repro serve`` as a child process on a free localhost port."""

    _LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")

    def __init__(self, root: Path, secret_file: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self._log = open(root.parent / f"{root.name}.stderr", "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--root", str(root),
                "--bind", "127.0.0.1:0",
                "--workers", "1",
                "--secret-file", str(secret_file),
            ],
            cwd=harness.ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.port: Optional[int] = None
        self._drain: Optional[threading.Thread] = None

    def wait_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = self._LISTENING.search(line)
                if match:
                    self.port = int(match.group(2))
                    # Keep the pipe drained so the server never blocks on it.
                    self._drain = threading.Thread(
                        target=self.proc.stdout.read, daemon=True
                    )
                    self._drain.start()
                    return self.port
        raise harness.BenchError("repro serve did not start listening")

    def peak_rss_mb(self) -> float:
        return harness.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a shell that starts the benchmark in the
        # background makes its children ignore SIGINT.  The job journal and
        # result stores are crash-safe, so an abrupt exit loses nothing.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self._drain is not None:
            self._drain.join(timeout=15)
        self.proc.stdout.close()
        self._log.close()


# -- generator -------------------------------------------------------------------


#: What a submission exercises: the write path, a coalesce onto a run
#: still queued, or a sealed-cache hit.
NOVEL, FOLLOWER, HIT = "novel", "follower", "hit"


@dataclasses.dataclass
class Sent:
    scenario: int
    kind: str
    tenant: str
    round: int
    sent_wall: float = 0.0
    submit_rtt: float = 0.0
    job_id: Optional[str] = None
    error: Optional[str] = None


class Generator:
    """Builds and sends the rounds; holds every request it sent."""

    def __init__(self, seed: int, clients: Dict[str, object], host=None) -> None:
        self.seed = seed
        self.clients = clients
        self.host = host
        self.rng = random.Random(seed)
        self.payloads: List[dict] = []
        self.sent: List[Sent] = []
        self.rounds = 0

    def _send(self, batch: List[Sent], concurrent: bool) -> None:
        """Send *batch* back to back, each item on its tenant's connection.

        ``concurrent`` gives each tenant its own thread; otherwise one
        thread alternates between the connections, one request at a time.
        """
        from repro.common.errors import ReproError

        def send(items: List[Sent]) -> None:
            for item in items:
                item.sent_wall = time.time()
                before = time.perf_counter()
                try:
                    client = self.clients[item.tenant]
                    item.job_id = client.submit(self.payloads[item.scenario])["job_id"]
                except (ReproError, OSError) as exc:
                    item.error = f"{type(exc).__name__}: {exc}"
                item.submit_rtt = time.perf_counter() - before

        if concurrent:
            threads = [
                threading.Thread(target=send, args=([i for i in batch if i.tenant == t],))
                for t in self.clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        else:
            send(batch)
        self.sent.extend(batch)

    def _drain(self, novel: List[Sent], followers: List[Sent]) -> None:
        """Wait until every job of the write phase is terminal.

        Each tenant's novel jobs run in its submission order, so it is
        enough to poll each tenant's last one; by then every run a follower
        waits on has ended too, so each follower is checked once.
        """
        last = {item.tenant: item for item in novel if item.job_id}
        deadline = time.monotonic() + ROUND_TIMEOUT
        for item in list(last.values()) + [f for f in followers if f.job_id]:
            while self.clients[item.tenant].status(item.job_id)["state"] not in (
                "done", "failed", "cancelled"
            ):
                if time.monotonic() > deadline:
                    raise harness.BenchError("service backlog did not drain")
                time.sleep(0.1)

    def run_round(self) -> None:
        first = len(self.payloads)
        novel = [
            Sent(first + i, NOVEL, TENANTS[i % len(TENANTS)], self.rounds)
            for i in range(NOVEL_PER_ROUND)
        ]
        for item in novel:
            self.payloads.append(novel_scenario(self.seed, item.scenario).to_dict())
        back_half = range(NOVEL_PER_ROUND // 2, NOVEL_PER_ROUND)
        followers = [
            Sent(first + i, FOLLOWER, TENANTS[(i + 1) % len(TENANTS)], self.rounds)
            for i in sorted(self.rng.sample(back_half, FOLLOWERS_PER_ROUND))
        ]
        self._send(novel, concurrent=True)
        self._send(followers, concurrent=False)
        self._drain(novel, followers)
        # One repeat in flight at a time: two concurrent hitters mostly
        # measured handler threads taking turns on the interpreter lock.
        hits = [
            Sent(
                self.rng.randrange(len(self.payloads)),
                HIT,
                TENANTS[i % len(TENANTS)],
                self.rounds,
            )
            for i in range(HITS_PER_ROUND)
        ]
        if self.host is not None:
            self.host.sample(HIT_CALIBRATIONS)
        self._send(hits, concurrent=False)
        self.rounds += 1

    def run(self, seconds: float) -> None:
        for _ in range(max(2, round(seconds / ROUND_SECONDS))):
            self.run_round()


@dataclasses.dataclass
class RunResult:
    sent: List[Sent]
    records: Dict[str, dict]
    fetched: Dict[str, Dict[str, bytes]]
    result_rtts: List[float]


def one_run(seed: int, clients: Dict[str, object], seconds: float, host=None) -> RunResult:
    """Drive the rounds, then read back every record and result once."""
    from repro.common.errors import ReproError

    gen = Generator(seed, clients, host)
    gen.run(seconds)
    client = clients[TENANTS[0]]
    records = {job["job_id"]: job for job in client.list_jobs()}
    fetched: Dict[str, Dict[str, bytes]] = {}
    rtts: List[float] = []
    for item in gen.sent:
        record = records.get(item.job_id)
        if record is None or record["state"] != "done":
            continue
        before = time.perf_counter()
        try:
            fetched[item.job_id] = client.result(item.job_id)[1]
        except (ReproError, OSError):
            continue
        rtts.append(time.perf_counter() - before)
    return RunResult(gen.sent, records, fetched, rtts)


def expected_payloads(seed: int, count: int, work: Path) -> Dict[int, Dict[str, bytes]]:
    """Direct engine runs (no service) of novel scenarios ``0..count-1``."""
    from repro.engine.store import ResultStore
    from repro.service.server import simulate_job

    out = {}
    for index in range(count):
        store_dir = work / f"direct-{index}"
        simulate_job(novel_scenario(seed, index), store_dir)
        store = ResultStore(store_dir)
        try:
            out[index] = {t: store.payload_bytes(t) for t in sorted(store.completed_ids())}
        finally:
            store.close()
    return out


def failures(run: RunResult, expected: Dict[int, Dict[str, bytes]]) -> List[str]:
    """One line per submitted job that failed, saying how."""
    out = []
    for item in run.sent:
        record = run.records.get(item.job_id) if item.job_id else None
        if item.error is not None:
            why = item.error
        elif record is None:
            why = "no job record"
        elif record["state"] != "done":
            why = f"state {record['state']}: {record.get('error')}"
        elif item.job_id not in run.fetched:
            why = "result not fetched"
        elif run.fetched[item.job_id] != expected[item.scenario]:
            why = "payload differs from a direct engine run"
        else:
            continue
        out.append(f"failed: {item.kind} job {item.job_id} (scenario {item.scenario}, round {item.round}): {why}")
    return out


def latencies_ms(run: RunResult, kind: str, round_: Optional[int] = None) -> List[float]:
    """Submit-to-terminal times of the *kind* jobs that completed (of one round)."""
    return [
        (run.records[item.job_id]["updated_at"] - item.sent_wall) * 1000.0
        for item in run.sent
        if item.kind == kind
        and round_ in (None, item.round)
        and item.job_id in run.records
        and run.records[item.job_id]["state"] == "done"
    ]


def novel_rates(run: RunResult) -> Dict[int, float]:
    """Per round: novel jobs per second, first submit to last terminal job."""
    spans: Dict[int, List[float]] = {}
    for item in run.sent:
        record = run.records.get(item.job_id)
        if item.kind != NOVEL or record is None:
            continue
        lo, hi = spans.setdefault(item.round, [item.sent_wall, record["updated_at"]])
        spans[item.round] = [min(lo, item.sent_wall), max(hi, record["updated_at"])]
    return {r: NOVEL_PER_ROUND / (hi - lo) for r, (lo, hi) in spans.items()}


def completion_gaps_ms(run: RunResult) -> List[float]:
    """Intervals between consecutive novel-job completions inside a round.

    The single worker works through the round's backlog without a pause,
    so each interval is one job's time on the worker: engine run, store,
    journal and seal.  The first job of a round has no interval.
    """
    ends: Dict[int, List[float]] = {}
    for item in run.sent:
        record = run.records.get(item.job_id)
        if item.kind == NOVEL and record is not None and record["state"] == "done":
            ends.setdefault(item.round, []).append(record["updated_at"])
    gaps = []
    for round_ends in ends.values():
        round_ends.sort()
        gaps.extend((b - a) * 1000.0 for a, b in zip(round_ends, round_ends[1:]))
    return gaps


def connect(port: int) -> Dict[str, object]:
    from repro.service import ServiceClient

    return {t: ServiceClient("127.0.0.1", port, secret=SECRET, submitter=t) for t in TENANTS}


def close_all(clients: Dict[str, object]) -> None:
    for client in clients.values():
        client.close()


def _novel_count(run: RunResult) -> int:
    return 1 + max(item.scenario for item in run.sent)


def run(seed: int, seconds: float, trace: bool) -> harness.Outcome:
    # A directory of the run's own (server roots, direct-run stores), so a
    # run never deletes another's files.
    work = Path(tempfile.mkdtemp(prefix="service-", dir=harness.WORK))
    try:
        secret_file = work / "secret"
        secret_file.write_text(SECRET)
        os.chmod(secret_file, 0o600)
        if trace:
            return _run_traced(seed, seconds, work)
        return _run_untraced(seed, seconds, work, secret_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_untraced(seed: int, seconds: float, work: Path, secret_file: Path) -> harness.Outcome:
    setups: List[Tuple[float, float]] = []
    host = harness.HostSpeed()
    server: Optional[ServerProcess] = None
    clients: Dict[str, object] = {}
    # The generator and the server (threads and children inherit this) share
    # one CPU.  Unpinned, the novel-job rate spread 20 % over ten runs.  One
    # CPU is enough: the generator idles while the backlog drains and
    # strictly alternates with the server on hits.
    all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(all_cpus)})
    try:
        for attempt in range(harness.SETUP_REPEATS):
            if server is not None:
                close_all(clients)
                server.stop()
            loop_s = host.sample(harness.SETUP_CALIBRATIONS)
            start = time.perf_counter()
            server = ServerProcess(work / f"root-{attempt}", secret_file)
            clients = connect(server.wait_listening())
            setups.append((time.perf_counter() - start, loop_s))
        result = one_run(seed, clients, seconds, host)
        rss = server.peak_rss_mb()
    finally:
        close_all(clients)
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, all_cpus)

    novel = _novel_count(result)
    failed_lines = failures(result, expected_payloads(seed, novel, work))
    rounds = novel // NOVEL_PER_ROUND
    rates = list(novel_rates(result).values())
    gaps = completion_gaps_ms(result)
    hits = latencies_ms(result, HIT)
    slowdown = host.slowdown()
    coalesced = sum(
        1
        for item in result.sent
        if item.kind == FOLLOWER
        and result.records.get(item.job_id, {}).get("attached_to")
    )
    info = [
        f"rounds: {rounds} x ({NOVEL_PER_ROUND} novel + {FOLLOWERS_PER_ROUND} "
        f"followers, then {HITS_PER_ROUND} hits); {coalesced} of "
        f"{rounds * FOLLOWERS_PER_ROUND} followers coalesced onto a queued run",
        f"check: fetched payloads of {len(result.sent)} jobs vs direct engine runs",
        host.describe(),
        "setup_s: median of normalized server starts; raw "
        + ", ".join(f"{seconds:.4f}" for seconds, _l in setups)
        + " s",
        f"work_per_s = 1000 / mean of {len(gaps)} intervals between consecutive "
        f"novel-job completions x slowdown ({statistics.mean(gaps):.3f} ms raw; median "
        f"{statistics.median(gaps):.3f} ms); per-round novel jobs/s, first submit "
        "to last completion: " + ", ".join(f"{r:.2f}" for r in rates),
        f"repeat_p50_ms = median of all {len(hits)} hit latencies / slowdown",
    ] + failed_lines
    metrics = {
        "setup_s": statistics.median(harness.normalized(s, l) for s, l in setups),
        "work_per_s": 1000.0 / statistics.mean(gaps) * slowdown,
    }
    metrics.update(harness.latency_metrics("first", latencies_ms(result, NOVEL), info))
    harness.latency_metrics("coalesce", latencies_ms(result, FOLLOWER), info)
    harness.latency_metrics("hit", hits, info)
    metrics["repeat_p50_ms"] = harness.percentile(hits, 50) / slowdown
    metrics["peak_rss_mb"] = rss
    return harness.Outcome(len(result.sent), len(failed_lines), metrics, info)


def _run_traced(seed: int, seconds: float, work: Path) -> harness.Outcome:
    from repro.service import SimulationService

    inst = layers.Instrumented()
    runs: List[Tuple[RunResult, int]] = []
    for label in ("untraced", "traced"):
        if label == "traced":
            inst.install()
        service = SimulationService(work / f"inproc-{label}", secret=SECRET, workers=1)
        clients: Dict[str, object] = {}
        try:
            service.start()
            clients = connect(service.port)
            runs.append((one_run(seed, clients, seconds), service.engine_runs))
        finally:
            close_all(clients)
            service.stop()
            inst.remove()

    novel = max(_novel_count(result) for result, _e in runs)
    expected = expected_payloads(seed, novel, work)
    failed_lines = [line for result, _e in runs for line in failures(result, expected)]
    attempted = sum(len(result.sent) for result, _e in runs)
    (base, _e0), (traced, engine_runs) = runs
    untraced_rate = statistics.median(novel_rates(base).values())
    traced_rate = statistics.median(novel_rates(traced).values())
    overhead = (untraced_rate / traced_rate - 1.0) * 100.0
    info = [
        "check: fetched payloads of both runs vs direct engine runs",
        f"trace overhead: {untraced_rate:.2f} novel jobs/s untraced vs "
        f"{traced_rate:.2f} traced (in-process service)",
    ] + failed_lines

    submit_end: Dict[str, float] = {}
    for span in sorted(inst.rec.by_name("service.queue_submit"), key=lambda s: s[5]):
        submit_end.setdefault(span[6]["hash"], span[5])
    waits = [
        (span[4] - submit_end[span[6]["hash"]]) * 1000.0
        for span in inst.rec.by_name("engine.simulate_job")
        if span[6]["hash"] in submit_end
    ]
    submits = [item.submit_rtt * 1000.0 for item in traced.sent]
    records = [traced.records[item.job_id] for item in traced.sent if item.job_id in traced.records]
    service = {
        "service.submit_p50_ms": harness.percentile(submits, 50),
        "service.submit_p90_ms": harness.percentile(submits, 90),
        "service.result_p50_ms": harness.percentile([r * 1000 for r in traced.result_rtts], 50),
        "service.queue_wait_p50_ms": harness.percentile(waits, 50) if waits else 0.0,
        "service.queue_wait_p90_ms": harness.percentile(waits, 90) if waits else 0.0,
        "service.dedupe_ratio": sum(r["deduplicated"] for r in records) / len(records),
        "service.engine_runs": engine_runs,
    }
    metrics = layers.layer_metrics(inst, overhead, service)
    inst.rec.dump(harness.WORK / f"spans-service_mixed-{seed}.jsonl")
    return harness.Outcome(attempted, len(failed_lines), metrics, info)
