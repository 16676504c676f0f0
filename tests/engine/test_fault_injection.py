"""Seeded fault-matrix suite: the socket backend under injected failures.

Every schedule here — worker death mid-result-send, torn frames, dropped
and duplicated deliveries, a coordinator crash with spool replay into the
restarted coordinator — must merge to ``ComboResult`` s **byte-identical**
to the serial/inline run.  The fault schedules are seed-driven
(:mod:`repro.engine.backends.faults`), so a failing seed reproduces
exactly; CI sweeps several seeds via ``$REPRO_FAULT_SEEDS``.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.common.config import tiny_config
from repro.common.errors import AuthError, EngineError
from repro.engine import ParallelRunner
from repro.engine.backends import SocketBackend, run_worker
from repro.engine.backends.faults import FaultInjector, FaultSpec
from repro.experiments.runner import RunPlan, run_combo
from repro.workloads.mixes import get_mix

MIXES = [get_mix("c5_0"), get_mix("c5_1")]

#: Injection seeds; CI's fault-matrix job overrides this per matrix entry.
SEEDS = [int(s) for s in os.environ.get("REPRO_FAULT_SEEDS", "1 2 3").split()]


def small_plan() -> RunPlan:
    return RunPlan(
        n_accesses=1_500,
        target_instructions=25_000,
        warmup_instructions=15_000,
        seed=5,
        cc_probs=(0.0, 1.0),
    )


def fingerprint(combo) -> str:
    return json.dumps(
        {
            "mix_id": combo.mix_id,
            "mix_class": combo.mix_class,
            "cc_best_prob": combo.cc_best_prob,
            "metrics": combo.metrics,
            "results": {name: res.to_dict() for name, res in combo.results.items()},
        },
        sort_keys=True,
    )


@pytest.fixture(scope="module")
def serial_fingerprints() -> list:
    config, plan = tiny_config(seed=7), small_plan()
    return [fingerprint(run_combo(m, config, plan)) for m in MIXES]


def _faulty_worker(host, port, *, injector, spool_dir, errors, stats):
    """run_worker wrapped so thread exceptions surface in the main thread."""
    try:
        run_worker(
            host,
            port,
            faults=injector,
            spool_dir=spool_dir,
            connect_timeout=10.0,
            ack_timeout=3.0,
            stats=stats,
        )
    except Exception as exc:  # noqa: BLE001 - reported by the test body
        errors.append(exc)


class TestFaultMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_faulted_sweep_bit_identical(self, seed, tmp_path, serial_fingerprints):
        """Drops, duplicates, torn frames, mid-send deaths and delays on a
        seeded schedule: requeue + dedupe + spool replay absorb all of it
        and the merge stays byte-identical to the serial run."""
        spec = FaultSpec(
            seed=seed, drop=0.06, dup=0.08, torn=0.05, die=0.03,
            delay=0.05, delay_s=0.002,
        )
        backend = SocketBackend(heartbeat_timeout=6.0, worker_wait=30.0)
        host, port = backend.bind()
        errors: list = []
        injectors = [
            FaultInjector(spec),
            FaultInjector(FaultSpec(
                seed=seed + 1000, drop=0.06, dup=0.08, torn=0.05, die=0.03,
                delay=0.05, delay_s=0.002,
            )),
        ]
        stats = [dict(), dict()]
        workers = [
            threading.Thread(
                target=_faulty_worker,
                args=(host, port),
                kwargs=dict(
                    injector=injectors[i],
                    spool_dir=str(tmp_path / f"spool{i}"),
                    errors=errors,
                    stats=stats[i],
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for worker in workers:
            worker.start()

        config, plan = tiny_config(seed=7), small_plan()
        # jobs=4 splits each mix into several cost-balanced chunks, giving
        # the schedule more frames (and the scheduler more work) to fault.
        runner = ParallelRunner(config, plan, jobs=4, backend=backend)
        combos = runner.run(MIXES)
        for worker in workers:
            worker.join(timeout=60)
        assert not any(w.is_alive() for w in workers), "faulted worker hung"
        assert errors == []
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert runner.tasks_run == runner.tasks_total  # nothing lost
        fired = sum(
            count
            for injector in injectors
            for action, count in injector.counts.items()
            if action != "send"
        )
        assert fired > 0, "fault schedule never fired; the test exercised nothing"

    def test_coordinator_crash_spool_replay_and_restart(
        self, tmp_path, serial_fingerprints
    ):
        """A coordinator crash mid-sweep severs the workers; the restarted
        coordinator (same port, ``--resume`` store) gets the worker's
        journaled in-flight result replayed from its spool, and the final
        merge is byte-identical with nothing lost or duplicated."""
        store = str(tmp_path / "store")
        spool = str(tmp_path / "spool")
        config, plan = tiny_config(seed=7), small_plan()
        backend = SocketBackend(
            heartbeat_timeout=10.0, worker_wait=30.0, faults="crash=1"
        )
        host, port = backend.bind()
        errors: list = []
        stats: dict = {}

        def durable_worker():
            try:
                run_worker(
                    host,
                    port,
                    spool_dir=spool,
                    reconnect=True,
                    connect_timeout=30.0,
                    ack_timeout=3.0,
                    stats=stats,
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        worker = threading.Thread(target=durable_worker, daemon=True)
        worker.start()

        runner = ParallelRunner(config, plan, jobs=4, store=store, backend=backend)
        with pytest.raises(EngineError, match="injected coordinator crash"):
            runner.run(MIXES)

        # Restart on the SAME port while the worker is inside its reconnect
        # window; --resume picks up the store the crashed run persisted.
        backend2 = SocketBackend(
            host=host, port=port, heartbeat_timeout=10.0, worker_wait=30.0
        )
        backend2.bind()
        runner2 = ParallelRunner(
            config, plan, jobs=4, store=store, resume=True, backend=backend2
        )
        combos = runner2.run(MIXES)
        worker.join(timeout=60)
        assert not worker.is_alive(), "worker never exited after the restart"
        assert errors == []
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        # The worker observed the crash as a severed connection and re-dialed.
        # (Whether its spool had an un-acked entry to replay at that instant
        # is a scheduling race; the deterministic replay guarantee is pinned
        # by test_unacked_spooled_result_replays_without_resimulation.)
        assert stats.get("reconnects", 0) >= 1
        # The spool is drained: every journaled entry was acknowledged.
        sweep_dirs = list(os.scandir(spool)) if os.path.isdir(spool) else []
        leftover = [e for d in sweep_dirs for e in os.scandir(d.path)]
        assert leftover == []

    def test_injected_crash_hands_no_worker_a_shutdown(self, monkeypatch):
        """Regression: the crash teardown used to finish the sweep while the
        listener was still open, so a worker re-dialing in that window was
        accepted and handed an orderly shutdown, and exited instead of
        waiting for the restarted coordinator.  Here a worker re-dials at
        exactly that moment (whenever the sweep state is finished); after a
        crash it must find nobody listening."""
        from repro.engine.backends import socket as socket_backend

        config, plan = tiny_config(seed=7), small_plan()
        backend = SocketBackend(
            heartbeat_timeout=10.0, worker_wait=30.0, faults="crash=1"
        )
        host, port = backend.bind()
        served_after_finish: list = []
        real_finish = socket_backend._SweepState.finish

        def finish_then_redial(state):
            real_finish(state)
            try:
                served_after_finish.append(
                    run_worker(host, port, connect_timeout=0.5)
                )
            except EngineError:
                pass  # nobody listening: what a crashed coordinator looks like

        monkeypatch.setattr(
            socket_backend._SweepState, "finish", finish_then_redial
        )

        def severed_worker():
            try:
                run_worker(host, port, connect_timeout=30.0)
            except Exception:  # noqa: BLE001 - severed by the crash
                pass

        worker = threading.Thread(target=severed_worker, daemon=True)
        worker.start()
        runner = ParallelRunner(config, plan, jobs=4, backend=backend)
        with pytest.raises(EngineError, match="injected coordinator crash"):
            runner.run(MIXES)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert served_after_finish == []
        with pytest.raises(EngineError):
            run_worker(host, port, connect_timeout=0.5)

    def test_unacked_spooled_result_replays_without_resimulation(
        self, tmp_path, serial_fingerprints
    ):
        """A journaled-but-never-acknowledged result — exactly what a
        coordinator crash between result and ack leaves behind — is replayed
        on the worker's next connect and absorbed instead of re-simulated,
        even though the new coordinator grouped the tasks differently."""
        from repro.engine.backends.socket import ResultSpool, _sweep_id
        from repro.engine.execution import execute_task_chunk
        from repro.engine.tasks import expand_mix_tasks

        config, plan = tiny_config(seed=7), small_plan()
        backend = SocketBackend(heartbeat_timeout=10.0, worker_wait=30.0)
        host, port = backend.bind()
        runner = ParallelRunner(config, plan, jobs=4, backend=backend)

        # Journal one whole mix's results as a dead coordinator would have
        # left them: computed, spooled, never acked.
        tasks = [
            t for m in MIXES for t in expand_mix_tasks(m, runner.schemes, plan.cc_probs)
        ]
        mix0_tasks = [t for t in tasks if t.mix_id == MIXES[0].mix_id]
        results, error, exec_stats = execute_task_chunk(config, plan, mix0_tasks)
        assert error is None
        spool_dir = tmp_path / "spool"
        ResultSpool(spool_dir).put(
            _sweep_id(config, plan),
            "stale-partition-chunk",
            {
                "chunk_id": "stale-partition-chunk",
                "task_ids": [t.task_id for t in mix0_tasks],
                "results": results,
                "stats": exec_stats,
            },
        )
        chunks = runner._chunk(tasks)
        covered = [
            c for c in chunks if all(t.mix_id == MIXES[0].mix_id for t in c)
        ]
        assert covered, "the journaled mix should cover at least one chunk"

        errors: list = []
        stats: dict = {}
        worker = threading.Thread(
            target=_faulty_worker,
            args=(host, port),
            kwargs=dict(
                injector=None, spool_dir=str(spool_dir), errors=errors, stats=stats
            ),
            daemon=True,
        )
        worker.start()
        combos = runner.run(MIXES)
        worker.join(timeout=60)
        assert not worker.is_alive(), "worker hung"
        assert errors == []
        assert [fingerprint(c) for c in combos] == serial_fingerprints
        assert stats.get("replayed") == 1
        # The absorbed chunks were never re-dispatched: the worker computed
        # exactly the chunks the replay did not cover.
        assert stats.get("computed") == len(chunks) - len(covered)
        # And the replayed entry was acknowledged and deleted.
        sweep_dirs = list(os.scandir(spool_dir)) if os.path.isdir(spool_dir) else []
        leftover = [e for d in sweep_dirs for e in os.scandir(d.path)]
        assert leftover == []


class TestAuthRejection:
    def test_wrong_secret_worker_rejected_actionably(self, serial_fingerprints):
        """A worker with the wrong shared secret is refused with a message
        naming the fix, never claims work, and the sweep completes through
        the correctly-authenticated worker."""
        backend = SocketBackend(
            heartbeat_timeout=10.0, worker_wait=30.0, secret="right-secret"
        )
        host, port = backend.bind()
        rejections: list = []
        errors: list = []

        def impostor():
            try:
                run_worker(host, port, secret="wrong-secret", connect_timeout=10.0)
                errors.append("impostor worker was not rejected")
            except AuthError as exc:
                rejections.append(str(exc))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def legit():
            try:
                run_worker(host, port, secret="right-secret", connect_timeout=10.0)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=impostor, daemon=True),
            threading.Thread(target=legit, daemon=True),
        ]
        for t in threads:
            t.start()
        config, plan = tiny_config(seed=7), small_plan()
        runner = ParallelRunner(config, plan, jobs=2, backend=backend)
        [combo] = runner.run([MIXES[0]])
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert rejections, "wrong-secret worker saw no rejection"
        assert "shared-secret mismatch" in rejections[0]
        assert "REPRO_ENGINE_SECRET" in rejections[0]  # the actionable part
        assert backend.workers_seen == 1  # the impostor never registered
        serial = fingerprint(run_combo(MIXES[0], tiny_config(seed=7), small_plan()))
        assert fingerprint(combo) == serial
