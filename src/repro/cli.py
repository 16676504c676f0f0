"""Command-line interface: ``python -m repro <command>``.

Ten subcommands cover the library's main entry points:

``characterize``
    Section 2 pipeline: per-set demand distribution of one benchmark
    (Figures 1–3 as text).  Profiles through the vectorized stack-distance
    kernel, or — with ``--stream [--chunk N]`` — through the chunked
    streaming kernel in O(chunk) memory (reading straight off an on-disk
    trace-cache entry when one exists), with bit-identical output.

``survey``
    The Section 2.3 survey: characterize all 26 SPEC2000 models and flag
    set-level non-uniformity.  ``--jobs N`` fans the programs across worker
    processes with output identical to the serial run; ``--stream`` applies
    the streaming profiler per program.

``run``
    Simulate one Table 8 mix (or four explicit programs) under one or more
    schemes and print Table 5 metrics vs the L2P baseline.

``sweep``
    The Figures 9–11 class sweep (optionally restricted to classes /
    combinations) — prints all three figures.

``scenario``
    The declarative front door: ``repro scenario run|validate|expand FILE``
    loads a YAML/JSON scenario (or scenario grid) file — one validated,
    content-hashed contract naming the system, workload, schemes and run
    plan (see ``docs/scenarios.md``).  Bundled presets under
    ``src/repro/scenario/presets/`` are addressable by bare name
    (``repro scenario run smoke-tiny``).  ``run`` and ``sweep`` are thin
    adapters over the same contract: they build a scenario internally from
    their flags (snapshot it with ``--dump-scenario PATH``) and produce
    bit-identical results to the equivalent scenario file.

``overhead``
    The analytic Tables 2 and 3.

``worker``
    Execution worker for distributed sweeps: connects to a ``--backend
    socket`` coordinator and pulls task chunks until told to shut down.

``store``
    Maintenance for on-disk result stores: ``repro store
    verify|repair|compact|migrate DIR`` re-checksums every record,
    quarantines corrupt ones with per-record messages, reclaims
    superseded records, and converts legacy one-JSON-file-per-task stores
    to the sharded segment layout in place (see ``docs/engine.md``).

``serve``
    The simulation service: a long-lived job server with a durable job
    database, per-submitter fair-share scheduling, content-hash dedupe
    (identical scenarios coalesce to one run) and a sealed result cache
    keyed by scenario content hash.  Speaks the engine's authenticated,
    encrypted frame protocol (see ``docs/service.md``).

``job``
    Client verbs against a running service: ``repro job
    submit|status|result|cancel|list`` submit a scenario file (bundled
    presets by bare name), poll its journaled state and per-task
    progress, fetch the result store's canonical record bytes, cancel,
    or list every job the server knows.

All commands accept ``--scale {tiny,small,medium,paper}`` and ``--seed``
(ignored by ``scenario``, whose files carry their own scale and seeds).
``run``, ``sweep`` and ``scenario run`` additionally accept the
parallel-engine flags ``--jobs N`` (simulate combinations' schemes across N
worker processes), ``--backend {inline,process,socket}`` (execution
transport; ``socket`` listens on ``--bind HOST:PORT`` for ``repro worker``
processes), ``--store DIR`` (persist per-task results in a durable
sharded store of checksummed records; the manifest is stamped with the
scenario's content hash) and ``--resume`` (skip tasks already completed
in the store — refused when the store was produced by a different
scenario).  The same three commands take ``--sim-core
{auto,fast,reference}`` (select the stepping loop; every core is
bit-identical, see ``docs/architecture.md``; ``auto`` is the compiled
core) and ``--profile PATH`` (cProfile the
execution phase).  ``run`` and ``sweep`` also take
``--snug-monitor`` (SNUG classifies sets from an online streaming demand
monitor; a plan property, so it behaves identically under every backend) —
see :mod:`repro.engine`.  Every backend produces bit-identical results to
the serial path.

Trace provisioning everywhere is two-tier: ``--trace-cache DIR`` (default
``$REPRO_TRACE_CACHE``) names the shared on-disk
:class:`~repro.workloads.trace_cache.TraceCache` consulted before any
trace is regenerated, and each process keeps a small memo on top — so a
sweep, its workers and the characterization pipeline generate every trace
once between them.  See ``docs/engine.md`` for the backend contract, the
socket worker protocol and the cache key scheme.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .analysis.overhead import SnugOverheadModel
from .analysis.report import format_pct, render_combo_metrics, render_table
from .common.config import SCALE_NAMES, scaled_config
from .common.errors import ReproError
from .engine import BACKENDS, DEFAULT_SCHEMES, ParallelRunner, run_worker
from .experiments.characterization import (
    figure_distribution,
    non_uniform_names,
    render_figure as render_char,
    render_survey,
    survey_26,
)
from .experiments.performance import FigureData, render_figure
from .experiments.runner import SIM_CORES, ComboResult
from .scenario import (
    EngineOptions,
    Scenario,
    ScenarioExecution,
    ScenarioGrid,
    expand_scenario_file,
    load_scenario_file,
    scenario_from_flags,
)
from .schemes.factory import SCHEMES
from .service import DEFAULT_SERVICE_PORT, ServiceClient, SimulationService
from .workloads.mixes import MIXES, mix_classes
from .workloads.spec2000 import benchmark_names
from .workloads.trace_cache import resolve_cache_root

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNUG cooperative-caching reproduction toolkit",
    )
    parser.add_argument("--scale", choices=SCALE_NAMES, default="small")
    parser.add_argument("--seed", type=int, default=7)
    sub = parser.add_subparsers(dest="command", required=True)

    # One definition of --trace-cache shared by every command that touches
    # trace provisioning (run/sweep/scenario-run via engine_flags,
    # characterize/survey via stream_flags) — the help text can't drift.
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="two-tier trace provisioning: shared on-disk trace cache "
             "consulted before regenerating (each process keeps a memo on "
             "top); default $REPRO_TRACE_CACHE if set",
    )

    engine_flags = argparse.ArgumentParser(add_help=False, parents=[cache_flags])
    engine_flags.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel engine: worker processes (0 = in-process task loop); "
             "omit for the classic serial path",
    )
    engine_flags.add_argument(
        "--store", default=None, metavar="DIR",
        help="parallel engine: persist per-task results under DIR in the "
             "sharded, checksummed segment store (manifest stamped with the "
             "scenario content hash; scrub with `repro store verify`)",
    )
    engine_flags.add_argument(
        "--resume", action="store_true",
        help="parallel engine: skip tasks already completed in --store "
             "(refused when the store was produced by a different scenario)",
    )
    engine_flags.add_argument(
        "--backend", choices=sorted(BACKENDS), default=None,
        help="execution backend: inline (this process), process (local pool, "
             "the --jobs default), or socket (serve task chunks to `repro "
             "worker` processes)",
    )
    engine_flags.add_argument(
        "--bind", default=None, metavar="HOST:PORT",
        help="socket backend: coordinator listen address "
             "(default 127.0.0.1:0 = any free port, printed at startup)",
    )
    engine_flags.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="socket backend: file holding the shared worker-auth secret "
             "(per-frame HMAC plus negotiated payload encryption; a file "
             "keeps it off argv — default $REPRO_ENGINE_SECRET, else "
             "unauthenticated, unencrypted integrity-only MACs with a loud "
             "warning)",
    )
    engine_flags.add_argument(
        "--sim-core", choices=SIM_CORES, default=None,
        help="stepping loop: auto (the compiled core: SoA state + "
             "per-scheme kernels, the default), fast (scalar event loop) or "
             "reference (the seed loop); all cores produce bit-identical "
             "results, so this never changes what a run computes",
    )
    engine_flags.add_argument(
        "--profile", default=None, metavar="PATH",
        help="cProfile the execution phase and dump the stats to PATH "
             "(inspect with `python -m pstats PATH`)",
    )

    # run/sweep only: the scenario file carries its own snug_monitor flag.
    monitor_flags = argparse.ArgumentParser(add_help=False)
    monitor_flags.add_argument(
        "--snug-monitor", action="store_true",
        help="SNUG schemes classify sets from an online streaming "
             "stack-distance monitor instead of the hardware counters "
             "(works identically under every backend)",
    )
    monitor_flags.add_argument(
        "--dump-scenario", default=None, metavar="PATH",
        help="snapshot this invocation's resolved configuration as a "
             "reusable scenario file (.yaml or .json) before running",
    )

    stream_flags = argparse.ArgumentParser(add_help=False, parents=[cache_flags])
    stream_flags.add_argument(
        "--stream", action="store_true",
        help="profile through the chunked streaming kernel: O(chunk) memory, "
             "bit-identical output; with a trace cache, streams are read "
             "straight off the on-disk entries",
    )
    stream_flags.add_argument(
        "--chunk", type=int, default=None, metavar="N",
        help="streaming chunk size in accesses (default 65536; requires --stream)",
    )

    p_char = sub.add_parser(
        "characterize", help="set-level demand distribution (Figs 1-3)",
        parents=[stream_flags],
    )
    p_char.add_argument("benchmark", choices=benchmark_names())
    p_char.add_argument(
        "--intervals", type=int, default=30, metavar="N",
        help="sampling intervals to characterize (paper: 1000)",
    )
    p_char.add_argument(
        "--interval-accesses", type=int, default=2_000, metavar="N",
        help="L2 accesses per sampling interval (paper: 100000)",
    )

    p_survey = sub.add_parser(
        "survey", help="Section 2.3 non-uniformity survey (26 programs)",
        parents=[stream_flags],
    )
    p_survey.add_argument(
        "--intervals", type=int, default=12, metavar="N",
        help="sampling intervals per program",
    )
    p_survey.add_argument(
        "--interval-accesses", type=int, default=1_500, metavar="N",
        help="L2 accesses per sampling interval",
    )
    p_survey.add_argument(
        "--threshold", type=float, default=0.08, metavar="FRAC",
        help="non-uniformity score at or above which a program is flagged",
    )
    p_survey.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="characterize programs across N worker processes (0 = in-process); "
             "workers share on-disk trace-cache entries and keep a per-process "
             "memo on top — output identical to the serial run",
    )

    p_run = sub.add_parser(
        "run", help="simulate one workload mix",
        parents=[engine_flags, monitor_flags],
    )
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--mix", choices=[m.mix_id for m in MIXES])
    group.add_argument("--programs", nargs=4, metavar="PROG",
                       help="four benchmark names (custom mix)")
    p_run.add_argument(
        "--schemes",
        nargs="+",
        default=list(DEFAULT_SCHEMES),
        choices=[*SCHEMES, "cc_best"],
    )

    p_sweep = sub.add_parser(
        "sweep", help="class sweep (Figures 9-11)",
        parents=[engine_flags, monitor_flags],
    )
    p_sweep.add_argument("--classes", nargs="+", choices=mix_classes(), default=None)
    p_sweep.add_argument(
        "--combos-per-class", type=int, default=None, metavar="K",
        help="limit each workload class to its first K combinations "
             "(default: all)",
    )

    p_scenario = sub.add_parser(
        "scenario",
        help="declarative scenario files: run, validate, or expand "
             "(bundled presets addressable by name; see docs/scenarios.md)",
    )
    scen_sub = p_scenario.add_subparsers(dest="scenario_command", required=True)
    p_sval = scen_sub.add_parser(
        "validate", help="load and fully validate scenario/grid files"
    )
    p_sval.add_argument(
        "files", nargs="+", metavar="FILE",
        help="scenario or grid files (YAML/JSON), or bundled preset names",
    )
    p_sexp = scen_sub.add_parser(
        "expand", help="expand a scenario grid into concrete scenarios"
    )
    p_sexp.add_argument(
        "file", metavar="FILE",
        help="scenario or grid file (YAML/JSON), or a bundled preset name",
    )
    p_sexp.add_argument(
        "--out", default=None, metavar="DIR",
        help="write each expanded scenario as YAML under DIR "
             "(default: list names and content hashes to stdout)",
    )
    p_srun = scen_sub.add_parser(
        "run", parents=[engine_flags],
        help="run a scenario (or every scenario of a grid) file",
    )
    p_srun.add_argument(
        "file", metavar="FILE",
        help="scenario or grid file (YAML/JSON), or a bundled preset name",
    )

    sub.add_parser("overhead", help="storage-overhead analysis (Tables 2-3)")

    p_worker = sub.add_parser(
        "worker", help="pull task chunks from a socket-backend coordinator"
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (the sweep's --bind address)",
    )
    p_worker.add_argument(
        "--trace-cache", default=None, metavar="DIR",
        help="override the coordinator-shipped trace-cache directory",
    )
    p_worker.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="keep retrying the connection this long (workers may start "
             "before the coordinator)",
    )
    p_worker.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the shared auth secret; must match the "
             "coordinator's (default $REPRO_ENGINE_SECRET)",
    )
    p_worker.add_argument(
        "--spool", default=None, metavar="DIR",
        help="journal completed chunks under DIR until the coordinator acks "
             "them; unacknowledged results are replayed (not re-simulated) "
             "on reconnect, surviving coordinator restarts",
    )
    p_worker.add_argument(
        "--spool-gc", action="store_true",
        help="garbage-collect spool directories of sweeps untouched for "
             "--spool-gc-age seconds (the sweep being served is always "
             "kept); requires --spool",
    )
    p_worker.add_argument(
        "--spool-gc-age", type=float, default=7 * 24 * 3600.0, metavar="S",
        help="age threshold for --spool-gc in seconds (default: 7 days)",
    )
    p_worker.add_argument(
        "--reconnect", action="store_true",
        help="re-dial the coordinator after a lost connection instead of "
             "exiting (each retry window bounded by --connect-timeout)",
    )
    p_worker.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection for hardening tests, e.g. "
             "'seed=7,drop=0.1,torn=0.05,die=0.02,dup=0.1' (see "
             "docs/engine.md for the grammar; implies --reconnect)",
    )

    p_store = sub.add_parser(
        "store",
        help="result-store maintenance: scrub checksums, quarantine corrupt "
             "records, reclaim superseded ones, migrate legacy stores",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sverify = store_sub.add_parser(
        "verify",
        help="read-only scrub: re-checksum every record and report torn or "
             "corrupt ones with per-record locations (exit 1 on damage)",
    )
    p_sverify.add_argument("dir", metavar="DIR", help="result store directory")
    p_srepair = store_sub.add_parser(
        "repair",
        help="quarantine corrupt records under DIR/quarantine/ and truncate "
             "torn segment tails; re-run the sweep with --resume afterwards "
             "to re-simulate exactly the quarantined tasks",
    )
    p_srepair.add_argument("dir", metavar="DIR", help="result store directory")
    p_scompact = store_sub.add_parser(
        "compact",
        help="rewrite each shard without superseded or tombstoned records "
             "(refuses while corrupt records are present: repair first)",
    )
    p_scompact.add_argument("dir", metavar="DIR", help="result store directory")
    p_smigrate = store_sub.add_parser(
        "migrate",
        help="convert a legacy one-JSON-file-per-task store to the sharded "
             "segment layout in place (old files kept at "
             "DIR/legacy-results.bak)",
    )
    p_smigrate.add_argument("dir", metavar="DIR", help="result store directory")
    p_smigrate.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard count for the migrated store (default: 8)",
    )

    p_serve = sub.add_parser(
        "serve",
        parents=[cache_flags],
        help="run the simulation service: durable job queue, fair-share "
             "scheduling, scenario-hash dedupe and result cache "
             "(see docs/service.md)",
    )
    p_serve.add_argument(
        "--root", required=True, metavar="DIR",
        help="service state directory: the job journal lives under "
             "DIR/jobs/ and one sealed result store per scenario hash "
             "under DIR/cache/ (restarting over the same DIR recovers "
             "every job and keeps every cached result)",
    )
    p_serve.add_argument(
        "--bind", default=f"127.0.0.1:{DEFAULT_SERVICE_PORT}", metavar="HOST:PORT",
        help=f"listen address (default 127.0.0.1:{DEFAULT_SERVICE_PORT}; "
             "port 0 = any free port, printed at startup)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="simulation worker threads claiming jobs from the fair-share "
             "queue (each runs one job at a time)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="parallelism *within* each job: worker processes per "
             "simulation (0 = run the job's tasks in-process)",
    )
    p_serve.add_argument(
        "--sim-core", choices=SIM_CORES, default=None,
        help="stepping loop for served jobs (bit-identical by contract, "
             "so it never changes what a job computes)",
    )
    p_serve.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the shared client-auth secret (per-frame HMAC "
             "plus negotiated payload encryption; default "
             "$REPRO_ENGINE_SECRET, else unauthenticated integrity-only "
             "MACs with a loud warning)",
    )
    p_serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="claims a job may consume before it fails terminally "
             "(each retry resumes the job's partial result store)",
    )

    job_flags = argparse.ArgumentParser(add_help=False)
    job_flags.add_argument(
        "--connect", default=f"127.0.0.1:{DEFAULT_SERVICE_PORT}", metavar="HOST:PORT",
        help=f"service address (the serve --bind address; default "
             f"127.0.0.1:{DEFAULT_SERVICE_PORT})",
    )
    job_flags.add_argument(
        "--secret-file", default=None, metavar="PATH",
        help="file holding the shared auth secret; must match the "
             "server's (default $REPRO_ENGINE_SECRET)",
    )
    p_job = sub.add_parser(
        "job",
        help="talk to a running `repro serve`: submit scenarios, poll "
             "status, fetch results, cancel, list",
    )
    job_sub = p_job.add_subparsers(dest="job_command", required=True)
    p_jsubmit = job_sub.add_parser(
        "submit", parents=[job_flags],
        help="submit a scenario file (or bundled preset name) as a job; "
             "an identical scenario already cached or in flight is "
             "answered without re-simulating",
    )
    p_jsubmit.add_argument(
        "file", metavar="FILE",
        help="scenario file (YAML/JSON) or bundled preset name "
             "(grids are refused: expand first, submit each point)",
    )
    p_jsubmit.add_argument(
        "--submitter", default=None, metavar="NAME",
        help="fair-share tenant identity the job is charged to "
             "(default $USER, else 'anonymous')",
    )
    p_jsubmit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal, printing its final state "
             "(exit 0 on done, 1 on failed/cancelled)",
    )
    p_jsubmit.add_argument(
        "--wait-timeout", type=float, default=3600.0, metavar="S",
        help="give up on --wait after S seconds (default: 3600)",
    )
    p_jstatus = job_sub.add_parser(
        "status", parents=[job_flags],
        help="print one job's journaled state line",
    )
    p_jstatus.add_argument("job_id", metavar="JOB_ID", help="the id submit printed")
    p_jresult = job_sub.add_parser(
        "result", parents=[job_flags],
        help="fetch a done job's per-task canonical record bytes "
             "(exactly the server store's checksummed payloads)",
    )
    p_jresult.add_argument("job_id", metavar="JOB_ID", help="the id submit printed")
    p_jresult.add_argument(
        "--out", default=None, metavar="DIR",
        help="write each task's payload to DIR/<task_id>.bin (two fetches "
             "of one job byte-compare equal with `diff -r`); default: "
             "print a digest summary only",
    )
    p_jcancel = job_sub.add_parser(
        "cancel", parents=[job_flags],
        help="cancel a job (detaches a coalesced follower; aborts the "
             "engine run only when nobody else wants the result)",
    )
    p_jcancel.add_argument("job_id", metavar="JOB_ID", help="the id submit printed")
    job_sub.add_parser(
        "list", parents=[job_flags],
        help="print every job the service knows, oldest first",
    )
    return parser


def _cmd_characterize(args: argparse.Namespace) -> int:
    config = scaled_config(args.scale, seed=args.seed)
    dist = figure_distribution(
        args.benchmark,
        num_sets=config.l2.num_sets,
        intervals=args.intervals,
        interval_accesses=args.interval_accesses,
        seed=args.seed,
        trace_cache=args.trace_cache,
        stream=args.stream,
        chunk_accesses=args.chunk,
    )
    print(render_char(dist, max_rows=20))
    verdict = "NON-UNIFORM" if dist.is_non_uniform() else "uniform"
    print(
        f"\ngiver share {dist.giver_fraction():.1%}, "
        f"taker share {dist.taker_fraction():.1%}, "
        f"score {dist.nonuniformity_score():.3f} -> {verdict}"
    )
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    config = scaled_config(args.scale, seed=args.seed)
    rows = survey_26(
        num_sets=config.l2.num_sets,
        intervals=args.intervals,
        interval_accesses=args.interval_accesses,
        seed=args.seed,
        threshold=args.threshold,
        jobs=args.jobs,
        trace_cache=args.trace_cache,
        stream=args.stream,
        chunk_accesses=args.chunk,
    )
    print(render_survey(rows))
    flagged = non_uniform_names(rows)
    print(f"\n{len(flagged)} of {len(rows)} programs non-uniform: {', '.join(flagged)}")
    return 0


def _parse_hostport(value: str) -> Optional[tuple[str, int]]:
    """``"HOST:PORT"`` as a tuple, or ``None`` if malformed (validated in main)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host or not port.isdigit():
        return None
    return host, int(port)


def _read_secret_file(path: Optional[str]) -> Optional[str]:
    """The shared engine secret from ``--secret-file`` (stripped), if given.

    A file rather than a flag value keeps the secret out of ``ps`` output
    and shell history; ``$REPRO_ENGINE_SECRET`` remains the no-file path.
    """
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            secret = handle.read().strip()
    except OSError as exc:
        raise ReproError(f"--secret-file: cannot read {path!r}: {exc}") from None
    if not secret:
        raise ReproError(f"--secret-file: {path!r} is empty")
    return secret


def _engine_options(args: argparse.Namespace, store: str | None = None) -> EngineOptions:
    """The :class:`EngineOptions` a run/sweep/scenario-run invocation asks for.

    ``trace_cache`` is the *explicit* flag value: $REPRO_TRACE_CACHE is
    applied later (by the engine's cache-root resolution), so the ambient
    environment alone never switches a plain run onto the engine path.
    """
    bind = _parse_hostport(args.bind) if args.bind is not None else None
    return EngineOptions(
        jobs=args.jobs,
        store=store if store is not None else args.store,
        resume=args.resume,
        backend=args.backend,
        bind=bind,
        trace_cache=args.trace_cache,
        secret=_read_secret_file(args.secret_file),
        sim_core=args.sim_core,
        profile=args.profile,
    )


def _announce_engine(runner: ParallelRunner) -> None:
    """Pre-run banner: socket coordinators must print where workers connect."""
    backend = runner.backend
    if backend.name == "socket":
        host, port = backend.bind()
        print(
            f"engine: waiting for workers on {host}:{port} "
            f"(start with: repro worker --connect {host}:{port})"
        )


def _report_engine(runner: ParallelRunner) -> None:
    """One-line execution summary from the runner's counters."""
    t = runner.trace_stats
    traces = (
        f"{t.get('generated', 0)} generated, {t.get('cache_hits', 0)} cache "
        f"hit(s), {t.get('memo_hits', 0)} memo hit(s)"
    )
    if t.get("cache_rejected", 0):
        traces += f", {t['cache_rejected']} corrupt cache entr(ies) regenerated"
    print(
        f"engine: backend={runner.backend.describe()}; "
        f"{runner.tasks_total} task(s): {runner.tasks_resumed} resumed, "
        f"{runner.tasks_run} simulated; traces: {traces}"
    )


def _execute(scenario: Scenario, options: EngineOptions) -> List[ComboResult]:
    """Run one scenario, wrapping the engine banners around the engine path."""
    execution = ScenarioExecution(scenario, options)
    if execution.runner is not None:
        _announce_engine(execution.runner)
    combos = execution.run()
    if execution.runner is not None:
        _report_engine(execution.runner)
    return combos


def _dump_scenario_if_asked(scenario: Scenario, args: argparse.Namespace) -> None:
    if args.dump_scenario:
        scenario.dump(args.dump_scenario)
        print(
            f"scenario written to {args.dump_scenario} "
            f"(hash {scenario.content_hash()[:12]}; "
            f"re-run with: repro scenario run {args.dump_scenario})"
        )


def _render_combos(combos: List[ComboResult]) -> None:
    """Single combo -> Table 5 metrics; multiple -> the three figures."""
    if len(combos) == 1:
        combo = combos[0]
        print(render_combo_metrics(combo.metrics))
        if combo.cc_best_prob is not None:
            print(f"CC(Best) spill probability: {combo.cc_best_prob:.0%}")
        return
    data = FigureData(combos=combos)
    for metric in ("throughput", "aws", "fs"):
        print()
        print(render_figure(data, metric))


def _cmd_worker(args: argparse.Namespace) -> int:
    host, port = _parse_hostport(args.connect)
    stats: dict = {}
    try:
        chunks = run_worker(
            host,
            port,
            cache_root=resolve_cache_root(args.trace_cache),
            connect_timeout=args.connect_timeout,
            secret=_read_secret_file(args.secret_file),
            spool_dir=args.spool,
            spool_gc=args.spool_gc,
            spool_gc_age=args.spool_gc_age,
            faults=args.inject_faults,
            reconnect=args.reconnect,
            stats=stats,
        )
    except ReproError as exc:
        # AuthError (rejected by the coordinator), a bad fault spec, an
        # unreachable coordinator: the message is the diagnosis.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    extras = ""
    if stats.get("replayed") or stats.get("reconnects"):
        extras = (
            f" ({stats['replayed']} replayed from spool, "
            f"{stats['reconnects']} reconnect(s))"
        )
    print(f"worker: processed {chunks} chunk(s){extras}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = scenario_from_flags(
        scale=args.scale,
        seed=args.seed,
        mix=args.mix,
        programs=args.programs,
        schemes=tuple(args.schemes),
        snug_monitor=args.snug_monitor,
    )
    _dump_scenario_if_asked(scenario, args)
    [mix] = scenario.build_mixes()
    print(f"mix {mix.mix_id}: {' + '.join(mix.programs)}  (scale={args.scale})")
    combos = _execute(scenario, _engine_options(args))
    _render_combos(combos)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = scenario_from_flags(
        scale=args.scale,
        seed=args.seed,
        classes=args.classes,
        combos_per_class=args.combos_per_class,
        snug_monitor=args.snug_monitor,
    )
    _dump_scenario_if_asked(scenario, args)
    combos = _execute(scenario, _engine_options(args))
    data = FigureData(combos=combos)
    for metric in ("throughput", "aws", "fs"):
        print()
        print(render_figure(data, metric))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "validate":
        failures = 0
        for file in args.files:
            try:
                loaded = load_scenario_file(file)
                if isinstance(loaded, ScenarioGrid):
                    points = loaded.expand()
                    print(f"OK {file}: grid {loaded.name!r} expands to "
                          f"{len(points)} valid scenario(s)")
                else:
                    print(f"OK {file}: scenario {loaded.name!r} "
                          f"(hash {loaded.content_hash()[:12]}, "
                          f"{len(loaded.build_mixes())} mix(es), "
                          f"{len(loaded.schemes)} scheme(s))")
            except ReproError as exc:
                failures += 1
                print(f"FAIL {file}: {exc}", file=sys.stderr)
        return 1 if failures else 0

    if args.scenario_command == "expand":
        try:
            scenarios = expand_scenario_file(args.file)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for scenario in scenarios:
                scenario.dump(os.path.join(args.out, f"{scenario.name}.yaml"))
            print(f"wrote {len(scenarios)} scenario file(s) to {args.out}")
        else:
            for scenario in scenarios:
                print(f"{scenario.name}  (hash {scenario.content_hash()[:12]})")
        return 0

    # scenario run
    try:
        scenarios = expand_scenario_file(args.file)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    multi = len(scenarios) > 1
    if multi and args.backend == "socket":
        # Each grid point builds its own coordinator, and a point's clean
        # shutdown tells every connected worker to exit — the second point
        # would wait for workers that are gone.  Point the user at the
        # per-point workflow instead of stalling for worker_wait seconds.
        print(
            "error: --backend socket runs one scenario per coordinator; "
            f"{args.file} expands to {len(scenarios)} scenarios — "
            "`repro scenario expand --out DIR` them and run each file with "
            "its own --bind/worker set",
            file=sys.stderr,
        )
        return 1
    for scenario in scenarios:
        mixes = scenario.build_mixes()
        print(
            f"scenario {scenario.name} (hash {scenario.content_hash()[:12]}): "
            f"{len(mixes)} mix(es) x {len(scenario.schemes)} scheme(s)"
        )
        # Each grid point gets its own store subdirectory: the manifest is
        # per-scenario, so two points must not share one manifest.
        store = args.store
        if store is not None and multi:
            store = os.path.join(store, scenario.name)
        combos = _execute(scenario, _engine_options(args, store=store))
        _render_combos(combos)
        if multi:
            print()
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .engine.store import ResultStore, migrate_store

    try:
        if args.store_command == "verify":
            report = ResultStore(args.dir).verify()
            print(report.summary())
            return 0 if report.ok else 1
        if args.store_command == "repair":
            with ResultStore(args.dir) as store:
                print(store.repair().summary())
            return 0
        if args.store_command == "compact":
            with ResultStore(args.dir) as store:
                print(store.compact().summary())
            return 0
        # migrate
        print(migrate_store(args.dir, shards=args.shards).summary())
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _job_line(job: dict) -> str:
    """The one-line job rendering every ``repro job`` verb prints."""
    dedup = "true" if job.get("deduplicated") else "false"
    line = (
        f"job {job['job_id']}: state={job['state']} deduplicated={dedup} "
        f"progress={job.get('progress_done', 0)}/{job.get('progress_total', 0)} "
        f"hash={job['scenario_hash'][:12]} submitter={job.get('submitter', '?')}"
    )
    if job.get("attached_to"):
        line += f" attached_to={job['attached_to']}"
    if job.get("error"):
        line += f" error={job['error']!r}"
    return line


def _cmd_serve(args: argparse.Namespace) -> int:
    host, port = _parse_hostport(args.bind)
    try:
        service = SimulationService(
            args.root,
            host=host,
            port=port,
            secret=_read_secret_file(args.secret_file),
            workers=args.workers,
            jobs=args.jobs,
            sim_core=args.sim_core,
            trace_cache=resolve_cache_root(args.trace_cache),
            max_attempts=args.max_attempts,
        )
        service.start()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    recovered = service.db.recovered
    if recovered:
        print(f"serve: recovered {len(recovered)} interrupted job(s): "
              f"{', '.join(recovered)}")
    print(
        f"serve: listening on {service.host}:{service.port} "
        f"(root {args.root}, {args.workers} worker(s); "
        f"submit with: repro job submit FILE --connect "
        f"{service.host}:{service.port})",
        flush=True,
    )
    service.serve_forever()
    return 0


def _job_client(args: argparse.Namespace) -> ServiceClient:
    host, port = _parse_hostport(args.connect)
    submitter = getattr(args, "submitter", None) or os.environ.get("USER") or "anonymous"
    return ServiceClient(
        host,
        port,
        secret=_read_secret_file(args.secret_file),
        submitter=submitter,
    )


def _cmd_job(args: argparse.Namespace) -> int:
    try:
        return _job_dispatch(args)
    except (ReproError, OSError) as exc:
        # Connection refused, wrong secret, unknown job id, not-ready
        # result: the message is the diagnosis.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _job_dispatch(args: argparse.Namespace) -> int:
    with _job_client(args) as client:
        if args.job_command == "submit":
            loaded = load_scenario_file(args.file)
            if isinstance(loaded, ScenarioGrid):
                print(
                    f"error: {args.file} is a scenario grid; `repro scenario "
                    "expand --out DIR` it and submit each point",
                    file=sys.stderr,
                )
                return 1
            job = client.submit(loaded)
            print(_job_line(job))
            if not args.wait:
                return 0
            job = client.wait(job["job_id"], timeout=args.wait_timeout)
            print(_job_line(job))
            return 0 if job["state"] == "done" else 1
        if args.job_command == "status":
            print(_job_line(client.status(args.job_id)))
            return 0
        if args.job_command == "result":
            job, payloads = client.result(args.job_id)
            print(_job_line(job))
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                for task_id, blob in sorted(payloads.items()):
                    with open(os.path.join(args.out, f"{task_id}.bin"), "wb") as fh:
                        fh.write(blob)
                print(f"wrote {len(payloads)} task payload(s) to {args.out}")
            else:
                import hashlib

                digest = hashlib.sha256()
                for task_id, blob in sorted(payloads.items()):
                    digest.update(task_id.encode())
                    digest.update(blob)
                total = sum(len(blob) for blob in payloads.values())
                print(
                    f"{len(payloads)} task payload(s), {total} bytes, "
                    f"sha256 {digest.hexdigest()[:16]}"
                )
            return 0
        if args.job_command == "cancel":
            cancelled, job = client.cancel(args.job_id)
            print(_job_line(job))
            return 0 if cancelled else 1
        # list
        jobs = client.list_jobs()
        for job in jobs:
            print(_job_line(job))
        print(f"{len(jobs)} job(s)")
        return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    grid = SnugOverheadModel.table3()
    rows = [
        [f"{lb} B/line", format_pct(grid[(32, lb)]), format_pct(grid[(44, lb)])]
        for lb in (64, 128)
    ]
    print(render_table(
        ["", "32-bit addr", "64-bit addr (44 used)"],
        rows,
        title="Table 3: SNUG storage overhead",
    ))
    return 0


_COMMANDS = {
    "characterize": _cmd_characterize,
    "survey": _cmd_survey,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "scenario": _cmd_scenario,
    "overhead": _cmd_overhead,
    "worker": _cmd_worker,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "job": _cmd_job,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Validate engine flags at the CLI boundary: a usage error beats an
    # EngineError traceback from deep inside ParallelRunner.
    engine_command = args.command in ("run", "sweep") or (
        args.command == "scenario" and args.scenario_command == "run"
    )
    if engine_command:
        if args.resume and args.store is None:
            parser.error("--resume requires --store DIR")
        if args.jobs is not None and args.jobs < 0:
            parser.error("--jobs must be >= 0 (0 = in-process task loop)")
        if args.bind is not None and args.backend != "socket":
            parser.error("--bind requires --backend socket")
        if args.bind is not None and _parse_hostport(args.bind) is None:
            parser.error(f"--bind expects HOST:PORT, got {args.bind!r}")
        if args.secret_file is not None and args.backend != "socket":
            parser.error("--secret-file requires --backend socket")
    if args.command == "survey" and args.jobs < 0:
        parser.error("--jobs must be >= 0 (0 = in-process survey)")
    if args.command in ("characterize", "survey"):
        if args.chunk is not None and not args.stream:
            parser.error("--chunk requires --stream")
        if args.chunk is not None and args.chunk < 1:
            parser.error("--chunk must be >= 1 access")
    if args.command == "worker":
        if _parse_hostport(args.connect) is None:
            parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
        if args.spool_gc and args.spool is None:
            parser.error("--spool-gc requires --spool DIR")
        if args.spool_gc_age < 0:
            parser.error("--spool-gc-age must be >= 0 seconds")
    if args.command == "store" and args.store_command == "migrate":
        if args.shards is not None and args.shards < 1:
            parser.error("--shards must be >= 1")
    if args.command == "serve":
        if _parse_hostport(args.bind) is None:
            parser.error(f"--bind expects HOST:PORT, got {args.bind!r}")
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        if args.jobs < 0:
            parser.error("--jobs must be >= 0 (0 = in-process task loop)")
        if args.max_attempts < 1:
            parser.error("--max-attempts must be >= 1")
    if args.command == "job":
        if _parse_hostport(args.connect) is None:
            parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
        if args.job_command == "submit" and args.wait_timeout <= 0:
            parser.error("--wait-timeout must be positive seconds")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
