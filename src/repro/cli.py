"""Command-line interface.

Examples::

    repro list                      # experiments and workloads
    repro run table2                # regenerate one paper table/figure
    repro run fig9 --seed 7
    repro run fig7 --progress       # live per-job status line on stderr
    repro telemetry                 # runner/pool/cache metrics, JSON
    repro telemetry --format prom   # Prometheus text exposition
    repro corun gmake --policy static:1 --duration-ms 250
    repro solo exim
"""

import argparse
import json
import sys

from . import runner
from .errors import ConfigError, FaultError, ReproError
from .experiments import common, registry
from .metrics.report import render_table
from .obs import telemetry
from .runner.jobs import DEFAULT_SCHEDULER, apply_options, check_job
from .sched import registry as sched_registry
from .sim.time import ms
from .workloads import registry as workload_registry


def _parse_policy(text):
    """Parse ``baseline`` / ``static:N`` / ``dynamic`` into a job
    policy dict (:func:`~repro.experiments.common.scheme_policy`)."""
    label, _, count = text.partition(":")
    if text in ("baseline", "dynamic") or (label == "static" and count.isdigit()):
        return common.scheme_policy(label, int(count or 0))
    raise ReproError("unknown policy %r (baseline | static:N | dynamic)" % text)


def _trace_request(args):
    """``--trace``/``--trace=KINDS``/``--trace-kinds KINDS`` -> a job
    trace request dict (or None when tracing was not asked for)."""
    trace = getattr(args, "trace", None)
    trace_kinds = getattr(args, "trace_kinds", None)
    if trace is None and trace_kinds is None:
        return None
    raw = trace_kinds if trace_kinds is not None else trace
    kinds = [kind for kind in raw.split(",") if kind]
    return {"kinds": kinds or None}


def _cmd_list(_args):
    from .faults import builtin_plans
    from .fleet import placement as fleet_placement

    print("experiments: " + ", ".join(registry.available()))
    print("workloads:   " + ", ".join(workload_registry.available()))
    print("schedulers:  " + ", ".join(sched_registry.available()))
    print("fault plans: " + ", ".join(builtin_plans()))
    print("placements:  " + ", ".join(fleet_placement.available()))
    return 0


def _cmd_schedulers(_args):
    rows = [[name, description] for name, description in sched_registry.describe()]
    print(render_table(
        ["backend", "description"], rows,
        title="scheduler backends (use: --scheduler NAME; default: %s)"
        % DEFAULT_SCHEDULER,
    ))
    return 0


def _experiment_name(text):
    """One ``repro run`` experiment argument (:func:`registry.get`'s rule)."""
    registry.get(text)
    return text


def _arg_type(parse):
    """An ``argparse`` ``type=`` for ``parse``, the one grammar of a flag
    and its environment variable, with an ``argparse``-friendly error."""

    def convert(text):
        try:
            return parse(text)
        except ConfigError as err:
            raise argparse.ArgumentTypeError(str(err))

    return convert


class _ProgressLine:
    """Renders executor progress events as a live status line.

    On a TTY the line is rewritten in place (carriage return, padded to
    the previous width); on a pipe every *finished* job prints one
    plain line and the noisy ``start`` events are suppressed, so CI
    logs stay readable. Events arrive as ``(event, tag, done, total)``
    straight from :class:`repro.runner.executor.Progress`.
    """

    _VERBS = {"hit": "cache hit", "start": "running  ", "done": "done     "}

    def __init__(self, stream=None):
        self.stream = sys.stderr if stream is None else stream
        self.tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._width = 0

    def __call__(self, event, tag, done, total):
        text = "[%*d/%d] %s %s" % (len(str(total)), done, total,
                                   self._VERBS.get(event, event), tag)
        if self.tty:
            self.stream.write("\r" + text + " " * max(0, self._width - len(text)))
            self._width = len(text)
        elif event != "start":
            self.stream.write(text + "\n")
        self.stream.flush()

    def close(self):
        if self.tty and self._width:
            self.stream.write("\n")
            self.stream.flush()


def _run_experiments(args, names, **options):
    """:func:`registry.run_many` under the shared execution flags
    (``--workers``, ``--no-cache``, ``--progress``, ``--seed``,
    ``--scale``); persists the run's telemetry."""
    progress = _ProgressLine() if args.progress else None
    try:
        outcome = registry.run_many(
            names,
            workers=args.workers,
            cache=False if args.no_cache else None,
            progress=progress,
            seed=args.seed,
            scale_override=args.scale,
            **options
        )
    finally:
        if progress is not None:
            progress.close()
    telemetry.persist()
    return outcome


def _cmd_run(args):
    names = list(args.experiment)
    if args.all:
        names = registry.available()
    elif not names:
        raise ReproError("specify at least one experiment (or --all)")
    outcome = _run_experiments(
        args,
        names,
        trace=_trace_request(args),
        trace_out=args.trace_out,
        faults=args.faults,
        scheduler=args.scheduler,
    )
    for index, name in enumerate(outcome):
        if len(outcome) > 1:
            if index:
                print()
            print("=== %s ===" % name)
        print(outcome[name][1])
    if args.trace_out:
        print("\ntrace written to %s" % args.trace_out)
    return 0


def _cmd_fleet(args):
    # A flag not given is not passed: the experiment's defaults apply.
    options = {key: getattr(args, key) for key in registry.get("fleet").OPTIONS
               if getattr(args, key) is not None}
    results, text = _run_experiments(
        args, ["fleet"], scheduler=args.scheduler, **options
    )["fleet"]
    print(json.dumps(results, indent=2, sort_keys=True) if args.json else text)
    return 0


def _cmd_serve(args):
    import asyncio

    from .serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=False if args.no_cache else None,
        max_queue_depth=args.max_queue_depth,
        max_inflight=args.max_inflight,
    )
    return asyncio.run(serve_forever(config))


def _cmd_analyze(args):
    from .obs import analyze

    if args.diff:
        if args.json:
            print(json.dumps(analyze.diff_dict(args.file, args.diff),
                             indent=2, sort_keys=True))
        else:
            print(analyze.diff_files(args.file, args.diff))
    elif args.json:
        print(json.dumps(analyze.report_dict(analyze.analyze_file(args.file)),
                         indent=2, sort_keys=True))
    else:
        print(analyze.format_report(analyze.analyze_file(args.file)))
    return 0


def _cmd_telemetry(args):
    if args.file:
        snap, where = telemetry.load_persisted(path=args.file), args.file
    else:
        snap, where = telemetry.load_persisted(), telemetry.snapshot_path()
    if snap is None:
        raise ReproError(
            "no telemetry snapshot at %s (run an experiment first, e.g. "
            "'repro run fig7')" % where
        )
    if args.format == "prom":
        sys.stdout.write(telemetry.render_prom(snap))
    else:
        print(json.dumps(snap, indent=2, sort_keys=True))
    return 0


def _summarise(result):
    rows = []
    for key, workload in sorted(result.workloads.items()):
        extra = ""
        if workload.extra:
            extra = " ".join(
                "%s=%.4g" % (k, v) for k, v in sorted(workload.extra.items())
                if isinstance(v, (int, float))
            )
        rows.append([key, "%.0f" % workload.rate, extra])
    print(render_table(["workload", "rate (units/s)", "details"], rows))
    print()
    causes = []
    for domain, yields in sorted(result.domain_yields.items()):
        causes.append([domain] + [yields.get(c, 0) for c in ("ipi", "spinlock", "halt", "other")])
    print(render_table(["domain", "ipi", "spinlock", "halt", "other"], causes,
                       title="yields by cause"))
    if result.micro_cores or result.adaptive_decisions:
        print("\nmicro-sliced cores at end: %d" % result.micro_cores)


def _job(args, scenario, label, policy, warmup_ns=0):
    """One ad-hoc job running ``args.workload`` for ``--duration-ms``."""
    return runner.SimJob(
        tag=str(label),
        scenario=scenario,
        scenario_kwargs={"workload_kind": args.workload},
        policy=policy,
        seed=args.seed,
        duration_ns=ms(args.duration_ms),
        warmup_ns=warmup_ns,
    )


def _execute(jobs):
    """Validate every job before any simulates, then run the plan
    through the runner (result cache, dedup, worker pool)."""
    for job in jobs:
        check_job(job)
    return runner.execute(jobs)


def _corun_table(args, points, headers, title, extra):
    """Run one co-run job per ``(label, policy)`` point and print one
    row each: label, target rate, rate vs the first point, then the
    ``extra(result)`` columns."""
    warmup = ms(min(args.duration_ms // 2, 120))
    results = _execute([_job(args, "corun", label, policy, warmup) for label, policy in points])
    rows = []
    base_rate = None
    for label, _ in points:
        result = results[str(label)]
        rate = result.rate(args.workload)
        if base_rate is None:
            base_rate = rate
        rows.append([label, "%.0f" % rate, "%.2fx" % (rate / base_rate if base_rate else 0)]
                    + extra(result))
    print(render_table(
        [headers[0], "%s/s" % args.workload, "vs baseline"] + headers[1:], rows,
        title=title % args.workload,
    ))
    return 0


def _cmd_sweep(args):
    return _corun_table(
        args,
        [(cores, runner.static_policy(cores) if cores else runner.baseline_policy())
         for cores in range(0, args.max_cores + 1)],
        ["micro cores", "swaptions/s", "yields"],
        "Micro-sliced core sweep: %s + swaptions",
        lambda result: ["%.0f" % result.rate("swaptions"), result.total_yields("vm1")],
    )


def _cmd_compare(args):
    return _corun_table(
        args,
        [(label, _parse_policy(label))
         for label in ("baseline", "static:%d" % args.cores, "dynamic")],
        ["policy", "migrations", "final cores"],
        "Policy comparison: %s + swaptions",
        lambda result: [result.hv_counters.get("migrations", 0), result.micro_cores],
    )


def _cmd_scenario(args):
    """``repro corun`` / ``repro solo``: one job, no warmup."""
    job = _job(args, args.command, args.command, _parse_policy(args.policy))
    apply_options(job, trace=_trace_request(args), faults=args.faults,
                  scheduler=args.scheduler)
    result = _execute([job])[job.tag]
    _summarise(result)
    if result.faults is not None:
        _report_faults(result.faults)
    if job.trace is not None:
        records = result.trace
        dropped = records[-1]["seq"] - len(records) if records else 0  # seq counts all
        print("\ntrace: %d records (%d dropped)" % (len(records), dropped))
        if args.trace_out:
            from .sim.trace import write_jsonl

            write_jsonl(args.trace_out, {None: records})  # unlabelled
            print("trace written to %s" % args.trace_out)
    return 0


def _report_faults(digest):
    """Print the degradation digest; raise on invariant violations so
    the process exits non-zero (a degraded run is fine, a nonsensical
    one is not)."""
    counters = digest.get("counters", {})
    rows = [[key, counters[key]] for key in sorted(counters)]
    for section in ("detector", "controller"):
        for key, value in sorted(digest.get(section, {}).items()):
            rows.append(["%s.%s" % (section, key), value])
    print()
    print(render_table(["fault counter", "value"], rows,
                       title="fault injection: %s" % digest.get("plan")))
    violations = digest.get("invariant_violations", [])
    if violations:
        raise FaultError(
            "invariant check failed (%d violations):\n  %s"
            % (len(violations), "\n  ".join(violations))
        )
    print("invariants: OK (%d IPI ops still legitimately in flight)"
          % digest.get("pending_ipis", 0))


def _cmd_faults(args):
    from .faults import FAULT_KINDS, builtin_plans, make_builtin

    rows = []
    for name in builtin_plans():
        plan = make_builtin(name)
        kinds = ",".join(sorted({spec.kind for spec in plan}))
        rows.append([name, kinds, plan.description])
    print(render_table(["plan", "kinds", "description"],
                       rows, title="built-in fault plans (use: --faults NAME)"))
    if args.kinds:
        print()
        kind_rows = [
            [kind, ", ".join("%s=%r" % (k, v) for k, v in sorted(params.items())) or "-"]
            for kind, params in sorted(FAULT_KINDS.items())
        ]
        print(render_table(["fault kind", "parameters (defaults)"], kind_rows,
                           title="fault kinds for hand-written plan JSON"))
    return 0


def _add_faults_arg(parser):
    parser.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="inject faults: a built-in plan name (see 'repro faults') "
        "or a path to a plan JSON file")


def _add_scheduler_arg(parser):
    parser.add_argument(
        "--scheduler", default=None, metavar="NAME",
        help="normal-pool scheduler backend (see 'repro schedulers'; "
        "default: %s)" % DEFAULT_SCHEDULER)


def _add_trace_args(parser):
    parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="KINDS",
        help="enable structured tracing (optionally restrict to a "
        "comma-separated list of record kinds)")
    parser.add_argument(
        "--trace-kinds", default=None, metavar="KINDS",
        help="comma-separated record kinds to trace (implies --trace)")
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the exported trace to FILE as JSONL (see 'repro analyze')")


def build_parser():
    # Not at module scope: spawned pool workers import this module, and
    # only a parser needs the service (and asyncio) loaded.
    from .serve.admission import DEFAULT_MAX_INFLIGHT_PER_CLIENT, DEFAULT_MAX_QUEUE_DEPTH
    from .serve.app import DEFAULT_HOST, DEFAULT_PORT

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flexible micro-sliced cores (EuroSys '18) — "
        "simulation-based reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every simulation-running subcommand takes the same --seed; wire it
    # once as a parent parser instead of repeating the add_argument.
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed", type=int, default=42,
        help="root RNG seed (default: 42; every stream derives from it)")
    # Likewise the executor's flags (run, fleet, serve) and the
    # experiment-run flags (run, fleet).
    exec_parent = argparse.ArgumentParser(add_help=False)
    exec_parent.add_argument(
        "--workers", type=_arg_type(runner.parse_workers), default=None, metavar="N|auto",
        help="simulation worker processes; 'auto' = one per CPU "
        "(default: REPRO_RUNNER_WORKERS or 1)")
    exec_parent.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache")
    experiment_parent = argparse.ArgumentParser(add_help=False)
    experiment_parent.add_argument(
        "--scale", type=_arg_type(common.parse_scale), default=None,
        help="duration multiplier (default: REPRO_BENCH_SCALE or 1.0)")
    experiment_parent.add_argument(
        "--progress", action="store_true",
        help="live per-job status line on stderr (cache hits, worker "
        "pickups, completions)")

    sub.add_parser("list", help="list experiments and workloads")

    run_p = sub.add_parser(
        "run", help="regenerate one or more paper tables/figures",
        parents=[seed_parent, exec_parent, experiment_parent],
    )
    # Per-item validation via type=, not choices=: argparse (< 3.12)
    # rejects an empty nargs="*" list against choices, which would
    # break bare `repro run --all`.
    run_p.add_argument("experiment", nargs="*", type=_arg_type(_experiment_name),
                       default=[], metavar="EXPERIMENT",
                       help="experiment name(s) out of: %s; multiple "
                       "experiments share one worker pool and one cache "
                       "pass" % ", ".join(registry.available()))
    run_p.add_argument("--all", action="store_true",
                       help="run every registered experiment as one batch")
    _add_scheduler_arg(run_p)
    _add_trace_args(run_p)
    _add_faults_arg(run_p)

    for name, help_text in (
        ("corun", "run a workload co-located with swaptions"),
        ("solo", "run a workload alone on the host"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[seed_parent])
        p.add_argument("workload", choices=workload_registry.available())
        p.add_argument("--policy", default="baseline",
                       help="baseline | static:N | dynamic")
        p.add_argument("--duration-ms", type=int, default=250)
        _add_scheduler_arg(p)
        _add_trace_args(p)
        _add_faults_arg(p)

    sub.add_parser(
        "schedulers", help="list scheduler backends (for --scheduler)"
    )

    faults_p = sub.add_parser("faults", help="list built-in fault plans")
    faults_p.add_argument("--kinds", action="store_true",
                          help="also document every fault kind and its parameters")

    an_p = sub.add_parser("analyze", help="analyze an exported JSONL trace")
    an_p.add_argument("file", help="trace file written by --trace-out")
    an_p.add_argument("--diff", metavar="OTHER", default=None,
                      help="compare event counts against a second trace file")
    an_p.add_argument("--json", action="store_true",
                      help="emit the analysis as sorted-key JSON instead of "
                      "the human-readable report")

    tel_p = sub.add_parser(
        "telemetry", help="dump the last run's runner/pool/cache metrics"
    )
    tel_p.add_argument("--format", choices=("json", "prom"), default="json",
                       help="output format: sorted-key JSON (default) or "
                       "Prometheus text exposition")
    tel_p.add_argument("--file", default=None, metavar="PATH",
                       help="read this snapshot file instead of the one next "
                       "to the result cache")

    sweep_p = sub.add_parser(
        "sweep", help="sweep micro-sliced core counts for one workload",
        parents=[seed_parent],
    )
    sweep_p.add_argument("workload", choices=workload_registry.available())
    sweep_p.add_argument("--max-cores", type=int, default=4)
    sweep_p.add_argument("--duration-ms", type=int, default=250)

    cmp_p = sub.add_parser(
        "compare", help="compare baseline/static/dynamic for one workload",
        parents=[seed_parent],
    )
    cmp_p.add_argument("workload", choices=workload_registry.available())
    cmp_p.add_argument("--cores", type=int, default=1,
                       help="static micro-sliced core count")
    cmp_p.add_argument("--duration-ms", type=int, default=250)

    fleet_p = sub.add_parser(
        "fleet", help="simulate a multi-host fleet under placement policies",
        parents=[seed_parent, exec_parent, experiment_parent],
    )
    fleet_p.add_argument("--policies", metavar="A,B,...",
                         type=lambda text: [name for name in text.split(",") if name],
                         help="comma-separated placement policies to compare "
                         "(default: fleet.POLICIES, %s; see 'repro list')"
                         % ",".join(registry.get("fleet").POLICIES))
    fleet_p.add_argument("--hosts", type=int)
    fleet_p.add_argument("--epochs", type=int)
    fleet_p.add_argument("--rate", type=float,
                         help="expected session arrivals per epoch (Poisson)")
    fleet_p.add_argument("--overcommit", type=float,
                         help="per-host admission cap as a multiple of pCPUs")
    fleet_p.add_argument("--migration-cost-ms", type=float,
                         help="live-migration cost at scale 1.0 (scales with "
                         "the epoch)")
    fleet_p.add_argument("--json", action="store_true",
                         help="emit summaries and checks as sorted-key JSON "
                         "(byte-identical across same-seed runs)")
    _add_scheduler_arg(fleet_p)

    serve_p = sub.add_parser(
        "serve",
        help="run the long-lived HTTP simulation service "
        "(see docs/serve.md)",
        parents=[exec_parent],
    )
    serve_p.add_argument("--host", default=DEFAULT_HOST,
                         help="bind address (default: %(default)s)")
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="bind port; 0 picks a free one (default: %(default)s)")
    serve_p.add_argument("--max-queue-depth", type=int, default=DEFAULT_MAX_QUEUE_DEPTH,
                         help="queued submissions before new work gets 429 "
                         "(default: %(default)s)")
    serve_p.add_argument("--max-inflight", type=int,
                         default=DEFAULT_MAX_INFLIGHT_PER_CLIENT,
                         help="per-client in-flight submission cap "
                         "(default: %(default)s)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command in ("corun", "solo"):
            return _cmd_scenario(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "telemetry":
            return _cmd_telemetry(args)
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "schedulers":
            return _cmd_schedulers(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
