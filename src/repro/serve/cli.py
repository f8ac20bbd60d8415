"""``repro-serve`` — run and talk to the simulation service.

Examples::

    repro-serve serve --port 8023 --workers 4 --cache-dir ~/.cache/repro
    repro-serve submit sieve --model eswitch --level 4 --url http://127.0.0.1:8023
    repro-serve status j5b3c0ffee1234567 --url http://127.0.0.1:8023
    repro-serve shutdown --url http://127.0.0.1:8023

``serve`` blocks until SIGTERM/SIGINT, then drains gracefully (stops
admitting, settles in-flight jobs, flushes the journal and run log).
``submit`` shares the spec flags of ``repro-trace run`` — including the
fault-injection and component-lifecycle (chaos scenario) groups — and
by default blocks until the result is back.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine.cache import default_cache_dir
from repro.harness.cliargs import add_spec_arguments, spec_from_args
from repro.serve.client import Client, ServeError
from repro.serve.server import ServerConfig, serve


def _add_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8023",
        help="server address (default: http://127.0.0.1:8023)",
    )


def _cmd_serve(args) -> int:
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        queue_depth=args.queue_depth,
        byte_budget=args.byte_budget,
        timeout=args.timeout,
        check=args.check,
        journal=args.journal,
        quiet=args.quiet,
        spans=args.spans,
    )
    return serve(config)


def _cmd_submit(args) -> int:
    try:
        spec = spec_from_args(args)
    except ValueError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 2
    with Client(args.url) as client:
        accepted = client.submit(spec, retries=args.retries)
        print(
            f"[serve] job {accepted['job']} "
            f"({'coalesced' if accepted['coalesced'] else 'admitted'})",
            file=sys.stderr,
        )
        if args.no_wait:
            print(json.dumps(accepted, indent=2))
            return 0
        results = client.result(accepted, timeout=args.wait_timeout)
    print(json.dumps(results[0] if len(results) == 1 else results, indent=2))
    return 0


def _cmd_status(args) -> int:
    with Client(args.url) as client:
        print(json.dumps(client.status(args.job), indent=2))
    return 0


def _cmd_shutdown(args) -> int:
    with Client(args.url) as client:
        print(json.dumps(client.shutdown(), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Simulation-as-a-service: job server, submitter, control.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("serve", help="run the HTTP job server")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=8023)
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="engine worker processes (default: 1 = serial)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=f"result-cache directory (default: {default_cache_dir()})",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    run.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="jobs allowed in the queue before 429 (default: 16)",
    )
    run.add_argument(
        "--byte-budget",
        type=int,
        default=8 * 1024 * 1024,
        help="in-flight request-byte budget before 429 (default: 8 MiB)",
    )
    run.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-spec engine deadline inherited by every job",
    )
    run.add_argument(
        "--check",
        action="store_true",
        help="run the repro.check invariant oracle on every served result",
    )
    run.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="job journal path (default: <cache-dir>/serve-journal.jsonl)",
    )
    run.add_argument(
        "--spans",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="record wall-clock spans per request (JSONL log at PATH; "
        "bare flag logs to <cache-dir>/spans.jsonl)",
    )
    run.add_argument("--quiet", action="store_true", help="no request logging")
    run.set_defaults(func=_cmd_serve)

    submit = commands.add_parser(
        "submit", help="submit one spec and print its result"
    )
    add_spec_arguments(submit)
    _add_url(submit)
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the acceptance payload instead of blocking for the result",
    )
    submit.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-submissions after 429/503, honouring Retry-After (default: 0)",
    )
    submit.add_argument(
        "--wait-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting for the result after this long",
    )
    submit.set_defaults(func=_cmd_submit)

    status = commands.add_parser("status", help="print one job's status")
    status.add_argument("job", help="job id (from submit)")
    _add_url(status)
    status.set_defaults(func=_cmd_status)

    shutdown = commands.add_parser(
        "shutdown", help="ask the server to drain and exit"
    )
    _add_url(shutdown)
    shutdown.set_defaults(func=_cmd_shutdown)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ServeError as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # pragma: no cover - `... | head`
        sys.stderr.close()
        return 0
    except OSError as error:  # every transport failure is an OSError
        print(f"repro-serve: cannot reach server: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
