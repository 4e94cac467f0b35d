"""One process of the service-fleet topology: the HTTP server or a worker.

``server`` runs ``CampaignScheduler(..., ServiceConfig(external_workers=
True))`` under ``serve_forever`` on 127.0.0.1 (``owl serve
--external-workers``); ``worker`` runs ``repro.service.worker.worker_loop``
on the same queue and store (``owl worker``).  Both import the workload
registry before touching ``--ready``, so lazy imports are paid in set-up.
With ``--spans FILE`` the process installs the benchmark's wrappers and
writes its spans to FILE when it exits.

    python service_proc.py server --store S --queue Q --port P --ready F
    python service_proc.py worker --store S --queue Q --id W --ready F
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="service_proc.py")
    parser.add_argument("role", choices=("server", "worker"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--queue", required=True)
    parser.add_argument("--ready", required=True,
                        help="file touched once the process is ready")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--id", default=None, help="worker id")
    parser.add_argument("--spans", default=None,
                        help="trace, and write spans here on exit")
    args = parser.parse_args(argv)

    from repro.apps.registry import workloads
    from owlbench import spans

    workloads()
    tracer = None
    if args.spans:
        tracer = spans.Tracer()
        spans.install(tracer)
        if args.role == "server":
            spans.install_server_idle(tracer)
        else:
            spans.install_worker_idle(tracer)
    try:
        if args.role == "server":
            from repro.service import CampaignScheduler, ServiceConfig
            from repro.service.server import serve_forever

            scheduler = CampaignScheduler(
                args.store, args.queue, ServiceConfig(external_workers=True))
            Path(args.ready).touch()
            serve_forever(scheduler, ("http", ("127.0.0.1", args.port)),
                          tick_seconds=scheduler.config.poll_seconds)
        else:
            from repro.service.worker import worker_loop

            Path(args.ready).touch()
            worker_loop(args.queue, args.store, args.id)
    finally:
        if tracer is not None:
            tracer.dump(args.spans, args.role)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
