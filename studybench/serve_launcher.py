"""Start ``repro serve``'s study service the way the CLI does, under control
of the benchmark process.

The service and HTTP server are built exactly as ``repro serve`` builds
them (:class:`repro.serve.StudyService` plus :func:`repro.serve.make_server`).
With ``--trace`` the layer wrappers of :mod:`tracer` are installed before
the server accepts its first connection, switched off until the
benchmark sends ``trace on``.

Protocol: the launcher prints ``ready <host> <port>`` on stdout once it
listens, then answers one line per command read from stdin:

* ``trace on``       — start recording spans;
* ``report <prefix>``— write ``<prefix>.totals.json`` (aggregates and the
  ``serve.run_study`` duration of every operation id) and the spans;
* ``stop``           — shut down and exit 0 (end of stdin does the same).

Run it by hand with::

    PYTHONPATH=src python3 studybench/serve_launcher.py --cache-dir /tmp/c
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def _run_study_durations(tracer: Tracer) -> dict[str, float]:
    """``serve.run_study`` seconds by operation id."""
    spans = tracer.spans()
    durations: dict[str, float] = {}
    for name, op, start, end in zip(
        spans["name"], spans["op"], spans["start"], spans["end"]
    ):
        if name == "serve.run_study":
            durations[str(op)] = durations.get(str(op), 0.0) + end - start
    return durations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.serve import StudyService, make_server

    # repro serve's defaults, with one job per core of a 2-core host.
    service = StudyService(args.cache_dir, executor="thread", jobs=2,
                           max_inflight=4)
    server = make_server(service, port=0)
    tracer = None
    if args.trace:
        tracer = Tracer(enabled=False)
        install(tracer, handler_cls=server.RequestHandlerClass)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    host, port = server.server_address[:2]
    print(f"ready {host} {port}", flush=True)
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "stop":
                break
            if command == ["trace", "on"] and tracer is not None:
                tracer.enabled = True
                print("ok", flush=True)
            elif command[0] == "report" and len(command) == 2 and tracer:
                prefix = Path(command[1])
                tracer.enabled = False
                count = tracer.dump(prefix)
                payload = {
                    "totals": tracer.totals(),
                    "run_study": _run_study_durations(tracer),
                    "spans": count,
                }
                prefix.with_suffix(".totals.json").write_text(
                    json.dumps(payload)
                )
                print("ok", flush=True)
            else:
                print(f"error unknown command {line.strip()!r}", flush=True)
    finally:
        server.shutdown()
        serving.join(timeout=30)
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
