"""The server process: one ``QueryService`` behind ``ServerThread``.

Started by ``run.py`` for every round, so the load generator never shares
this process's interpreter lock.  Protocol on the pipes:

* stdout, first line: ``{"port": ..., "numpy": ...}`` once serving;
* stdin ``mark``: drop the spans recorded so far (sent at quiescence,
  right before the measured phase); answered with ``{"ok": true}``;
* stdin ``report``: answered with the span totals recorded since ``mark``;
* stdin ``stop`` (or end of input): shut down, then print one line
  ``{"maxrss_kb": ...}`` (the process's high-water resident memory).

Usage: ``python3 servebench/server.py --src SRC_DIR --trace 0|1``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.core import QueryService
    from repro.data.sailors import empty_sailors_database
    from repro.server import ServerThread

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    service = QueryService(empty_sailors_database())
    server = ServerThread(service).start()
    try:
        print(json.dumps({"port": server.port, "numpy": numpy_version}),
              flush=True)
        while True:
            command = sys.stdin.readline().strip()
            if command == "mark":
                if tracer is not None:
                    tracer.reset()
                print(json.dumps({"ok": True}), flush=True)
            elif command == "report":
                print(json.dumps(tracer.report() if tracer else {}),
                      flush=True)
            elif command in ("stop", ""):
                break
    finally:
        server.close()
        service.close()
    print(json.dumps({"maxrss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
