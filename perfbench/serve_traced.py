"""Start ``repro serve`` with span wrappers around the server's layers.

Usage::

    python3 perfbench/serve_traced.py SPANS_FILE [serve arguments...]

The wrappers record ``QueryService.handle_query`` (under the operation id
the client sends as ``trace_op``), the wait to enter
``AdmissionController.slot`` and ``WorkerPool.query``.  When the server
has drained, the spans are written to ``SPANS_FILE`` as JSON lines, where
the benchmark merges them with its client-side spans.
"""

from __future__ import annotations

import sys

from harness import Recorder, dump_spans


class _TimedEnter:
    """Times entering the wrapped admission slot (the wait for capacity)."""

    def __init__(self, recorder: Recorder, slot) -> None:
        self.recorder = recorder
        self.slot = slot

    def __enter__(self):
        with self.recorder.span("service.admission.wait"):
            return self.slot.__enter__()

    def __exit__(self, *exc_info):
        return self.slot.__exit__(*exc_info)


def install(recorder: Recorder) -> None:
    from repro.service.admission import AdmissionController
    from repro.service.pool import WorkerPool
    from repro.service.server import QueryService

    handle_query = QueryService.handle_query
    slot = AdmissionController.slot

    def traced_handle_query(self, payload, cancel_token=None):
        op = payload.pop("trace_op", None) if isinstance(payload, dict) \
            else None
        with recorder.span("service.handle_query", op=op):
            return handle_query(self, payload, cancel_token)

    def traced_slot(self, deadline_seconds=None):
        return _TimedEnter(recorder, slot(self, deadline_seconds))

    QueryService.handle_query = traced_handle_query
    AdmissionController.slot = traced_slot
    recorder.wrap(WorkerPool, "query", "service.pool.query")


def main(argv: list[str]) -> int:
    from repro.service.server import serve_main

    spans_file, serve_args = argv[0], argv[1:]
    recorder = Recorder(prefix="s")
    install(recorder)
    status = serve_main(serve_args)
    dump_spans(recorder.spans, spans_file)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
