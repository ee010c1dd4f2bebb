"""Fixture span emitter: one contracted kind, two unknown to everyone
(one of them emitted as a batch)."""


def trace_decisions(tracer, now, endpoint):
    tracer.emit(now, "known-kind", endpoint)
    tracer.emit(now, "mystery-kind", endpoint)
    tracer.emit_batch(now, "mystery-batch-kind", endpoint, [("fd", None, 0.1, 0.2)])
