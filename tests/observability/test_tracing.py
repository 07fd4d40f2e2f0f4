"""Tests for repro.observability.tracing."""

import io
import sys
import threading

import pytest

from repro.observability.tracing import (
    NULL_TRACER,
    JsonLinesExporter,
    Span,
    Tracer,
    get_tracer,
    now_ns,
    read_trace,
    set_tracer,
    spans_of,
)


class TestSpanNesting:
    def test_parent_child_ids(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("job", kind="job") as job:
            with tracer.span("map", kind="phase") as phase:
                with tracer.span("map-0", kind="task") as task:
                    pass
        assert job.parent_id is None
        assert phase.parent_id == job.span_id
        assert task.parent_id == phase.span_id
        # All three share the root's trace id.
        assert {s.trace_id for s in (job, phase, task)} == {job.trace_id}

    def test_siblings_share_parent(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("job") as job:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == job.span_id
        assert a.span_id != b.span_id

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("one") as one:
            pass
        with tracer.span("two") as two:
            pass
        assert one.trace_id != two.trace_id

    def test_current_span(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_deterministic_ids(self):
        ids = []
        for _ in range(2):
            tracer = Tracer(keep_spans=True)
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            ids.append([(s.trace_id, s.span_id, s.parent_id) for s in tracer.finished])
        assert ids[0] == ids[1]


class TestThreadSafety:
    def test_concurrent_threads_get_unique_ids_and_own_parents(self):
        """A 1 us switch interval forces preemption between id allocation
        and stack pushes; every id must stay unique and every child must
        parent under a span its own thread opened."""
        tracer = Tracer(keep_spans=True)
        opened = {}  # span_id -> opening thread
        opened_lock = threading.Lock()
        start = threading.Barrier(6)

        def worker():
            start.wait()
            for _ in range(300):
                with tracer.span("request", kind="serve") as outer:
                    with tracer.span("compute", kind="serve") as inner:
                        detached = tracer.start_span("leg")
                        tracer.end_span(detached)
                with opened_lock:
                    for span in (outer, inner, detached):
                        opened[span.span_id] = threading.get_ident()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)

        spans = tracer.finished
        assert len(spans) == 6 * 300 * 3
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids), "duplicate span ids"
        roots = [s for s in spans if s.parent_id is None]
        assert len({s.trace_id for s in roots}) == len(roots)
        for span in spans:
            if span.name == "request":
                assert span.parent_id is None
            else:
                assert span.parent_id is not None
                assert opened[span.parent_id] == opened[span.span_id], (
                    f"{span.name} parented under another thread's span"
                )

    def test_current_span_is_per_thread(self):
        tracer = Tracer()
        seen = []
        with tracer.span("main"):
            thread = threading.Thread(
                target=lambda: seen.append(tracer.current_span())
            )
            thread.start()
            thread.join()
            assert tracer.current_span() is not None
        assert seen == [None]


class TestClocks:
    def test_monotonic_and_nested_containment(self):
        tracer = Tracer(keep_spans=True)
        before = now_ns()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        after = now_ns()
        assert before <= outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns <= after
        assert outer.duration_ns >= inner.duration_ns >= 0
        assert outer.duration_s >= 0.0

    def test_durations_accumulate_across_sequence(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("job") as job:
            with tracer.span("p1") as p1:
                pass
            with tracer.span("p2") as p2:
                pass
        assert p1.duration_ns + p2.duration_ns <= job.duration_ns


class TestErrorStatus:
    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer(keep_spans=True)
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("job"):
                with tracer.span("task"):
                    raise RuntimeError("boom")
        statuses = {s.name: s.status for s in tracer.finished}
        assert statuses == {"task": "error", "job": "error"}

    def test_spans_exported_despite_error(self):
        buf = io.StringIO()
        tracer = Tracer(JsonLinesExporter(buf))
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("x")
        spans = spans_of(read_trace(io.StringIO(buf.getvalue())))
        assert [s.name for s in spans] == ["doomed"]
        assert spans[0].status == "error"


class TestRecordSpan:
    def test_synthetic_backdated(self):
        tracer = Tracer(keep_spans=True)
        span = tracer.record_span("mp-task", kind="task", duration_ns=5_000_000)
        assert span.attrs["synthetic"] is True
        assert span.duration_ns == 5_000_000
        assert span.end_ns is not None

    def test_parented_under_open_span(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("phase") as phase:
            child = tracer.record_span("t", kind="task", duration_ns=1)
        assert child.parent_id == phase.span_id

    def test_error_status_and_attrs(self):
        tracer = Tracer(keep_spans=True)
        span = tracer.record_span(
            "t", kind="task", duration_ns=10, status="error", error="died"
        )
        assert span.status == "error"
        assert span.attrs["error"] == "died"


class TestDisabledTracer:
    def test_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        cm1 = tracer.span("a", kind="job", foo=1)
        cm2 = tracer.span("b")
        assert cm1 is cm2  # no per-call allocation on the disabled path
        with cm1 as span:
            span.set_attr("x", 1)
            span.set_attrs(y=2)
        assert span.attrs == {}
        assert span.duration_ns == 0

    def test_record_span_noop(self):
        tracer = Tracer(enabled=False, keep_spans=True)
        tracer.record_span("t", duration_ns=123)
        assert tracer.finished == []

    def test_null_tracer_is_default(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_set_tracer_roundtrip(self):
        custom = Tracer()
        assert set_tracer(custom) is custom
        assert get_tracer() is custom
        set_tracer(None)
        assert get_tracer() is NULL_TRACER


class TestCapture:
    def test_collects_finished_spans(self):
        tracer = Tracer()
        with tracer.capture() as spans:
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        assert [s.name for s in spans] == ["b", "a"]  # finish order
        with tracer.capture() as again:
            pass
        assert again == []  # buckets don't leak between captures

    def test_nested_captures_both_see_spans(self):
        tracer = Tracer()
        with tracer.capture() as outer:
            with tracer.capture() as inner:
                with tracer.span("x"):
                    pass
        assert [s.name for s in inner] == ["x"]
        assert [s.name for s in outer] == ["x"]


class TestSerialization:
    def test_to_from_dict_round_trip(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("job", kind="job", n=1000, label="x"):
            pass
        original = tracer.finished[0]
        restored = Span.from_dict(original.to_dict())
        for attr in (
            "name",
            "kind",
            "trace_id",
            "span_id",
            "parent_id",
            "start_ns",
            "end_ns",
            "status",
            "attrs",
        ):
            assert getattr(restored, attr) == getattr(original, attr)

    def test_read_trace_rejects_bad_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            read_trace(io.StringIO("{nope\n"))

    def test_read_trace_rejects_missing_type(self):
        with pytest.raises(ValueError, match="missing a 'type'"):
            read_trace(io.StringIO('{"name": "a"}\n'))

    def test_read_trace_rejects_incomplete_span(self):
        with pytest.raises(ValueError, match="missing"):
            read_trace(io.StringIO('{"type": "span", "name": "a"}\n'))

    def test_read_trace_skips_blank_lines(self):
        buf = io.StringIO()
        tracer = Tracer(JsonLinesExporter(buf))
        with tracer.span("a"):
            pass
        records = read_trace(io.StringIO(buf.getvalue() + "\n\n"))
        assert len(records) == 1
