"""Self-time arithmetic, and that tracing leaves the program as it was."""

import threading

import layerspans
from layerspans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _recorder(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layerspans, "clock", fake)
    return SpanRecorder(), fake


def test_self_time_is_duration_minus_covered_child_time(monkeypatch):
    recorder, clock = _recorder(monkeypatch)
    with recorder.span("outer"):
        clock.now += 10
        with recorder.span("child"):
            clock.now += 5
            with recorder.span("grandchild"):
                clock.now += 7
            clock.now += 3
        clock.now += 20
        with recorder.span("child"):
            clock.now += 4
        clock.now += 1
    spans = recorder.summary()["spans"]
    # name: [calls, inclusive ns, self ns]
    assert spans["outer"] == [1, 50, 31]
    assert spans["child"] == [2, 19, 12]
    assert spans["grandchild"] == [1, 7, 7]
    assert sum(total[2] for total in spans.values()) == 50


def test_a_span_nested_in_its_own_name_is_one_call(monkeypatch):
    recorder, clock = _recorder(monkeypatch)
    with recorder.span("distance"):
        clock.now += 2
        with recorder.span("distance"):
            clock.now += 8
    assert recorder.summary()["spans"]["distance"] == [1, 10, 10]


def test_work_handed_to_another_thread_is_charged_to_the_waiting_span(monkeypatch):
    recorder, clock = _recorder(monkeypatch)
    with recorder.span("serve.admission") as frame:
        clock.now += 3  # waiting in the queue

        def on_pool_thread():
            stack = recorder.state().stack
            stack.append(frame)
            with recorder.span("serve.engine"):
                clock.now += 40
            stack.pop()

        worker = threading.Thread(target=on_pool_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.now += 2
    spans = recorder.summary()["spans"]
    assert spans["serve.engine"] == [1, 40, 40]
    assert spans["serve.admission"] == [1, 45, 5]


def test_reset_forgets_the_warm_up(monkeypatch):
    recorder, clock = _recorder(monkeypatch)
    with recorder.span("core.query_processor"):
        clock.now += 9
    recorder.state().counts["alt_pairs"] += 4
    recorder.reset()
    assert recorder.summary()["spans"] == {}
    assert recorder.summary()["counts"] == {}


def test_traced_restores_every_method():
    from repro import api
    from repro.core.query_processor import QueryProcessor
    from repro.serve import http as serve_http

    before = (
        QueryProcessor.bknn, vars(api.Query)["from_dict"], serve_http.json,
        serve_http.QueryServer.__init__,
    )
    with layerspans.traced(SpanRecorder()):
        assert QueryProcessor.bknn is not before[0]
        assert serve_http.json is not before[2]
    assert (
        QueryProcessor.bknn, vars(api.Query)["from_dict"], serve_http.json,
        serve_http.QueryServer.__init__,
    ) == before
