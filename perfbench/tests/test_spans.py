"""Self-time arithmetic of the span recorder, on synthetic nested spans."""

import pytest

import spans


class FakeClock:
    """A clock that reads the times a test scripts, one per call."""

    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def boundary(name, hot=False):
    return spans.Boundary(name, "m", name, hot=hot)


def test_self_time_is_duration_minus_nested_boundaries():
    #   root [0, 10]
    #     a  [1, 4]     a1 [2, 3] inside a
    #     b  [5, 7]     hot: aggregated, no span record
    clock = FakeClock(0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 10.0)
    rec = spans.Recorder(clock)
    root = rec.enter("m.root")
    a = rec.enter("m.a")
    a1 = rec.enter("m.a1")
    rec.exit(a1, boundary("a1"))
    rec.exit(a, boundary("a"))
    b = rec.enter("m.b")
    rec.exit(b, boundary("b", hot=True))
    rec.exit(root, boundary("root"))
    snap = rec.snapshot()
    assert snap["self_s"] == pytest.approx(
        {"m.root": 10 - 3 - 2, "m.a": 3 - 1, "m.a1": 1, "m.b": 2}
    )
    assert snap["total_s"] == pytest.approx({"m.root": 10, "m.a": 3, "m.a1": 1, "m.b": 2})
    assert sum(snap["self_s"].values()) == pytest.approx(snap["wall_s"])
    assert {s["name"] for s in snap["spans"]} == {"m.root", "m.a", "m.a1"}
    by_name = {s["name"]: s for s in snap["spans"]}
    assert by_name["m.a1"]["parent"] == by_name["m.a"]["id"]
    assert by_name["m.a"]["parent"] == by_name["m.root"]["id"]
    assert {s["trace"] for s in snap["spans"]} == {by_name["m.root"]["id"]}


def test_a_new_root_starts_a_new_trace():
    rec = spans.Recorder(FakeClock(0.0, 0.0, 1.0, 2.0, 3.0, 4.0))
    first = rec.enter("m.x")
    rec.exit(first, boundary("x"))
    second = rec.enter("m.x")
    rec.exit(second, boundary("x"))
    traces = [s["trace"] for s in rec.snapshot()["spans"]]
    assert traces[0] != traces[1]


def test_wrapped_calls_pause_and_count():
    rec = spans.Recorder()
    wrapped = spans._wrap(lambda x: x * 2, boundary("double"), rec, None)
    assert wrapped(2) == 4
    rec.enabled = False
    assert wrapped(3) == 6
    assert rec.snapshot()["calls"] == {"m.double": 1}


def test_install_rebinds_names_imported_elsewhere_and_undo_restores():
    import repro.core.evaluation as evaluation
    import repro.engine.batch as batch

    original = batch.run_batch
    installed = spans.install(spans.Recorder(), out_dir=None)
    try:
        assert evaluation.run_batch is batch.run_batch
        assert batch.run_batch is not original
    finally:
        installed.undo()
    assert batch.run_batch is original and evaluation.run_batch is original
