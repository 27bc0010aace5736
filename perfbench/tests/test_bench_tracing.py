import types
from dataclasses import dataclass

import pytest

from perfbench import layers
from perfbench.tracing import Target, Tracer, program_modules


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0
    inner = tracer.timed("inner", inner, span=True)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0
        inner()
    outer = tracer.timed("outer", outer, span=True)

    with tracer.request("query"):
        clock.now += 0.5
        outer()

    assert tracer.calls("outer") == 1 and tracer.calls("inner") == 2
    assert tracer.self_seconds("outer") == 4.0
    assert tracer.self_seconds("inner") == 4.0
    request, outer_span, first, second = tracer.spans
    assert (request["name"], request["parent"], request["self_s"]) == ("query", None, 0.5)
    assert (request["start"], request["end"]) == (0.0, 8.5)
    assert (outer_span["parent"], outer_span["self_s"]) == (request["id"], 4.0)
    assert first["parent"] == second["parent"] == outer_span["id"]
    assert {s["request"] for s in tracer.spans} == {0}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())

    def fail():
        raise ValueError("boom")
    fail = tracer.timed("fail", fail, span=True)
    with pytest.raises(ValueError):
        fail()
    assert tracer.calls("fail") == 1 and tracer.spans[0]["end"] == 0.0
    assert tracer._frames == [] and tracer._open == []


def _fake_package():
    a = types.ModuleType("pkg.a")

    def f(x):
        return x + 1

    @dataclass(frozen=True)
    class C:
        value: int

        def __post_init__(self):
            if self.value < 0:
                raise ValueError(self.value)

    a.f, a.C = f, C
    b = types.ModuleType("pkg.b")
    b.f = a.f                      # as `from pkg.a import f` binds it
    b.use = lambda x: b.f(x) * 2
    return a, b


def test_every_binding_and_class_hook_is_wrapped_then_restored():
    a, b = _fake_package()
    original_f, original_hook = a.f, a.C.__post_init__
    tracer = Tracer()
    tracer.install([Target("a", "pkg.a", "f"),
                    Target("a", "pkg.a", "C.__post_init__"),
                    Target("a", "pkg.a", "gone"),
                    Target("a", "pkg.a", "C.gone"),
                    Target("a", "pkg.a", "Missing.__post_init__")], [a, b])
    assert tracer.absent == ["a.gone", "a.C.gone", "a.Missing.__post_init__"]
    assert b.use(1) == 4 and a.f(1) == 2
    a.C(3)
    assert tracer.calls("a.f") == 2
    assert tracer.calls("a.C.__post_init__") == 1
    tracer.uninstall()
    assert a.f is b.f is original_f and a.C.__post_init__ is original_hook


def test_program_copies_of_a_function_are_wrapped():
    import cyclat.checks as checks
    import cyclat.poset as poset

    assert checks.build is poset.build   # `from cyclat.poset import build`
    original = poset.build
    tracer = Tracer()
    sizes = layers.BuildSizes()
    tracer.install(layers.TARGETS, program_modules(), on_result={"poset.build": sizes})
    try:
        assert checks.run_check("grading", 4).passed
    finally:
        tracer.uninstall()
    assert checks.build is poset.build is original
    assert tracer.absent == []
    assert tracer.calls("poset.build") == 1 and sizes.nodes == 6
    assert tracer.calls("checks.run_check.grading") == 1
    # the backend's own calls stay inside the kernels layer
    assert tracer.calls("kernels.word_covers_up") == 6
