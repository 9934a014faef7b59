"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_workload(workload):
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    assert workloads.generate(workload, 7, pass_no=1) == workloads.generate(workload, 7, 1)
    for other in (workloads.generate(workload, 8), workloads.generate(workload, 7, 1)):
        assert other != first
        assert sorted(map(workloads.op_key, other)) == sorted(map(workloads.op_key, first))


def test_specs_with_equal_params_stay_together_in_default_order():
    ops = workloads.generate("objects", 3)
    default = workloads.objects_specs()
    for params in ({"mu": [], "n": 4}, {"mu": [1, 1], "n": 3}):
        ids = [op["id"] for op in ops if op["params"] == params]
        first = next(i for i, op in enumerate(ops) if op["params"] == params)
        assert [op["id"] for op in ops[first : first + len(ids)]] == ids
        assert ids == [op["id"] for op in default if op["params"] == params]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_operation_has_a_recorded_outcome(workload):
    expected = json.loads((HERE / "expected.json").read_text())
    for op in workloads.generate(workload, 0):
        table = expected["requests"] if isinstance(op, list) else expected["specs"]
        assert workloads.op_key(op) in table


@pytest.mark.parametrize("n", [11, 29, 40, 192, 303])
def test_tail_keeps_ten_samples_beyond(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    value, rank = run.tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert rank == pytest.approx(100 * (n - run.TAIL_BEYOND) / n)


def test_op_latencies_take_each_operations_mean():
    hit = ["sf", "--kind", "q", "--shape", "3,1", "--n", "3"]
    other = ["enumerate", "--kind", "gtp", "--shape", "6,4,2,1", "--count-only"]
    passes = [
        {"ops": [hit, hit, other], "latencies": [1.0, 0.1, 0.5]},
        {"ops": [other, hit, hit], "latencies": [0.7, 3.0, 0.3]},
        {"ops": [hit, other, hit], "latencies": [2.0, 8.7, 0.2]},
    ]
    # The first request of a key in a pass is one operation, the second another.
    assert sorted(run.op_latencies(passes)) == pytest.approx([0.2, 2.0, 3.3])


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * run.TAIL_BEYOND)


def test_digest_mismatch_counts_as_failed():
    lhs, rhs = "x1 + a1", "x1 + a1"
    good = [workloads.sha256(lhs), workloads.sha256(rhs)]
    assert workloads.spec_error(lhs, rhs, True, good) is None
    assert workloads.spec_error(lhs, rhs, True, [good[0], workloads.sha256("x1")]) is not None
    assert workloads.spec_error(lhs, rhs, False, good) is not None
    assert workloads.spec_error(lhs, rhs, True, None) is not None
    out = b"PASS theorem1P[mu=(1), n=2] (elapsed)\n"
    assert workloads.request_error(0, out, [0, workloads.sha256(out)]) is None
    assert workloads.request_error(0, out + b"x", [0, workloads.sha256(out)]) is not None
    assert workloads.request_error(1, out, [0, workloads.sha256(out)]) is not None
    passes = [{"ops": workloads.generate("objects", 0)[:2], "errors": [None, "lhs/rhs digest differs"]}]
    assert len(run._failures(passes)) == 1


def test_verify_timing_is_blanked():
    a = workloads.normalized_stdout(b"PASS theorem1P[mu=(1), n=2] (0.012s)\n")
    b = workloads.normalized_stdout(b"PASS theorem1P[mu=(1), n=2] (1.500s)\n")
    assert a == b


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = Clock()
    rec = tracing.Recorder(clock)
    inner = rec.wrap("inner", lambda: clock.advance(2))

    def body(depth):
        clock.advance(1)
        inner()
        if depth:
            outer(depth - 1)
        clock.advance(3)

    outer = rec.wrap("outer", body)
    outer(1)
    summary = rec.summary()
    assert summary["self_s"] == {"outer": 8.0, "inner": 4.0}
    assert summary["total_s"]["outer"] == 12.0  # the nested outer span is not counted twice
    assert summary["callers"]["inner"] == {"outer": 4.0}


def test_self_time_of_generator_spans():
    clock = Clock()
    rec = tracing.Recorder(clock)
    weigh = rec.wrap("weigh", lambda: clock.advance(2))

    def objects():
        for i in range(3):
            clock.advance(1)
            weigh()
            yield i
        clock.advance(0.5)

    def make():
        clock.advance(5)  # creating the iterator is not part of the span
        return objects()

    enumerate_ = rec.wrap_gen("enum", make, "enum.objects")
    nested = rec.wrap_gen("enum", lambda: enumerate_(), "enum.objects")

    def consume():
        for _ in nested():
            clock.advance(10)

    rec.wrap("sum", consume)()
    summary = rec.summary()
    assert summary["self_s"] == {"sum": 35.0, "enum": 3.5, "weigh": 6.0}
    assert summary["callers"]["weigh"] == {"enum": 6.0}
    assert rec.counters["enum.objects"] == 3
    assert rec.stack == []


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _) in tracing.LAYER_METRICS.items()
    ]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
