"""Self-tests of the benchmark; run with ``python3 -m pytest bench``."""

import dataclasses
import json

import pytest

import reference
import run
from delsync import harness, protocol
from tracing import CHILD_S, END, NAME, SESSION, START, TracePoint, Tracer, TracingError

TINY_N = {"bigfile": 4000, "sparse": 5000, "sweep": 5000}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _result(capsys, workload, trace=0):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--n", str(TINY_N[workload])]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _flip_first_bit(bits):
    return type(bits)([1 - bits[0]]) + bits[1:]


def test_check_session_catches_tampering():
    runner = run.SessionRunner(dataclasses.replace(run.WORKLOADS["bigfile"], n=4000), 3)
    rng = run.np.random.default_rng([3, 0])
    x = run.core.random_bits(4000, rng)
    channel = run.core.apply_deletion_channel(x, 0.01, rng)
    x_hat, metrics, transcript = protocol.synchronize(x, channel.y, runner.params, channel)
    assert run.check_session(x, x_hat, metrics, transcript) is None
    assert "differs" in run.check_session(x, _flip_first_bit(x_hat), metrics, transcript)
    assert "len(x_hat)" in run.check_session(x, x_hat[:-1], metrics, transcript)
    more = dataclasses.replace(metrics, bits_total=metrics.bits_total + 1)
    assert "bit totals" in run.check_session(x, x_hat, more, transcript)
    unsynced = dataclasses.replace(metrics, synchronized=False)
    assert run.check_session(x, x_hat, unsynced, transcript) is not None


def test_tampered_x_hat_counts_as_failed(capsys, monkeypatch):
    real = protocol.synchronize

    def tampered(*args):
        x_hat, metrics, transcript = real(*args)
        return _flip_first_bit(x_hat), metrics, transcript

    monkeypatch.setattr(protocol, "synchronize", tampered)
    res = _result(capsys, "sparse")
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1
    assert res["metrics"]["synced_ratio"]["value"] == 0.0


def test_tampered_bit_total_counts_as_failed(capsys, monkeypatch):
    real = harness.synchronize

    def tampered(*args):
        x_hat, metrics, transcript = real(*args)
        return x_hat, dataclasses.replace(metrics, bits_total=metrics.bits_total + 1), transcript

    monkeypatch.setattr(harness, "synchronize", tampered)
    res = _result(capsys, "sweep")
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1


def test_raising_session_counts_as_failed(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(protocol, "synchronize", broken)
    res = _result(capsys, "bigfile")
    assert res["failed"] == res["attempted"] >= 1
    assert "wire_bits" in res["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_prints_every_named_metric(capsys, workload, trace):
    res = _result(capsys, workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", ["sparse", "sweep"])
def test_span_self_times_sum_to_session_wall(workload):
    wl = dataclasses.replace(run.WORKLOADS[workload], n=TINY_N[workload])
    runner = run.make_runner(wl, 3)
    try:
        with Tracer().install() as tracer:
            runner(0)
    finally:
        runner.close()
    self_s = [s[END] - s[START] - s[CHILD_S] for s in tracer.spans]
    assert min(self_s) >= 0.0
    sessions = [s for s in tracer.spans if s[NAME] == "protocol.synchronize"]
    assert sessions
    for root in sessions:
        total = sum(v for s, v in zip(tracer.spans, self_s) if s[SESSION] == root[SESSION])
        assert total == pytest.approx(root[END] - root[START], rel=1e-9, abs=1e-12)


def test_missing_traced_name_is_an_error():
    original = protocol.synchronize
    points = (TracePoint("delsync.protocol", "synchronize", "protocol.synchronize"),
              TracePoint("delsync.protocol", "no_such_function", "protocol.nothing"))
    with pytest.raises(TracingError, match="no_such_function"):
        Tracer().install(points)
    assert protocol.synchronize is original


def test_scaled_times_follow_the_reference_job():
    assert reference.scale(reference.NOMINAL_S, reference.NOMINAL_S) == 1.0
    # a machine that runs the job at half speed halves the scaled time
    assert reference.scale(2 * reference.NOMINAL_S, 2 * reference.NOMINAL_S) == 0.5
    session = run.Session(0, 0, 100, 0.4, 0, 0, "", None, scale=0.5)
    assert session.scaled_s == 0.2


def test_session_p50_is_the_median_call_per_session():
    calls = [run.Call(0.8, 0.4, 8), run.Call(1.6, 0.8, 8), run.Call(3.2, 2.4, 8)]
    assert run.session_p50(calls) == 0.1
    assert run.session_p50(calls, "wall_s") == 0.2
