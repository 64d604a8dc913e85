"""tools/ab_pairs.py: the summary of alternating benchmark pairs, on fixed numbers,
and its refusal to pair checkouts whose benchmarks differ."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

BETTER = {"session_s_p50": "lower", "kbit_per_s": "higher", "wire_bits": "lower"}


def _runs(session, kbit, bits):
    return [dict(session_s_p50=s, kbit_per_s=k, wire_bits=b) for s, k, b in zip(session, kbit, bits)]


def test_quartiles():
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_summary_counts_wins_by_each_metrics_sense():
    base = _runs([5.0, 5.2, 5.4, 5.1, 5.3], [100, 102, 98, 101, 99], [7] * 5)
    head = _runs([4.6, 4.7, 5.5, 4.5, 4.8], [110, 101, 99, 111, 108], [7] * 5)
    rows = {r["metric"]: r for r in ab_pairs.summarize(base, head, BETTER)}
    s = rows["session_s_p50"]
    assert s["base"] == (5.1, 5.2, 5.3) and s["head"] == (4.6, 4.7, 4.8)
    assert s["wins"] == 4 and s["pairs"] == 5
    assert s["change"] == pytest.approx(-0.5 / 5.2)
    assert not s["clear"]  # 4 of 5 pairs: below nine in ten
    k = rows["kbit_per_s"]
    assert (k["wins"], k["base"][1], k["head"][1]) == (4, 100, 108)
    assert k["change"] == pytest.approx(0.08)
    w = rows["wire_bits"]  # ties win for neither side
    assert (w["wins"], w["change"], w["clear"]) == (0, 0.0, False)


def test_clear_gain_needs_nine_in_ten_and_more_than_the_spread():
    base = _runs([10.0 + 0.1 * i for i in range(10)], [1] * 10, [1] * 10)
    head = _runs([9.0 + 0.1 * i for i in range(10)], [1] * 10, [1] * 10)
    [row] = ab_pairs.summarize(base, head, {"session_s_p50": "lower"})
    assert row["wins"] == 10 and row["clear"]  # a 1.0 gain against a spread of 0.45
    head = _runs([9.6 + 0.1 * i for i in range(10)], [1] * 10, [1] * 10)
    [row] = ab_pairs.summarize(base, head, {"session_s_p50": "lower"})
    assert row["wins"] == 10 and not row["clear"]  # a 0.4 gain: inside the spread
    head = _runs([11.0] + [9.0 + 0.1 * i for i in range(1, 10)], [1] * 10, [1] * 10)
    [row] = ab_pairs.summarize(base, head, {"session_s_p50": "lower"})
    assert row["wins"] == 9 and row["clear"]  # one pair lost: still nine in ten


def test_summary_table_lists_every_metric():
    base = _runs([5.0, 5.2], [100, 102], [7, 7])
    head = _runs([4.0, 4.1], [120, 125], [7, 7])
    text = ab_pairs.format_summary(ab_pairs.summarize(base, head, BETTER))
    lines = text.splitlines()
    assert len(lines) == 1 + len(BETTER)
    assert lines[1].startswith("session_s_p50") and lines[1].endswith("2/2   clear")
    assert "-20.59%" in lines[1]
    assert lines[3].startswith("wire_bits") and "+0.00%" in lines[3] and "clear" not in lines[3]


def test_worse_needs_the_median_past_the_bound():
    base = _runs([10.0, 10.1, 10.2, 10.3, 10.4], [100] * 5, [1000] * 5)
    bounds = {"session_s_p50": 0.25, "kbit_per_s": 0.25, "wire_bits": 0.1}
    head = _runs([12.0, 12.5, 13.0, 13.5, 14.0], [70, 74, 76, 80, 90], [1099] * 5)
    rows = {r["metric"]: r for r in ab_pairs.summarize(base, head, BETTER, bounds)}
    # +27.5% time and -24% rate: only the time is past its 25% bound
    assert rows["session_s_p50"]["worse"] and not rows["kbit_per_s"]["worse"]
    assert not rows["wire_bits"]["worse"]  # +9.9% against a 10% bound
    head = _runs([7.0] * 5, [130] * 5, [1101] * 5)
    rows = {r["metric"]: r for r in ab_pairs.summarize(base, head, BETTER, bounds)}
    assert not rows["session_s_p50"]["worse"] and not rows["kbit_per_s"]["worse"]
    assert rows["wire_bits"]["worse"]  # +10.1%
    assert not any(r["unresolved"] for r in rows.values())
    # a metric without a bound is never flagged
    [row] = ab_pairs.summarize(base, _runs([99.0] * 5, [1] * 5, [1] * 5),
                               {"session_s_p50": "lower"})
    assert not row["worse"] and not row["unresolved"]


def test_unresolved_when_the_base_spread_exceeds_the_bound():
    bounds = {"session_s_p50": 0.25}
    head = _runs([10.0] * 5, [1] * 5, [1] * 5)
    base = _runs([7.0, 8.0, 10.0, 11.0, 13.0], [1] * 5, [1] * 5)  # IQR 3.0 around 10
    [row] = ab_pairs.summarize(base, head, {"session_s_p50": "lower"}, bounds)
    assert row["unresolved"] and not row["worse"]
    base = _runs([8.0, 9.0, 10.0, 11.0, 12.0], [1] * 5, [1] * 5)  # IQR 2.0: within 25%
    [row] = ab_pairs.summarize(base, head, {"session_s_p50": "lower"}, bounds)
    assert not row["unresolved"]
    text = ab_pairs.format_summary(ab_pairs.summarize(
        _runs([7.0, 8.0, 10.0, 11.0, 13.0], [1] * 5, [1] * 5), _runs([14.0] * 5, [1] * 5, [1] * 5),
        {"session_s_p50": "lower"}, bounds))
    assert text.splitlines()[1].endswith("worse  unresolved")


def _bench_tree(root: Path, run_py: str) -> Path:
    (root / "bench" / "out").mkdir(parents=True)
    (root / "bench" / "__pycache__").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "session_s_p50", "better": "lower", "bound": 0.25}]}))
    (root / "bench" / "run.py").write_text(run_py)
    (root / "bench" / "out" / "BENCH_sparse.json").write_text(str(root))
    (root / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(bytes(root.name, "ascii"))
    return root


def test_unequal_benchmarks_are_refused_before_any_run(tmp_path, monkeypatch, capsys):
    base = _bench_tree(tmp_path / "base", "print(1)\n")
    head = _bench_tree(tmp_path / "head", "print(2)\n")
    (head / "bench" / "extra.py").write_text("")
    calls = []
    monkeypatch.setattr(ab_pairs, "run_bench", lambda *args: calls.append(args))
    argv = [str(base), str(head), "--workload", "sparse", "--seed", "1", "--pairs", "1"]
    assert ab_pairs.main(argv) == 2 and calls == []
    # the run outputs and bytecode differ too, but they are not the benchmark
    assert capsys.readouterr().err.strip() == (
        "BASE and HEAD run different benchmarks: bench/extra.py, bench/run.py")
    (head / "bench" / "extra.py").unlink()
    (head / "bench" / "run.py").write_text("print(1)\n")
    monkeypatch.setattr(ab_pairs, "run_bench", lambda *args: calls.append(args) or
                        ({"session_s_p50": 1.0}, []))
    assert ab_pairs.main(argv) == 0 and len(calls) == 2


SESSIONS = ["session case=0 index=0 bits_total=5000 final_digest=0x1a",
            "session case=1 index=0 bits_total=5100 final_digest=0x2b"]
BENCH_STDOUT = "\n".join([
    "warming up", *SESSIONS, "failed_ratio = 0.0 (2 of 2)", "session_s_p50 = 0.01 s",
    json.dumps({"correct": True, "attempted": 2, "failed": 0,
                "metrics": {"session_s_p50": {"value": 0.01, "unit": "s"}}}),
]) + "\n"


def test_run_bench_returns_the_session_lines(monkeypatch, tmp_path):
    seen = []

    def fake_run(cmd, cwd, **kwargs):
        seen.append((cmd[1:], cwd))
        return ab_pairs.subprocess.CompletedProcess(cmd, 0, stdout=BENCH_STDOUT)

    monkeypatch.setattr(ab_pairs.subprocess, "run", fake_run)
    values, sessions = ab_pairs.run_bench(tmp_path, "sparse", 3, 30.0)
    assert values == {"session_s_p50": 0.01} and sessions == SESSIONS
    assert seen == [(["bench/run.py", "--workload", "sparse", "--seed", "3", "--seconds",
                      "30.0", "--trace", "0"], tmp_path)]


def test_wire_difference_names_the_first_differing_session():
    other = SESSIONS[1].replace("final_digest=0x2b", "final_digest=0x2c")
    assert ab_pairs.wire_difference([SESSIONS, SESSIONS], [SESSIONS, SESSIONS]) is None
    assert ab_pairs.wire_difference([SESSIONS, SESSIONS], [SESSIONS, [SESSIONS[0], other]]) == (
        f"pair 1: BASE {SESSIONS[1]}, HEAD {other}")
    fewer_bits = SESSIONS[0].replace("5000", "4999")
    assert ab_pairs.wire_difference([SESSIONS], [[fewer_bits, other]]) == (
        f"pair 0: BASE {SESSIONS[0]}, HEAD {fewer_bits}")
    assert ab_pairs.wire_difference([SESSIONS], [SESSIONS[:1]]) == (
        f"pair 0: BASE {SESSIONS[1]}, HEAD none")


@pytest.mark.parametrize("head_digest, verdict", [
    ("0x2b", "wire unchanged"),
    ("0x2c", f"wire changed, pair 0: BASE {SESSIONS[1]}, HEAD {SESSIONS[1][:-4]}0x2c"),
], ids=["same", "digest-differs"])
def test_each_workload_says_whether_the_wire_changed(tmp_path, monkeypatch, capsys,
                                                     head_digest, verdict):
    base = _bench_tree(tmp_path / "base", "print(1)\n")
    head = _bench_tree(tmp_path / "head", "print(1)\n")
    head_sessions = [SESSIONS[0], SESSIONS[1].replace("0x2b", head_digest)]
    monkeypatch.setattr(ab_pairs, "run_bench", lambda checkout, *args: (
        {"session_s_p50": 1.0}, SESSIONS if checkout == base else head_sessions))
    argv = [str(base), str(head), "--workload", "sparse,bigfile", "--seed", "1", "--pairs", "2"]
    assert ab_pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("wire ")] == [verdict, verdict]


def test_exit_status_is_1_when_any_workload_is_worse(tmp_path, monkeypatch, capsys):
    base = _bench_tree(tmp_path / "base", "print(1)\n")
    head = _bench_tree(tmp_path / "head", "print(1)\n")
    # bigfile's HEAD takes 30% longer, past the 25% bound; sparse's 10% does not
    seconds = {(base, "sparse"): 1.0, (head, "sparse"): 1.1,
               (base, "bigfile"): 2.0, (head, "bigfile"): 2.6}
    monkeypatch.setattr(ab_pairs, "run_bench", lambda checkout, workload, *args: (
        {"session_s_p50": seconds[checkout, workload]}, SESSIONS))
    argv = [str(base), str(head), "--seed", "1", "--pairs", "2", "--workload"]
    assert ab_pairs.main(argv + ["sparse"]) == 0
    assert ab_pairs.main(argv + ["sparse,bigfile"]) == 1
    assert ab_pairs.main(argv + ["bigfile,sparse"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("session_s_p50") and line.endswith("worse") for line in out) == 2
