"""Tests of the benchmark itself: naming rule, span arithmetic, failure accounting, inputs.

Run from the root of a checkout with ``python -m pytest perfbench``.
"""

import json

import numpy as np
import pytest

import run
import workloads
from spans import Span, Tracer, embed_self, per_op_totals, percentile, self_times, tail_min_samples


@pytest.fixture(scope="module")
def sr():
    return run.load_program()


def test_tail_is_named_only_with_ten_samples_beyond_it():
    assert tail_min_samples(75) == 40
    assert tail_min_samples(90) == 100
    with pytest.raises(ValueError, match="needs 10 samples beyond"):
        percentile(range(39), 75)
    samples = list(range(40))
    p75 = percentile(samples, 75)
    assert sum(s > p75 for s in samples) == 10
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        percentile(range(99), 90)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "send", 0, None, 0.0, 10.0),
        Span(1, "a", 0, 0, 1.0, 3.0),
        Span(2, "b", 0, 0, 2.0, 5.0),  # overlaps a: [1, 5] is covered once
        Span(3, "c", 0, 0, 8.0, 12.0),  # runs past its parent: only [8, 10] counts
        Span(4, "d", 0, 3, 8.5, 9.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 4 - 2)
    assert own[3] == pytest.approx(4 - 0.5)
    assert own[4] == pytest.approx(0.5)
    assert per_op_totals(spans, own)["send"][0] == pytest.approx(4)
    assert embed_self(0.6, 0.1, 0.45) == pytest.approx(0.05)


def test_tracer_nests_spans_and_sums_them_per_op():
    tracer = Tracer()
    for op in range(2):
        tracer.start_op("main")
        with tracer.span("send"):
            assert tracer.call("x.f", lambda a, b: a + b, op, 1) == op + 1
            tracer.call("x.f", int)
    by_name = {(s.name, s.op): s for s in tracer.spans}
    assert by_name["x.f", 1].parent == by_name["send", 1].id
    assert by_name["send", 0].parent is None
    totals = per_op_totals(tracer.spans)
    assert set(totals["x.f"]) == {0, 1}
    assert all(totals["x.f"][op] <= totals["send"][op] for op in (0, 1))
    assert tracer.ops("main") == {0, 1}


def test_corrupted_restore_fails_the_op_and_the_command(sr, monkeypatch, tmp_path, capsys):
    tiny = workloads.Workload("tiny", workloads.paper_inputs, workloads.InProcess, warmup=1)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "time_setups", lambda *args: [0.5])
    extract = sr.extract

    def corrupting_extract(stego):
        message, restored = extract(stego)
        restored[0, 0] ^= 1
        return message, restored

    monkeypatch.setattr(sr, "extract", corrupting_extract)
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_OPS + 1
    assert result["failed"] == result["attempted"]


def test_clean_run_reports_every_end_to_end_metric(sr, monkeypatch, tmp_path, capsys):
    tiny = workloads.Workload("tiny", workloads.paper_inputs, workloads.InProcess, warmup=1)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "time_setups", lambda *args: [0.5])
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads(run.SPEC.read_text())["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert result["failed"] == 0 and isinstance(result["metrics"]["container_bytes"]["value"], int)
    record = json.loads((tmp_path / "tiny-seed1-trace0.json").read_text())
    assert record["meta"]["ops"] == run.MIN_OPS and record["meta"]["warmup_ops"] == 1


def test_inputs_are_a_function_of_the_seed(sr):
    a, b, c = (workloads.noisy_inputs(sr, seed) for seed in (7, 7, 8))
    assert a.sha256() == b.sha256() != c.sha256()
    assert a.carrier_bytes.startswith(b"P2\n512 512\n255\n")
    assert not a.carrier[:256].any() and a.carrier[256:].min() >= 1
    assert sr.validate_carrier(a.carrier) == []
    assert np.array_equal(sr.read_pgm(a.carrier_bytes), a.carrier)
    assert workloads.paper_inputs(sr, 1).sha256() == workloads.paper_inputs(sr, 2).sha256()


def test_fill_message_takes_every_site(sr):
    inputs = workloads.fill_inputs(sr, 3)
    assert len(inputs.message) == len(sr.embedding_sites(inputs.carrier, sr.Rect(*inputs.roi)))
    assert 0 not in inputs.message
    assert inputs.carrier_bytes == sr.write_pgm(inputs.carrier)
