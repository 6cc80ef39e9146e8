"""Tests of the benchmark's own machinery: corpus, tracer, output checks."""

from __future__ import annotations

import json
from pathlib import Path

from rptgeo import Scalar, build_example, save_spec
from rptgeo.cli import main as cli_main

from perfbench import corpus, verify
from perfbench.run import end_to_end
from perfbench.tracer import ADD, ARITH_S, NEG, Tracer
from perfbench.worker import _run_command

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_specs(tmp_path):
    first = corpus.generate("cli-mix", 7, tmp_path / "a")
    second = corpus.generate("cli-mix", 7, tmp_path / "b")
    other = corpus.generate("cli-mix", 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert [c.key for c in first.commands()] == [c.key for c in second.commands()]
    assert [c.expect for c in first.commands()] == [c.expect for c in second.commands()]
    assert len(first.commands()) >= 100


def test_self_time_subtracts_child_spans():
    tracer = Tracer()

    def inner(k):
        return sum(range(k))

    def outer():
        sum(range(10000))
        traced_inner(20000)
        traced_inner(30000)

    traced_inner = tracer.span_wrapper("inner", inner)
    tracer.span_wrapper("outer", outer)()
    root, first, second = tracer.spans
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert first.parent is root and second.parent is root
    children = first.duration + second.duration
    assert abs(root.self_s - (root.duration - children)) < 1e-12
    assert first.self_s == first.duration
    assert 0 < root.self_s < root.duration


def test_nested_same_name_spans_count_once():
    tracer = Tracer()

    def recurse(k):
        return k if k == 0 else traced(k - 1)

    traced = tracer.span_wrapper("rec", recurse)
    traced(3)
    assert [s.nested for s in tracer.spans] == [False, True, True, True]
    metrics_total = sum(s.duration for s in tracer.spans if not s.nested)
    assert metrics_total == tracer.spans[0].duration


def test_scalar_subtraction_counts_once_and_leaves_span_self_time():
    params = ("a",)
    a = Scalar.parameter(params, "a")
    b = Scalar.constant(params, 3)
    tracer = Tracer()
    with tracer.installed():
        span = tracer.open("outer")
        a - b
        tracer.close(span)
    rec = span.arith
    assert rec is not None
    assert rec[ADD] == 1 and rec[NEG] == 0
    assert abs(span.self_s - (span.duration - rec[ARITH_S])) < 1e-12
    # patches are undone
    assert not hasattr(Scalar.__add__, "__wrapped__")


def test_tampered_reference_is_a_failure():
    summary = {"exit": 0, "class": "W3-strict", "checks": {"first-bianchi": "pass"},
               "scalars": {"tau": "-1"}, "sha256": "x"}
    expected = {k: summary[k] for k in verify.GATED}
    results = [{"key": "k", "summary": summary}]
    assert verify.check_run({"k": expected}, {"k": dict(summary)}, results)[0] == 0
    tampered = dict(summary, checks={"first-bianchi": "fail"})
    failed, messages, _ = verify.check_run({"k": expected}, {"k": tampered}, results)
    assert failed == 1 and "reference checks" in messages[0]
    # a changed raw report alone is recorded, not failed
    assert verify.check_run({"k": expected}, {"k": dict(summary, sha256="y")}, results)[0] == 0


def test_traced_command_matches_untraced(tmp_path):
    path = tmp_path / "family.json"
    save_spec(build_example((1, 2, 3, 5)), path)
    argv = ["check", str(path), "--format", "json"]
    _, _, code, plain = _run_command(cli_main, argv)
    tracer = Tracer()
    with tracer.installed():
        from rptgeo.cli import main as traced_main
        tracer.begin_command(0)
        _, _, traced_code, traced = _run_command(traced_main, argv)
    assert traced_main is not cli_main
    assert code == traced_code == 0
    assert verify.summarize(code, plain) == verify.summarize(traced_code, traced)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "theorems.rpt_checks", "tensors.map_slot"} <= names
    assert all(s.command == 0 for s in tracer.spans)


def test_emitted_metric_names_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {"pass_walls": [1.0], "commands": [{"wall_s": 0.5}, {"wall_s": 0.25}],
              "peak_rss_mb": 20.0, "setup_s": 0.3}
    emitted = set(end_to_end([0.3], result))
    assert emitted == {m["name"] for m in declared["end_to_end"]}
    layers = set(Tracer().metrics(1)) | {"trace.overhead_frac"}
    assert layers == {m["name"] for m in declared["per_layer"]}
