"""Self-tests of the benchmark's tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import hostspeed  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1):
    return sp.Span(name, start, end, parent, None, 0)


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("experiments.run_trials", 0.0, 10.0),  # 0
        _span("core.sample_instance", 1.0, 3.0, 0),  # 1
        _span("greedy.greedy_screen", 4.0, 9.0, 0),  # 2
        _span("matching.optimal_matching", 5.0, 6.0, 2),  # 3
        _span("matching.optimal_matching", 7.0, 8.5, 2),  # 4
        _span("cli.solve", 20.0, 21.0),  # 5: a second root
    ]
    selfs = sp.self_times(tree)
    assert selfs == pytest.approx([10 - 2 - 5, 2.0, 5 - 1 - 1.5, 1.0, 1.5, 1.0])
    # nested spans: the self times add up to the durations of the roots
    assert sum(selfs) == pytest.approx(10.0 + 1.0)
    layers = sp.layer_self(tree, selfs)
    assert layers == pytest.approx(
        {"core": 2.0, "matching": 2.5, "greedy": 2.5, "thresholds": 0.0, "pipeline": 0.0,
         "experiments": 3.0, "cli": 1.0}
    )
    table = sp.by_name(tree, selfs)
    assert table["matching.optimal_matching"]["calls"] == 2
    assert table["matching.optimal_matching"]["self_s"] == pytest.approx(2.5)


def test_overlapping_children_are_not_counted_twice():
    tree = [
        _span("greedy.screen_entries", 0.0, 4.0),
        _span("matching.optimal_matching", 1.0, 2.0, 0),
        _span("core.validate_instance", 1.5, 3.0, 0),
    ]
    assert sp.self_times(tree)[0] == pytest.approx(4.0 - 2.0)


def test_covered_clips_children_to_the_parent():
    assert sp._covered([(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)], 0.0, 4.0) == pytest.approx(3.0)
    assert sp._covered([], 0.0, 4.0) == 0.0


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert sp.percentile(values, 50) == 50.0
    assert sp.percentile(values, 99) == 99.0
    assert sp.percentile([3.0], 99) == 3.0
    assert sp.percentile([], 50) == 0.0


def _bindings():
    return {
        (mod.__name__, attr): value
        for mod in sp.program_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _bindings()
    wl = workloads.MonteCarlo(
        "tiny",
        (
            workloads.Shape("d1", workloads.D1, (2,), 60, 0.1, 2, (("greedy", 2, 1.0), ("pipeline-exact-opt", 2, 1.0))),
            workloads.Shape("d2", workloads.D2, (1, 1), 30, 0.1, 1, (("greedy", 2, 1.0),)),
        ),
        workers=1,
        quality_rounds=1,
    )
    wl.write_configs(str(tmp_path))
    wl.load(str(tmp_path))
    plain = wl.run_round(7, 1)
    tracer = sp.Tracer()
    with tracer.installed():
        assert sp.wrapped_names(), "install rebound nothing"
        traced = wl.run_round(7, 1, tracer=tracer)
    assert sp.wrapped_names() == []
    assert _bindings() == before
    # tracing changes no result, and spans nest under the harness call
    assert traced.digest == plain.digest and traced.failed == 0
    names = {s.name for s in tracer.spans}
    assert {"experiments.run_trials", "core.sample_instance", "matching.optimal_matching",
            "greedy.screen_entries", "pipeline.run_pipeline"} <= names
    roots = [s for s in tracer.spans if s.parent < 0]
    assert {s.name for s in roots} == {"experiments.run_trials"}
    assert all(s.trial is not None for s in tracer.spans if s.name == "core.sample_instance")
    assert tracer.counters["matching.flow_calls"] > 0


def test_names_are_restored_when_the_traced_code_raises():
    before = _bindings()
    tracer = sp.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    assert sp.wrapped_names() == []
    assert _bindings() == before


def test_cli_reference_checks_reject_a_wrong_output(tmp_path):
    d = str(tmp_path)
    wl = workloads.CliFiles("cli", n=500)
    wl.write_configs(d)
    wl.load(d)
    res = wl.run_round(3, 1)
    assert res.ops == len(workloads.CLI_CHAIN) and res.failed == 0
    assert all(workloads.check_cli_outputs(d, 500).values())
    with open(f"{d}/solve.json", "w", encoding="utf-8") as fh:
        fh.write('{"value": 0.5, "assignment": [[0, 0]]}\n')
    assert workloads.check_cli_outputs(d, 500)["solve"] is False


def test_rates_weigh_every_input_set_equally():
    def rnd(trials, **scaled):
        return workloads.RoundResult(trials=trials, items=10 * trials, parts={k: 9.0 for k in scaled}, scaled=scaled)

    # rounds 0..2 over two input sets: set 0 ran twice, set 1 once
    rounds = [rnd(10, a=1.0, b=1.0), rnd(30, a=2.0), rnd(10, a=1.5, b=1.5)]
    assert run.scaled_rate(rounds, 2, "trials") == pytest.approx((10 + 30) / (2.5 + 2.0))
    assert run.scaled_rate(rounds, 2, "items") == pytest.approx((100 + 300) / (2.5 + 2.0))


def test_a_part_is_scaled_by_the_kernel_times_around_it(monkeypatch):
    kernel = iter([0.004, 0.012])  # before and after the call
    monkeypatch.setattr(hostspeed, "reference_s", lambda: next(kernel))
    res = workloads.RoundResult()
    with pytest.raises(ZeroDivisionError):
        with res.part("p"):
            1 / 0
    # a call that raises is still timed
    assert res.reference == pytest.approx([0.008])
    assert res.scaled["p"] == pytest.approx(res.parts["p"] * hostspeed.NOMINAL_S / 0.008)


def test_an_exception_in_a_cli_command_fails_only_that_command(monkeypatch):
    def boom(argv):
        raise TypeError("bad")

    monkeypatch.setattr(workloads.sm_cli, "run_cli", boom)
    code, err = workloads.run_cli_quietly(["solve"])
    assert code == 1 and "TypeError" in err
