import argparse
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from screenmatch import (
    ConstraintSpec,
    DistributionSpec,
    greedy_screen,
    optimal_matching,
    quantile_policy_net,
    read_instance,
    sample_instance,
    write_constraint_spec,
    write_distribution_spec,
    write_policy,
)
import screenmatch.core as core
from screenmatch.cli import DEFAULT_SEED, build_parser, run_cli


@pytest.fixture
def files(tmp_path):
    dist = tmp_path / "dist.json"
    spec = tmp_path / "spec.json"
    with open(dist, "w") as fh:
        write_distribution_spec(DistributionSpec("single-property-uniform", 1), fh)
    with open(spec, "w") as fh:
        write_constraint_spec(ConstraintSpec((3,)), fh)
    return tmp_path, str(dist), str(spec)


def run(argv):
    return run_cli(argv)


# sha256 of the pipeline output on the seeded files of test_pipeline_runs_the_training_set_screen
PIPELINE_SHA256 = "6a75c2c3c7c97dd77ab7602cf5c94d34a24663fed1fb322842cf19f8015314e3"
# sha256 of the converge output of each seeded run of test_converge_output_is_pinned
CONVERGE_SHA256 = {
    "disjoint-d1": "1fb6491e26ac56cb6817631c024faa0c2917d98e4e571ea0de8de3de2fe688ba",
    "overlap-d2": "6623bdd60b6d63a59f8b070ef6719e16dc5bae4bf1f14f9eedfeca5bd6079348",
}


class TestGenSolve:
    def test_round_trip_matches_library(self, files, capsys):
        tmp, dist, spec = files
        out = tmp / "c.jsonl"
        assert run(["gen", "--dist", dist, "--n", "60", "--seed", "7", "--out", str(out)]) == 0
        with open(out) as fh:
            inst = read_instance(fh)
        expected = sample_instance(DistributionSpec("single-property-uniform", 1), 60, 7)
        assert inst == expected

        capsys.readouterr()
        assert run(["solve", "--in", str(out), "--spec", spec]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        ref = optimal_matching(expected.items, ConstraintSpec((3,)))
        assert payload["value"] == ref.value
        assert payload["assignment"] == [list(pair) for pair in ref.assignment]

    def test_gen_default_seed_is_stable(self, files):
        tmp, dist, _ = files
        a, b = tmp / "a.jsonl", tmp / "b.jsonl"
        assert run(["gen", "--dist", dist, "--n", "25", "--out", str(a)]) == 0
        assert run(["gen", "--dist", dist, "--n", "25", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert DEFAULT_SEED == 12345

    @pytest.mark.parametrize(
        "dist, seed, digest",
        [
            (
                DistributionSpec("single-property-uniform", 1),
                31,
                "1a40b28851a2e456da5a9e258f350cadb461cc646346fdb5f1fec076af415eb2",
            ),
            (
                DistributionSpec("disjoint-properties-uniform", 3),
                32,
                "001905bd7c7835aa073587670d948066e557e844b57a7d3addb781234f214c98",
            ),
            (
                DistributionSpec("overlap-bernoulli", 3, membership=(0.5, 0.4, 0.3)),
                33,
                "bd5d162235aef587ca8718e9727a5cb82f5ffa662032de8ddce9d4d3ce110a7d",
            ),
        ],
        ids=["single", "disjoint", "overlap"],
    )
    def test_gen_golden_bytes(self, tmp_path, dist, seed, digest):
        # the writer's bytes, pinned: n = 2*10^4 reaches five-digit ids
        path, out = tmp_path / "dist.json", tmp_path / "out.jsonl"
        with open(path, "w") as fh:
            write_distribution_spec(dist, fh)
        assert run(["gen", "--dist", str(path), "--n", "20000", "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_the_module_runs_the_cli(self, files):
        # the README's walkthrough goes through python -m screenmatch
        tmp, dist, _ = files
        out = tmp / "c.jsonl"
        assert run(["gen", "--dist", dist, "--n", "10", "--out", str(out)]) == 0
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)

        def module(*argv):
            cmd = [sys.executable, "-m", "screenmatch", *argv]
            return subprocess.run(cmd, capture_output=True, env=env, timeout=60, cwd=tmp)

        done = module("gen", "--dist", dist, "--n", "10")
        assert done.returncode == 0 and done.stdout == out.read_bytes()
        assert module().returncode == 2
        done = module("gen", "--dist", dist, "--n", "10", "--seed", "-1")
        assert done.returncode == 1
        assert done.stderr == b"error: --seed must be a nonnegative integer, got -1\n"

    def test_stdout_carries_only_data(self, files, capsys):
        tmp, dist, spec = files
        out = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "10", "--out", str(out)])
        capsys.readouterr()
        run(["solve", "--in", str(out), "--spec", spec])
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "solve:" in captured.err


    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_a_crlf_writer_file_takes_the_bulk_path(self, files, monkeypatch, capsys, newline):
        tmp, dist, spec = files
        lf, crlf = tmp / "lf.jsonl", tmp / "crlf.jsonl"
        assert run(["gen", "--dist", dist, "--n", "40", "--out", str(lf)]) == 0
        crlf.write_bytes(lf.read_bytes().replace(b"\n", newline))
        capsys.readouterr()
        assert run(["solve", "--in", str(lf), "--spec", spec]) == 0
        want = capsys.readouterr().out
        per_line, read_lines = [], core._read_lines

        def hooked(text, source):
            per_line.append(source)
            return read_lines(text, source)

        monkeypatch.setattr(core, "_read_lines", hooked)
        assert run(["solve", "--in", str(crlf), "--spec", spec]) == 0
        assert capsys.readouterr().out == want
        assert per_line == []
        # the hook does see a file out of the writer's form
        crlf.write_bytes(crlf.read_bytes().replace(b'{"id": 0,', b'{"id":0,'))
        assert run(["solve", "--in", str(crlf), "--spec", spec]) == 0
        assert capsys.readouterr().out == want
        assert per_line == [str(crlf)]


class TestGreedyCommand:
    def test_warmup_from_delta(self, files, capsys):
        tmp, dist, spec = files
        out = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "50", "--out", str(out)])
        capsys.readouterr()
        assert run(["greedy", "--in", str(out), "--spec", spec, "--delta", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["warmup"] == 8  # floor(0.5 * 50 / 3)
        assert payload["retained"] == len(payload["retained_ids"])

    def test_warmup_and_delta_exclude_each_other(self, files, capsys):
        tmp, dist, spec = files
        out = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "50", "--out", str(out)])
        capsys.readouterr()
        argv = ["greedy", "--in", str(out), "--spec", spec, "--warmup", "3"]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # given both, neither is dropped in silence, an out-of-range delta included
        for delta in ("0.5", "7"):
            assert run(argv + ["--delta", delta]) == 2
            err = capsys.readouterr().err
            assert "argument --delta: not allowed with argument --warmup" in err
        with open(out) as fh:
            ref = greedy_screen(read_instance(fh), ConstraintSpec((3,)), 3)
        assert payload["warmup"] == 3 and payload["retained_ids"] == list(ref.retained_ids)

    def test_trace_flag(self, files, capsys):
        tmp, dist, spec = files
        out = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "8", "--out", str(out)])
        capsys.readouterr()
        assert run(["greedy", "--in", str(out), "--spec", spec, "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["trace"]) == 8


class TestLearnScreenPipeline:
    def test_learn_then_screen(self, files, capsys):
        tmp, dist, spec = files
        train = tmp / "train.jsonl"
        pol = tmp / "pol.json"
        run(["gen", "--dist", dist, "--n", "40", "--seed", "3", "--out", str(train)])
        assert run(
            ["learn", "--in", str(train), "--spec", spec, "--method", "topm", "--m", "5", "--out", str(pol)]
        ) == 0
        capsys.readouterr()
        assert run(["screen", "--in", str(train), "--policy", str(pol), "--spec", spec]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] >= 5
        assert payload["per_property"] == [payload["total"]]

    def test_screen_with_spec_checks_the_file_once(self, tmp_path, capsys, monkeypatch):
        import screenmatch.cli as cli
        import screenmatch.core as core
        import screenmatch.matching as matching
        import screenmatch.thresholds as thresholds

        sizes = []
        real = core.validate_items

        def counting(items, spec):
            sizes.append(len(items))
            return real(items, spec)

        for mod in (core, matching, thresholds, cli):
            monkeypatch.setattr(mod, "validate_items", counting, raising=False)
        dist, spec, policy = (tmp_path / name for name in ("dist.json", "spec.json", "pol.json"))
        with open(dist, "w") as fh:
            write_distribution_spec(DistributionSpec("overlap-bernoulli", 2, (0.6, 0.5)), fh)
        with open(spec, "w") as fh:
            write_constraint_spec(ConstraintSpec((2, 1)), fh)
        policy.write_text('{"t": [0.5, 0.5]}\n')
        inst = tmp_path / "c.jsonl"
        run(["gen", "--dist", str(dist), "--n", "300", "--seed", "4", "--out", str(inst)])
        sizes.clear()
        argv = ["screen", "--in", str(inst), "--policy", str(policy), "--spec", str(spec)]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0 < payload["total"] < 300 and payload["value"] > 0
        # the file once, and the solver its survivors
        assert sizes == [300, payload["total"]]

    def test_learn_net_writes_one_policy_per_line(self, files, capsys):
        tmp, dist, spec = files
        train = tmp / "train.jsonl"
        run(["gen", "--dist", dist, "--n", "200", "--out", str(train)])
        net_file = tmp / "net.jsonl"
        assert run(
            ["learn", "--in", str(train), "--spec", spec, "--method", "net", "--out", str(net_file)]
        ) == 0
        lines = net_file.read_text().splitlines()
        assert 2 <= len(lines) <= 10 * 3 + 2
        for line in lines:
            json.loads(line)

    def test_learn_net_stream_n_is_the_net_s_stream_length(self, files):
        tmp, dist, spec = files
        train = tmp / "train.jsonl"
        run(["gen", "--dist", dist, "--n", "200", "--out", str(train)])
        with open(train) as fh:
            inst = read_instance(fh)
        argv = ["learn", "--in", str(train), "--spec", spec, "--method", "net"]
        texts = []
        for stream_n in (50, 200):
            net_file = tmp / f"net{stream_n}.jsonl"
            assert run(argv + ["--stream-n", str(stream_n), "--out", str(net_file)]) == 0
            expected = io.StringIO()
            for policy in quantile_policy_net(inst, ConstraintSpec((3,)), stream_n):
                write_policy(policy, expected)
            assert net_file.read_text() == expected.getvalue()
            texts.append(expected.getvalue())
        assert texts[0] != texts[1]

    def test_learn_net_on_an_empty_training_file_writes_the_all_zero_policy(self, files):
        tmp, _, spec = files
        train = tmp / "empty.jsonl"
        train.write_text("")
        net_file = tmp / "net.jsonl"
        argv = ["learn", "--in", str(train), "--spec", spec, "--method", "net"]
        assert run(argv + ["--out", str(net_file)]) == 0
        assert net_file.read_text() == '{"t": [0.0]}\n'

    def test_pipeline_command(self, files, capsys):
        tmp, dist, spec = files
        train, stream = tmp / "train.jsonl", tmp / "s.jsonl"
        run(["gen", "--dist", dist, "--n", "100", "--seed", "1", "--out", str(train)])
        run(["gen", "--dist", dist, "--n", "100", "--seed", "2", "--out", str(stream)])
        capsys.readouterr()
        assert run(
            [
                "pipeline",
                "--train", str(train),
                "--in", str(stream),
                "--spec", spec,
                "--mode", "exact-opt",
                "--delta", "0.1",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["retained_final"] <= payload["retained_after_policy"]

    def test_pipeline_runs_the_training_set_screen(self, tmp_path, capsys):
        dist, spec = tmp_path / "dist.json", tmp_path / "spec.json"
        dist.write_text('{"kind": "disjoint-properties-uniform", "d": 2}\n')
        spec.write_text('{"caps": [2, 1]}\n')
        train, stream, out = (tmp_path / name for name in ("train.jsonl", "stream.jsonl", "p.json"))
        for path, seed in ((train, "8"), (stream, "7")):
            assert run(["gen", "--dist", str(dist), "--n", "300", "--seed", seed, "--out", str(path)]) == 0
        argv = ["pipeline", "--train", str(train), "--in", str(stream), "--spec", str(spec)]
        argv += ["--delta", "0.05", "--out", str(out)]
        for mode in ([], ["--mode", "exact-opt"]):
            assert run(argv + mode) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == PIPELINE_SHA256
        # value-approx is refused as a mode, as an algorithm and in a config
        assert run(argv + ["--mode", "value-approx"]) == 2
        trials = ["trials", "--dist", str(dist), "--spec", str(spec), "--n", "20", "--trials", "2"]
        assert run(trials + ["--algorithm", "pipeline-value-approx"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "pipeline-value-approx"}))
        capsys.readouterr()
        assert run(trials + ["--config", str(cfg), "--out", str(tmp_path / "agg.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: algorithm must be one of")


class TestExperimentCommands:
    def test_trials_config_file_with_flag_override(self, files, capsys):
        tmp, dist, spec = files
        cfg = tmp / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"dist": dist, "spec": spec, "n": 50, "trials": 5, "delta": 0.1, "seed": 2}
            )
        )
        csv_out = tmp / "agg.csv"
        assert run(
            ["trials", "--config", str(cfg), "--n", "80", "--out", str(csv_out)]
        ) == 0
        header, row = csv_out.read_text().splitlines()
        assert row.split(",")[1] == "80"  # flag beats config file

    def test_trials_config_names_the_csv_output(self, files, capsys):
        tmp, dist, spec = files
        cfg, csv_out = tmp / "cfg.json", tmp / "agg.csv"
        keys = {"dist": dist, "spec": spec, "n": 50, "trials": 5, "out": str(csv_out)}
        cfg.write_text(json.dumps(keys))
        capsys.readouterr()
        assert run(["trials", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        header, row = csv_out.read_text().splitlines()
        assert header.startswith("scenario,n,") and row.split(",")[1] == "50"

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            '{"n": "abc"}',
            '{"n": 50.9}',
            '{"trials": "3"}',
            '{"seed": true}',
            '{"workers": 1.0}',
            '{"delta": "0.1"}',
            '{"c0": false}',
            '{"n": -5}',
            '{"trials": 0}',
            '{"delta": 1.5}',
            '{"algorithm": "magic"}',
            '{"workers": 0}',
            pytest.param('{"delta": ' + "9" * 400 + "}", id="400-digit-delta"),
            pytest.param('{"c0": ' + "9" * 400 + "}", id="400-digit-c0"),
            '{"c0": -5}',
            '{"c0": NaN}',
            '{"c0": Infinity}',
            '{"c0": -5, "algorithm": "pipeline-exact-opt"}',
        ],
    )
    def test_trials_config_errors_name_the_config(self, files, capsys, text):
        tmp, dist, spec = files
        cfg = tmp / "bad_cfg.json"
        base = {"dist": dist, "spec": spec, "n": 50, "trials": 3}
        if text.startswith("{not"):
            cfg.write_text(text)
        else:
            cfg.write_text(json.dumps({**base, **json.loads(text)}))
        assert run(["trials", "--config", str(cfg), "--out", str(tmp / "agg.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    @pytest.mark.parametrize("command", ["gen", "trials", "concentration", "converge"])
    def test_negative_seed_is_one_and_names_it(self, files, capsys, command):
        tmp, dist, spec = files
        argv = [command, "--dist", dist, "--n", "20", "--out", str(tmp / "o")]
        if command != "gen":
            argv += ["--spec", spec, "--trials", "3"]
        assert run(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be a nonnegative integer, got -1\n"
        if command == "trials":
            cfg = tmp / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            assert run(argv + ["--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {cfg}: seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize(
        "command, flag, value, err",
        [
            ("converge", "--train-n", "-1", "--train-n must be a nonnegative integer, got -1"),
            ("learn", "--stream-n", "0", "--stream-n must be a positive integer, got 0"),
            ("converge", "--max-net", "-1", "--max-net must be a positive integer, got -1"),
            ("learn", "--max-net", "0", "--max-net must be a positive integer, got 0"),
            ("learn", "--max-net", "-5", "--max-net must be a positive integer, got -5"),
        ],
        ids=["converge", "learn", "converge-max-net", "learn-max-net", "learn-max-net-negative"],
    )
    def test_a_size_below_its_least_is_one_and_names_its_flag(
        self, files, capsys, command, flag, value, err
    ):
        tmp, dist, spec = files
        train = tmp / "train.jsonl"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(train)])
        argv = {
            "converge": ["converge", "--dist", dist, "--n", "20", "--trials", "3"],
            "learn": ["learn", "--in", str(train), "--method", "net"],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--spec", spec, flag, value, "--out", str(tmp / "o")]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp / "o").exists()

    @pytest.mark.parametrize("command", ["trials", "concentration", "converge"])
    def test_workers_below_one_is_one(self, files, capsys, command):
        tmp, dist, spec = files
        argv = [command, "--dist", dist, "--spec", spec, "--n", "20", "--trials", "3"]
        assert run(argv + ["--workers", "0", "--out", str(tmp / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: workers must be a positive integer, got 0\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("factor", ["0", "-1"])
    def test_converge_calibration_factor_below_one(self, files, capsys, workers, factor):
        tmp, dist, spec = files
        argv = ["converge", "--dist", dist, "--spec", spec, "--n", "20", "--trials", "3"]
        argv += ["--calibration-factor", factor, "--workers", workers, "--out", str(tmp / "o")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: calibration factor must be a positive integer, got {factor}\n"

    def test_converge_n_below_k(self, files, capsys):
        tmp, dist, _ = files
        spec = tmp / "big.json"
        with open(spec, "w") as fh:
            write_constraint_spec(ConstraintSpec((100,)), fh)
        argv = ["converge", "--dist", dist, "--spec", str(spec), "--n", "1", "--trials", "3"]
        assert run(argv + ["--out", str(tmp / "o")]) == 1
        assert capsys.readouterr().err == "error: n must be an integer >= k=100, got 1\n"

    @pytest.mark.parametrize("command", ["trials", "concentration", "converge"])
    def test_n_below_k_is_one(self, files, capsys, command):
        # every experiment refuses it before a trial runs, concentration included
        tmp, dist, spec = files
        argv = [command, "--dist", dist, "--spec", spec, "--n", "0", "--trials", "5"]
        assert run(argv + ["--out", str(tmp / "o")]) == 1
        assert capsys.readouterr().err == "error: n must be an integer >= k=3, got 0\n"
        assert not (tmp / "o").exists()

    @pytest.mark.parametrize("command", ["concentration", "converge"])
    @pytest.mark.parametrize(
        "dist",
        [
            DistributionSpec("overlap-bernoulli", 3, (0.5, 0.4, 0.3)),
            DistributionSpec("single-property-uniform", 1),
        ],
        ids=["d3", "d1"],
    )
    def test_dist_and_spec_of_another_d_are_one(self, files, capsys, command, dist):
        # refused before anything is sampled, as trials refuses them
        tmp, _, _ = files
        dist_path, spec = tmp / "dist_other.json", tmp / "spec2.json"
        with open(dist_path, "w") as fh:
            write_distribution_spec(dist, fh)
        with open(spec, "w") as fh:
            write_constraint_spec(ConstraintSpec((1, 1)), fh)
        argv = [command, "--dist", str(dist_path), "--spec", str(spec), "--n", "20"]
        assert run(argv + ["--trials", "3", "--out", str(tmp / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: distribution has d={dist.d} but spec has 2 properties\n"

    def test_trials_records_file(self, files):
        tmp, dist, spec = files
        rec = tmp / "rec.jsonl"
        assert run(
            [
                "trials", "--dist", dist, "--spec", spec,
                "--n", "40", "--trials", "6", "--seed", "4",
                "--records", str(rec), "--out", str(tmp / "agg.csv"),
            ]
        ) == 0
        assert len(rec.read_text().splitlines()) == 6

    def test_concentration_command(self, files, capsys):
        tmp, dist, spec = files
        capsys.readouterr()
        assert run(
            ["concentration", "--dist", dist, "--spec", spec, "--n", "20", "--trials", "30"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        assert len(payload["tail"]) == 4

    def test_converge_command(self, files, capsys):
        tmp, dist, spec = files
        capsys.readouterr()
        assert run(
            [
                "converge", "--dist", dist, "--spec", spec,
                "--n", "60", "--trials", "10", "--csv", str(tmp / "agg.csv"),
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["net_size"] >= 2
        header = (tmp / "agg.csv").read_text().splitlines()[0]
        assert header.startswith("scenario,n,k,d,delta")

    @pytest.mark.parametrize(
        "name, dist, caps, argv",
        [
            ("disjoint-d1", {"kind": "disjoint-properties-uniform", "d": 1}, [2],
             ["--n", "40", "--trials", "8", "--seed", "5", "--train-n", "40"]),
            ("overlap-d2", {"kind": "overlap-bernoulli", "d": 2, "membership": [0.6, 0.5]}, [2, 1],
             ["--n", "30", "--trials", "6", "--seed", "9", "--train-n", "12"]),
        ],
        ids=["disjoint-d1", "overlap-d2"],
    )
    def test_converge_output_is_pinned(self, tmp_path, name, dist, caps, argv):
        # the bytes, fitted c0s included: at d = 1 the count unit's ln(max(d, 2)) is ln 2
        dist_path, spec_path, out = tmp_path / "dist.json", tmp_path / "spec.json", tmp_path / "o.json"
        dist_path.write_text(json.dumps(dist) + "\n")
        spec_path.write_text(json.dumps({"caps": caps}) + "\n")
        argv = ["converge", "--dist", str(dist_path), "--spec", str(spec_path), *argv]
        assert run(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CONVERGE_SHA256[name]

    def test_converge_on_no_training_items_nets_the_all_zero_policy(self, files, capsys):
        _, dist, spec = files
        argv = ["converge", "--dist", dist, "--spec", spec, "--n", "20", "--trials", "3"]
        capsys.readouterr()
        assert run(argv + ["--train-n", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["net_size"] == 1
        assert payload["all_zero_retained_mean"] == 20.0

    @pytest.mark.parametrize("command", ["trials", "converge"])
    def test_scenario_is_the_first_cell_of_the_csv_row(self, files, command):
        tmp, dist, spec = files
        path = tmp / "agg.csv"
        argv = [command, "--dist", dist, "--spec", spec, "--n", "20", "--trials", "3"]
        argv += ["--out" if command == "trials" else "--csv", str(path)]
        # a comma, a quote or a carriage return in the scenario is quoted,
        # and shifts no column or row
        for scenario in ["shape-7", 'a,"b"', "a\rb"]:
            assert run(argv + ["--scenario", scenario]) == 0
            with open(path, newline="") as fh:
                header, row = csv.reader(fh)
            assert len(header) == len(row) == 13
            assert header[0] == "scenario" and row[0] == scenario


class TestExitCodes:
    def test_missing_file_is_one_and_names_path(self, files, capsys):
        _, _, spec = files
        assert run(["solve", "--in", "missing.jsonl", "--spec", spec]) == 1
        assert "missing.jsonl" in capsys.readouterr().err

    def test_malformed_file_is_one_with_line(self, files, tmp_path, capsys):
        _, _, spec = files
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": 0, "props": [[0, 0.5]]}\n{broken\n')
        assert run(["solve", "--in", str(bad), "--spec", spec]) == 1
        assert ":2:" in capsys.readouterr().err

    def test_non_utf8_file_is_one_with_line(self, files, tmp_path, capsys):
        # line 1001 lies far past the first read-ahead chunk of the file
        _, _, spec = files
        lines = [f'{{"id": {i}, "props": [[0, 0.5]]}}\n'.encode() for i in range(1200)]
        lines[1000] = lines[1000].replace(b"0.5", b"0.\xff5")
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        assert run(["solve", "--in", str(bad), "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert "bad.jsonl:1001:" in err
        assert "Traceback" not in err

    def test_a_bad_byte_after_a_lone_cr_names_its_line(self, files, tmp_path, capsys):
        # a lone CR ends a line, so the third record is line 3 whether its
        # fault is a bad byte or bad JSON
        _, _, spec = files
        head = b'{"id": 0, "props": [[0, 0.5]]}\r{"id": 1, "props": [[0, 0.25]]}\n'
        bad, broken = tmp_path / "bad.jsonl", tmp_path / "broken.jsonl"
        bad.write_bytes(head + b'{"id": 2, "props": [[0, 0.\xff]]}\n')
        broken.write_bytes(head + b'{"id": 2, "props": [[0, 0.]]}\n')
        assert run(["solve", "--in", str(bad), "--spec", spec]) == 1
        assert capsys.readouterr().err == f"error: {bad}:3: not UTF-8 text (invalid start byte)\n"
        assert run(["solve", "--in", str(broken), "--spec", spec]) == 1
        assert capsys.readouterr().err.startswith(f"error: {broken}:3: malformed item record")

    @pytest.mark.parametrize(
        "fault, found",
        [(b'"\xff"', ":3: not UTF-8 text"), (b"", ": malformed constraint spec (Expecting value: line 3")],
        ids=["bad byte", "bad json"],
    )
    def test_a_json_file_counts_lone_crs_as_text_mode_does(self, files, tmp_path, capsys, fault, found):
        tmp, dist, _ = files
        inst = tmp / "inst.jsonl"
        assert run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)]) == 0
        spec = tmp_path / "crspec.json"
        spec.write_bytes(b'{"caps":\r[1],\r"x": ' + fault + b"}")
        capsys.readouterr()
        assert run(["solve", "--in", str(inst), "--spec", str(spec)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}{found}")

    @pytest.mark.parametrize(
        "kind, text, what, key",
        [
            ("instance", '{"id": 0}', ":1: malformed item record", "props"),
            ("spec", "{}", ": malformed constraint spec", "caps"),
            ("dist", '{"d": 1}', ": malformed distribution spec", "kind"),
            ("policy", "{}", ": malformed policy", "t"),
        ],
        ids=["instance", "spec", "dist", "policy"],
    )
    def test_a_missing_key_is_named(self, files, tmp_path, capsys, kind, text, what, key):
        tmp, dist, spec = files
        inst = tmp / "inst.jsonl"
        assert run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)]) == 0
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_text(text + "\n")
        argv = {
            "instance": ["solve", "--in", str(bad), "--spec", spec],
            "spec": ["solve", "--in", str(inst), "--spec", str(bad)],
            "dist": ["gen", "--dist", str(bad), "--n", "5"],
            "policy": ["screen", "--in", str(inst), "--policy", str(bad)],
        }[kind]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {bad}{what} (missing key {key!r})\n"

    def test_non_utf8_spec_and_config_are_one_and_name_the_path(self, files, tmp_path, capsys):
        tmp, dist, _ = files
        bad_spec = tmp_path / "bad_spec.json"
        bad_spec.write_bytes(b'{"caps": [\xff1]}\n')
        inst = tmp / "inst.jsonl"
        assert run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)]) == 0
        capsys.readouterr()
        assert run(["solve", "--in", str(inst), "--spec", str(bad_spec)]) == 1
        assert f"{bad_spec}" in capsys.readouterr().err
        cfg = tmp_path / "bad_cfg.json"
        cfg.write_bytes(b'{\n"n": 5,\n"scenario": "\xff"}\n')
        assert run(["trials", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}:3: ")

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("spec", b'{"caps":\n[\xff1]}\n'),
            ("dist", b'{"kind": "single-property-uniform",\n"d": \xff1}\n'),
            ("policy", b'{"t":\n[0.5\xff]}\n'),
        ],
        ids=["spec", "dist", "policy"],
    )
    def test_non_utf8_spec_dist_or_policy_is_one_with_line(
        self, files, tmp_path, capsys, kind, text
    ):
        tmp, dist, spec = files
        inst = tmp / "inst.jsonl"
        assert run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)]) == 0
        policy = tmp / "policy.json"
        policy.write_text('{"t": [0.5]}\n')
        bad = tmp_path / f"bad_{kind}.json"
        bad.write_bytes(text)
        paths = {"spec": spec, "dist": dist, "policy": str(policy), kind: str(bad)}
        argv = {
            "spec": ["solve", "--in", str(inst), "--spec", paths["spec"]],
            "dist": ["gen", "--dist", paths["dist"], "--n", "5"],
            "policy": ["screen", "--in", str(inst), "--policy", paths["policy"]],
        }[kind]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: not UTF-8 text")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1.7", "-3.0"])
    def test_solve_rejects_value_outside_unit_interval(self, tmp_path, capsys, value):
        spec = tmp_path / "spec2.json"
        spec.write_text('{"caps": [1, 1]}\n')
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f'{{"id": 0, "props": [[0, 0.5]]}}\n{{"id": 1, "props": [[1, {value}]]}}\n')
        assert run(["solve", "--in", str(bad), "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "outside [0, 1]" in err
        assert "Traceback" not in err

    def test_duplicate_property_is_one_with_line(self, files, tmp_path, capsys):
        _, _, spec = files
        bad = tmp_path / "dup.jsonl"
        bad.write_text('{"id": 0, "props": [[0, 0.5]]}\n{"id": 1, "props": [[0, 0.2], [0, 0.9]]}\n')
        assert run(["solve", "--in", str(bad), "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "more than once" in err

    @pytest.mark.parametrize(
        "pair", ['[0.9, 0.5]', '["0", 0.5]', '[true, 0.5]', '[0, "0.5"]', '[0, true]', '[0, null]']
    )
    def test_instance_reader_takes_json_numbers_as_they_are(self, files, tmp_path, capsys, pair):
        _, _, spec = files
        bad = tmp_path / "typed.jsonl"
        bad.write_text(f'{{"id": 0, "props": [[0, 0.5]]}}\n{{"id": 1, "props": [{pair}]}}\n')
        assert run(["solve", "--in", str(bad), "--spec", spec]) == 1
        assert f"{bad}:2: malformed item record" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["spec", "dist", "policy", "config", "instance"])
    def test_deep_nesting_is_malformed_and_names_the_file(self, files, tmp_path, capsys, kind):
        tmp, dist, spec = files
        inst = tmp / "c.jsonl"
        assert run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)]) == 0
        deep = "[" * 100_000
        bad = tmp_path / f"deep_{kind}.json"
        bad.write_text(
            f'{{"id": 0, "props": [[0, 0.5]]}}\n{deep}\n' if kind == "instance" else deep
        )
        argv, where, what = {
            "spec": (["solve", "--in", str(inst), "--spec", str(bad)], "", "constraint spec"),
            "dist": (["gen", "--dist", str(bad), "--n", "5"], "", "distribution spec"),
            "policy": (["screen", "--in", str(inst), "--policy", str(bad)], "", "policy"),
            "config": (["trials", "--config", str(bad)], "", "config"),
            "instance": (["solve", "--in", str(bad), "--spec", spec], ":2", "item record"),
        }[kind]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}{where}: malformed {what} (maximum recursion depth")
        assert "Traceback" not in err

    def test_integer_values_stay_valid(self, files, tmp_path, capsys):
        _, _, spec = files
        ok = tmp_path / "ints.jsonl"
        ok.write_text('{"id": 0, "props": [[0, 1]]}\n{"id": 1, "props": [[0, 0]]}\n')
        assert run(["solve", "--in", str(ok), "--spec", spec]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 1.0

    @pytest.mark.parametrize("caps", ["[1.5]", "[true]", '["2"]'])
    def test_spec_reader_takes_json_integers_as_they_are(self, files, tmp_path, capsys, caps):
        tmp, dist, _ = files
        inst = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)])
        spec = tmp_path / "typed_spec.json"
        spec.write_text(f'{{"caps": {caps}}}\n')
        assert run(["solve", "--in", str(inst), "--spec", str(spec)]) == 1
        assert f"{spec}: malformed constraint spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            '"kind": "disjoint-properties-uniform", "d": 2.9',
            '"kind": "disjoint-properties-uniform", "d": true',
            '"kind": "disjoint-properties-uniform", "d": "2"',
            '"kind": "overlap-bernoulli", "d": 1, "membership": ["0.5"]',
            pytest.param(
                '"kind": "overlap-bernoulli", "d": 1, "membership": [' + "9" * 400 + "]",
                id="400-digit-membership",
            ),
        ],
    )
    def test_dist_reader_takes_json_numbers_as_they_are(self, tmp_path, capsys, body):
        dist = tmp_path / "typed_dist.json"
        dist.write_text(f"{{{body}}}\n")
        assert run(["gen", "--dist", str(dist), "--n", "5", "--out", str(tmp_path / "o")]) == 1
        assert f"{dist}: malformed distribution spec" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overlap_that_never_accepts_is_one_and_names_the_dist(self, tmp_path, capsys):
        dist = tmp_path / "never.json"
        dist.write_text('{"kind": "overlap-bernoulli", "d": 2, "membership": [1e-17, 0.0]}\n')
        assert run(["gen", "--dist", str(dist), "--n", "5", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dist}: ")
        assert "no chance to own a property" in err

    def test_overlap_past_the_uniforms_limit_is_one(self, tmp_path, capsys):
        dist = tmp_path / "rare.json"
        dist.write_text('{"kind": "overlap-bernoulli", "d": 1, "membership": [1e-12]}\n')
        assert run(["gen", "--dist", str(dist), "--n", "1", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: membership probabilities (1e-12,) expect ")
        assert "= 1e+12 uniforms per item" in err and "limit of 2**20" in err

    @pytest.mark.parametrize(
        "t",
        [
            '["0.5"]',
            "[true]",
            '["Infinity"]',
            pytest.param("[" + "9" * 400 + "]", id="400-digit"),
            "[Infinity]",
            "[1e999]",
        ],
    )
    def test_policy_reader_takes_json_numbers_as_they_are(self, files, tmp_path, capsys, t):
        tmp, dist, _ = files
        inst = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)])
        policy = tmp_path / "typed_policy.json"
        policy.write_text(f'{{"t": {t}}}\n')
        assert run(["screen", "--in", str(inst), "--policy", str(policy)]) == 1
        assert f"{policy}: malformed policy" in capsys.readouterr().err

    def test_policy_thresholds_must_be_an_array(self, files, tmp_path, capsys):
        # an object's keys are not thresholds: {"ABOVE": 0.3} is not the policy (ABOVE,)
        tmp, dist, _ = files
        inst = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "5", "--out", str(inst)])
        policy = tmp_path / "object_policy.json"
        policy.write_text('{"t": {"ABOVE": 0.3}}\n')
        capsys.readouterr()
        assert run(["screen", "--in", str(inst), "--policy", str(policy)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {policy}: malformed policy (thresholds must be a JSON array")

    @pytest.mark.parametrize(
        "m, err",
        [([], "--m is required with --method topm"),
         (["--m", "x"], "--m expects comma-separated integers, got 'x'")],
        ids=["missing", "not-integers"],
    )
    def test_topm_ranks_must_be_given_as_integers(self, files, capsys, m, err):
        tmp, dist, spec = files
        train = tmp / "train.jsonl"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(train)])
        capsys.readouterr()
        assert run(["learn", "--in", str(train), "--spec", spec, "--method", "topm"] + m) == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("command", ["learn", "converge"])
    def test_net_size_refusal_names_the_cap(self, files, capsys, command):
        tmp, dist, spec = files
        train = tmp / "train.jsonl"
        run(["gen", "--dist", dist, "--n", "50", "--seed", "3", "--out", str(train)])
        argv = {
            "learn": ["learn", "--in", str(train), "--method", "net"],
            "converge": ["converge", "--dist", dist, "--n", "50", "--trials", "3"],
        }[command]
        capsys.readouterr()
        assert run(argv + ["--spec", spec, "--max-net", "1", "--out", str(tmp / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: policy net would hold 32 policies, more than the cap of 1\n"

    def test_trials_config_that_is_no_object_is_one(self, files, capsys):
        tmp, _, _ = files
        cfg = tmp / "cfg.json"
        cfg.write_text("[1, 2]\n")
        assert run(["trials", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"

    @pytest.mark.parametrize(
        "drop, err",
        [("--spec", "--dist and --spec"), ("--n", "--n and --trials"), ("--trials", "--n and --trials")],
    )
    def test_trials_without_a_needed_flag_is_one(self, files, capsys, drop, err):
        tmp, dist, spec = files
        flags = {"--dist": dist, "--spec": spec, "--n": "10", "--trials": "2"}
        argv = [part for flag, value in flags.items() if flag != drop for part in (flag, value)]
        assert run(["trials", *argv, "--out", str(tmp / "o")]) == 1
        assert capsys.readouterr().err == f"error: trials needs {err} (flags or config file)\n"
        assert not (tmp / "o").exists()

    def test_screen_policy_of_another_d_than_the_spec_is_one(self, files, capsys):
        tmp, dist, spec = files
        inst, policy = tmp / "c.jsonl", tmp / "pol.json"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(inst)])
        policy.write_text('{"t": [0.5, 0.5]}\n')
        capsys.readouterr()
        assert run(["screen", "--in", str(inst), "--policy", str(policy), "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert err == "error: policy has 2 thresholds but spec has 1 properties\n"

    def test_unknown_subcommand_is_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag_is_two(self, files, capsys):
        _, dist, _ = files
        assert run(["gen", "--dist", dist, "--n", "5", "--frquency", "2"]) == 2

    def test_bad_delta_is_validation_error(self, files, capsys):
        tmp, dist, spec = files
        out = tmp / "c.jsonl"
        run(["gen", "--dist", dist, "--n", "10", "--out", str(out)])
        assert run(["greedy", "--in", str(out), "--spec", spec, "--delta", "7"]) == 1

    def test_pipeline_refuses_a_delta_outside_the_open_interval(self, files, capsys):
        tmp, dist, spec = files
        stream = tmp / "s.jsonl"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(stream)])
        argv = ["pipeline", "--train", str(stream), "--in", str(stream), "--spec", spec]
        capsys.readouterr()
        for delta in ("0", "1", "-0.5"):
            assert run(argv + ["--delta", delta]) == 1
            assert capsys.readouterr().err == f"error: delta must lie in (0, 1), got {float(delta)!r}\n"

    @pytest.mark.parametrize("c0", ["inf", "1e308"])
    @pytest.mark.parametrize("command", ["pipeline", "trials"])
    def test_c0_without_a_finite_slack_is_one(self, files, capsys, command, c0):
        tmp, dist, spec = files
        stream = tmp / "s.jsonl"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(stream)])
        argv = {
            "pipeline": ["pipeline", "--train", str(stream), "--in", str(stream), "--mode", "exact-opt"],
            "trials": ["trials", "--dist", dist, "--n", "20", "--trials", "2"],
        }[command]
        argv += ["--spec", spec, "--c0", c0, "--out", str(tmp / "o")]
        if command == "trials":
            argv += ["--algorithm", "pipeline-exact-opt"]
        capsys.readouterr()
        if c0 == "1e308":
            # finite, so it passes the check; the exact rank computes nothing from it
            assert run(argv) == 0
            assert "error" not in capsys.readouterr().err
            return
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c0" in err
        assert "Traceback" not in err

    def test_a_subnormal_delta_runs_the_pipeline(self, files, capsys):
        # 1/delta overflows a float; the rank's exact sums take the budget as a fraction
        tmp, dist, spec = files
        stream, out = tmp / "s.jsonl", tmp / "o.json"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(stream)])
        argv = ["pipeline", "--train", str(stream), "--in", str(stream), "--spec", spec]
        capsys.readouterr()
        assert run(argv + ["--delta", "1e-310", "--out", str(out)]) == 0
        assert capsys.readouterr().err.startswith("pipeline: ")
        assert json.loads(out.read_text())["optimal_vs_fullstream"] is True

    def test_delta_split_is_a_usage_error(self, files, capsys):
        # the pipeline spends delta whole on coverage; no flag splits it
        tmp, dist, spec = files
        stream = tmp / "s.jsonl"
        run(["gen", "--dist", dist, "--n", "20", "--out", str(stream)])
        argv = ["pipeline", "--train", str(stream), "--in", str(stream), "--spec", spec]
        argv += ["--out", str(tmp / "o")]
        capsys.readouterr()
        assert run(argv + ["--delta-split", "0.5,0,0.5"]) == 2
        assert "--delta-split" in capsys.readouterr().err
        assert run(argv) == 0

    @pytest.mark.parametrize(
        "text, err",
        [("Unable to allocate 82.0 GiB", "Unable to allocate 82.0 GiB"), ("", "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_one(self, files, capsys, monkeypatch, text, err):
        def exhausted(*args):
            raise MemoryError(text)

        monkeypatch.setattr("screenmatch.cli.sample_instance", exhausted)
        _, dist, _ = files
        assert run(["gen", "--dist", dist, "--n", "5"]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"


BAD_RECORDS = {
    "nan": "[[0, NaN]]",
    "property-beyond-d": "[[1, 0.5]]",
    "property-minus-one": "[[-1, 0.5]]",
    "empty-props": "[]",
    "value-1.7": "[[0, 1.7]]",
}

COMMANDS = {
    "screen": ["screen", "--policy", "{policy}"],
    "screen-spec": ["screen", "--policy", "{policy}", "--spec", "{spec}"],
    "learn-optimal": ["learn", "--spec", "{spec}", "--method", "optimal"],
    "learn-topm": ["learn", "--spec", "{spec}", "--method", "topm", "--m", "2"],
    "learn-net": ["learn", "--spec", "{spec}", "--method", "net"],
    "solve": ["solve", "--spec", "{spec}"],
    "greedy": ["greedy", "--spec", "{spec}"],
    "pipeline": ["pipeline", "--train", "{good}", "--spec", "{spec}"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("record", sorted(BAD_RECORDS))
def test_every_command_checks_the_items_it_reads(tmp_path, capsys, record, command):
    """A file whose item 2 breaks an item rule exits 1, on every command
    that reads items, with the rule set's error naming item 2."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"caps": [2]}\n')
    policy = tmp_path / "policy.json"
    policy.write_text('{"t": [0.4]}\n')
    records = ["[[0, 0.5]]", "[[0, 0.9]]", BAD_RECORDS[record], "[[0, 0.3]]", "[[0, 0.7]]"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(f'{{"id": {i}, "props": {r}}}\n' for i, r in enumerate(records)))
    good = tmp_path / "good.jsonl"
    good.write_text("".join(f'{{"id": {i}, "props": [[0, 0.5]]}}\n' for i in range(5)))
    paths = {"spec": str(spec), "policy": str(policy), "good": str(good)}
    argv = [part.format(**paths) for part in COMMANDS[command]] + ["--in", str(bad)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid ") and "at item 2 " in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "record", ["[[0, NaN]]", "[[-1, 0.5]]", "[[1000000000, 0.5]]", f"[[{10**30}, 0.5]]"]
)
@pytest.mark.parametrize("command", ["solve", "greedy", "screen"])
def test_item_rule_errors_name_file_and_line(tmp_path, capsys, record, command):
    """A NaN value is an error, not a missing property, and a far property
    index is one finding, not a column: each exits 1 naming its line."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"caps": [2]}\n')
    policy = tmp_path / "policy.json"
    policy.write_text('{"t": [0.4]}\n')
    records = ["[[0, 0.5]]", "[[0, 0.9]]", record, "[[0, 0.3]]"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(f'{{"id": {i}, "props": {r}}}\n' for i, r in enumerate(records)))
    paths = {"spec": str(spec), "policy": str(policy)}
    argv = [part.format(**paths) for part in COMMANDS[command]] + ["--in", str(bad)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid ") and f"at item 2 ({bad}:3: " in err


def readme_walkthrough() -> tuple[dict[str, str], list[list[str]]]:
    """The README's CLI walkthrough block: the files its heredocs write, and
    the argv of each ``screenmatch`` line, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "screenmatch " in b)
    files, commands = {}, []
    lines = iter(block.replace("\\\n", " ").splitlines())
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            files[heredoc[1]] = "".join(body + "\n" for body in iter(lines.__next__, "EOF"))
        elif line.startswith("screenmatch "):
            commands.append(shlex.split(line)[1:])
    return files, commands


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    files, commands = readme_walkthrough()
    assert "pipeline" in [argv[0] for argv in commands]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    assert [(argv, run(argv)) for argv in commands] == [(argv, 0) for argv in commands]


def test_readme_flags_exist():
    # a flag the README names, outside its pip lines, is some subcommand's
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for line in text.splitlines() if not line.lstrip().startswith("pip ")]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    known = {flag for p in sub.choices.values() for a in p._actions for flag in a.option_strings}
    assert "--delta" in named and "--no-build-isolation" not in named
    assert sorted(named - known) == []
