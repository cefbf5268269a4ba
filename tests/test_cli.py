"""CLI workflows over the artifact store: pipeline → predict / serve /
bench-serve, plus the lifecycle, schedule, sweep and store commands."""

import shlex

import pytest

from repro.cli import _spec, build_parser, main
from repro.pipeline import ArtifactStore

#: The smoke scenario served at two ε; the serving tests read the one
#: store the module fixture trains with these items.
SERVED = ["--scenario", "smoke", "--set", "epsilons=[0.1,0.05]"]


def _hint(err: str) -> list[str]:
    """The training command a missing-snapshot error prints, as argv."""
    line = next(
        line.strip() for line in err.splitlines()
        if line.strip().startswith("repro pipeline run")
    )
    return shlex.split(line)[1:]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Train the served scenario once through the CLI."""
    root = str(tmp_path_factory.mktemp("cli") / "store")
    assert main(["pipeline", "run", "--store", root, *SERVED]) == 0
    return root


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_set_repeats_on_every_model_backed_command(self):
        for command in (
            ["pipeline", "run"], ["lifecycle", "run"], ["schedule", "run"],
            ["predict", "--workload", "0", "--platform", "0"], ["serve"],
            ["bench-serve"],
        ):
            args = build_parser().parse_args(
                [*command, "--set", "steps=40", "--set", "hidden=[64,32]"]
            )
            assert args.overrides == ["steps=40", "hidden=[64,32]"], command
            assert args.store == ".repro-cache", command

    def test_collect_defaults(self):
        spec = _spec(build_parser().parse_args(["pipeline", "run"]))
        assert spec.collection.sets_per_degree == 250
        assert spec.seeds.collect == 0

    def test_train_hidden_list(self):
        args = build_parser().parse_args(
            ["pipeline", "run", "--set", "hidden=[64,32]"]
        )
        assert _spec(args).model.hidden == (64, 32)


class TestPipeline:
    def test_collect_creates_loadable_dataset(self, store):
        """The store keeps the dataset and model files in their formats."""
        from repro.cluster import RuntimeDataset
        from repro.core import load_model
        from repro.pipeline import pipeline_stage_keys
        from repro.scenarios import get_scenario

        keys = pipeline_stage_keys(get_scenario("smoke"))
        artifacts = ArtifactStore(store)
        ds = RuntimeDataset.load(
            artifacts.read_dir("collect", keys["collect"]) / "dataset.npz"
        )
        assert ds.n_observations > 0
        model = load_model(
            artifacts.read_dir("train", keys["train"]) / "model.npz"
        )
        assert model.n_workloads == ds.n_workloads

    def test_evaluate_runs(self, store, capsys):
        """A warm run prints every test metric without recomputing."""
        assert main(["pipeline", "run", "--store", store, *SERVED,
                     "--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "mape_isolation" in out
        assert "mape_interference" in out
        assert "eps=0.1: coverage" in out
        assert "eps=0.05: coverage" in out
        assert "0 stage(s) run, 6 cached" in out

    def test_predict_outputs_seconds(self, store, capsys):
        assert main([
            "predict", "--store", store, *SERVED,
            "--workload", "0", "--platform", "1", "--interferers", "2", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "predicted runtime" in out

    def test_predict_range_validation(self, store):
        assert main([
            "predict", "--store", store, *SERVED,
            "--workload", "9999", "--platform", "0",
        ]) == 2
        assert main([
            "predict", "--store", store, *SERVED,
            "--workload", "0", "--platform", "0",
            "--interferers", "1", "2", "3", "4",
        ]) == 2

    def test_quantile_train_and_conformal_evaluate(self, tmp_path, capsys):
        argv = ["pipeline", "run", "--scenario", "smoke",
                "--store", str(tmp_path / "cache"),
                "--set", "quantiles=[0.5,0.8,0.9,0.95]"]
        assert main(argv) == 0
        assert "6 stage(s) run, 0 cached" in capsys.readouterr().out
        # The list-valued knob reloads from the store.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "0 stage(s) run, 6 cached" in out
        assert "eps=0.1: coverage" in out


class TestServing:
    def test_serve_answers_query_file(self, tmp_path, store, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("0 1\n2 3 4 5\n# comment\n\n1 0 2\n")
        assert main([
            "serve", "--store", store, *SERVED, "--queries", str(queries),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("bound[eps=0.1]") == 3
        assert out.count("bound[eps=0.05]") == 3
        assert "served 3 queries" in out
        # Cache/swap observability counters ride along on every serve.
        assert "hit rate" in out
        assert "swaps: 0" in out
        assert "generation 0" in out

    def test_sharded_serve_matches_in_process(self, tmp_path, store,
                                              capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("0 1\n3 5 1 2\n3 5 2 1\n")
        argv = ["serve", "--store", store, *SERVED, "--queries", str(queries)]
        assert main(argv) == 0
        single = capsys.readouterr().out
        assert main(argv + ["--shards", "2", "--start-method", "fork"]) == 0
        sharded = capsys.readouterr().out
        assert "across 2 shard(s)" in sharded
        assert "leaked 0" in sharded
        lines = [
            line for line in single.splitlines()
            if line.startswith("workload=")
        ]
        assert len(lines) == 3 and lines[1] == lines[2]
        assert lines == [
            line for line in sharded.splitlines()
            if line.startswith("workload=")
        ]

    def test_serve_rejects_out_of_range_query(self, tmp_path, store,
                                              capsys):
        queries = tmp_path / "bad.txt"
        queries.write_text("9999 0\n")
        assert main([
            "serve", "--store", store, *SERVED, "--queries", str(queries),
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_rejects_out_of_range_co_runner(self, tmp_path, store,
                                                  capsys):
        queries = tmp_path / "co.txt"
        queries.write_text("0 1 99999\n")
        assert main([
            "serve", "--store", store, *SERVED, "--queries", str(queries),
        ]) == 2
        assert "interferer 99999 out of range" in capsys.readouterr().err

    def test_serve_rejects_negative_co_runner(self, tmp_path, store,
                                              capsys):
        queries = tmp_path / "neg.txt"
        queries.write_text("0 1 -2\n")
        assert main([
            "serve", "--store", store, *SERVED, "--queries", str(queries),
        ]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_serve_rejects_invalid_epsilon(self, store, capsys):
        assert main([
            "serve", "--store", store, "--scenario", "smoke",
            "--set", "epsilons=[0]",
        ]) == 2
        assert "epsilons must lie in (0, 1)" in capsys.readouterr().err

    def test_serve_rejects_missing_query_file(self, store, capsys):
        assert main([
            "serve", "--store", store, *SERVED,
            "--queries", "/nonexistent.txt",
        ]) == 2
        assert "cannot read queries" in capsys.readouterr().err

    def test_bench_serve_reports_throughput(self, store, capsys):
        assert main([
            "bench-serve", "--store", store, *SERVED,
            "--n-queries", "500", "--cold-queries", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "snapshot batch" in out
        assert "cached (LRU)" in out
        assert "deviate" not in out

    def test_missing_snapshot_hint_trains_the_served_spec(self, tmp_path,
                                                         capsys):
        """Without a trained snapshot the serving commands exit 2 and
        train nothing; the printed hint, run verbatim, trains exactly the
        spec they asked for."""
        root = str(tmp_path / "empty")
        queries = tmp_path / "queries.txt"
        queries.write_text("0 1 2\n")
        scenario = ["--store", root, "--scenario", "smoke",
                    "--set", "steps=20", "--set", "epsilons=[0.1,0.05]"]
        for argv in (
            ["predict", *scenario, "--workload", "0", "--platform", "1"],
            ["bench-serve", *scenario, "--n-queries", "50"],
            ["bench-serve", *scenario, "--open-loop"],
            ["serve", *scenario, "--queries", str(queries)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "no trained snapshot" in err
            assert ArtifactStore(root).entries() == []
        assert main(_hint(err)) == 0
        capsys.readouterr()
        assert main(["serve", *scenario, "--queries", str(queries)]) == 0
        assert "served 1 queries" in capsys.readouterr().out


class TestScenarioCommands:
    def test_scenarios_list_names_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper", "fleet-large", "cold-start-workloads", "smoke"):
            assert name in out

    def test_scenarios_list_verbose_shows_knobs(self, capsys):
        assert main(["scenarios", "list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "hash=" in out
        assert "fleet=" in out


class TestPipelineCommand:
    def test_cold_then_warm_run_through_cache(self, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["pipeline", "run", "--scenario", "smoke",
                "--store", str(store)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 stage(s) run, 0 cached" in out
        # Warm: every stage must be a cache hit.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "0 stage(s) run, 6 cached" in out
        assert "coverage" in out

    def test_assert_warm_fails_on_cold_run(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"), "--assert-warm",
        ]) == 1
        assert "expected a fully-warm run" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--scenario", "not-a-scenario",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_scale_overrides_apply(self, tmp_path, capsys):
        assert main([
            "pipeline", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"),
            "--set", "n_workloads=12", "--set", "steps=20",
        ]) == 0
        out = capsys.readouterr().out
        assert "6 stage(s) run" in out

    @pytest.mark.parametrize("item, message", [
        ("steps", "--set needs KEY=VALUE, got 'steps'"),
        ("warp=9", "unknown scenario knob 'warp'"),
        ("steps=abc", "not supported"),
        ("hidden=8", "hidden must be a tuple of positive ints"),
        ("hidden=[0]", "hidden must be a tuple of positive ints"),
    ])
    def test_bad_set_item_rejected(self, tmp_path, capsys, item, message):
        root = tmp_path / "cache"
        assert main([
            "pipeline", "run", "--scenario", "smoke", "--store", str(root),
            "--set", item,
        ]) == 2
        assert message in capsys.readouterr().err
        assert not root.exists()


#: drifting-fleet scaled to CLI-test size; every lifecycle test shares it.
LIFECYCLE_SCALE = [
    "--set", "n_workloads=16", "--set", "n_devices=4", "--set", "n_runtimes=3",
    "--set", "sets_per_degree=8", "--set", "steps=60",
]
LIFECYCLE_DRIFT = [
    "--set", "events_per_phase=300", "--set", "chunk=150",
    "--set", "update_steps=20",
]


class TestLifecycleCommand:
    def test_missing_trained_snapshot_is_a_clear_error(self, tmp_path,
                                                       capsys):
        """Satellite: no traceback, a message naming the fix."""
        assert main([
            "lifecycle", "run", "--scenario", "drifting-fleet",
            "--store", str(tmp_path / "empty"), *LIFECYCLE_SCALE,
        ]) == 2
        err = capsys.readouterr().err
        assert "no trained snapshot" in err
        assert "repro pipeline run --scenario drifting-fleet" in err

    def test_driftless_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "lifecycle", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "no drift stream" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "lifecycle", "run", "--scenario", "nope",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_replay_after_pipeline_reports_coverage(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        argv = ["lifecycle", "run", "--scenario", "drifting-fleet",
                "--store", store, *LIFECYCLE_SCALE, *LIFECYCLE_DRIFT]
        # No trained snapshot yet: the printed hint, run verbatim,
        # trains the prefix this replay builds on.
        assert main(argv) == 2
        assert main(_hint(capsys.readouterr().err)) == 0
        capsys.readouterr()
        # Cold lifecycle: the three lifecycle stages execute...
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run     ingest" in out
        assert "run     update" in out
        assert "run     recalibrate" in out
        assert "coverage over time" in out
        assert "atomic swap(s)" in out
        # ...and a warm replay reuses every checkpoint.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "cached  ingest" in out
        assert "cached  update" in out
        assert "cached  recalibrate" in out

    def test_assert_warm_fails_on_cold_lifecycle(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main([
            "pipeline", "run", "--scenario", "drifting-fleet",
            "--store", store, *LIFECYCLE_SCALE,
        ]) == 0
        capsys.readouterr()
        assert main([
            "lifecycle", "run", "--scenario", "drifting-fleet",
            "--store", store, *LIFECYCLE_SCALE, *LIFECYCLE_DRIFT,
            "--assert-warm",
        ]) == 1
        assert "fully-warm lifecycle" in capsys.readouterr().err


#: schedule scenario scaled to CLI-test size; every schedule test shares it.
SCHEDULE_SCALE = [
    "--set", "n_workloads=14", "--set", "n_devices=4", "--set", "n_runtimes=3",
    "--set", "sets_per_degree=8", "--set", "steps=60",
]
SCHEDULE_SIM = [
    "--set", "epochs=3", "--set", "jobs_per_epoch=12",
    "--set", "warmup_events=80",
]


class TestScheduleCommand:
    def test_missing_trained_snapshot_is_a_clear_error(self, tmp_path,
                                                       capsys):
        assert main([
            "schedule", "run", "--scenario", "schedule",
            "--store", str(tmp_path / "empty"), *SCHEDULE_SCALE,
        ]) == 2
        err = capsys.readouterr().err
        assert "no trained snapshot" in err
        assert "repro pipeline run --scenario schedule" in err

    def test_scheduling_free_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "schedule", "run", "--scenario", "smoke",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "no scheduling simulation" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        assert main([
            "schedule", "run", "--scenario", "nope",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_policy_override_rejected(self, tmp_path, capsys):
        assert main([
            "schedule", "run", "--scenario", "schedule",
            "--store", str(tmp_path / "cache"), "--set", "policy=mystery",
        ]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_simulation_after_pipeline_reports_violations(self, tmp_path,
                                                          capsys):
        store = str(tmp_path / "cache")
        argv = ["schedule", "run", "--scenario", "schedule",
                "--store", store, *SCHEDULE_SCALE, *SCHEDULE_SIM]
        # No trained snapshot yet: the printed hint, run verbatim,
        # trains the prefix this simulation builds on.
        assert main(argv) == 2
        assert main(_hint(capsys.readouterr().err)) == 0
        capsys.readouterr()
        # Cold: the simulate stage executes and the table shows up...
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "run     simulate" in out
        assert "budget-viol" in out
        assert "static-viol" in out
        assert "placement rate" in out
        assert "decision latency" in out
        # ...and a warm re-run serves the cached report.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "cached  simulate" in out

    def test_assert_warm_fails_on_cold_simulation(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        assert main([
            "pipeline", "run", "--scenario", "schedule",
            "--store", store, *SCHEDULE_SCALE,
        ]) == 0
        capsys.readouterr()
        assert main([
            "schedule", "run", "--scenario", "schedule",
            "--store", store, *SCHEDULE_SCALE, *SCHEDULE_SIM,
            "--assert-warm",
        ]) == 1
        assert "fully-warm schedule" in capsys.readouterr().err


class TestSweepCLI:
    def test_cold_then_warm_sweep(self, tmp_path, capsys):
        store = str(tmp_path / "cache")
        argv = ["sweep", "run", "--scenarios", "smoke",
                "--seeds", "0", "1", "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 cell(s), 9 unique task(s)" in out
        assert "1 shared-ancestor run(s) deduped" in out
        assert "9 task(s) run, 0 cached" in out
        assert "collect=1" in out  # exactly-once ledger
        assert "coverage@0.1" in out  # aggregate table rendered
        # Warm re-run executes nothing and satisfies --assert-warm.
        assert main(argv + ["--assert-warm"]) == 0
        out = capsys.readouterr().out
        assert "0 task(s) run, 9 cached" in out

    def test_assert_warm_fails_cold(self, tmp_path, capsys):
        assert main([
            "sweep", "run", "--scenarios", "smoke",
            "--store", str(tmp_path / "cache"), "--assert-warm",
        ]) == 1
        assert "fully-warm sweep" in capsys.readouterr().err

    def test_grid_file_with_set_overrides(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text('{"scenarios": ["smoke"], "stop_after": "collect"}')
        assert main([
            "sweep", "run", "--grid", str(grid),
            "--store", str(tmp_path / "cache"),
            "--set", "sets_per_degree=4",
        ]) == 0
        out = capsys.readouterr().out
        assert "1 cell(s), 1 unique task(s)" in out
        assert "1 task(s) run" in out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "sweep", "run", "--scenarios", "mystery",
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_unreadable_grid_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "sweep", "run", "--grid", str(tmp_path / "nope.json"),
            "--store", str(tmp_path / "cache"),
        ]) == 2
        assert "cannot read grid" in capsys.readouterr().err


class TestStoreCLI:
    def test_ls_and_gc(self, tmp_path, capsys):
        from repro.pipeline import stage_key

        store_root = str(tmp_path / "cache")
        assert main([
            "sweep", "run", "--scenarios", "smoke",
            "--stop-after", "collect", "--store", store_root,
        ]) == 0
        # Leave a partial dir behind, as a crashed run would.
        ArtifactStore(store_root).write_dir(
            "train", stage_key("train", "crashed", ())
        )
        capsys.readouterr()
        assert main(["store", "ls", "--store", store_root]) == 0
        out = capsys.readouterr().out
        assert "collect" in out and "committed" in out
        assert "PARTIAL" in out
        assert "1 committed artifact(s), 1 partial" in out
        assert main(["store", "gc", "--store", store_root]) == 0
        assert "1 partial artifact dir(s) pruned" in capsys.readouterr().out
        assert main(["store", "ls", "--store", store_root]) == 0
        assert "0 partial" in capsys.readouterr().out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "none")]) == 0
        assert "empty" in capsys.readouterr().out
