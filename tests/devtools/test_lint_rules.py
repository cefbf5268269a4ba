"""Golden fixtures per rule: one flagging and one passing snippet each.

Every rule gets the pair the framework promises: source that violates
the invariant produces exactly the expected code, and the idiomatic
repo shape passes clean.
"""

from __future__ import annotations

import textwrap

from repro.devtools.rules.schema import write_spec_fingerprint


def codes(result):
    return [v.code for v in result.violations]


# ----------------------------------------------------------------------
# RPR001 — seeded randomness
# ----------------------------------------------------------------------
def test_rpr001_flags_unseeded_default_rng(lint_tree):
    result = lint_tree(
        {"mod.py": "import numpy as np\nrng = np.random.default_rng()\n"},
        select=["RPR001"],
    )
    assert codes(result) == ["RPR001"]
    assert "OS entropy" in result.violations[0].message


def test_rpr001_flags_legacy_global_draws_and_imports(lint_tree):
    source = textwrap.dedent(
        """
        import numpy as np
        from numpy.random import rand

        noise = np.random.normal(0.0, 1.0, 8)
        np.random.seed(0)
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR001"])
    assert codes(result) == ["RPR001"] * 3  # import, normal(), seed()


def test_rpr001_flags_unseeded_bitgen_constructors(lint_tree):
    # The escape hatches a bootstrap resampler could take around the
    # default_rng() check: bare SeedSequence()/PCG64() pull OS entropy,
    # so bootstrap margins would stop reproducing across runs.
    source = textwrap.dedent(
        """
        import numpy as np

        ss = np.random.SeedSequence()
        bg = np.random.PCG64(None)
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR001"])
    assert codes(result) == ["RPR001"] * 2
    assert all("OS entropy" in v.message for v in result.violations)


def test_rpr001_passes_seeded_bitgen_constructors(lint_tree):
    source = textwrap.dedent(
        """
        import numpy as np

        ss = np.random.SeedSequence([12345, 7])
        kw = np.random.SeedSequence(entropy=12345)
        bg = np.random.PCG64(ss)
        rng = np.random.Generator(bg)
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR001"])
    assert result.violations == []


def test_rpr001_passes_seeded_and_threaded_rng(lint_tree):
    source = textwrap.dedent(
        """
        import numpy as np

        def collect(spec, rng: np.random.Generator):
            local = np.random.default_rng(spec.seeds.collect)
            return rng.normal(size=3) + local.normal(size=3)
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR001"])
    assert result.violations == []


# ----------------------------------------------------------------------
# RPR002 — spec schema fingerprint
# ----------------------------------------------------------------------
SPEC_V1 = textwrap.dedent(
    """
    from dataclasses import dataclass

    SPEC_SCHEMA_VERSION = 1


    @dataclass(frozen=True)
    class SeedSpec:
        collect: int = 0
        train: int = 1
    """
)


def test_rpr002_clean_when_fingerprint_matches(lint_tree):
    spec = lint_tree.root / "scenarios" / "spec.py"
    spec.parent.mkdir(parents=True)
    spec.write_text(SPEC_V1, encoding="utf-8")
    write_spec_fingerprint(spec)
    result = lint_tree({}, select=["RPR002"])
    assert result.violations == []


def test_rpr002_flags_field_change_without_version_bump(lint_tree):
    spec = lint_tree.root / "scenarios" / "spec.py"
    spec.parent.mkdir(parents=True)
    spec.write_text(SPEC_V1, encoding="utf-8")
    write_spec_fingerprint(spec)
    # Delete a field but keep SPEC_SCHEMA_VERSION = 1: silent staleness.
    spec.write_text(SPEC_V1.replace("    train: int = 1\n", ""), "utf-8")
    result = lint_tree({}, select=["RPR002"])
    assert codes(result) == ["RPR002"]
    message = result.violations[0].message
    assert "SeedSpec.train removed" in message
    assert "bump SPEC_SCHEMA_VERSION" in message


def test_rpr002_flags_half_finished_bump(lint_tree):
    spec = lint_tree.root / "scenarios" / "spec.py"
    spec.parent.mkdir(parents=True)
    spec.write_text(SPEC_V1, encoding="utf-8")
    write_spec_fingerprint(spec)
    spec.write_text(
        SPEC_V1.replace("SPEC_SCHEMA_VERSION = 1", "SPEC_SCHEMA_VERSION = 2"),
        "utf-8",
    )
    result = lint_tree({}, select=["RPR002"])
    assert codes(result) == ["RPR002"]
    assert "half-finished" in result.violations[0].message


def test_rpr002_bump_plus_regenerate_is_clean(lint_tree):
    spec = lint_tree.root / "scenarios" / "spec.py"
    spec.parent.mkdir(parents=True)
    changed = SPEC_V1.replace(
        "SPEC_SCHEMA_VERSION = 1", "SPEC_SCHEMA_VERSION = 2"
    ).replace("    train: int = 1\n", "")
    spec.write_text(changed, encoding="utf-8")
    write_spec_fingerprint(spec)
    result = lint_tree({}, select=["RPR002"])
    assert result.violations == []


def test_rpr002_flags_missing_fingerprint(lint_tree):
    result = lint_tree(
        {"scenarios/spec.py": SPEC_V1}, select=["RPR002"]
    )
    assert codes(result) == ["RPR002"]
    assert "--update-spec-fingerprint" in result.violations[0].message


# ----------------------------------------------------------------------
# RPR003 — swap atomicity
# ----------------------------------------------------------------------
def test_rpr003_flags_torn_read(lint_tree):
    source = textwrap.dedent(
        """
        class PredictionService:
            def predict(self, q):
                bound = self._state.snapshot.forward(q)
                return bound + self._state.choices[q].offset
        """
    )
    result = lint_tree({"serving/service.py": source}, select=["RPR003"])
    assert codes(result) == ["RPR003"]
    assert "torn generation" in result.violations[0].message


def test_rpr003_flags_unsanctioned_writer_and_mutation(lint_tree):
    source = textwrap.dedent(
        """
        class PredictionService:
            def sneak(self, snapshot):
                self._state = snapshot

            def patch(self):
                state = self._state
                state.generation = 99
        """
    )
    result = lint_tree({"serving/service.py": source}, select=["RPR003"])
    assert sorted(codes(result)) == ["RPR003", "RPR003"]
    messages = " | ".join(v.message for v in result.violations)
    assert "restricted to" in messages
    assert "immutable" in messages


def test_rpr003_passes_single_capture_and_sanctioned_swap(lint_tree):
    source = textwrap.dedent(
        """
        class PredictionService:
            def __init__(self, state):
                self._state = state

            def swap(self, new):
                old = self._state
                self._state = new
                return new.generation

            def predict(self, q):
                state = self._state
                return state.snapshot.forward(q) + state.choices[q]
        """
    )
    result = lint_tree({"serving/service.py": source}, select=["RPR003"])
    assert result.violations == []


def test_rpr003_writers_option_extends_the_sanctioned_set(lint_tree):
    source = textwrap.dedent(
        """
        class PredictionService:
            def refresh(self, new):
                self._state = new
        """
    )
    flagged = lint_tree({"serving/service.py": source}, select=["RPR003"])
    assert codes(flagged) == ["RPR003"]
    allowed = lint_tree(
        {},
        select=["RPR003"],
        rule_options={"rpr003": {"writers": ["__init__", "swap", "refresh"]}},
    )
    assert allowed.violations == []


def test_rpr003_covers_sharded_router_state(lint_tree):
    source = textwrap.dedent(
        """
        class ShardedPredictionService:
            def submit(self, workload):
                shard = self._state.generation % 2
                return self._state.choices[workload], shard
        """
    )
    result = lint_tree({"serving/sharded.py": source}, select=["RPR003"])
    assert codes(result) == ["RPR003"]
    assert "torn generation" in result.violations[0].message


def test_rpr003_flags_router_state_mutation(lint_tree):
    source = textwrap.dedent(
        """
        class ShardedPredictionService:
            def sneak(self):
                state = RouterState(shared=None, choices={}, use_pools=True,
                                    generation=0)
                state.generation = 5
                return state
        """
    )
    result = lint_tree({"serving/sharded.py": source}, select=["RPR003"])
    assert codes(result) == ["RPR003"]
    assert "immutable" in result.violations[0].message


def test_rpr003_passes_compliant_sharded_router(lint_tree):
    source = textwrap.dedent(
        """
        class ShardedPredictionService:
            def __init__(self, state):
                self._state = state

            def swap(self, snapshot, predictor):
                old = self._state
                self._state = RouterState(
                    shared=publish(snapshot),
                    choices=dict(predictor.choices),
                    use_pools=predictor.use_pools,
                    generation=old.generation + 1,
                )
                return old.generation + 1

            def predict_bound(self, w, p):
                state = self._state
                return state.choices, state.generation
        """
    )
    result = lint_tree({"serving/sharded.py": source}, select=["RPR003"])
    assert result.violations == []


# ----------------------------------------------------------------------
# RPR004 — stage purity
# ----------------------------------------------------------------------
def test_rpr004_flags_wall_clock_and_stray_write(lint_tree):
    source = textwrap.dedent(
        """
        import time
        import json
        from pathlib import Path


        def train_stage(spec, dataset):
            started = time.time()
            Path("out.json").write_text(json.dumps({"t": started}))
            return started
        """
    )
    result = lint_tree({"pipeline/stages.py": source}, select=["RPR004"])
    assert codes(result) == ["RPR004", "RPR004"]
    messages = " | ".join(v.message for v in result.violations)
    assert "wall-clock" in messages
    assert "commit protocol" in messages


def test_rpr004_passes_sanctioned_savers_and_store(lint_tree):
    source = textwrap.dedent(
        """
        import json
        from pathlib import Path


        def _save_model(directory, payload):
            (directory / "model.json").write_text(json.dumps(payload))


        class ArtifactStore:
            def commit(self, directory):
                (directory / "MANIFEST").write_text("ok")


        def train_stage(spec, dataset):
            with open("dataset.json") as handle:
                return json.load(handle)
        """
    )
    result = lint_tree({"pipeline/stages.py": source}, select=["RPR004"])
    assert result.violations == []


def test_rpr004_open_for_write_flagged_read_allowed(lint_tree):
    source = textwrap.dedent(
        """
        def stage(spec):
            with open("x", "w") as handle:
                handle.write("boom")
        """
    )
    result = lint_tree({"pipeline/stages.py": source}, select=["RPR004"])
    assert codes(result) == ["RPR004"]


def test_rpr004_covers_sweep_worker_code(lint_tree):
    # Sweep workers produce cached artifacts concurrently: a stray
    # write in the runner races its siblings with no manifest to
    # arbitrate, so the purity rule extends to repro.sweep.
    source = textwrap.dedent(
        """
        import json
        from pathlib import Path


        def _run_task(store_root, spec, stage):
            Path("progress.json").write_text(json.dumps({"stage": stage}))
        """
    )
    result = lint_tree({"sweep/runner.py": source}, select=["RPR004"])
    assert codes(result) == ["RPR004"]
    assert "commit protocol" in result.violations[0].message


def test_rpr004_sweep_wall_clock_flagged(lint_tree):
    source = textwrap.dedent(
        """
        import time


        def _run_task(store_root, spec, stage):
            return time.perf_counter()
        """
    )
    result = lint_tree({"sweep/runner.py": source}, select=["RPR004"])
    assert codes(result) == ["RPR004"]
    assert "wall-clock" in result.violations[0].message


def test_rpr004_sweep_reads_and_store_calls_pass(lint_tree):
    source = textwrap.dedent(
        """
        import json


        def cell_metrics(cell, store):
            with open("metrics.json") as handle:
                return json.load(handle)
        """
    )
    result = lint_tree({"sweep/aggregate.py": source}, select=["RPR004"])
    assert result.violations == []


# ----------------------------------------------------------------------
# RPR005 — frozen spec integrity
# ----------------------------------------------------------------------
def test_rpr005_flags_setattr_outside_post_init(lint_tree):
    source = textwrap.dedent(
        """
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class Spec:
            seed: int = 0

            def reseed(self, seed):
                object.__setattr__(self, "seed", seed)
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR005"])
    assert codes(result) == ["RPR005"]
    assert "'reseed'" in result.violations[0].message


def test_rpr005_passes_post_init_and_non_dataclass(lint_tree):
    source = textwrap.dedent(
        """
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class Spec:
            seed: int = 0

            def __post_init__(self):
                object.__setattr__(self, "seed", int(self.seed))


        class Module:
            def __setattr__(self, name, value):
                object.__setattr__(self, name, value)
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR005"])
    assert result.violations == []


# ----------------------------------------------------------------------
# RPR006 — export consistency
# ----------------------------------------------------------------------
def test_rpr006_flags_phantom_all_entry(lint_tree):
    source = 'def real():\n    pass\n\n__all__ = ["real", "phantom"]\n'
    result = lint_tree({"mod.py": source}, select=["RPR006"])
    assert codes(result) == ["RPR006"]
    assert "'phantom'" in result.violations[0].message


def test_rpr006_flags_broken_reexport(lint_tree):
    result = lint_tree(
        {
            "pkg/__init__.py": "from .mod import present, gone\n",
            "pkg/mod.py": "present = 1\n",
        },
        select=["RPR006"],
    )
    assert codes(result) == ["RPR006"]
    assert "gone" in result.violations[0].message


def test_rpr006_passes_consistent_package(lint_tree):
    result = lint_tree(
        {
            "pkg/__init__.py": (
                "from .mod import present\n"
                "from . import mod\n"
                '__all__ = ["present", "mod"]\n'
            ),
            "pkg/mod.py": 'present = 1\n__all__ = ["present"]\n',
        },
        select=["RPR006"],
    )
    assert result.violations == []


def test_rpr006_conditional_bindings_count(lint_tree):
    source = textwrap.dedent(
        """
        try:
            import tomllib as toml_parser
        except ModuleNotFoundError:
            toml_parser = None

        __all__ = ["toml_parser"]
        """
    )
    result = lint_tree({"mod.py": source}, select=["RPR006"])
    assert result.violations == []


# ----------------------------------------------------------------------
# RPR007 — tape discipline
# ----------------------------------------------------------------------
def test_rpr007_flags_grad_building_call_on_serving_path(lint_tree):
    source = textwrap.dedent(
        """
        from ..nn import Tensor


        def embed(features):
            return Tensor(features)
        """
    )
    result = lint_tree({"serving/embed.py": source}, select=["RPR007"])
    assert codes(result) == ["RPR007"]
    assert "no_grad" in result.violations[0].message


def test_rpr007_flags_tape_entry_points(lint_tree):
    source = textwrap.dedent(
        """
        def evaluate(model, batch):
            return model.compute_embeddings(batch)
        """
    )
    result = lint_tree({"eval/metrics.py": source}, select=["RPR007"])
    assert codes(result) == ["RPR007"]


def test_rpr007_passes_inside_no_grad_and_off_path(lint_tree):
    serving = textwrap.dedent(
        """
        from ..nn import Tensor, no_grad


        def embed(features):
            with no_grad():
                return Tensor(features)
        """
    )
    training = textwrap.dedent(
        """
        from ..nn import Tensor


        def loss(model, batch):
            return model.compute_embeddings(Tensor(batch))
        """
    )
    result = lint_tree(
        {"serving/embed.py": serving, "core/trainer.py": training},
        select=["RPR007"],
    )
    assert result.violations == []


def test_rpr001_flags_unseeded_rng_in_worker_module(lint_tree):
    # Sweep workers run the train stage from the spec's seed streams; a
    # fresh OS-entropy generator in a worker task would silently break
    # run-to-run determinism.
    source = textwrap.dedent(
        """
        import numpy as np


        def _run_task(store_root, spec, stage):
            rng = np.random.default_rng()
            return rng.normal()
        """
    )
    result = lint_tree({"sweep/runner.py": source}, select=["RPR001"])
    assert codes(result) == ["RPR001"]
