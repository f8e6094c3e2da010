"""Tests for the content-addressed artifact DAG (repro.pipeline)."""

from __future__ import annotations

import dataclasses
import datetime
import enum
import json
import os
import tracemalloc

import pytest

from repro.fingerprint import canonical_json, fingerprint
from repro.pipeline import Artifact, ArtifactStore, Pipeline, PipelineReport, Stage
from repro.runtime import CheckpointStore, MISSING


@dataclasses.dataclass(frozen=True)
class _Config:
    seed: int = 1
    scale: float = 0.5


@dataclasses.dataclass(frozen=True)
class _OtherConfig:
    seed: int = 1
    scale: float = 0.5


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class TestFingerprint:
    def test_dict_key_order_is_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_set_iteration_order_is_irrelevant(self):
        left = {"items": {"zebra", "apple", "mango"}}
        right = {"items": {"mango", "zebra", "apple"}}
        assert fingerprint(left) == fingerprint(right)

    def test_frozenset_matches_set(self):
        assert fingerprint(frozenset({1, 2})) == fingerprint({1, 2})

    def test_tuple_and_list_are_both_arrays(self):
        assert fingerprint((1, 2, 3)) == fingerprint([1, 2, 3])

    def test_dataclass_fields_and_type_name_key(self):
        assert fingerprint(_Config()) == fingerprint(_Config(seed=1, scale=0.5))
        assert fingerprint(_Config()) != fingerprint(_Config(seed=2))
        # Same field values, different type: different identity.
        assert fingerprint(_Config()) != fingerprint(_OtherConfig())

    def test_dates_enums_bytes(self):
        material = {
            "date": datetime.date(2023, 7, 1),
            "when": datetime.datetime(2023, 7, 1, 12, 0),
            "color": _Color.RED,
            "blob": b"\x00\xff",
        }
        assert fingerprint(material) == fingerprint(dict(material))
        assert "2023-07-01" in canonical_json(material)

    def test_fingerprint_is_never_the_raw_string(self):
        assert fingerprint("abc") != "abc"
        assert len(fingerprint("abc")) == 64

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_distinct_values_distinct_fingerprints(self):
        assert fingerprint({"v": 1}) != fingerprint({"v": "1"})
        assert fingerprint([]) != fingerprint({})


class TestArtifactStore:
    def test_memory_roundtrip(self):
        store = ArtifactStore()
        artifact = store.put("s", "fp", {"x": 1})
        assert artifact.path is None and artifact.digest == ""
        value, found, source = store.get("s", "fp")
        assert value == {"x": 1} and source == "memory"

    def test_disk_roundtrip_across_store_instances(self, tmp_path):
        first = ArtifactStore(str(tmp_path))
        artifact = first.put("stage", "f" * 64, [1, 2, 3])
        assert artifact.persisted and artifact.nbytes > 0
        second = ArtifactStore(str(tmp_path))
        value, loaded, source = second.get("stage", "f" * 64)
        assert value == [1, 2, 3] and source == "disk"
        assert loaded.digest == artifact.digest
        # Now resident: third read is a memory hit.
        assert second.get("stage", "f" * 64)[2] == "memory"

    def test_truncated_payload_reads_as_absent(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("stage", "a" * 64, list(range(100)))
        with open(artifact.path, "rb") as handle:
            payload = handle.read()
        with open(artifact.path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        assert ArtifactStore(str(tmp_path)).get("stage", "a" * 64) is None

    def test_bitflip_fails_digest_check(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("stage", "b" * 64, list(range(100)))
        with open(artifact.path, "r+b") as handle:
            handle.seek(10)
            byte = handle.read(1)
            handle.seek(10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert ArtifactStore(str(tmp_path)).get("stage", "b" * 64) is None

    def test_missing_meta_reads_as_absent(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("stage", "c" * 64, "value")
        os.unlink(artifact.path.replace(".pkl", ".json"))
        assert ArtifactStore(str(tmp_path)).get("stage", "c" * 64) is None

    def test_persist_false_stays_memory_only(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("stage", "d" * 64, "degraded", persist=False)
        assert not artifact.persisted
        assert store.get("stage", "d" * 64)[2] == "memory"
        assert ArtifactStore(str(tmp_path)).get("stage", "d" * 64) is None


class TestRawArtifacts:
    """The mmap-able artifact kind: bytes stored verbatim, no pickle."""

    def test_raw_roundtrip_across_store_instances(self, tmp_path):
        payload = bytes(range(256)) * 4
        first = ArtifactStore(str(tmp_path))
        artifact = first.put("packed", "a" * 64, payload, raw=True)
        assert artifact.path.endswith(".bin")
        assert artifact.nbytes == len(payload)
        second = ArtifactStore(str(tmp_path))
        value, loaded, source = second.get("packed", "a" * 64)
        assert value == payload and isinstance(value, bytes)
        assert source == "disk" and loaded.digest == artifact.digest

    def test_raw_payload_is_the_bytes_verbatim(self, tmp_path):
        payload = b"PSLPAK1\0 not a pickle"
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("packed", "b" * 64, payload, raw=True)
        with open(artifact.path, "rb") as handle:
            assert handle.read() == payload

    def test_raw_rejects_non_bytes(self):
        store = ArtifactStore()
        with pytest.raises(TypeError, match="raw artifacts must be bytes"):
            store.put("packed", "c" * 64, {"not": "bytes"}, raw=True)

    def test_payload_path_returns_verified_file(self, tmp_path):
        payload = b"x" * 1024
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("packed", "d" * 64, payload, raw=True)
        path = ArtifactStore(str(tmp_path)).payload_path("packed", "d" * 64)
        assert path == artifact.path

    def test_payload_path_refuses_corruption(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("packed", "e" * 64, b"y" * 1024, raw=True)
        with open(artifact.path, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\xff")
        assert ArtifactStore(str(tmp_path)).payload_path("packed", "e" * 64) is None
        assert ArtifactStore(str(tmp_path)).get("packed", "e" * 64) is None

    def test_payload_path_streams_the_digest(self, tmp_path):
        size = 32 << 20
        ArtifactStore(str(tmp_path)).put("packed", "9" * 64, b"\x5a" * size, raw=True)
        fresh = ArtifactStore(str(tmp_path))
        tracemalloc.start()
        try:
            path = fresh.payload_path("packed", "9" * 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path is not None and os.path.getsize(path) == size
        assert peak < size // 16
        assert fresh.peek("packed", "9" * 64) is None

    def test_payload_path_absent_for_memory_only_store(self):
        store = ArtifactStore()
        store.put("packed", "f" * 64, b"z", raw=True)
        assert store.payload_path("packed", "f" * 64) is None

    def test_payload_path_works_for_pickle_artifacts_too(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        artifact = store.put("stage", "1" * 64, [1, 2, 3])
        path = store.payload_path("stage", "1" * 64)
        assert path == artifact.path and path.endswith(".pkl")

    def test_raw_stage_flows_through_the_pipeline(self, tmp_path):
        stage = Stage(
            name="blob", build=lambda i, c: b"\x00\x01payload", raw=True
        )
        pipeline = Pipeline([stage], store=ArtifactStore(str(tmp_path)))
        assert pipeline.build("blob") == b"\x00\x01payload"
        path = pipeline.path("blob")
        assert path.endswith(".bin")
        # A fresh process loads the bytes verbatim off disk.
        fresh = Pipeline(
            [dataclasses.replace(stage)], store=ArtifactStore(str(tmp_path))
        )
        assert fresh.build("blob") == b"\x00\x01payload"
        assert fresh.report.count("disk") == 1

    def test_path_builds_once_and_warm_runs_never_load_the_bytes(self, tmp_path):
        calls = []

        def build(inputs, ctx):
            calls.append(ctx.fingerprint)
            return b"PSLPAK1\0" + b"\x01" * 4096

        stage = Stage(name="blob", build=build, raw=True)
        cold = Pipeline([stage], store=ArtifactStore(str(tmp_path)))
        path = cold.path("blob")
        assert path is not None and path.endswith(".bin") and len(calls) == 1
        warm = Pipeline([stage], store=ArtifactStore(str(tmp_path)))
        assert warm.path("blob") == path and len(calls) == 1
        assert warm.report.count("disk") == 1 and warm.report.executions[0].nbytes == 4104
        assert warm.peek("blob") is None  # verified by streaming, never loaded
        # A corrupt payload is rebuilt, never handed out.
        with open(path, "r+b") as handle:
            handle.seek(100)
            handle.write(b"\xff")
        again = Pipeline([stage], store=ArtifactStore(str(tmp_path)))
        assert again.path("blob") == path and len(calls) == 2
        assert again.report.computed_stages() == ("blob",)

    def test_path_is_none_without_a_disk_layer(self):
        stage = Stage(name="blob", build=lambda i, c: b"bytes", raw=True)
        pipeline = Pipeline([stage], store=ArtifactStore())
        assert pipeline.path("blob") is None
        assert pipeline.build("blob") == b"bytes"


def _diamond(counters, versions=None, params=None):
    """a -> (b, c) -> d with per-stage build counters."""
    versions = versions or {}
    params = params or {}

    def make(name, upstream):
        def build(inputs, ctx):
            counters[name] = counters.get(name, 0) + 1
            return {"stage": name, "inputs": dict(inputs)}

        return Stage(
            name=name,
            build=build,
            upstream=upstream,
            version=versions.get(name, "1"),
            params=params.get(name, {}),
        )

    return [
        make("a", ()),
        make("b", ("a",)),
        make("c", ("a",)),
        make("d", ("b", "c")),
    ]


class TestPipeline:
    def test_builds_each_stage_once_per_process(self, tmp_path):
        counters: dict[str, int] = {}
        pipeline = Pipeline(_diamond(counters), store=ArtifactStore(str(tmp_path)))
        pipeline.build("d")
        pipeline.build("d")
        pipeline.build("b")
        assert counters == {"a": 1, "b": 1, "c": 1, "d": 1}
        assert pipeline.report.misses == 4
        # a revisited via c, plus the two explicit re-builds.
        assert pipeline.report.count("memory") == 3

    def test_warm_store_loads_without_recompute(self, tmp_path):
        counters: dict[str, int] = {}
        Pipeline(_diamond(counters), store=ArtifactStore(str(tmp_path))).build("d")
        warm_counters: dict[str, int] = {}
        warm = Pipeline(_diamond(warm_counters), store=ArtifactStore(str(tmp_path)))
        warm.build("d")
        assert warm_counters == {}
        assert warm.report.misses == 0 and warm.report.count("disk") == 1

    def test_version_bump_invalidates_exactly_the_downstream_cone(self, tmp_path):
        counters: dict[str, int] = {}
        Pipeline(_diamond(counters), store=ArtifactStore(str(tmp_path))).build("d")
        bumped: dict[str, int] = {}
        pipeline = Pipeline(
            _diamond(bumped, versions={"b": "2"}), store=ArtifactStore(str(tmp_path))
        )
        pipeline.build("d")
        # b and its downstream cone (d) recompute; a and c load.
        assert bumped == {"b": 1, "d": 1}

    def test_param_change_invalidates_exactly_the_downstream_cone(self, tmp_path):
        counters: dict[str, int] = {}
        Pipeline(_diamond(counters), store=ArtifactStore(str(tmp_path))).build("d")
        changed: dict[str, int] = {}
        pipeline = Pipeline(
            _diamond(changed, params={"c": {"scale": 2}}),
            store=ArtifactStore(str(tmp_path)),
        )
        pipeline.build("d")
        assert changed == {"c": 1, "d": 1}

    def test_corrupt_artifact_is_recomputed_not_trusted(self, tmp_path):
        counters: dict[str, int] = {}
        pipeline = Pipeline(_diamond(counters), store=ArtifactStore(str(tmp_path)))
        pipeline.build("d")
        # Corrupt b's payload on disk; a fresh process must recompute
        # b (and only b — d's artifact is keyed by fingerprints, which
        # did not change).
        path = pipeline.store.payload_path("b", pipeline.fingerprint_of("b"))
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        again: dict[str, int] = {}
        fresh = Pipeline(_diamond(again), store=ArtifactStore(str(tmp_path)))
        fresh.build("d")  # d itself loads clean
        assert again == {}
        fresh.build("b")
        assert again == {"b": 1}

    def test_unknown_upstream_rejected(self):
        with pytest.raises(ValueError, match="unknown upstream"):
            Pipeline([Stage(name="x", build=lambda i, c: 1, upstream=("ghost",))])

    def test_cycle_rejected(self):
        stages = [
            Stage(name="x", build=lambda i, c: 1, upstream=("y",)),
            Stage(name="y", build=lambda i, c: 1, upstream=("x",)),
        ]
        with pytest.raises(ValueError, match="cycle"):
            Pipeline(stages)

    def test_duplicate_name_rejected(self):
        stages = [
            Stage(name="x", build=lambda i, c: 1),
            Stage(name="x", build=lambda i, c: 2),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            Pipeline(stages)

    def test_cache_false_always_recomputes(self, tmp_path):
        calls = {"n": 0}

        def build(inputs, ctx):
            calls["n"] += 1
            return calls["n"]

        pipeline = Pipeline(
            [Stage(name="effect", build=build, cache=False)],
            store=ArtifactStore(str(tmp_path)),
        )
        assert pipeline.build("effect") == 1
        assert pipeline.build("effect") == 2

    def test_persist_gate_blocks_disk_but_not_memory(self, tmp_path):
        stage = Stage(
            name="sweepish",
            build=lambda i, c: {"degraded": True},
            persist=lambda value: not value["degraded"],
        )
        pipeline = Pipeline([stage], store=ArtifactStore(str(tmp_path)))
        pipeline.build("sweepish")
        # Memory-cached within the process...
        assert pipeline.report.misses == 1
        pipeline.build("sweepish")
        assert pipeline.report.count("memory") == 1
        # ...but never trusted by a later process.
        fresh = Pipeline(
            [dataclasses.replace(stage)], store=ArtifactStore(str(tmp_path))
        )
        fresh.build("sweepish")
        assert fresh.report.misses == 1

    def test_builder_sees_its_own_fingerprint(self):
        seen = {}

        def build(inputs, ctx):
            seen["fingerprint"] = ctx.fingerprint
            return None

        pipeline = Pipeline([Stage(name="self-aware", build=build)])
        pipeline.build("self-aware")
        assert seen["fingerprint"] == pipeline.fingerprint_of("self-aware")

    def test_renamed_stage_rekeys_inputs_for_the_builder(self):
        def build(inputs, ctx):
            return inputs["base"] + 1

        stages = [
            Stage(name="base@other", build=lambda i, c: 41),
            Stage(name="top", build=build, upstream=("base",)).renamed(
                "top@other", {"base": "base@other"}
            ),
        ]
        assert Pipeline(stages).build("top@other") == 42

    def test_report_render_and_json(self, tmp_path):
        counters: dict[str, int] = {}
        pipeline = Pipeline(_diamond(counters), store=ArtifactStore(str(tmp_path)))
        pipeline.build("d")
        text = pipeline.report.render()
        assert "computed" in text and "fingerprint" in text
        payload = pipeline.report.to_json()
        assert payload["misses"] == 4 and len(payload["stages"]) == 5
        path = pipeline.report.save(str(tmp_path / "report.json"))
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["misses"] == 4


class TestUnifiedKeying:
    """Sweep checkpoints and pipeline artifacts share one keying scheme."""

    def test_reconcile_accepts_material_and_digest_equivalently(self, tmp_path):
        material = {"universe": "abc", "chunks": [4, 2], "flags": {"sites": True}}
        store = CheckpointStore(str(tmp_path))
        store.reconcile(material)
        store.save("chunk-0", {"ok": 1})
        # Re-binding with the equivalent digest string keeps the spills.
        store.reconcile(fingerprint(material))
        assert store.load("chunk-0") == {"ok": 1}
        # A different material wipes them.
        store.reconcile({"universe": "other"})
        assert store.load("chunk-0") is MISSING

    def test_artifact_and_checkpoint_agree_on_material(self):
        material = {"stage": "sweep", "params": {"workers": 4}}
        assert fingerprint(material) == fingerprint(dict(reversed(material.items())))
