"""``psl-classify`` end to end, in-process, over a small seeded history.

``synthesize_history`` is patched to a six-version history drawn from
the world seed, so the CLI's pipeline ``history`` artifact builds in
milliseconds under the same stage fingerprint as the real one.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
import random

import pytest

import repro.analysis.context
import repro.history.synthesis
from repro.analysis.context import world_pipeline
from repro.classify.cli import EXIT_DEGRADED, main
from repro.history.store import VersionStore
from repro.history.synthesis import SynthesisConfig
from repro.psl.rules import Rule


def seeded_history(config: SynthesisConfig) -> VersionStore:
    rng = random.Random(config.seed)
    store = VersionStore()
    date = datetime.date(2016, 1, 1)
    store.commit_rules(date, added=[Rule.parse(n) for n in ("com", "uk", "co.uk")])
    for index in range(1, 6):
        name = f"s{rng.randrange(10**9)}.example.com"
        store.commit_rules(date + datetime.timedelta(days=30 * index),
                           added=[Rule.parse(name)])
    return store


@pytest.fixture(autouse=True)
def small_history(monkeypatch):
    # The world stage looks the synthesizer up in its own module; the
    # defining module is patched too, so no code path in these tests
    # can fall back to synthesizing the full history.
    monkeypatch.setattr(repro.analysis.context, "synthesize_history", seeded_history)
    monkeypatch.setattr(repro.history.synthesis, "synthesize_history", seeded_history)


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestMain:
    def test_happy_path_writes_csv_and_json(self, tmp_path, capsys):
        out_csv = str(tmp_path / "table.csv")
        out_json = str(tmp_path / "stats.json")
        status = run_cli(
            "--records", "2048",
            "--versions", "3",
            "--out", out_csv,
            "--json", out_json,
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "classified 2,048 records across 3 versions" in printed

        with open(out_csv, encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert {"version", "sites", "third_party", "misclassified_hostnames"} <= set(rows[0])

        with open(out_json, encoding="utf-8") as handle:
            stats = json.load(handle)
        assert stats["records"] == 2048
        assert stats["degraded"] is False
        assert stats["peak_rss_mb"] > 0
        assert len(stats["rows"]) == 3
        assert int(rows[-1]["sites"]) == stats["rows"][-1]["sites"]
        store = seeded_history(SynthesisConfig(seed=20230701))
        assert [row["trie_fingerprint"] for row in stats["rows"]] == [
            store.checkout(row["version"]).fingerprint for row in stats["rows"]
        ]

    def test_run_dir_resume_round_trip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        stats_path = str(tmp_path / "stats.json")
        base = [
            "--records", "2048",
            "--versions", "3",
            "--run-dir", run_dir,
            "--quiet",
        ]
        assert run_cli(*base) == 0
        assert run_cli(*base, "--resume", "--json", stats_path) == 0
        with open(stats_path, encoding="utf-8") as handle:
            stats = json.load(handle)
        assert stats["resumed_chunks"] == stats["chunks"] > 0
        assert stats["executed_chunks"] == 0

    @pytest.mark.parametrize("flag", ["--out", "--json"])
    def test_failed_write_leaves_the_previous_file_intact(self, flag, tmp_path, monkeypatch):
        target = tmp_path / "outputs" / "result"
        target.parent.mkdir()
        target.write_text("previous\n", encoding="utf-8")
        replace = os.replace

        def failing_replace(source, destination):
            if os.fspath(destination) == str(target):
                raise OSError(28, "No space left on device")
            return replace(source, destination)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            run_cli("--records", "512", "--versions", "3", flag, str(target), "--quiet")
        assert target.read_text(encoding="utf-8") == "previous\n"
        assert os.listdir(target.parent) == ["result"]  # no temp file left behind

    def test_resume_requires_run_dir(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--resume")
        assert excinfo.value.code == 2

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--workers", "0")
        assert excinfo.value.code == 2

    def test_run_dir_reused_under_another_seed_classifies_that_seed(self, tmp_path):
        def fingerprints(seed: int, run_dir: str) -> list[str]:
            stats = tmp_path / "stats.json"
            status = run_cli(
                "--seed", str(seed), "--run-dir", str(tmp_path / run_dir),
                "--records", "512", "--versions", "4", "--json", str(stats), "--quiet",
            )
            assert status == 0
            return [row["trie_fingerprint"] for row in json.loads(stats.read_text())["rows"]]

        first = fingerprints(1, "shared")
        reused = fingerprints(7, "shared")
        assert reused == fingerprints(7, "fresh")
        assert reused != first

    def test_degraded_exit_code_is_distinct(self):
        assert EXIT_DEGRADED == 3


class TestFrontier:
    def test_frontier_prints_one_row_per_scale(self, tmp_path, capsys, monkeypatch):
        # Each probe is a fresh subprocess, out of the patch's reach: it
        # loads the small history this process caches under its key.
        cache_dir = str(tmp_path / "cache")
        world_pipeline(20230701, cache_dir).build("history")
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        monkeypatch.setenv("PYTHONPATH", src)
        status = run_cli(
            "--cache-dir", cache_dir,
            "--versions", "3",
            "--frontier", "0.001,0.002",
        )
        assert status == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert "records/s" in lines[0]
        assert len(lines) == 3  # header + one row per probed scale
        assert lines[1].lstrip().startswith("0.001")
        assert lines[2].lstrip().startswith("0.002")
