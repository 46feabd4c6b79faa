"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the repository root:

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_picrf()

import workloads  # noqa: E402
from picrf.corpus import SynthConfig, generate_synthetic, read_conll  # noqa: E402

SMOKE = {
    "longdist": workloads.LongDist(train_size=300, test_size=200, pool=2),
    "ordercost": workloads.OrderCost(sentences=100, second_prefix=10, tag_model_size=100),
    "lexical": workloads.Lexical(
        train_size=60, test_size=30, pool=2, max_iterations=3, vocab=(500, 50, 50)
    ),
}
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    """Result of a smoke run of every workload, untraced and traced."""
    out = {}
    for name in SMOKE:
        for trace in (0, 1):
            argv = ["--workload", name, "--seconds", "0", "--trace", str(trace)]
            out[name, trace], _ = run.run(argv, registry=SMOKE)
    return out


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_passes_its_output_checks(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(SMOKE))
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_prints_every_declared_metric(results, workload, trace, key):
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    printed = {name: m["unit"] for name, m in results[workload, trace]["metrics"].items()}
    assert printed == declared


def test_end_to_end_metrics_are_never_zero(results):
    for workload in SMOKE:
        for name, metric in results[workload, 0]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_every_round_gets_fresh_inputs_and_traced_pairs_share_them():
    seen = {True: [], False: []}
    set_ups = []

    class Stub:
        def run_round(self, state, k, rec, memo):
            assert state is set_ups[-1]
            seen[rec.tracer is not None].append(k)

    def set_up():
        set_ups.append(object())
        return set_ups[-1]

    run.measure(Stub(), set_up, 0.05, run.Tracer())
    assert len(set_ups) == len(seen[True]) + len(seen[False])
    assert len(seen[False]) >= 1
    assert seen[True][: len(seen[False])] == seen[False]
    assert len(set(seen[True])) == len(seen[True])


def _corpora(workload, seed, tmp_path):
    """Every corpus a workload's set-up generates, as token and label tuples."""
    workdir = tmp_path / str(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(seed, str(workdir), run.Recorder())
    if workload.name == "longdist":
        sentences = [s for train, test, _ in state["splits"] for s in train + test]
    elif workload.name == "ordercost":
        sentences = state["corpus"]
    else:
        sentences = []
        for entry in state["pool"]:
            with open(entry["paths"]["train"], encoding="utf-8") as handle:
                sentences += read_conll(handle)
            sentences += entry["test"]
    return [(s.texts, s.labels) for s in sentences]


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_seed_decides_the_generated_corpora(workload, tmp_path):
    w = SMOKE[workload]
    assert _corpora(w, 1, tmp_path) == _corpora(w, 1, tmp_path / "again")
    assert _corpora(w, 1, tmp_path) != _corpora(w, 2, tmp_path)


def test_default_seeds_reproduce_the_acceptance_corpora(tmp_path):
    longdist = SMOKE["longdist"]
    criterion_5 = SynthConfig(
        entity_type_count=2,
        sentences=longdist.train_size + longdist.test_size,
        seed=0,
        gap_lengths=(2, 3, 4, 5, 6),
    )
    state = longdist.setup(longdist.default_seed, str(tmp_path), run.Recorder())
    train, test, _ = state["splits"][0]
    assert list(train + test) == generate_synthetic(criterion_5)

    ordercost = SMOKE["ordercost"]
    criterion_6 = SynthConfig(entity_type_count=5, sentences=ordercost.sentences, seed=6)
    state = ordercost.setup(ordercost.default_seed, str(tmp_path), run.Recorder())
    assert state["corpus"] == generate_synthetic(criterion_6)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = DECLARED["command"] + ["--workload", "longdist", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
