"""Fast smoke test of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs through ``run.main`` at a tiny shape and sweep budget, in
both modes; the test checks that every metric ``BENCHMARK.json`` names is
printed with its unit, and that the replay-equality check rejects a replay
that differs from ``fit``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import arknls as ak  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "dense-2k": dict(m=60, n=50, true_rank=4, budget=4),
    "sparse-mtx": dict(m=120, n=80, true_rank=4, keep=0.2, budget=3, rank=5),
    "small-overrank": dict(m=30, n=20, true_rank=2, rank=6, budget=5),
}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    # A loose target so the tiny fits reach it; the real ratios are tuned
    # for the full shapes.
    tiny = {
        name: dataclasses.replace(w, target_ratio=10.0, **TINY[name])
        for name, w in workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    return tiny


def test_benchmark_json_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(tiny_workloads, capsys, name, trace):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(info["env"]) == {"python", "numpy", "blas", "blas_threads", "nproc", "cpu"}


def test_a_fit_that_raises_is_counted_as_failed(tiny_workloads, capsys, monkeypatch):
    real_fit = ak.fit

    def flaky_fit(A, config):
        if config.seed == workloads.init_seed(3, 1):
            raise ak.RankDeficiencyError("injected")
        return real_fit(A, config)

    monkeypatch.setattr(ak, "fit", flaky_fit)
    argv = ["--workload", "dense-2k", "--seed", "3", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert result["metrics"]["pass_rate"]["value"] == 0.5
    assert "injected" in info["failures"][0]


def test_replay_reproduces_fit_and_rejects_a_difference():
    A = ak.gen_dense(ak.SynthSpec(m=30, n=20, true_rank=2, noise_std=0.01, seed=5))
    config = ak.SolverConfig(rank=6, k=3, max_sweeps=40, seed=2)
    reference, trace = ak.fit(A, config)
    assert trace.repair_events > 0
    replayed, counts = replay.replay_fit(A, config, replay.Spans())
    replay.check_replay(replayed, counts, reference, trace.repair_events)

    with pytest.raises(replay.ReplayMismatch, match="repairs"):
        replay.check_replay(replayed, counts, reference, trace.repair_events + 1)
    replayed.V.data[0, 0] = replayed.V.data[0, 0] + 1e-12
    with pytest.raises(replay.ReplayMismatch, match="V differs"):
        replay.check_replay(replayed, counts, reference, trace.repair_events)


def test_fails_without_package_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    argv = ["--workload", "dense-2k", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
