import re

import numpy as np
import pytest

from arknls.cli import run
from arknls.matrix import DenseMatrix
from arknls.mmio import read_trace_csv, write_matrix_market
from arknls.synth import SynthSpec, gen_dense

SUMMARY_RE = re.compile(
    r"^k=(\d+) rank=(\d+) final_rel_residual=([\d.eE+-]+)±([\d.eE+-]+)"
    r" time_s=([\d.eE+-]+)$"
)


def summary_of(capsys):
    out = capsys.readouterr().out.strip().splitlines()[-1]
    match = SUMMARY_RE.match(out)
    assert match, f"summary line malformed: {out!r}"
    return match


def test_desk_run(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run(
        [
            "--synthetic", "200,150,10,0.0,0",
            "--rank", "10", "--k", "3", "--max-sweeps", "300",
            "--seed", "7", "--out", str(out), "--summary",
        ]
    )
    assert code == 0
    rows = read_trace_csv(out)
    assert len(rows) == 300
    assert rows[-1].rel_residual < 1e-2
    match = summary_of(capsys)
    assert float(match.group(3)) < 1e-2


def test_invalid_k_exits_2(capsys):
    code = run(["--synthetic", "10,10,2,0,0", "--rank", "2", "--k", "4"])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_missing_source_exits_2(capsys):
    assert run(["--rank", "3"]) == 2


def test_runtime_error_exits_1(capsys):
    assert run(["--input", "/no/such/file.mtx", "--rank", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_numerical_breakdown_exits_1(tmp_path, capsys):
    a = gen_dense(SynthSpec(m=60, n=40, true_rank=5, noise_std=0.01, seed=1))
    path = tmp_path / "huge.mtx"
    write_matrix_market(DenseMatrix(1e150 * a.data), path)
    with np.errstate(all="ignore"):
        code = run(["--input", str(path), "--rank", "5", "--k", "2", "--seed", "0"])
    assert code == 1
    assert "error: numerical breakdown" in capsys.readouterr().err


def test_rank_too_large_exits_1(capsys):
    assert run(["--synthetic", "6,5,2,0,0", "--rank", "12"]) == 1


def test_rep_seed_policy(tmp_path, capsys):
    # Mean over --reps 3 --seed 5 must equal the mean of three single runs
    # at seeds 5, 6 and 7, on the same fixed input matrix.
    rng = np.random.default_rng(1)
    path = tmp_path / "fixed.mtx"
    write_matrix_market(DenseMatrix(rng.random((40, 30))), path)
    args = ["--input", str(path), "--rank", "4", "--max-sweeps", "40",
            "--summary"]
    singles = []
    for seed in (5, 6, 7):
        assert run(args + ["--seed", str(seed)]) == 0
        singles.append(float(summary_of(capsys).group(3)))
    assert run(args + ["--seed", "5", "--reps", "3"]) == 0
    match = summary_of(capsys)
    assert float(match.group(3)) == pytest.approx(np.mean(singles), rel=1e-4)
    assert np.isfinite(float(match.group(4)))


def test_single_rep_std_is_zero(capsys):
    assert run(["--synthetic", "20,15,3,0,0", "--rank", "3",
                "--max-sweeps", "10", "--summary"]) == 0
    assert float(summary_of(capsys).group(4)) == 0.0


def test_csv_bytes_deterministic(tmp_path):
    args = ["--synthetic", "50,40,5,0.01,0", "--rank", "5",
            "--max-sweeps", "30", "--seed", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sparse_synthetic_runs(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["--synthetic", "80,60,5,0.0,0.2", "--rank", "5",
                "--max-sweeps", "20", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert len(read_trace_csv(out)) == 20


def test_matrix_market_input(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "a.mtx"
    write_matrix_market(DenseMatrix(rng.random((15, 12))), path)
    assert run(["--input", str(path), "--rank", "3", "--max-sweeps", "15"]) == 0


def test_tol_flag_stops_early(tmp_path):
    out = tmp_path / "t.csv"
    code = run(["--synthetic", "30,25,2,0,0", "--rank", "2", "--k", "2",
                "--max-sweeps", "500", "--tol", "1e-9", "--out", str(out)])
    assert code == 0
    assert len(read_trace_csv(out)) < 500
