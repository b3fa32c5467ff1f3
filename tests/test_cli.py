import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from arknls.cli import run
from arknls.matrix import DenseMatrix
from arknls.mmio import read_trace_csv, write_matrix_market
from arknls.nnls import BLOCK_WIDTHS
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


def test_k_choices_are_the_kernel_widths(capsys):
    # --k 4 is test_invalid_k_exits_2.
    assert run(["--synthetic", "10,10,2,0,0", "--rank", "3", "--k", "0"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    for k in BLOCK_WIDTHS:
        assert run(["--synthetic", "10,10,2,0,0", "--rank", "3", "--k", str(k),
                    "--max-sweeps", "1"]) == 0


@pytest.mark.parametrize("source", ["synthetic", "input"])
def test_negative_seed_exits_1(tmp_path, capsys, source):
    # --synthetic fails in SynthSpec, --input in SolverConfig; both name
    # the field instead of passing numpy's message on.
    if source == "synthetic":
        args = ["--synthetic", "10,10,2,0,0"]
    else:
        path = tmp_path / "a.mtx"
        write_matrix_market(DenseMatrix(np.random.default_rng(0).random((8, 6))), path)
        args = ["--input", str(path)]
    assert run(args + ["--rank", "2", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


def test_missing_source_exits_2(capsys):
    assert run(["--rank", "3"]) == 2


def test_two_sources_exit_2(tmp_path, capsys):
    args = ["--input", str(tmp_path / "a.mtx"), "--synthetic", "10,10,2,0,0"]
    assert run(args + ["--rank", "2"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_zero_reps_exits_2(capsys):
    assert run(["--synthetic", "10,10,2,0,0", "--rank", "2", "--reps", "0"]) == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_runtime_error_exits_1(capsys):
    assert run(["--input", "/no/such/file.mtx", "--rank", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_numerical_breakdown_exits_1(tmp_path, capsys):
    # |A|^2 overflows at 1e155.
    a = gen_dense(SynthSpec(m=60, n=40, true_rank=5, noise_std=0.01, seed=1))
    path = tmp_path / "huge.mtx"
    write_matrix_market(DenseMatrix(1e155 * a.data), path)
    with np.errstate(all="ignore"):
        code = run(["--input", str(path), "--rank", "5", "--k", "2", "--seed", "0"])
    assert code == 1
    assert "error: numerical breakdown" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--tol", "nan"], "tol_residual_change must be finite"),
        (["--time-limit", "nan"], "time_limit must be finite"),
        (["--time-limit", "inf"], "time_limit must be finite"),
    ],
    ids=["tol-nan", "time-limit-nan", "time-limit-inf"],
)
def test_non_finite_stopping_exits_1(extra, message, capsys):
    args = ["--synthetic", "10,10,2,0,0", "--rank", "2", "--max-sweeps", "5"]
    assert run(args + extra) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_non_finite_noise_exits_1(capsys):
    assert run(["--synthetic", "10,10,2,nan,0", "--rank", "2"]) == 1
    assert "error: noise_std must be finite" in capsys.readouterr().err


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


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_input_from_a_pipe(tmp_path):
    # /dev/stdin fed by a pipe, which can be read only once, writes the
    # trace that the same bytes give from a file.
    rng = np.random.default_rng(2)
    path = tmp_path / "a.mtx"
    write_matrix_market(DenseMatrix(rng.random((40, 30))), path)
    args = ["--rank", "4", "--max-sweeps", "10", "--seed", "1", "--out"]
    assert run(["--input", str(path)] + args + [str(tmp_path / "file.csv")]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run(
        [sys.executable, "-c", "from arknls.cli import main; main()",
         "--input", "/dev/stdin"] + args + [str(tmp_path / "pipe.csv")],
        input=path.read_bytes(), env=env, check=True, timeout=120,
    )
    piped = (tmp_path / "pipe.csv").read_bytes()
    assert piped == (tmp_path / "file.csv").read_bytes()


def test_python_m_runs_the_cli():
    # ``python -m arknls.cli`` is the installed script's command.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    args = [sys.executable, "-m", "arknls.cli", "--synthetic", "60,45,5,0.01,0",
            "--rank", "5", "--max-sweeps", "3"]
    done = subprocess.run(args + ["--summary"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert SUMMARY_RE.match(done.stdout.strip()), done.stdout
    bad = subprocess.run(args + ["--no-such-flag"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert bad.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in bad.stderr


def test_tol_flag_stops_early(tmp_path):
    out = tmp_path / "t.csv"
    code = run(["--synthetic", "30,25,2,0,0", "--rank", "2", "--k", "2",
                "--max-sweeps", "500", "--tol", "1e-9", "--out", str(out)])
    assert code == 0
    assert len(read_trace_csv(out)) < 500


def test_oversized_size_line_exits_1(tmp_path, capsys):
    # A size line declaring 10^19 columns is a MatrixMarketError naming
    # the line, reported as an error without a traceback.
    path = tmp_path / "big.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 10000000000000000000 1\n1 1 1\n"
    )
    assert run(["--input", str(path), "--rank", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and "Traceback" not in err


def test_refused_row_allocation_exits_1(tmp_path, capsys, monkeypatch):
    # 3 rows of 10^11 columns read fine, but the start reads a row of A as
    # a dense array of 10^11 floats.  A machine might grant those 745 GiB,
    # so every numpy allocation of more than 2^32 elements is refused
    # here, as a smaller machine refuses it.
    for name in ("empty", "zeros"):

        def refusing(shape, *args, _inner=getattr(np, name), **kwargs):
            size = math.prod(shape) if isinstance(shape, tuple) else shape
            if size > 1 << 32:
                raise MemoryError(f"refused {size} elements")
            return _inner(shape, *args, **kwargs)

        monkeypatch.setattr(np, name, refusing)
    path = tmp_path / "wide.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 100000000000 2\n1 1 1\n3 7 2\n"
    )
    assert run(["--input", str(path), "--rank", "1", "--k", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: refused 100000000000 elements\n"
