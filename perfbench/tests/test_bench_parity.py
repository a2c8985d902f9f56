"""Each workload's op writes the bytes the CLI writes for the same arguments."""

import os
import subprocess
import sys

import pytest
from conftest import ROOT

import spans
import workloads
from kneser_chroma import graphs


def cli_stdout(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KNESER_CHROMA_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "kneser_chroma.cli", *args],
        capture_output=True,
        env=env,
        check=True,
    )
    return proc.stdout


def make(cls, tmp_path, seed=1):
    return cls(seed, tmp_path, spans.NoTracer())


def test_random_chi_op(tmp_path):
    w = make(workloads.RandomChiSG, tmp_path)
    master = 123456789
    w.run_op(master)
    for p in w.PS:
        want = cli_stdout(
            "random-chi", "--family", "schrijver", "--n", str(w.N), "--k", str(w.K),
            "--p", repr(p), "--trials", "1", "--seed", str(master),
            "--budget-nodes", str(w.BUDGET),
        )
        assert (tmp_path / f"random-chi-{p}.csv").read_bytes() == want


def test_random_chi_rows_compose_like_the_cli():
    parent = graphs.build_schrijver(8, 2)
    rows = [workloads.random_chi_trial(parent, 0.9, 77, t, 300)[0] for t in range(4)]
    text = workloads.random_chi_artifact("schrijver", 8, 2, 0.9, 77, 300, rows)
    want = cli_stdout(
        "random-chi", "--family", "schrijver", "--n", "8", "--k", "2", "--p", "0.9",
        "--trials", "4", "--seed", "77", "--budget-nodes", "300",
    )
    assert text.encode() == want


@pytest.mark.parametrize("family,n,k,p", [("kneser", 7, 3, 0.6), ("schrijver", 9, 3, 0.3)])
def test_gen_graph_op(tmp_path, family, n, k, p):
    w = make(workloads.GenGraphRT, tmp_path)
    graph, parsed = w.run_op((family, n, k, p, 99))
    want = cli_stdout(
        "gen-graph", "--family", family, "--n", str(n), "--k", str(k),
        "--p", repr(p), "--seed", "99",
    )
    assert (tmp_path / "graph.json").read_bytes() == want
    assert parsed.adj == graph.adj


def test_witness_grid_op(tmp_path):
    w = make(workloads.WitnessGrid, tmp_path)
    w.run_op((9, 2, 1, 4242))
    assert (tmp_path / "witness.json").read_bytes() == cli_stdout(
        "witness", "--n", "9", "--k", "2", "--ell", "1", "--seed", "4242"
    )
    assert (tmp_path / "gale-verify.json").read_bytes() == cli_stdout(
        "gale-verify", "--n", "9", "--s", "3"
    )


@pytest.mark.parametrize(
    "spec",
    [(10**5, 3, None, 0.5123456789, 0.0987654321), (10**6, 2, 63096, 0.5, 0.5)],
)
def test_bounds_op(tmp_path, spec):
    n, k, ell, p, eps = spec
    w = make(workloads.BoundsSweep, tmp_path)
    w.run_op(spec)
    args = ["bounds", "--n", str(n), "--k", str(k), "--p", repr(p), "--eps", repr(eps)]
    args += ["--sweep"] if ell is None else ["--ell", str(ell)]
    assert (tmp_path / "bounds.json").read_bytes() == cli_stdout(*args)
