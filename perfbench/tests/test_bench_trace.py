"""Seeded inputs, exact work counts, output checks and the tracer's guards."""

import shutil
import subprocess
import sys
from itertools import islice

import pytest
from conftest import ROOT

import kneser_chroma.gale
import spans
import workloads

# (workload, ops to run, the count that must repeat exactly)
CASES = [
    (workloads.RandomChiSG, 6, "chromatic.nodes"),
    (workloads.GenGraphRT, 3, "graphs.edges_kept"),
    (workloads.WitnessGrid, 1, "gale.faces"),
    (workloads.BoundsSweep, 6, "bounds.condition_evals"),
]


def traced_ops(cls, seed, n_ops, out):
    tracer = spans.Tracer()
    workload = cls(seed, out, tracer)
    specs = [spec for ops in islice(workload.rounds(), n_ops) for spec in ops][:n_ops]
    problems = []
    uninstall = spans.install(tracer)
    try:
        for spec in specs:
            with tracer.region(spans.OP):
                result = workload.run_op(spec)
            problems += workload.check(spec, result)
    finally:
        uninstall()
    problems += spans.face_count_problems(tracer.spans)
    return specs, spans.count_totals(tracer.spans), problems


@pytest.mark.parametrize("cls,n_ops,count", CASES, ids=lambda c: getattr(c, "name", c))
def test_counts_repeat_and_second_seed_passes(tmp_path, cls, n_ops, count):
    specs_a, counts_a, problems_a = traced_ops(cls, 7, n_ops, tmp_path)
    specs_b, counts_b, problems_b = traced_ops(cls, 7, n_ops, tmp_path)
    specs_c, counts_c, problems_c = traced_ops(cls, 8, n_ops, tmp_path)
    assert specs_a == specs_b and specs_a != specs_c
    assert counts_a == counts_b
    assert counts_a[count] > 0
    assert problems_a == problems_b == problems_c == []


def test_passes_repeat_and_leave_a_tail(tmp_path):
    import run

    for cls in workloads.WORKLOADS.values():
        ops = cls(7, tmp_path, spans.NoTracer()).pass_ops()
        assert ops == cls(7, tmp_path, spans.NoTracer()).pass_ops()
        assert len(ops) > run.TAIL_BEYOND + 1


def test_scaled_times_follow_the_reference():
    import run

    rec = {"cpu": [0.02, 0.03], "ref": [run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S]}
    assert run.scaled(rec) == pytest.approx([0.02, 0.015])


def test_install_restores_every_copy(tmp_path):
    import kneser_chroma.cli as cli

    before = (cli.build_schrijver, kneser_chroma.gale.WitnessSearch.__init__)
    uninstall = spans.install(spans.Tracer())
    assert cli.build_schrijver is not before[0]
    uninstall()
    assert (cli.build_schrijver, kneser_chroma.gale.WitnessSearch.__init__) == before


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.delattr(kneser_chroma.gale, "enumerate_faces")
    with pytest.raises(spans.TraceTargetMissing, match="enumerate_faces"):
        spans.install(spans.Tracer())


def test_cover_count_and_mpmath_condition():
    assert spans.cover_face_count(12, 5) == 16370
    assert workloads.condition_mp(10**6, 2, 63096, 0.5, 0.5)
    assert not workloads.condition_mp(10**6, 2, 1, 0.5, 0.5)


def test_checks_catch_bad_outputs(tmp_path):
    w = workloads.WitnessGrid(1, tmp_path, spans.NoTracer())
    spec = (9, 2, 1, 5)
    verify, witness = w.run_op(spec)
    assert w.check(spec, (verify, witness)) == []
    flipped = dict(witness, signs=witness["signs"][::-1])
    assert workloads.witness_problems(9, 2, 1, 5, flipped)
    recounted = dict(witness, counts=dict(witness["counts"], pos=0))
    assert workloads.witness_problems(9, 2, 1, 5, recounted)

    g = workloads.GenGraphRT(1, tmp_path, spans.NoTracer())
    high = g.run_op(("kneser", 7, 3, 0.9, 3))
    assert g.check(("kneser", 7, 3, 0.9, 3), high) == []
    low = g.run_op(("kneser", 7, 3, 0.3, 3))
    # labelled as a higher p, the sparser graph breaks the nesting check
    assert g.check(("kneser", 7, 3, 0.95, 3), low)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
