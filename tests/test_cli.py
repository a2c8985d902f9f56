import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import time
from functools import cache

import pytest
from test_chromatic import is_proper

from kneser_chroma import bounds, cli, events, gale, graphs, seeds
from kneser_chroma.chromatic import Budget, chromatic_number
from kneser_chroma.cli import CSV_HEADER, chi_report, main, run_random_chi, run_witness
from kneser_chroma.errors import NoWitnessFound
from kneser_chroma.events import event_a_json_dict, event_a_oracle
from kneser_chroma.gale import GaleEmbedding
from kneser_chroma.graphs import build_kneser, build_schrijver, sample_subgraph

PETERSEN_JSON = (
    '{"family":"kneser","n":5,"k":2,"p":null,"seed":null,"rng_id":null,'
    '"vertices":[3,5,6,9,10,12,17,18,20,24],'
    '"edges":[[0,5],[0,8],[0,9],[1,4],[1,7],[1,9],[2,3],[2,6],[2,9],'
    "[3,7],[3,8],[4,6],[4,8],[5,6],[5,7]]}\n"
)


def sha256_of_reports(reports):
    h = hashlib.sha256()
    for rep in reports:
        h.update((json.dumps(rep, separators=(",", ":")) + "\n").encode())
    return h.hexdigest()


def strict_json(text):
    """json.loads that refuses the bare NaN and Infinity tokens."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("KNESER_CHROMA_THREADS", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "kneser_chroma.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestGenGraph:
    def test_petersen_golden_bytes(self, tmp_path):
        out = tmp_path / "g.json"
        rc = main(["gen-graph", "--family", "kneser", "--n", "5", "--k", "2",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text() == PETERSEN_JSON

    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-graph", "--family", "schrijver", "--n", "9", "--k", "2",
                "--p", "0.4", "--seed", "77"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sampling_p1_identity(self, tmp_path):
        full, s1 = tmp_path / "f.json", tmp_path / "s.json"
        main(["gen-graph", "--family", "schrijver", "--n", "5", "--k", "2",
              "--out", str(full)])
        main(["gen-graph", "--family", "schrijver", "--n", "5", "--k", "2",
              "--p", "1.0", "--seed", "3", "--out", str(s1)])
        assert json.loads(full.read_text())["edges"] == (
            json.loads(s1.read_text())["edges"]
        )

    def test_capacity_exit_code(self):
        rc, _, err = run_cli(["gen-graph", "--family", "kneser",
                              "--n", "30", "--k", "15"])
        assert rc == 4
        assert "cap" in err

    def test_schrijver_capped_by_its_own_count(self, tmp_path):
        # SG(40,19) has 400 vertices, though C(40,19) ~ 1.3e11
        path = tmp_path / "sg.json"
        rc, _, err = run_cli(["gen-graph", "--family", "schrijver", "--n", "40",
                              "--k", "19", "--out", str(path)])
        assert rc == 0 and err == ""
        rc, out, _ = run_cli(["chi", str(path), "--budget-nodes", "1000"])
        rep = json.loads(out)
        assert rc == (0 if rep["status"] == "exact" else 3)
        assert len(rep["coloring"]) == 400

    def test_zero_vertex_cap_exit_4(self, monkeypatch, capsys):
        # a cap of 0 is a cap, not "use the default"
        for cap in (0, 1):
            monkeypatch.setattr(graphs, "MAX_VERTICES", cap)
            rc = main(["gen-graph", "--family", "kneser", "--n", "6", "--k", "2"])
            out, err = capsys.readouterr()
            assert (rc, out) == (4, "")
            assert f"over the vertex cap {cap}" in err

    def test_seed_required_with_p(self):
        rc, _, _ = run_cli(["gen-graph", "--family", "kneser", "--n", "5",
                            "--k", "2", "--p", "0.5"])
        assert rc == 2

    def test_seed_without_p_exit_2(self):
        # an unsampled graph would go out with the seed silently dropped
        rc, out, err = run_cli(["gen-graph", "--family", "kneser", "--n", "5",
                                "--k", "2", "--seed", "3"])
        assert (rc, out) == (2, "")
        assert "--p and --seed are read only together" in err
        assert "Traceback" not in err
        with pytest.raises(ValueError, match="--p and --seed are read only together"):
            cli.gen_graph("kneser", 5, 2, seed=3)

    def test_stdout_pinned(self, capsys):
        # every KG/SG with n <= 12, unsampled and at p 0.3/0.9 x seeds 1-2;
        # digest computed with the json.dumps writer (tests/graph_reference.py)
        h = hashlib.sha256()
        runs = 0
        for n in range(13):
            for k in range(n + 1):
                for family in ("kneser", "schrijver"):
                    base = ["gen-graph", "--family", family, "--n", str(n),
                            "--k", str(k)]
                    for extra in [[]] + [["--p", p, "--seed", seed]
                                         for p in ("0.3", "0.9")
                                         for seed in ("1", "2")]:
                        assert main(base + extra) == 0
                        h.update(capsys.readouterr().out.encode())
                        runs += 1
        assert runs == 910
        assert h.hexdigest() == (
            "834435d5c63f8a66fe760f9f91e2ac31e031a3f549f83509ace994568ca5576e"
        )


@cache
def chi_grid():
    """(graph, chi_report) over every KG/SG with n <= 9, unsampled and at
    p 0.3/0.6/0.9 x seeds 1-3, then 300 coupled SG(10,3) trials."""
    rows = []
    for n in range(2, 10):
        for k in range(1, n // 2 + 1):
            for g in (build_kneser(n, k), build_schrijver(n, k)):
                rows.append((g, chi_report(g, None)))
                for p in (0.3, 0.6, 0.9):
                    for seed in (1, 2, 3):
                        sampled = sample_subgraph(g, p, seed)
                        rep = chi_report(sampled, Budget(max_nodes=5000))
                        rows.append((sampled, rep))
    parent = build_schrijver(10, 3)
    for p in (0.9, 0.97):  # coupled: the same trial seeds at both p
        for trial in range(150):
            sampled = sample_subgraph(parent, p, seeds.trial_seed(1, trial))
            rows.append((sampled, chi_report(sampled, Budget(max_nodes=5000))))
    return rows


# row -> (lower, upper) of the 24 grid rows that timed out before the
# bucketed, uncolored-degree DSATUR search
PARENT_TIMEOUTS = {364: (2, 5), 365: (3, 5)} | {
    i: (3, 6)
    for i in (555, 558, 563, 564, 568, 575, 589, 594, 596, 602, 606, 612,
              625, 628, 634, 654, 657, 661, 662, 667, 671, 687)
}


class TestChi:
    def test_exact_rows_pinned(self):
        # chi/status/lower/upper of the rows exact before the search changed;
        # digest computed then
        rows = [
            {f: rep[f] for f in ("chi", "status", "lower", "upper")}
            for i, (_, rep) in enumerate(chi_grid())
            if i not in PARENT_TIMEOUTS
        ]
        assert sha256_of_reports(rows) == (
            "b25dd137fd16aedd936e3c2a18296b1fb997f2da67072af16e43cf738094dbbd"
        )

    def test_timeouts_only_turn_exact_inside_their_bracket(self):
        reports = [rep for _, rep in chi_grid()]
        timeouts = {i for i, rep in enumerate(reports) if rep["status"] == "timeout"}
        assert timeouts <= PARENT_TIMEOUTS.keys()
        for i, (lower, upper) in PARENT_TIMEOUTS.items():
            assert lower <= reports[i]["lower"] <= reports[i]["chi"] <= upper

    def test_reports_pinned(self):
        # the whole report, nodes and colorings included; digest computed
        # with the bucketed, uncolored-degree DSATUR search and its TabuCol
        # rescue (7 timeouts before the rescue), deciding no m below the
        # clique bound
        reports = [rep for _, rep in chi_grid()]
        assert sum(r["status"] == "timeout" for r in reports) == 4
        assert sha256_of_reports(reports) == (
            "ab4410a4dd3eec38e732f4b430b9f1fe2cdec6b2be41fc02c5ca8eafb041614a"
        )

    def test_brackets_are_open_and_upper_is_the_colors_used(self):
        for _, rep in chi_grid():
            assert rep["upper"] == max(rep["coloring"]) + 1
            if rep["status"] == "timeout":
                assert rep["lower"] < rep["upper"]

    def test_no_refutation_below_the_clique(self, tmp_path):
        # deciding m = clique - 1 would spend the last of the 4 nodes and
        # report a timeout with lower = upper = 3
        g = tmp_path / "g.json"
        assert main(["gen-graph", "--family", "kneser", "--n", "6", "--k", "2",
                     "--p", "0.4", "--seed", "1", "--out", str(g)]) == 0
        out = tmp_path / "chi.json"
        assert main(["chi", str(g), "--budget-nodes", "4", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert (rep["status"], rep["chi"], rep["lower"]) == ("exact", 3, 3)

    def test_colorings_proper(self):
        for g, rep in chi_grid():
            assert is_proper(g, rep["coloring"])
            used = max(rep["coloring"]) + 1
            if rep["status"] == "exact":
                assert used == rep["chi"]
            else:
                assert used <= rep["chi"]

    def test_petersen(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(PETERSEN_JSON)
        out = tmp_path / "chi.json"
        rc = main(["chi", str(g), "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["chi"] == 3 and rep["status"] == "exact"

    def test_schrijver_6_2(self, tmp_path):
        g = tmp_path / "g.json"
        main(["gen-graph", "--family", "schrijver", "--n", "6", "--k", "2",
              "--out", str(g)])
        out = tmp_path / "chi.json"
        assert main(["chi", str(g), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["chi"] == 4

    def test_budget_timeout_exit_3(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(PETERSEN_JSON)
        out = tmp_path / "chi.json"
        rc = main(["chi", str(g), "--budget-nodes", "1", "--out", str(out)])
        assert rc == 3
        rep = json.loads(out.read_text())
        assert rep["status"] == "timeout"
        assert rep["lower"] <= rep["upper"]

    def test_malformed_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"definitely": "not a graph"}')
        rc, _, _ = run_cli(["chi", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize(
        "vertices,edges",
        [
            ([3, 5, 6, 9, 10, 12], [[0, 6]]),  # index past the last vertex
            ([3, 5, 6, 9, 10, 12], [[0, 10**9]]),  # would shift a 125 MB int
            ([3, 5, 6, 9, 10, 12], [[-1, 2]]),
            ([5, 5, 6, 9, 10, 12], [[0, 5]]),  # duplicate vertex
            ([5, 3, 6, 9, 10, 12], [[0, 5]]),  # not in colex order
            ([3, 5, 6, 9, 10, 12], [[0, 1]]),  # {1,2} and {1,3} intersect
        ],
    )
    def test_invalid_graph_file_exit_2(self, tmp_path, vertices, edges):
        bad = tmp_path / "bad.json"
        obj = {"family": "kneser", "n": 4, "k": 2, "p": None, "seed": None,
               "rng_id": None, "vertices": vertices, "edges": edges}
        bad.write_text(json.dumps(obj))
        rc, out, err = run_cli(["chi", str(bad)])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"family":"kneser","n":true,"k":true,"p":null,"seed":null,'
            '"rng_id":null,"vertices":[true],"edges":[]}',
            '{"family":"kneser","n":3,"k":1,"p":null,"seed":null,"rng_id":null,'
            '"vertices":[true,2,4],"edges":[[false,true],[0,2],[true,2]]}',
        ],
        ids=["n-k-and-mask", "mask-and-indices"],
    )
    def test_boolean_graph_file_exit_2(self, tmp_path, text):
        # a JSON true or false is not an integer: not as n, k, mask or index
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc, out, err = run_cli(["chi", str(bad)])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "change",
        [
            {"p": 0.5, "seed": None, "rng_id": "bogus"},
            {"family": "schrijver", "vertices": [3], "edges": []},  # {1,2} on C5
            {"family": "bogus"},
            {"p": 2.5, "seed": "x"},
            # chi(KG(5,2)) = 3, but these two vertices alone are 2-colorable
            {"vertices": [3, 12], "edges": [[0, 1]]},
            # SG(5,2) is the 5-cycle on 5, 9, 10, 18, 20; one vertex missing
            {"family": "schrijver", "vertices": [5, 9, 10, 18],
             "edges": [[0, 2], [0, 3], [1, 3]]},
        ],
    )
    def test_contradictory_graph_file_exit_2(self, tmp_path, change):
        bad = tmp_path / "bad.json"
        obj = json.loads(PETERSEN_JSON)
        obj.update(change)
        bad.write_text(json.dumps(obj))
        rc, out, err = run_cli(["chi", str(bad)])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestRandomChi:
    def test_p1_all_equal_parent_chi(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["random-chi", "--family", "schrijver", "--n", "6", "--k", "2",
              "--p", "1.0", "--trials", "5", "--seed", "1", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[1] == CSV_HEADER
        rows = [ln.split(",") for ln in lines[2:-1]]
        assert len(rows) == 5
        assert all(r[2] == "4" for r in rows)

    def test_p0_all_one(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["random-chi", "--family", "kneser", "--n", "6", "--k", "2",
              "--p", "0.0", "--trials", "5", "--seed", "1", "--out", str(out)])
        rows = [ln.split(",") for ln in out.read_text().splitlines()[2:-1]]
        assert all(r[2] == "1" for r in rows)

    def test_summary_and_cap(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["random-chi", "--family", "schrijver", "--n", "8", "--k", "2",
              "--ell", "1", "--p", "0.9", "--trials", "20", "--seed", "5",
              "--out", str(out)])
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# config ")
        assert lines[-1].startswith("# summary ")
        summary = json.loads(lines[-1].split(" ", 2)[2])
        assert summary["chi_threshold"] == 4
        assert 0.0 <= summary["freq_chi_ge_threshold"] <= 1.0
        chis = [int(ln.split(",")[2]) for ln in lines[2:-1]]
        assert all(c <= 6 for c in chis)  # chi(SG_8_2) = 6

    def test_zero_trials_exit_2(self, capsys):
        rc = main(["random-chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--p", "0.5", "--trials", "0", "--seed", "1"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert "trials must be >= 1" in err

    def test_no_exact_row_leaves_the_frequency_null(self, capsys):
        # a budget of 0 nodes times every trial out: no chi is counted
        rc = main(["random-chi", "--family", "schrijver", "--n", "8", "--k", "2",
                   "--ell", "1", "--p", "0.9", "--trials", "3", "--seed", "1",
                   "--budget-nodes", "0"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[-1] == (
            '# summary {"trials":3,"solved":0,"timeouts":3,'
            '"chi_threshold":4,"freq_chi_ge_threshold":null}'
        )

    def test_bad_ell_exits_2_before_the_parent(self):
        # KG(20, 8) is over the vertex cap, but d = -13 is refused first
        rc, out, err = run_cli(["random-chi", "--family", "kneser", "--n", "20",
                                "--k", "8", "--ell", "9", "--p", "0.5",
                                "--trials", "1", "--seed", "1"])
        assert rc == 2 and out == ""
        assert "d >= 2" in err

    def test_bad_ell_solves_no_trial(self, monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "chromatic_number", lambda *a: solved.append(a))
        with pytest.raises(ValueError, match="d >= 2"):
            run_random_chi("schrijver", 8, 2, 0.5, trials=3, master_seed=1, ell=3)
        assert solved == []

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = ["random-chi", "--family", "kneser", "--n", "6", "--k", "2",
                "--p", "0.5", "--trials", "8", "--seed", "9"]
        rc1, out1, _ = run_cli(args)
        rc2, out2, _ = run_cli(args, env_extra={"KNESER_CHROMA_THREADS": "3"})
        assert rc1 == rc2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("cpus,want", [(64, [3]), (2, [2]), (None, [])])
    def test_pool_size_capped(self, monkeypatch, cpus, want):
        sizes = []

        class RecordingPool:  # stands in for the real pool: starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        # run_random_chi imports the pool class where it needs it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("KNESER_CHROMA_THREADS", str(10**6))
        rows, _ = run_random_chi("kneser", 6, 2, 0.5, trials=3, master_seed=9)
        assert sizes == want
        assert [r[0] for r in rows] == [0, 1, 2]

    @pytest.mark.parametrize("trials", [10**11, 10**400], ids=["1e11", "1e400"])
    def test_trials_past_the_cap_exit_4_before_the_parent(
        self, monkeypatch, capsys, trials
    ):
        built, solved = [], []
        monkeypatch.setattr(cli, "_build_family", lambda *a: built.append(a))
        monkeypatch.setattr(cli, "chromatic_number", lambda *a: solved.append(a))
        rc = main(["random-chi", "--family", "kneser", "--n", "5", "--k", "2",
                   "--p", "0.5", "--trials", str(trials), "--seed", "1",
                   "--budget-nodes", "10"])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert f"exceeds the cap of {cli.MAX_TRIALS}" in err
        assert built == [] and solved == []

    def test_import_leaves_out_multiprocessing(self):
        # only a pooled random-chi run needs the process pool and its imports
        code = "import sys, kneser_chroma.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_dataclasses(self):
        # records are named tuples: every command's start-up skips dataclasses
        # and the inspect, ast and dis modules that it pulls in
        code = (
            "import sys, kneser_chroma.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_library_matches_cli(self, tmp_path):
        rows, summary = run_random_chi(
            family="schrijver", n=7, k=2, p=0.6, trials=6, master_seed=4, ell=1
        )
        parent = build_schrijver(7, 2)
        for trial, seed, chi, status, _ in rows:
            g = sample_subgraph(parent, 0.6, seed)
            assert chromatic_number(g).chi == chi

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        main(["random-chi", "--family", "kneser", "--n", "6", "--k", "2",
              "--p", "0.5", "--trials", "3", "--seed", "2", "--format", "json",
              "--out", str(out)])
        rep = json.loads(out.read_text())
        assert len(rep["rows"]) == 3
        assert rep["summary"]["trials"] == 3

    def test_csv_format_rejected_on_json_commands(self):
        rc, _, err = run_cli(["bounds", "--n", "13", "--k", "2", "--ell", "2",
                              "--p", "1.0", "--eps", "0.1", "--format", "csv"])
        assert rc == 2
        assert "unrecognized arguments" in err


class TestEventA:
    def test_reports_pinned(self):
        # digest of the 224 reports once event A searched the full cells with
        # the fixed t; the canonical-hemisphere search held on 206 of them
        grid = [(8, 2, 1), (9, 2, 1), (9, 2, 2), (10, 2, 1), (10, 3, 1),
                (11, 2, 2), (10, 2, 2)]
        reports = [
            event_a_json_dict(event_a_oracle(n, k, ell, p, seed))
            for n, k, ell in grid
            for p in (0.1, 0.3, 0.5, 0.9)
            for seed in range(1, 9)
        ]
        assert sum(r["holds"] for r in reports) == 211
        assert sha256_of_reports(reports) == (
            "371fb3fcfdb074df2759ce4898bd22c461ddfa3001f2bfaa39c05a6c40aed9ad"
        )

    def test_p0_holds(self):
        rep = event_a_oracle(8, 2, 1, 0.0, seed=1)
        assert rep.holds
        assert rep.partitions_examined >= 1

    def test_p1_fails(self):
        rep = event_a_oracle(8, 2, 1, 1.0, seed=1)
        assert not rep.holds
        # every full cell: 2 (C(7,0) + C(7,1) + C(7,2)) at n = 8, d = 3
        assert rep.partitions_examined == 58

    def test_witness_is_cross_independent(self):
        for n, k, ell, p in [(8, 2, 1, 0.5), (10, 3, 1, 0.9)]:
            _, t = bounds.derived_params(n, k, ell)
            parent = build_schrijver(n, k)
            found = 0
            for seed in range(20):
                rep = event_a_oracle(n, k, ell, p, seed=seed)
                if not rep.holds:
                    continue
                found += 1
                g = sample_subgraph(parent, p, seed)
                masks = [v.mask for v in g.vertices]
                assert rep.partition.zero_mask == 0  # a full cell
                plus, minus = rep.partition.plus_mask, rep.partition.minus_mask
                sp = [i for i, m in enumerate(masks) if m & plus == m]
                sm = [i for i, m in enumerate(masks) if m & minus == m]
                assert len(rep.m_plus) == len(rep.m_minus) == t
                assert set(rep.m_plus) <= set(sp)
                assert set(rep.m_minus) <= set(sm)
                for u in rep.m_plus:
                    for v in rep.m_minus:
                        assert not g.adj[u] >> v & 1
            assert found > 0

    def test_node_cap_exit_4(self, monkeypatch, capsys):
        monkeypatch.setattr(events, "MAX_NODES", 5)
        rc = main(["event-a", "--n", "10", "--k", "2", "--ell", "1",
                   "--p", "0.99", "--seed", "3"])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert "too large" in err

    def test_side_cap_exit_4(self, monkeypatch, capsys):
        monkeypatch.setattr(events, "MAX_SIDE", 0)
        rc = main(["event-a", "--n", "8", "--k", "2", "--ell", "1",
                   "--p", "0.5", "--seed", "1"])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert "instance too large for event-A oracle (sides " in err

    def test_t_cap_exit_4(self):
        # t = ceil(C(6, 3) / 2) = 10 is over MAX_T = 8
        rc, out, err = run_cli(["event-a", "--n", "13", "--k", "3", "--ell", "3",
                                "--p", "0.5", "--seed", "1"])
        assert rc == 4 and out == ""
        assert "too large" in err and "t=10" in err

    def test_refuses_what_witness_refuses(self):
        # (13, 2, 1) has 526,292 faces, over MAX_FACES
        rc_a, out_a, err_a = run_cli(["event-a", "--n", "13", "--k", "2",
                                      "--ell", "1", "--p", "0.5", "--seed", "1"])
        rc_w, out_w, err_w = run_cli(["witness", "--n", "13", "--k", "2",
                                      "--ell", "1", "--seed", "1"])
        assert rc_a == rc_w == 4 and out_a == out_w == ""
        assert err_a == err_w
        assert "faces of 13 points in dimension 8 exceed the cap" in err_a

    def test_zero_node_cap_exit_4(self, monkeypatch, capsys):
        for cap in (0, 1):
            monkeypatch.setattr(events, "MAX_NODES", cap)
            rc = main(["event-a", "--n", "8", "--k", "2", "--ell", "1",
                       "--p", "0.99", "--seed", "3"])
            out, err = capsys.readouterr()
            assert (rc, out) == (4, "")
            assert f"node cap ({cap})" in err

    def test_cli_json(self, tmp_path):
        out = tmp_path / "ea.json"
        assert main(["event-a", "--n", "8", "--k", "2", "--ell", "1",
                     "--p", "0.0", "--seed", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["holds"] is True
        assert rep["witness"]["m_plus"]


class TestWitnessCmd:
    def test_reports_pinned(self):
        # digest computed before the side census became bitsets
        grid = [(10, 2, 2), (12, 3, 2), (12, 2, 3), (9, 2, 1), (8, 2, 1),
                (7, 2, 1), (11, 2, 2), (11, 3, 1)]
        reports = [
            run_witness(n, k, ell, coloring_seed=seed)
            for n, k, ell in grid
            for seed in [*range(1, 21), 321]
        ]
        assert sha256_of_reports(reports) == (
            "3a58a9c94c5ff7a92892ebb582e9071b8248d79ee90fb28a84a8510a11bc7e2c"
        )

    def test_no_coloring_source_exit_2(self, capsys):
        rc = main(["witness", "--n", "8", "--k", "2", "--ell", "1"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert "provide either a coloring file or a coloring seed" in err

    def test_no_witness_exit_5(self, monkeypatch, capsys):
        # a coloring with no antipodal monochromatic pair falsifies the claim
        def no_witness(search, coloring):
            raise NoWitnessFound("every cell searched", certified=True)

        monkeypatch.setattr(gale.WitnessSearch, "find", no_witness)
        rc = main(["witness", "--n", "8", "--k", "2", "--ell", "1", "--seed", "1"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (5, "", "falsification: every cell searched\n")

    def test_random_seed_witness(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["witness", "--n", "8", "--k", "2", "--ell", "1",
                     "--seed", "5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["counts"]["pos"] >= rep["counts"]["t_pos"]

    def test_coloring_file_constant(self, tmp_path):
        from kneser_chroma.setfam import enumerate_stable_ksubsets

        num = len(enumerate_stable_ksubsets(8, 2))
        cf = tmp_path / "col.json"
        cf.write_text(json.dumps({"num_colors": 3, "colors": [0] * num}))
        out = tmp_path / "w.json"
        assert main(["witness", "--n", "8", "--k", "2", "--ell", "1",
                     "--coloring-file", str(cf), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["color"] == 0

    def test_wrong_color_count_exit_2(self, tmp_path):
        from kneser_chroma.setfam import enumerate_stable_ksubsets

        num = len(enumerate_stable_ksubsets(8, 2))
        cf = tmp_path / "col.json"
        cf.write_text(json.dumps({"num_colors": 2, "colors": [0] * num}))
        rc, _, _ = run_cli(["witness", "--n", "8", "--k", "2", "--ell", "1",
                            "--coloring-file", str(cf)])
        assert rc == 2

    def test_malformed_colors_exit_2(self, tmp_path, capsys):
        # (7, 2, 1) has 14 stable 2-subsets; a JSON true is no color 1
        for i, data in enumerate([["a"] * 14, [1.0] * 14, [[0]] * 14,
                                  {"colors": 5}, {"colors": [True] * 14}]):
            cf = tmp_path / f"col{i}.json"
            cf.write_text(json.dumps(data))
            assert main(["witness", "--n", "7", "--k", "2", "--ell", "1",
                         "--coloring-file", str(cf)]) == 2, data
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: "), data

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_seed_with_coloring_file_exit_2(self, tmp_path, source):
        # the file would color the search, and the seed be echoed unread
        cf = tmp_path / "col.json"
        cf.write_text(json.dumps([0] * 20))
        args = ["witness", "--n", "8", "--k", "2", "--ell", "1",
                "--coloring-file", str(cf)]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": 5}))
            args += ["--config", str(cfg)]
        else:
            args += ["--seed", "5"]
        rc, out, err = run_cli(args)
        assert (rc, out) == (2, "")
        message = err.splitlines()[-1]
        assert "not allowed with argument" in message
        assert "--seed" in message and "--coloring-file" in message

    def test_solver_coloring_feeds_witness(self, tmp_path):
        # an exact d-coloring of a proper subgraph still yields a witness
        parent = build_schrijver(8, 2)
        g = sample_subgraph(parent, 0.4, seed=11)
        res = chromatic_number(g)
        assert res.chi <= 3
        colors = list(res.coloring)
        rep = run_witness(8, 2, 1, coloring=colors, num_colors=3)
        assert rep["counts"]["pos"] >= rep["counts"]["t_pos"]

    def test_chi_output_feeds_witness_end_to_end(self, tmp_path):
        # gen-graph -> chi -> witness pipeline; seed 0 at p=0.4 gives
        # an exactly-3-chromatic sample, matching d = 3
        gfile, cfile, wfile = (
            tmp_path / "g.json", tmp_path / "c.json", tmp_path / "w.json"
        )
        assert main(["gen-graph", "--family", "schrijver", "--n", "8",
                     "--k", "2", "--p", "0.4", "--seed", "0",
                     "--out", str(gfile)]) == 0
        assert main(["chi", str(gfile), "--out", str(cfile)]) == 0
        assert json.loads(cfile.read_text())["chi"] == 3
        assert main(["witness", "--n", "8", "--k", "2", "--ell", "1",
                     "--coloring-file", str(cfile), "--out", str(wfile)]) == 0
        rep = json.loads(wfile.read_text())
        assert rep["counts"]["pos"] >= rep["counts"]["t_pos"]


class TestBoundsCmd:
    @pytest.mark.parametrize(
        "flags", [["--ell", "2000000"], ["--sweep", "--ells", "2000000"]]
    )
    def test_huge_binomial_exit_4_fast(self, capsys, flags):
        # C(3e6, 1e6) has about 2.7 million bits: refused, not computed
        t0 = time.perf_counter()
        rc = main(["bounds", "--n", "10000000", "--k", "1000000", "--p", "0.5",
                   "--eps", "0.1", *flags])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 4
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--ell", "3"], ["--sweep"]])
    def test_past_float_range_exit_2(self, flags):
        # n ln3 would overflow float: refused by name, with no traceback
        rc, out, err = run_cli(["bounds", "--n", str(10**400), "--k", "3",
                                "--p", "0.5", "--eps", "0.1", *flags])
        assert (rc, out) == (2, "")
        assert err.startswith("error: n with") and "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--k", "1", "k >= 2"), ("--p", "1.5", "p=1.5 outside (0, 1]"),
         ("--p", "nan", "p=nan outside (0, 1]"), ("--eps", "0", "eps=0.0 outside (0, 1)")],
    )
    def test_sweep_refusals_exit_2(self, capsys, flag, value, message):
        flags = {"--n": "1000", "--k": "2", "--p": "0.5", "--eps": "0.1"}
        flags[flag] = value
        rc = main(["bounds", *[w for pair in flags.items() for w in pair], "--sweep"])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "n,k,ell,p,eps,sweep,want",
        [
            # t^2 ln(1-p) is -inf: so is l1, and l2 and l3 past t^2 = inf
            (10**6, 1000, 10**4, 0.5, 0.1, False,
             {"l1": "-inf", "l2": "-inf", "l3": "-inf"}),
            (10**6, 1000, 10**4, 1.0, 0.1, False,
             {"l1": "-inf", "l2": "-inf", "l3": "-inf"}),
            # t d is past float range, t^2 is not
            (10**300, 2, 10**155, 0.5, 0.1, False, {"l1": 1.09861228867e300}),
            (10**6, 2, 63096, 1.0, 0.5, False, {"l1": "-inf"}),
            (int(sys.float_info.max), 2, 63096, 1.0, 0.5, True,
             {"rhs": "inf", "l1": "-inf", "regime_rhs": ["inf", "inf"]}),
        ],
        ids=["t2-inf", "t2-inf-p1", "td-past-float", "p1", "n-float-max"],
    )
    def test_non_finite_values_are_strict_json(
        self, capsys, n, k, ell, p, eps, sweep, want
    ):
        rc = main(["bounds", "--n", str(n), "--k", str(k), "--ell", str(ell),
                   "--p", str(p), "--eps", str(eps), *["--sweep"] * sweep])
        rep = strict_json(capsys.readouterr().out)
        assert rc == 0
        got = {"rhs": rep["rhs"], **rep["chain"]}
        if sweep:
            got["regime_rhs"] = [e["rhs"] for e in rep["regime"]]
        assert {key: got[key] for key in want} == want
        # the library's report keeps its floats
        assert type(cli.bounds_report(n, k, ell, p, eps)["chain"]["l1"]) is float

    def test_headline(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n", "1000000", "--k", "2", "--ell", "63096",
                     "--p", "0.5", "--eps", "0.5", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["condition"] is True
        assert abs(rep["rhs"] - 0.2244055) < 1e-3
        assert rep["t"] == 2279 and rep["d"] == 873805

    def test_13_2_2_false(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n", "13", "--k", "2", "--ell", "2",
                     "--p", "1.0", "--eps", "0.1", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["condition"] is False
        assert abs(rep["rhs"] - 19.8654786911) < 1e-6

    def test_d_precondition_exit_2(self):
        rc, _, err = run_cli(["bounds", "--n", "10", "--k", "2", "--ell", "4",
                              "--p", "0.5", "--eps", "0.5"])
        assert rc == 2
        assert "d >= 2" in err

    def test_sweep(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n", "200", "--k", "80", "--p", "0.5",
                     "--eps", "0.2", "--sweep", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["best_gap"] is not None
        assert any(e["ell"] == 2 and e["holds"] for e in rep["regime"])

    def test_ells_echoed(self, tmp_path):
        out = tmp_path / "b.json"
        assert main(["bounds", "--n", "40", "--k", "2", "--p", "1.0",
                     "--eps", "0.1", "--sweep", "--ells", "3", "5",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [e["ell"] for e in rep["regime"]] == [1, 2, 3, 5]
        assert rep["config"]["ells"] == [3, 5]

    def test_ells_without_sweep_exit_2(self):
        # without --sweep no regime is computed, so the listed ells go unread
        rc, out, err = run_cli(["bounds", "--n", "1000", "--k", "2", "--p", "0.5",
                                "--eps", "0.1", "--ells", "3", "5"])
        assert rc == 2
        assert out == ""
        assert "--sweep" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["0", "-3", "3 0", "config"])
    def test_ells_below_one_exit_2(self, tmp_path, source):
        # --ell 0 exits 2 on the ell >= 1 precondition; an --ells entry of 0
        # would print a regime row for ell = 0
        args = ["bounds", "--n", "1000", "--k", "2", "--p", "0.5", "--eps", "0.1",
                "--sweep"]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"ells": [0]}))
            args += ["--config", str(cfg)]
        else:
            args += ["--ells", *source.split()]
        rc, out, err = run_cli(args)
        assert (rc, out) == (2, "")
        assert "argument --ells: must be a number >= 1" in err
        assert "Traceback" not in err

    def test_sweeps_pinned(self):
        # digest computed with the linear scan over ell that the search replaced
        grid = (
            [(n, 2, p, eps, ()) for n in (10**6, 10**7)
             for p, eps in ((0.5, 0.5), (0.5, 0.1), (0.9, 0.05), (0.3, 0.2))]
            + [(n, k, p, eps, ()) for n in (10**5, 10**6) for k in (3, 5)
               for p, eps in ((0.5, 0.1), (0.9, 0.05))]
            # demo 05
            + [(2003, 1000, 0.9, 0.1, ()), (200, 80, 0.5, 0.2, ())]
            + [(13, 2, p, 0.1, ()) for p in (0.3, 0.6, 1.0)]
            # no ell works
            + [(13, 2, 0.3, 0.5, ()), (1000, 2, 1e-9, 0.9, (7,)),
               (10**5, 2, 1e-12, 0.5, ()), (10**6, 3, 1e-20, 0.5, ())]
            # only ell_max = (n-2k-1)//2 works
            + [(1000, 2, 3e-4, 0.5, ()), (10**6, 2, 3e-10, 0.5, ())]
        )
        reports = [
            cli.bounds_report(n, k, None, p, eps, sweep=True, extra_ells=ells)
            for n, k, p, eps, ells in grid
        ]
        assert sum(r["best_gap"] is None for r in reports) == 6
        assert sha256_of_reports(reports) == (
            "cfa8265a6e2b60f1f52fa549bb525240a5dd910856d2ee009ac3a3ca06c7c280"
        )

    def test_fixed_ell_reports_pinned(self):
        # digest computed when the report built t three times
        grid = [
            (n, k, ell, p, eps)
            for n, k in ((13, 2), (40, 2), (1000, 2), (10**6, 2), (200, 80),
                         (2003, 1000), (10**5, 5))
            for ell in (1, 2, 3, 7)
            for p, eps in ((0.5, 0.5), (1.0, 0.1), (0.9, 0.05))
            if n - 2 * k - 2 * ell + 1 >= 2
        ] + [(10**6, 2, 63096, 0.5, 0.5), (10**9, 2, 5000, 0.3, 0.2)]
        reports = [cli.bounds_report(*args) for args in grid]
        assert len(reports) == 74
        assert sha256_of_reports(reports) == (
            "7993424fd03fd72e287ff3de62beae5366f9f9ad357981adb983f8488566fd3f"
        )

    def test_fixed_ell_builds_t_once(self, monkeypatch):
        calls = []
        derived = bounds.derived_params

        def counting(*args):
            calls.append(args)
            return derived(*args)

        monkeypatch.setattr(bounds, "derived_params", counting)
        cli.bounds_report(10**6, 2, 63096, 0.5, 0.5)
        assert calls == [(10**6, 2, 63096)]

    def test_infeasible_sweep_at_1e9(self):
        rep = cli.bounds_report(10**9, 2, None, 1e-20, 0.5, sweep=True)
        assert rep["best_gap"] is None
        assert rep["certified"] == []

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "b.json"
        main(["bounds", "--n", "1000000", "--k", "2", "--ell", "63096",
              "--p", "0.5", "--eps", "0.5", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["rhs"] == float(f"{rep['rhs']:.12g}")


class TestGaleVerifyCmd:
    def test_ok(self, tmp_path):
        out = tmp_path / "gv.json"
        assert main(["gale-verify", "--n", "8", "--k", "2", "--ell", "1",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["ok"] is True and rep["general_position"] is True

    def test_s_flag(self, tmp_path):
        out = tmp_path / "gv.json"
        assert main(["gale-verify", "--n", "9", "--s", "3",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["d"] == 4

    @pytest.mark.parametrize("extra", [[], ["--k", "2"], ["--ell", "1"]])
    def test_no_s_nor_k_and_ell_exit_2(self, capsys, extra):
        rc = main(["gale-verify", "--n", "8", *extra])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert "provide --s or both --k and --ell" in err

    @pytest.mark.parametrize(
        "extra", [["--k", "3", "--ell", "2"], ["--k", "3"], ["--ell", "2"]]
    )
    def test_s_with_k_or_ell_exit_2(self, extra):
        # the report would follow --s and echo a k and ell it never read
        rc, out, err = run_cli(["gale-verify", "--n", "9", "--s", "2", *extra])
        assert (rc, out) == (2, "")
        assert "--s is not read with --k or --ell" in err and "Traceback" not in err

    @staticmethod
    def grid_reports():
        return [
            cli.gale_verify_report(n, s)
            for n in range(3, 17)
            for s in range(1, (n - 1) // 2 + 1)
        ]

    def test_reports_pinned(self, monkeypatch):
        # every valid (n, s) for n = 3..16; digests computed before the face
        # stream and the select_bits SubsetIndex.within
        reports = self.grid_reports()
        assert len(reports) == 56 and all(rep["ok"] for rep in reports)
        assert sha256_of_reports(reports) == (
            "9ce04246e842f5428ce14ec106b6512fb8031d5e9b9603bab998f10e0e6cb22d"
        )

        # the same grid on the all-positive curve (1, x, ..., x^(d-1)), where
        # every report carries a counterexample with its normal
        def positive_curve(n, s):
            d = n - 2 * s + 1
            return GaleEmbedding(n=n, s=s, d=d, signs=(1,) * n)

        monkeypatch.setattr(cli, "build_embedding", positive_curve)
        reports = self.grid_reports()
        assert not any(rep["ok"] for rep in reports)
        assert sha256_of_reports(reports) == (
            "2b61feb6f4745dc40936e16979ecd628e45a98c209ea918d2f53e557c7b071f8"
        )


class TestGeometryCaps:
    """Valid inputs past the geometry caps exit 4 before building anything."""

    @pytest.mark.parametrize("args", [
        ["witness", "--n", "30", "--k", "2", "--ell", "2", "--seed", "1"],
        ["witness", "--n", "20", "--k", "2", "--ell", "2", "--seed", "1"],
        ["witness", "--n", "64", "--k", "16", "--ell", "15", "--seed", "1"],
        ["gale-verify", "--n", "24", "--s", "3"],
        ["gale-verify", "--n", "30", "--s", "3"],
        # past the ground-set cap: refused before any point is built
        *[["gale-verify", "--n", str(n), "--s", "2"] for n in (800, 10**5, 10**400)],
        *[["witness", "--n", str(n), "--k", "2", "--ell", "2", "--seed", "1"]
          for n in (800, 10**5, 10**400)],
    ])
    def test_exit_4_within_a_second(self, args, capsys):
        start = time.perf_counter()
        assert main(args) == 4
        assert time.perf_counter() - start < 1.0
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("n,s", [(65, 32), (70, 34)])
    def test_gale_verify_past_the_ground_set_exits_4(self, n, s):
        # few hemispheres, so only the n <= 64 ground-set cap refuses these
        rc, out, err = run_cli(["gale-verify", "--n", str(n), "--s", str(s)])
        assert rc == 4 and out == ""
        assert f"n={n} exceeds 64" in err

    def test_cli_exit_code(self):
        rc, out, err = run_cli(["witness", "--n", "30", "--k", "2", "--ell", "2",
                                "--seed", "1"])
        assert rc == 4 and out == ""
        assert "faces of 30 points in dimension 23 exceed the cap" in err


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "k": 2, "family": "kneser"}))
        out = tmp_path / "g.json"
        assert main(["gen-graph", "--family", "kneser", "--n", "5", "--k", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 5

    def test_config_fills_missing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 1.0, "seed": 4}))
        out = tmp_path / "g.json"
        assert main(["gen-graph", "--family", "kneser", "--n", "5", "--k", "2",
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p"] == 1.0

    def test_required_flags_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "kneser", "n": 5, "k": 2}))
        out = tmp_path / "g.json"
        assert main(["gen-graph", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text() == PETERSEN_JSON

    @pytest.mark.parametrize(
        "args,entries,message",
        [
            (["gen-graph", "--family", "kneser", "--n", "5", "--k", "2"],
             [1, 2], "does not hold a JSON object"),
            (["gen-graph", "--family", "kneser", "--n", "5", "--k", "2"],
             {"p": "half", "seed": 4}, "invalid float value: 'half'"),
            (["bounds", "--n", "13", "--k", "2", "--p", "1.0", "--eps", "0.1"],
             {"bogus": 1}, "unrecognized arguments: --bogus=1"),
        ],
    )
    def test_bad_config_exit_2(self, tmp_path, args, entries, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        rc, out, err = run_cli([*args, "--config", str(cfg)])
        assert rc == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    def test_config_value_parses_like_the_flag(self, tmp_path):
        g, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-graph", "--family", "kneser", "--n", "7", "--k", "2",
              "--out", str(g)])
        cfg.write_text(json.dumps({"budget_nodes": "10"}))
        assert main(["chi", str(g), "--config", str(cfg), "--out", str(a)]) == 3
        assert main(["chi", str(g), "--budget-nodes", "10", "--out", str(b)]) == 3
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["config"]["budget_nodes"] == 10

    def test_config_switch_turns_sweep_on(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": True}))
        out = tmp_path / "b.json"
        assert main(["bounds", "--n", "13", "--k", "2", "--p", "1.0", "--eps", "0.1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["sweep"] is True
        assert rep["best_gap"] == {"ell": 4, "gap": 8, "chi_lower": 3}

    def test_config_echoed_into_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["random-chi", "--family", "kneser", "--n", "5", "--k", "2",
              "--p", "0.5", "--trials", "2", "--seed", "3", "--out", str(out)])
        first = out.read_text().splitlines()[0]
        echoed = json.loads(first.split(" ", 2)[2])
        assert echoed["p"] == 0.5 and echoed["seed"] == 3


class TestBudgetFlags:
    RANDOM_CHI = ["random-chi", "--family", "schrijver", "--n", "10", "--k", "3",
                  "--p", "0.5", "--trials", "1", "--seed", "1"]

    @pytest.mark.parametrize("command", ["chi", "random-chi"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--budget-ms", "nan"), ("--budget-ms", "-1"), ("--budget-ms", "-inf"),
         ("--budget-nodes", "-1")],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_or_negative_exit_2(self, tmp_path, command, flag, value, source):
        # a NaN deadline never passes, so the run would have no limit; a
        # negative cap would turn every solve into a timeout
        if command == "chi":
            g = tmp_path / "g.json"
            g.write_text(PETERSEN_JSON)
            args = ["chi", str(g)]
        else:
            args = list(self.RANDOM_CHI)
        if source == "flag":
            # one word: argparse would take a separate "-inf" for an option
            args.append(f"{flag}={value}")
        else:
            cfg = tmp_path / "cfg.json"
            key = flag[2:].replace("-", "_")
            number = float(value) if flag == "--budget-ms" else int(value)
            # json writes a NaN float as NaN, which its reader takes back
            cfg.write_text(json.dumps({key: number}))
            args += ["--config", str(cfg)]
        rc, out, err = run_cli(args)
        assert rc == 2
        assert out == ""
        assert f"argument {flag}: must be a number >= 0" in err
        assert "Traceback" not in err

    def test_unparsable_value_message_kept(self):
        rc, _, err = run_cli([*self.RANDOM_CHI, "--budget-nodes", "x"])
        assert rc == 2
        assert "argument --budget-nodes: invalid int value: 'x'" in err

    def test_zero_is_still_a_budget(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(PETERSEN_JSON)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        # no node may be spent; the deadline is checked every 1024 nodes, and
        # Petersen is solved in 5
        assert main(["chi", str(g), "--budget-nodes", "0", "--out", str(a)]) == 3
        assert main(["chi", str(g), "--budget-ms", "0", "--out", str(b)]) == 0
        assert json.loads(a.read_text())["status"] == "timeout"
        assert json.loads(b.read_text())["status"] == "exact"


class TestPackageRoot:
    def test_root_holds_only_its_submodules(self):
        # each public name is imported from its own module; loading the CLI
        # loads the package's ten modules and no other
        code = (
            "import sys, kneser_chroma, kneser_chroma.cli; "
            "print(sorted(n for n in vars(kneser_chroma) if not n.startswith('__'))); "
            "print(sorted(m for m in sys.modules if m.startswith('kneser_chroma')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        names, modules = proc.stdout.splitlines()
        submodules = ["bounds", "chromatic", "cli", "errors", "events", "gale",
                      "graphs", "seeds", "setfam"]
        assert names == repr(submodules)
        assert modules == repr(["kneser_chroma"]
                               + [f"kneser_chroma.{m}" for m in submodules])


class TestFlags:
    """Every subcommand's flags, pinned: a new knob is a reviewed edit here."""

    FLAGS = {
        "gen-graph": ["--family", "--n", "--k", "--p", "--seed", "--config", "--out"],
        "chi": ["input", "--budget-nodes", "--budget-ms", "--config", "--out"],
        "random-chi": ["--family", "--n", "--k", "--ell", "--p", "--trials", "--seed",
                       "--budget-nodes", "--budget-ms", "--format", "--config",
                       "--out"],
        "event-a": ["--n", "--k", "--ell", "--p", "--seed", "--config", "--out"],
        "witness": ["--n", "--k", "--ell", "--seed", "--coloring-file", "--config",
                    "--out"],
        "bounds": ["--n", "--k", "--ell", "--p", "--eps", "--sweep", "--ells",
                   "--config", "--out"],
        "gale-verify": ["--n", "--s", "--k", "--ell", "--config", "--out"],
    }

    def test_flags_pinned(self):
        parser = cli.build_parser()
        subs = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: [
                flag
                for action in sub._actions
                for flag in action.option_strings or [action.dest]
                if flag not in ("-h", "--help")
            ]
            for name, sub in subs.choices.items()
        }
        assert flags == self.FLAGS

    @pytest.mark.parametrize("source", ["--max-vertices", "--max-nodes", "config"])
    def test_removed_caps_exit_2(self, tmp_path, capsys, source):
        if source == "--max-nodes":
            args = ["event-a", "--n", "8", "--k", "2", "--ell", "1", "--p", "0.5",
                    "--seed", "1", "--max-nodes", "10"]
        else:
            args = ["gen-graph", "--family", "kneser", "--n", "5", "--k", "2"]
            if source == "config":
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps({"max_vertices": 10}))
                args += ["--config", str(cfg)]
            else:
                args += ["--max-vertices", "10"]
        with pytest.raises(SystemExit) as exit_:
            main(args)
        out, err = capsys.readouterr()
        assert (exit_.value.code, out) == (2, "")
        assert "unrecognized arguments: --max-" in err

    def test_worker_count_is_no_parameter(self):
        with pytest.raises(TypeError, match="workers"):
            run_random_chi("kneser", 5, 2, 0.5, trials=1, master_seed=1, workers=1)
