import json
import os
import subprocess
import sys

import pytest

from kneser_chroma.chromatic import chromatic_number
from kneser_chroma.cli import (
    CSV_HEADER,
    event_a_oracle,
    main,
    run_random_chi,
    run_witness,
)
from kneser_chroma.graphs import adjacent, build_schrijver, sample_subgraph

PETERSEN_JSON = (
    '{"family":"kneser","n":5,"k":2,"p":null,"seed":null,"rng_id":null,'
    '"vertices":[3,5,6,9,10,12,17,18,20,24],'
    '"edges":[[0,5],[0,8],[0,9],[1,4],[1,7],[1,9],[2,3],[2,6],[2,9],'
    "[3,7],[3,8],[4,6],[4,8],[5,6],[5,7]]}\n"
)


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

    def test_seed_required_with_p(self):
        rc, _, _ = run_cli(["gen-graph", "--family", "kneser", "--n", "5",
                            "--k", "2", "--p", "0.5"])
        assert rc == 2


class TestChi:
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

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = ["random-chi", "--family", "kneser", "--n", "6", "--k", "2",
                "--p", "0.5", "--trials", "8", "--seed", "9"]
        rc1, out1, _ = run_cli(args)
        rc2, out2, _ = run_cli(args, env_extra={"KNESER_CHROMA_THREADS": "3"})
        assert rc1 == rc2 == 0
        assert out1 == out2

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
        assert "JSON only" in err


class TestEventA:
    def test_p0_holds(self):
        rep = event_a_oracle(8, 2, 1, 0.0, seed=1)
        assert rep.holds
        assert rep.partitions_examined >= 1

    def test_p1_fails(self):
        rep = event_a_oracle(8, 2, 1, 1.0, seed=1)
        assert not rep.holds
        assert rep.partitions_examined == 56  # 2 * C(8,2)

    def test_witness_is_cross_independent(self):
        found = 0
        for seed in range(20):
            rep = event_a_oracle(8, 2, 1, 0.5, seed=seed)
            if not rep.holds:
                continue
            found += 1
            d = 3
            parent = build_schrijver(8, 2)
            g = sample_subgraph(parent, 0.5, seed)
            masks = [v.mask for v in g.vertices]
            plus, minus = rep.partition.plus_mask, rep.partition.minus_mask
            sp = [i for i, m in enumerate(masks) if m & plus == m]
            sm = [i for i, m in enumerate(masks) if m & minus == m]
            assert len(rep.m_plus) == -(-len(sp) // d)
            assert len(rep.m_minus) == -(-len(sm) // d)
            assert set(rep.m_plus) <= set(sp)
            assert set(rep.m_minus) <= set(sm)
            for u in rep.m_plus:
                for v in rep.m_minus:
                    assert not adjacent(g, u, v)
        assert found > 0

    def test_node_cap_exit_4(self, tmp_path):
        rc, _, err = run_cli(["event-a", "--n", "10", "--k", "2", "--ell", "1",
                              "--p", "0.99", "--seed", "3", "--max-nodes", "5"])
        assert rc == 4
        assert "too large" in err

    def test_cli_json(self, tmp_path):
        out = tmp_path / "ea.json"
        assert main(["event-a", "--n", "8", "--k", "2", "--ell", "1",
                     "--p", "0.0", "--seed", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["holds"] is True
        assert rep["witness"]["m_plus"]


class TestWitnessCmd:
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

    def test_config_echoed_into_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["random-chi", "--family", "kneser", "--n", "5", "--k", "2",
              "--p", "0.5", "--trials", "2", "--seed", "3", "--out", str(out)])
        first = out.read_text().splitlines()[0]
        echoed = json.loads(first.split(" ", 2)[2])
        assert echoed["p"] == 0.5 and echoed["seed"] == 3
