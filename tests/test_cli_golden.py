"""Golden bytes of the CLI: the sha256 of one run's artifact and its exit code
for each command and output form.

Every run happens in a scratch directory holding three inputs, each made by
the CLI itself: ``g.json`` (gen-graph, SG(8,2) sampled at p = 0.4, seed 11),
``c.json`` (chi of ``g.json``) and ``cfg.json`` (a random-chi config).  Paths
are relative, so the config echo of chi and witness stays the same bytes.
"""

import hashlib
import json
import re

import pytest

from kneser_chroma.cli import main

SG_8_2 = ["--family", "schrijver", "--n", "8", "--k", "2"]
RANDOM_CHI = ["random-chi", *SG_8_2, "--ell", "1", "--p", "0.6", "--trials", "12",
              "--seed", "5"]

# name: (argv, exit code, sha256 of stdout, or of out.json when argv has --out)
CASES = {
    "gen-graph-sampled": (
        ["gen-graph", "--family", "schrijver", "--n", "9", "--k", "3", "--p",
         "0.5", "--seed", "3"],
        0, "8bfa733bfb7ce10fa49d1930e68f6cac24518d97125e901071ab6360981458c8",
    ),
    "chi-exact": (
        ["chi", "g.json"],
        0, "f0b52c96193b0ca643d7bcc61b48be8f544edf2e365706825b9b24c10a506c85",
    ),
    "chi-budget-exit-3": (
        ["chi", "g.json", "--budget-nodes", "1"],
        3, "c66e7c0d23ae84e6c61b102e831c15c72c0a6b8500092a0f11fcc2fe25d58df4",
    ),
    "random-chi-csv": (
        [*RANDOM_CHI, "--budget-nodes", "2000"],
        0, "538eb081adfcdd1d9c3ada48656982fe58352a3229b5076b93a34ea800233a49",
    ),
    "random-chi-json": (
        [*RANDOM_CHI, "--budget-nodes", "2000", "--format", "json"],
        0, "40f8a56ea331b88ddd1f75b80b2cceb164c3b937ba2e2e0733ba26538ee55500",
    ),
    "event-a": (
        ["event-a", "--n", "8", "--k", "2", "--ell", "1", "--p", "0.3", "--seed",
         "4"],
        0, "353e40e118d1302f278f09d7633a86eacbffa21dcd565a6d656c2804f4e759c6",
    ),
    "witness-seed": (
        ["witness", "--n", "9", "--k", "2", "--ell", "1", "--seed", "2"],
        0, "a84a72c787a705df52c1bfb1ab495d0afad232d22b2eea93b1b5ff535eed0eb8",
    ),
    "witness-coloring-file": (
        ["witness", "--n", "8", "--k", "2", "--ell", "1", "--coloring-file",
         "c.json"],
        0, "c4ca63b78f719025c2402a653276bb995934293f6aca893363cbe3be704c9d3d",
    ),
    "bounds-ell": (
        ["bounds", "--n", "1000000", "--k", "2", "--ell", "63096", "--p", "0.5",
         "--eps", "0.5"],
        0, "f9b7a5dba8decb51096b50adad68a687b7fe1470740d71a2115693d067f92526",
    ),
    "bounds-sweep": (
        ["bounds", "--n", "1000", "--k", "3", "--p", "0.5", "--eps", "0.1",
         "--sweep", "--ells", "3", "7"],
        0, "678e9d32a667b2ea4d7710d15b7a77d02ef07177c57ce6c1ce46c2235304442a",
    ),
    "gale-verify-s": (
        ["gale-verify", "--n", "11", "--s", "3"],
        0, "c81507d12e7f282a43f74fa83d4dd02f7de333fdaf0ceef3c8fae4f6b621afe3",
    ),
    "gale-verify-k-ell": (
        ["gale-verify", "--n", "10", "--k", "2", "--ell", "1"],
        0, "ef0316ec20211750a08041ec16e7335f81f352f023b97f59695acab3cdf5a23d",
    ),
    "config": (
        ["random-chi", "--config", "cfg.json"],
        0, "e109760fed7f67c1dfe2398b80740f162f565e97b3f16a9d7e53dc6c1de3e37b",
    ),
    "out": (
        ["bounds", "--n", "500", "--k", "4", "--p", "0.9", "--eps", "0.2",
         "--sweep", "--out", "out.json"],
        0, "3b19779dbab07f7567cd96acbf9ed1dfacbe41adbbcda05e87a6a102350eec35",
    ),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KNESER_CHROMA_THREADS", raising=False)
    assert main(["gen-graph", *SG_8_2, "--p", "0.4", "--seed", "11",
                 "--out", "g.json"]) == 0
    assert main(["chi", "g.json", "--out", "c.json"]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps({
        "family": "kneser", "n": 7, "k": 2, "p": 0.8, "trials": 6, "seed": 9,
        "budget_nodes": 500, "format": "json",
    }))
    capsys.readouterr()
    return tmp_path


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_golden_bytes(name, workdir, capsys):
    argv, code, want = CASES[name]
    assert main(argv) == code
    out, _ = capsys.readouterr()
    if "--out" in argv:
        assert out == ""
        out = (workdir / argv[argv.index("--out") + 1]).read_text()
    assert _sha(out) == want


@pytest.mark.parametrize("form", ["csv", "json"])
def test_budget_ms_elapsed(form, workdir, capsys):
    # a wall-clock budget makes elapsed_ms real: its digits vary, its form not
    assert main([*RANDOM_CHI, "--budget-ms", "60000", "--format", form]) == 0
    out, _ = capsys.readouterr()
    if form == "json":
        elapsed = [row["elapsed_ms"] for row in json.loads(out)["rows"]]
        texts = [repr(ms) for ms in elapsed]
        assert all(type(ms) is float for ms in elapsed)
    else:
        texts = [line.split(",")[4] for line in out.splitlines()[2:-1]]
        assert all(float(text) >= 0.0 for text in texts)
    assert len(texts) == 12
    assert all(re.fullmatch(r"\d+\.\d{1,3}", text) for text in texts), texts
