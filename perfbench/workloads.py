"""The benchmark's workloads: inputs from a seed, ops, and output checks.

An op is one unit of user work.  It calls the same public functions as the
CLI command it stands for, in the same order, and writes the same artifact
bytes (the parity tests in ``perfbench/tests`` hold it to that).  Functions
are looked up through their modules at call time, so the traced run's
rebinding sees every call.

Ops come in rounds: a fixed list of op kinds, each with fresh inputs drawn
from the workload seed.  A pass is the first ``rounds_per_pass`` rounds, so
every pass of a workload runs the same ops on the same inputs; the benchmark
repeats passes in fresh processes and times each op by its median pass.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations, islice

from kneser_chroma import chromatic, cli, graphs, seeds

from spans import ARTIFACT, JSON_READ


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _canonical(obj) -> str:
    # the CLI's JSON artifact format: compact separators, trailing newline
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _write(path, text: str) -> int:
    # as the CLI's --out does
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return len(text.encode("utf-8"))


def _note(span, key: str, value: int) -> None:
    if span is not None:
        span.bump(key, value)


class Workload:
    name = ""
    why = ""
    # rounds in one pass; sized so that a pass takes a few seconds and holds
    # enough ops for a tail percentile with ten ops beyond it
    rounds_per_pass = 1
    # spans the traced run must see; a missing one means the op path no
    # longer calls the function the layer metric is built on
    required_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir, tracer):
        self.seed = seed
        self.out = out_dir
        self.tracer = tracer
        self.rng = _rng(self.name, seed)

    def rounds(self):
        while True:
            yield self.next_round()

    def pass_ops(self) -> list:
        """The ops of one pass: the same list in every process for a seed."""
        return [spec for ops in islice(self.rounds(), self.rounds_per_pass) for spec in ops]

    def next_round(self) -> list:
        raise NotImplementedError

    def run_op(self, spec):
        raise NotImplementedError

    def check(self, spec, result) -> list[str]:
        raise NotImplementedError

    def timeouts(self, result) -> int:
        """Solver runs of this op that stopped at the node budget."""
        return 0


# --- random-chi-sg --------------------------------------------------------


def random_chi_trial(parent, p: float, master_seed: int, trial: int, budget: int):
    """One ``random-chi`` trial as the CLI runs it: sample, then solve."""
    seed = seeds.trial_seed(master_seed, trial)
    sampled = graphs.sample_subgraph(parent, p, seed)
    res = chromatic.chromatic_number(sampled, chromatic.Budget(max_nodes=budget))
    # elapsed_ms is not emitted under a node budget
    return (trial, seed, res.chi, res.status, 0.0), sampled, res


def random_chi_artifact(family, n, k, p, master_seed, budget, rows) -> str:
    """CSV of ``random-chi --trials len(rows) --budget-nodes budget``."""
    solved = sum(1 for row in rows if row[3] == chromatic.EXACT)
    summary = {"trials": len(rows), "solved": solved, "timeouts": len(rows) - solved}
    config = {
        "family": family,
        "n": n,
        "k": k,
        "p": p,
        "trials": len(rows),
        "seed": master_seed,
        "budget_nodes": budget,
    }
    return cli.random_chi_csv(rows, summary, config, False)


def _edges(graph):
    """(u, v) with u < v for every edge, read straight from the bitsets."""
    for u, row in enumerate(graph.adj):
        row >>= u + 1
        v = u
        while row:
            step = (row & -row).bit_length()
            v += step
            row >>= step
            yield u, v


def _clique_problem(graph, clique) -> str | None:
    for u, v in combinations(clique, 2):
        if not graph.adj[u] >> v & 1:
            return f"clique members {u} and {v} are not adjacent"
    return None


def _coloring_problem(graph, coloring, chi: int, exact: bool) -> str | None:
    if len(coloring) != graph.num_vertices:
        return "coloring does not cover every vertex"
    for u, v in _edges(graph):
        if coloring[u] == coloring[v]:
            return f"edge ({u},{v}) is monochromatic"
    used = len(set(coloring))
    if max(coloring) >= chi or (exact and used != chi):
        return f"coloring uses {used} colors (max {max(coloring)}), chi={chi}"
    return None


class RandomChiSG(Workload):
    name = "random-chi-sg"
    why = (
        "the paper's Monte Carlo regime: coupled trials near p=1 on a Schrijver "
        "graph, where the exact solver is the cost"
    )
    FAMILY, N, K = "schrijver", 10, 3
    PS = (0.9, 0.97)
    BUDGET = 5000
    # trial costs are heavy-tailed (median about 850 nodes, mean 1,700);
    # 300 trials keep a pass's mean cost within a few percent across seeds
    rounds_per_pass = 300
    required_spans = ("graphs.sample_subgraph", "chromatic.chromatic_number")

    def __init__(self, seed, out_dir, tracer):
        super().__init__(seed, out_dir, tracer)
        self.parent = graphs.build_schrijver(self.N, self.K)

    def next_round(self):
        return [self.rng.getrandbits(62)]

    def run_op(self, master_seed):
        trials = []
        for p in self.PS:
            row, sampled, res = random_chi_trial(
                self.parent, p, master_seed, 0, self.BUDGET
            )
            with self.tracer.region(ARTIFACT) as span:
                text = random_chi_artifact(
                    self.FAMILY, self.N, self.K, p, master_seed, self.BUDGET, [row]
                )
                _note(span, "artifact_bytes", _write(self.out / f"random-chi-{p}.csv", text))
            trials.append((sampled, res))
        return trials

    def timeouts(self, result):
        return sum(res.status != chromatic.EXACT for _, res in result)

    def check(self, master_seed, result):
        problems = []
        ceiling = self.N - 2 * self.K + 2
        for (sampled, res), p in zip(result, self.PS):
            exact = res.status == chromatic.EXACT
            for problem in (
                _coloring_problem(sampled, res.coloring, res.chi, exact),
                _clique_problem(sampled, res.clique),
            ):
                if problem:
                    problems.append(f"p={p}: {problem}")
            if not len(res.clique) <= res.lower <= res.upper == res.chi <= ceiling:
                problems.append(
                    f"p={p}: bounds |clique|={len(res.clique)} lower={res.lower} "
                    f"upper={res.upper} chi={res.chi} ceiling={ceiling} out of order"
                )
        (_, lo), (_, hi) = result
        if lo.status == hi.status == chromatic.EXACT and lo.chi > hi.chi:
            problems.append(f"coupled chi not monotone in p: {lo.chi} > {hi.chi}")
        return [f"seed {master_seed}: {msg}" for msg in problems]


# --- gen-graph-rt ---------------------------------------------------------


class GenGraphRT(Workload):
    name = "gen-graph-rt"
    why = (
        "gen-graph then chi's file read, no solver: graph build, edge sampling "
        "and canonical JSON both ways"
    )
    # KG(12,4) has 495 vertices and 17,325 edges, SG(14,4) 294 and SG(15,4)
    # 450 vertices; an op takes 40-130 ms, so a pass holds 36 ops.  Nine op
    # kinds, an odd number, put the median op inside one kind, not on the
    # step between two.
    PARENTS = (("kneser", 12, 4), ("schrijver", 14, 4), ("schrijver", 15, 4))
    PS = (0.3, 0.6, 0.9)
    rounds_per_pass = 4
    required_spans = (
        "setfam.enumerate_ksubsets",
        "graphs.build_kneser",
        "graphs.build_schrijver",
        "graphs.sample_subgraph",
        "graphs.to_canonical_json",
        "graphs.from_json_dict",
    )

    def __init__(self, seed, out_dir, tracer):
        super().__init__(seed, out_dir, tracer)
        self._previous = (None, None, None)

    def next_round(self):
        seed = self.rng.getrandbits(62)
        return [(fam, n, k, p, seed) for fam, n, k in self.PARENTS for p in self.PS]

    def run_op(self, spec):
        family, n, k, p, seed = spec
        graph = cli.gen_graph(family, n, k, p=p, seed=seed)
        path = self.out / "graph.json"
        with self.tracer.region(ARTIFACT) as span:
            _note(span, "artifact_bytes", _write(path, graphs.to_canonical_json(graph)))
        # what `chi FILE` does before it solves
        with self.tracer.region(JSON_READ):
            with open(path, encoding="utf-8") as fh:
                parsed = graphs.from_json_dict(json.load(fh))
        return graph, parsed

    def check(self, spec, result):
        family, n, k, p, seed = spec
        graph, parsed = result
        problems = []
        masks = [v.mask for v in graph.vertices]
        if [v.mask for v in parsed.vertices] != masks or parsed.adj != graph.adj:
            problems.append("parsed graph differs from the sampled one")
        clash = next(((u, v) for u, v in _edges(graph) if masks[u] & masks[v]), None)
        if clash:
            problems.append(f"kept edge {clash} joins intersecting sets")
        # a round samples one parent at rising p with one seed: kept edge
        # sets must nest
        key = (family, n, k, seed)
        prev_key, prev_p, prev_adj = self._previous
        if prev_key == key and prev_p < p:
            if any(a & ~b for a, b in zip(prev_adj, graph.adj)):
                problems.append(f"edges kept at p={prev_p} are not kept at p={p}")
        self._previous = (key, p, graph.adj)
        return [f"{family}({n},{k}) p={p} seed={seed}: {msg}" for msg in problems]


# --- witness-grid ---------------------------------------------------------


def gale_verify_artifact(n: int, s: int) -> tuple[dict, str]:
    """``gale-verify --n n --s s``."""
    out = cli.gale_verify_report(n, s)
    out["config"] = {"n": n, "s": s}
    return out, _canonical(out)


def witness_artifact(n: int, k: int, ell: int, seed: int) -> tuple[dict, str]:
    """``witness --n n --k k --ell ell --seed seed``."""
    out = cli.run_witness(n=n, k=k, ell=ell, coloring_seed=seed)
    out["config"] = {"n": n, "k": k, "ell": ell, "seed": seed}
    return out, _canonical(out)


def _stable_masks(n: int, k: int) -> list[int]:
    # colex order on k-subsets is the numeric order of their bitmasks
    full = (1 << n) - 1
    masks = []
    for elems in combinations(range(n), k):
        mask = sum(1 << e for e in elems)
        succ = ((mask << 1) | (mask >> (n - 1))) & full
        if k <= 1 or mask & succ == 0:
            masks.append(mask)
    return sorted(masks)


def witness_problems(n: int, k: int, ell: int, seed: int, out: dict) -> list[str]:
    """Re-derive a witness's signs and side color counts from first principles."""
    s = k + ell
    d = n - 2 * s + 1
    normal = out["normal"]
    signs = ""
    for i in range(1, n + 1):
        sgn = -1 if i % 2 else 1
        dot = sum(sgn * i**j * c for j, c in enumerate(normal))
        signs += "+" if dot > 0 else "-" if dot < 0 else "0"
    if signs != out["signs"]:
        return [f"signs {out['signs']} but the normal gives {signs}"]
    plus = sum(1 << i for i, c in enumerate(signs) if c == "+")
    minus = sum(1 << i for i, c in enumerate(signs) if c == "-")
    stables = _stable_masks(n, k)
    if out["num_stable"] != len(stables) or out["d"] != d:
        return [f"num_stable={out['num_stable']} d={out['d']} disagree with the instance"]
    colors = [seeds.color_at(seed, i, d) for i in range(len(stables))]
    color = out["color"]
    inside_pos = [i for i, m in enumerate(stables) if m & plus == m]
    inside_neg = [i for i, m in enumerate(stables) if m & minus == m]
    want = {
        "pos": sum(colors[i] == color for i in inside_pos),
        "neg": sum(colors[i] == color for i in inside_neg),
        "t_pos": -(-len(inside_pos) // d),
        "t_neg": -(-len(inside_neg) // d),
    }
    problems = []
    if out["counts"] != want:
        problems.append(f"counts {out['counts']} but recount gives {want}")
    if want["pos"] < want["t_pos"] or want["neg"] < want["t_neg"]:
        problems.append(f"color {color} misses a side threshold: {want}")
    return problems


class WitnessGrid(Workload):
    name = "witness-grid"
    why = (
        "gale-verify plus witness --seed per instance: face enumeration, the "
        "per-face census and the lookup, precompute included"
    )
    # (n, k, ell) with d = n - 2(k+ell) + 1 of 3 or 4; an op takes 50-300 ms,
    # almost all of it face enumeration.  Instances with d >= 5, or n = 11
    # at d = 4, take 0.6-11 s an op, too long to repeat a pass of them.
    INSTANCES = ((10, 2, 2), (12, 3, 2), (12, 2, 3), (9, 2, 1))
    rounds_per_pass = 6
    required_spans = (
        "gale.build_embedding",
        "gale.general_position_check",
        "gale.verify_gale_property",
        "gale.enumerate_faces",
        "gale.WitnessSearch",
        "gale.WitnessSearch.find",
    )

    def next_round(self):
        return [(n, k, ell, self.rng.getrandbits(62)) for n, k, ell in self.INSTANCES]

    def run_op(self, spec):
        n, k, ell, seed = spec
        verify, verify_text = gale_verify_artifact(n, k + ell)
        with self.tracer.region(ARTIFACT) as span:
            _note(span, "artifact_bytes", _write(self.out / "gale-verify.json", verify_text))
        witness, witness_text = witness_artifact(n, k, ell, seed)
        with self.tracer.region(ARTIFACT) as span:
            _note(span, "artifact_bytes", _write(self.out / "witness.json", witness_text))
        return verify, witness

    def check(self, spec, result):
        n, k, ell, seed = spec
        verify, witness = result
        problems = []
        if not (verify["ok"] and verify["general_position"]):
            problems.append(f"gale-verify not ok: {verify}")
        problems += witness_problems(n, k, ell, seed, witness)
        return [f"witness({n},{k},{ell}) seed={seed}: {msg}" for msg in problems]


# --- bounds-sweep ---------------------------------------------------------


def bounds_artifact(n, k, ell, p, eps, sweep: bool) -> tuple[dict, str]:
    """``bounds --n n --k k [--ell ell] --p p --eps eps [--sweep]``."""
    out = cli.bounds_report(n, k, ell, p, eps, sweep=sweep)
    config = {"n": n, "k": k, "ell": ell, "p": p, "eps": eps, "sweep": sweep}
    out["config"] = {key: value for key, value in config.items() if value is not None}
    return out, _canonical(out)


def condition_mp(n: int, k: int, ell: int, p: float, eps: float) -> bool:
    """The theorem's condition evaluated in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        d = n - 2 * k - 2 * ell + 1
        t = -(-math.comb(k + ell, k) // d)
        rhs = n * mpmath.log(3) / mpmath.mpf(t) ** 2 + 2 * (1 + mpmath.log(d)) / t
        return (1 - mpmath.mpf(eps)) * mpmath.mpf(p) > rhs


class BoundsSweep(Workload):
    name = "bounds-sweep"
    why = (
        "bounds --sweep over n, k and a p/eps grid plus fixed-ell reports; only "
        "the k=2 sweeps spend real time in best_gap"
    )
    NS = (10**5, 10**6, 10**7)
    KS = (2, 3, 5)
    PE = ((0.5, 0.1), (0.9, 0.05), (0.3, 0.2))
    # (p, eps) points per k.  k=2 sweeps stop at n=1e6 (40-360 ms); at
    # n=1e7 one takes 1.4-2 s, too long to repeat a pass of them.  With 80
    # ops a pass, the median op is a k=3, n=1e6 sweep (about 5 ms) and the
    # tail op a k=2, n=1e6 sweep at (0.9, 0.05), each among ops of one kind;
    # k=5 sweeps take about 1 ms and vary by a third from run to run, so
    # only one point of them keeps the median off them.
    GRID = {2: PE, 3: PE, 5: PE[:1]}
    K2_MAX_N = 10**6
    # criterion 07's instance and one more fixed-ell report
    FIXED = ((10**6, 2, 63096, 0.5, 0.5), (10**5, 3, 675, 0.5, 0.1))
    JITTER = 0.02
    rounds_per_pass = 4
    required_spans = (
        "bounds.best_gap",
        "bounds.corollary_regime_report",
        "bounds.ln_pA_bound",
    )

    def _jitter(self, x: float) -> float:
        return x * (1.0 + self.JITTER * (2.0 * self.rng.random() - 1.0))

    def next_round(self):
        ops = [
            (n, k, None, self._jitter(p), self._jitter(eps))
            for n in self.NS
            for k in self.KS
            if k != 2 or n <= self.K2_MAX_N
            for p, eps in self.GRID[k]
        ]
        return ops + list(self.FIXED)

    def run_op(self, spec):
        n, k, ell, p, eps = spec
        out, text = bounds_artifact(n, k, ell, p, eps, sweep=ell is None)
        with self.tracer.region(ARTIFACT) as span:
            _note(span, "artifact_bytes", _write(self.out / "bounds.json", text))
        return out

    def check(self, spec, out):
        n, k, ell, p, eps = spec
        problems = []
        if ell is not None:
            if out["condition"] != condition_mp(n, k, ell, p, eps):
                problems.append(f"condition {out['condition']} disagrees with mpmath")
        else:
            gap = out["best_gap"]
            if gap is None:
                problems.append("no ell satisfies the condition")
            else:
                e = gap["ell"]
                if not condition_mp(n, k, e, p, eps):
                    problems.append(f"condition fails at the returned ell={e}")
                if e > 1 and condition_mp(n, k, e - 1, p, eps):
                    problems.append(f"condition already holds at ell-1={e - 1}")
                if gap["gap"] != 2 * e or gap["chi_lower"] != n - 2 * k - 2 * e + 2:
                    problems.append(f"best_gap fields inconsistent: {gap}")
        return [f"bounds n={n} k={k} ell={ell} p={p!r} eps={eps!r}: {m}" for m in problems]


WORKLOADS = {w.name: w for w in (RandomChiSG, GenGraphRT, WitnessGrid, BoundsSweep)}
