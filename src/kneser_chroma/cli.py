"""Experiment harness: graph generation, solving, event-A checks, sweeps.

Exit codes are part of the interface: 0 ok, 2 input error, 3 solver timeout,
4 capacity exceeded, 5 falsification (a verified claim failed).  Every
command that takes a master seed produces byte-identical output across runs
and worker counts; per-trial work is keyed by (master_seed, trial index).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

from . import bounds as bounds_mod
from . import seeds
from .chromatic import EXACT, Budget, chromatic_number
from .errors import CapacityError, NoWitnessFound
from .events import event_a_json_dict, event_a_oracle
from .gale import (
    WitnessSearch,
    build_embedding,
    general_position_check,
    partition_to_json_dict,
    verify_gale_property,
    witness_to_json_dict,
)
from .graphs import (
    build_kneser,
    build_schrijver,
    from_json_dict,
    sample_subgraph,
    to_canonical_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_CAPACITY = 4
EXIT_FALSIFIED = 5

CSV_HEADER = "trial,seed,chi,status,elapsed_ms"

# every trial's row is held at once (about 170 MiB per 10**6 trials)
MAX_TRIALS = 10**6


def _round12(x: float) -> float:
    """Floats in reports carry 12 significant digits."""
    return float(f"{x:.12g}")


def _rounded(fields: dict) -> dict:
    """A copy of a record's fields with ``_round12`` applied to every float."""
    return {key: _round12(v) if type(v) is float else v for key, v in fields.items()}


def _finite_json(obj):
    """``obj`` with each non-finite float as its repr: "inf", "-inf", "nan"."""
    if type(obj) is float:
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {key: _finite_json(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _canonical_json(obj) -> str:
    """One line of strict JSON: a non-finite float goes out as a string."""
    text = json.dumps(_finite_json(obj), separators=(",", ":"), allow_nan=False)
    return text + "\n"


def worker_count() -> int:
    """Worker cap from KNESER_CHROMA_THREADS; defaults to serial."""
    raw = os.environ.get("KNESER_CHROMA_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _build_family(family: str, n: int, k: int):
    if family == "kneser":
        return build_kneser(n, k)
    if family == "schrijver":
        return build_schrijver(n, k)
    raise ValueError(f"unknown family {family!r} (expected kneser or schrijver)")


# --- gen-graph ------------------------------------------------------------


def gen_graph(
    family: str,
    n: int,
    k: int,
    p: float | None = None,
    seed: int | None = None,
):
    if (p is None) != (seed is None):
        raise ValueError("--p and --seed are read only together: sampling needs both")
    graph = _build_family(family, n, k)
    if p is not None:
        graph = sample_subgraph(graph, p, seed)
    return graph


# --- chi ------------------------------------------------------------------


def chi_report(graph, budget: Budget | None) -> dict:
    res = chromatic_number(graph, budget)
    return {
        "chi": res.chi,
        "status": res.status,
        "nodes": res.nodes_explored,
        "lower": res.lower,
        "upper": res.upper,
        "num_colors": res.chi,
        "coloring": list(res.coloring),
        "clique": list(res.clique),
    }


# --- random-chi -----------------------------------------------------------


def _random_chi_trial(parent, p, master_seed, budget, trial):
    seed = seeds.trial_seed(master_seed, trial)
    sampled = sample_subgraph(parent, p, seed)
    t0 = time.perf_counter()
    res = chromatic_number(sampled, budget)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return trial, seed, res.chi, res.status, elapsed_ms


def run_random_chi(
    family: str,
    n: int,
    k: int,
    p: float,
    trials: int,
    master_seed: int,
    ell: int | None = None,
    max_nodes: int | None = None,
    max_ms: float | None = None,
) -> tuple[list[tuple], dict]:
    """One row per trial plus a summary; chi values are seed-deterministic."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise CapacityError(f"trials={trials} exceeds the cap of {MAX_TRIALS}")
    # a bad ell or budget is refused before the parent is built or any trial solved
    threshold = None if ell is None else bounds_mod.derived_params(n, k, ell)[0] + 1
    budget = Budget(max_nodes, max_ms)
    parent = _build_family(family, n, k)
    trial = partial(_random_chi_trial, parent, p, master_seed, budget)
    # the pool forks all its workers up front: no more than the trials or the CPUs
    nworkers = min(worker_count(), trials, os.cpu_count() or 1)
    if nworkers > 1:
        # imported here: it loads multiprocessing and logging, which no other
        # command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            rows = list(pool.map(trial, range(trials), chunksize=8))
    else:
        rows = list(map(trial, range(trials)))

    exact_rows = [r for r in rows if r[3] == EXACT]
    summary = {
        "trials": trials,
        "solved": len(exact_rows),
        "timeouts": trials - len(exact_rows),
    }
    if threshold is not None:
        summary["chi_threshold"] = threshold
        if exact_rows:
            freq = sum(1 for r in exact_rows if r[2] >= threshold) / len(exact_rows)
            summary["freq_chi_ge_threshold"] = _round12(freq)
        else:
            summary["freq_chi_ge_threshold"] = None
    return rows, summary


def random_chi_csv(rows, summary, config: dict, emit_elapsed: bool) -> str:
    """CSV artifact; elapsed_ms stays empty under node budgets so that
    outputs are byte-identical across runs and worker counts."""
    lines = ["# config " + json.dumps(config, separators=(",", ":"))]
    lines.append(CSV_HEADER)
    for trial, seed, chi, status, elapsed_ms in rows:
        ms = f"{elapsed_ms:.3f}" if emit_elapsed else ""
        lines.append(f"{trial},{seed},{chi},{status},{ms}")
    lines.append("# summary " + json.dumps(summary, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# --- witness --------------------------------------------------------------


def run_witness(
    n: int,
    k: int,
    ell: int,
    coloring_seed: int | None = None,
    coloring: list[int] | None = None,
    num_colors: int | None = None,
) -> dict:
    d, _ = bounds_mod.derived_params(n, k, ell)
    emb = build_embedding(n, k + ell)
    search = WitnessSearch(emb, k)
    if coloring is None:
        if coloring_seed is None:
            raise ValueError("provide either a coloring file or a coloring seed")
        coloring = [
            seeds.color_at(coloring_seed, i, d) for i in range(search.num_stable)
        ]
    elif num_colors is not None and num_colors != d:
        raise ValueError(f"coloring uses {num_colors} colors but d={d}")
    witness = search.find(coloring)
    out = witness_to_json_dict(witness)
    out["d"] = d
    out["num_stable"] = search.num_stable
    return out


# --- bounds ---------------------------------------------------------------


def bounds_report(
    n: int,
    k: int,
    ell: int | None,
    p: float,
    eps: float,
    sweep: bool = False,
    extra_ells=(),
) -> dict:
    # _round12 by name, so that an int p or eps still prints as a float; the
    # field order of each record is its key order in the report
    out: dict = {"n": n, "k": k, "p": _round12(p), "eps": _round12(eps)}
    if ell is not None:
        params = bounds_mod.TheoremParams(n=n, k=k, ell=ell, p=p, eps=eps)
        d, t = params.dt
        out.update(
            ell=ell,
            d=d,
            t=t,
            rhs=_round12(bounds_mod._rhs(n, d, t)),
            lhs=_round12((1.0 - eps) * p),
            condition=bounds_mod.condition_holds(params),
            g_decreasing=bounds_mod.g_is_decreasing(d, t, p),
            chain=_rounded(bounds_mod.ln_pA_bound(params)._asdict()),
        )
    if sweep:
        bg = bounds_mod.best_gap(n, k, p, eps)
        out["best_gap"] = _rounded(bg._asdict()) if bg is not None else None
        report = bounds_mod.corollary_regime_report(n, k, p, eps, extra_ells)
        out["regime"] = [_rounded(e._asdict()) for e in report.entries]
        out["certified"] = list(report.certified)
    return out


# --- gale-verify ----------------------------------------------------------


def gale_verify_report(n: int, s: int) -> dict:
    emb = build_embedding(n, s)
    general_position = general_position_check(emb)
    counterexample = verify_gale_property(emb)
    return {
        "n": n,
        "s": s,
        "d": emb.d,
        "general_position": general_position,
        "ok": counterexample is None,
        "counterexample": (
            partition_to_json_dict(counterexample) if counterexample else None
        ),
    }


# --- argument plumbing ----------------------------------------------------


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _config_flags(argv: list[str]) -> list[str]:
    """The entries of the --config file in argv, spelled as command-line flags.

    ``"budget_nodes": 10`` becomes ``--budget-nodes=10``, a list gives one
    value per item, ``true`` gives a bare switch such as ``--sweep``, and
    ``false`` or ``null`` gives nothing.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    flags = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif isinstance(value, list):
            flags += [flag, *map(str, value)]
        elif value is not None and value is not False:
            flags.append(f"{flag}={value}")
    return flags


def _at_least(kind, low):
    """An argparse type: ``kind`` of the text, refused below ``low`` or as NaN.

    It keeps ``kind``'s name, so unparsable text still reads "invalid int
    value", and a refusal names the flag, from a config file too.
    """

    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be a number >= {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _config_echo(cfg: dict) -> dict:
    """The command's parsed flags that are set, in declared order."""
    skip = ("command", "func", "config", "out", "format")
    return {key: v for key, v in cfg.items() if key not in skip and v is not None}


def _cmd_gen_graph(cfg) -> tuple[str, int]:
    graph = gen_graph(cfg["family"], cfg["n"], cfg["k"], cfg.get("p"), cfg.get("seed"))
    return to_canonical_json(graph), EXIT_OK


def _cmd_chi(cfg) -> tuple[dict, int]:
    with open(cfg["input"], encoding="utf-8") as fh:
        try:
            graph = from_json_dict(json.load(fh))
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed graph file: {exc}") from exc
    report = chi_report(graph, Budget(cfg["budget_nodes"], cfg["budget_ms"]))
    return report, EXIT_OK if report["status"] == EXACT else EXIT_TIMEOUT


def _cmd_random_chi(cfg) -> tuple[str | dict, int]:
    rows, summary = run_random_chi(
        family=cfg["family"],
        n=cfg["n"],
        k=cfg["k"],
        p=cfg["p"],
        trials=cfg["trials"],
        master_seed=cfg["seed"],
        ell=cfg.get("ell"),
        max_nodes=cfg.get("budget_nodes"),
        max_ms=cfg.get("budget_ms"),
    )
    config = _config_echo(cfg)
    emit_elapsed = cfg.get("budget_ms") is not None
    if cfg.get("format") != "json":
        return random_chi_csv(rows, summary, config, emit_elapsed), EXIT_OK
    json_rows = [
        {
            "trial": trial,
            "seed": seed,
            "chi": chi,
            "status": status,
            "elapsed_ms": round(ms, 3) if emit_elapsed else None,
        }
        for trial, seed, chi, status, ms in rows
    ]
    return {"config": config, "rows": json_rows, "summary": summary}, EXIT_OK


def _cmd_event_a(cfg) -> tuple[dict, int]:
    report = event_a_oracle(cfg["n"], cfg["k"], cfg["ell"], cfg["p"], cfg["seed"])
    return event_a_json_dict(report), EXIT_OK


def _cmd_witness(cfg) -> tuple[dict, int]:
    coloring = None
    num_colors = None
    if cfg.get("coloring_file"):
        with open(cfg["coloring_file"], encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            # accepts both witness coloring files and chi-command output
            coloring = data.get("colors", data.get("coloring"))
            num_colors = data.get("num_colors")
        else:
            coloring = data
        if not isinstance(coloring, list):
            raise ValueError("coloring file carries no colors")
    out = run_witness(
        n=cfg["n"],
        k=cfg["k"],
        ell=cfg["ell"],
        coloring_seed=cfg.get("seed"),
        coloring=coloring,
        num_colors=num_colors,
    )
    return out, EXIT_OK


def _cmd_bounds(cfg) -> tuple[dict, int]:
    if cfg.get("ells") is not None and not cfg.get("sweep"):
        raise ValueError("--ells is read only by --sweep")
    out = bounds_report(
        n=cfg["n"],
        k=cfg["k"],
        ell=cfg.get("ell"),
        p=cfg["p"],
        eps=cfg["eps"],
        sweep=bool(cfg.get("sweep")),
        extra_ells=cfg.get("ells") or (),
    )
    return out, EXIT_OK


def _cmd_gale_verify(cfg) -> tuple[dict, int]:
    s = cfg.get("s")
    if s is not None and (cfg.get("k") is not None or cfg.get("ell") is not None):
        raise ValueError("--s is not read with --k or --ell")
    if s is None:
        if cfg.get("k") is None or cfg.get("ell") is None:
            raise ValueError("provide --s or both --k and --ell")
        s = cfg["k"] + cfg["ell"]
    out = gale_verify_report(cfg["n"], s)
    return out, EXIT_OK if out["ok"] else EXIT_FALSIFIED


def _add_budget(sub: argparse.ArgumentParser) -> None:
    # what Budget refuses, refused by the flag's name; 0 is still a budget
    nodes, ms = _at_least(int, 0), _at_least(float, 0)
    sub.add_argument("--budget-nodes", type=nodes, default=None, dest="budget_nodes")
    sub.add_argument("--budget-ms", type=ms, default=None, dest="budget_ms")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags take precedence)")
    sub.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneser-chroma",
        description="Kneser/Schrijver random-subgraph chromatic experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen-graph", help="build a graph and write canonical JSON")
    sub.add_argument("--family", required=True, choices=("kneser", "schrijver"))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--seed", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(func=_cmd_gen_graph)

    sub = subs.add_parser("chi", help="exact chromatic number of a graph file")
    sub.add_argument("input", help="graph JSON file")
    _add_budget(sub)
    _add_common(sub)
    sub.set_defaults(func=_cmd_chi)

    sub = subs.add_parser("random-chi", help="chi of sampled subgraphs, CSV rows")
    sub.add_argument("--family", required=True, choices=("kneser", "schrijver"))
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--ell", type=int, default=None)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True, help="master seed")
    _add_budget(sub)
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    _add_common(sub)
    sub.set_defaults(func=_cmd_random_chi)

    sub = subs.add_parser("event-a", help="exhaustive event-A oracle on one sample")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--ell", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--seed", type=int, required=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_event_a)

    sub = subs.add_parser("witness", help="antipodal monochromatic witness search")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--ell", type=int, required=True)
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--seed", type=int, default=None, help="random-coloring seed")
    source.add_argument("--coloring-file", default=None, dest="coloring_file")
    _add_common(sub)
    sub.set_defaults(func=_cmd_witness)

    sub = subs.add_parser("bounds", help="condition, chain, and gap optimizer")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--ell", type=int, default=None)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--sweep", action="store_true")
    sub.add_argument("--ells", type=_at_least(int, 1), nargs="*", default=None)
    _add_common(sub)
    sub.set_defaults(func=_cmd_bounds)

    sub = subs.add_parser("gale-verify", help="hemisphere property of the embedding")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--s", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--ell", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(func=_cmd_gale_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config entries go first, so that the command line's own flags win
        argv[1:1] = _config_flags(argv)
        cfg = vars(build_parser().parse_args(argv))
        payload, code = cfg["func"](cfg)
        if isinstance(payload, dict):
            payload["config"] = _config_echo(cfg)
            payload = _canonical_json(payload)
        _write_out(payload, cfg["out"])
        return code
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NoWitnessFound as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
