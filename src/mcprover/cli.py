"""Command-line interface: proving, training, benchmarking, TSP validation.

Exit codes for `prove`: 0 proof found and verified, 1 no proof, 2 error.
Reports go to stdout and are deterministic for a fixed seed; wall-clock times
go to stderr (and to the bench tables) so repeated runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass, field

from . import mcts
from .calculus import CalculusOptions
from .checker import certificate_for, check_proof, format_certificate
from .clausify import ClausifyError, ClausifyOptions, clausify, prepare_matrix
from .deepening import DeepeningOptions, Proof, Saturated, prove_iterative
from .guidance import COMBINERS, ProvabilityModel, RewardConfig, SimulationWeights, WEIGHT_POLICIES
from .proving import ConnectionGame
from .terms import Matrix, matrix_to_cnf
from .tptp import ParseError, load_problem
from .trainstore import Store
from .tsp import TspGame, TspInstance, WEIGHT_READINGS, brute_force_optimum


def bundled_corpus_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


# --- corpus -----------------------------------------------------------------

@dataclass
class CorpusProblem:
    path: str
    name: str
    status: str = ""       # Theorem | Satisfiable | ""
    depth_bound: int | None = None


_ANNOTATION = re.compile(r"^%\s*(Status|DepthBound)\s*:\s*(\S+)", re.MULTILINE)


def load_corpus(directory: str) -> list:
    problems = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(".p"):
            continue
        path = os.path.join(directory, entry)
        info = CorpusProblem(path=path, name=entry[:-2])
        with open(path, encoding="utf-8") as handle:
            for kind, value in _ANNOTATION.findall(handle.read()):
                if kind == "Status":
                    info.status = value
                else:
                    info.depth_bound = int(value)
        problems.append(info)
    return problems


# --- engine setup -----------------------------------------------------------

@dataclass
class EngineSetup:
    engine: str = "deepening"
    timeout: float | None = None
    max_inferences: int | None = None
    # deepening
    depth_start: int = 1
    depth_increment: int = 1
    max_depth: int | None = None
    cut: bool = False
    # calculus
    regularity: bool = True
    lemmas: bool = True
    # mcts
    seed: int = 0
    cp: float = mcts.SearchConfig.cp_base
    cp_amplitude: float = 0.0
    cp_period: float = 0.0
    sim_depth: int = 20
    expansion: str = "first"
    max_iterations: int | None = None
    # guidance
    weights: str = "constant"
    reduction_weight: float = 1.0
    ratio_weight: float = 0.5
    combiner: str = "geometric"
    certainty_c: float = 1.0
    certainty_d: float = 2.0
    raw_ratio: bool = False
    model: str | None = None

    def calculus_options(self) -> CalculusOptions:
        return CalculusOptions(regularity=self.regularity, lemmas=self.lemmas)

    def deepening_options(self, collect_training: bool = False) -> DeepeningOptions:
        return DeepeningOptions(
            start_depth=self.depth_start,
            increment=self.depth_increment,
            max_depth=self.max_depth,
            cut=self.cut,
            time_budget=self.timeout,
            inference_budget=self.max_inferences,
            collect_training=collect_training,
            calculus=self.calculus_options(),
        )

    def search_config(self) -> mcts.SearchConfig:
        return mcts.SearchConfig(
            cp_base=self.cp,
            cp_amplitude=self.cp_amplitude,
            cp_period=self.cp_period,
            max_sim_depth=self.sim_depth,
            max_iterations=self.max_iterations,
            time_budget=self.timeout,
            expansion=self.expansion,
            seed=self.seed,
        )

    def reward_config(self) -> RewardConfig:
        return RewardConfig.with_ratio_weight(
            self.ratio_weight,
            combiner=self.combiner,
            certainty_c=self.certainty_c,
            certainty_d=self.certainty_d,
            raw_ratio=self.raw_ratio,
        )

    def game(self, matrix: Matrix, model: ProvabilityModel | None) -> ConnectionGame:
        return ConnectionGame(
            matrix,
            calculus=self.calculus_options(),
            weights=SimulationWeights(self.weights, self.reduction_weight),
            reward=self.reward_config(),
            model=model,
        )


@dataclass
class RunReport:
    problem: str
    engine: str
    outcome: str          # proof | saturated | exhausted | timeout | budget
    solved: bool
    wall_time: float
    extensions: int | None = None        # along the certificate path
    reductions: int | None = None
    total_inferences: int | None = None  # extension successors constructed
    iterations: int | None = None        # mcts only
    certificate: str = ""
    checker: str = ""
    events: list = field(default_factory=list)
    detail: str = ""


def run_engine(matrix: Matrix, setup: EngineSetup, problem_name: str,
               model: ProvabilityModel | None = None,
               collect_training: bool = False) -> RunReport:
    started = time.monotonic()
    if setup.engine == "deepening":
        result = prove_iterative(matrix, setup.deepening_options(collect_training))
        wall = time.monotonic() - started
        outcome = result.outcome
        report = RunReport(
            problem=problem_name,
            engine="deepening",
            outcome="",
            solved=isinstance(outcome, Proof),
            wall_time=wall,
            total_inferences=result.stats.extension_inferences,
        )
        if isinstance(outcome, Proof):
            report.outcome = "proof"
            report.extensions = outcome.final_state.extensions
            report.reductions = outcome.final_state.reductions
            verdict = check_proof(matrix, outcome.certificate)
            report.checker = "accepted" if verdict.accepted else f"rejected: {verdict.reason}"
            report.certificate = format_certificate(outcome.certificate)
            report.events = result.events
        elif isinstance(outcome, Saturated):
            report.outcome = "saturated"
            report.detail = outcome.reason or f"exhausted at depth {outcome.depth}"
        else:
            report.detail = outcome.reason
            if outcome.reason == "inferences":
                report.outcome = "budget"
            else:
                report.outcome = "timeout"
                report.total_inferences = None  # volatile under wall-clock budgets
        return report

    game = setup.game(matrix, model)
    stop = None
    if setup.max_inferences is not None:
        cap = setup.max_inferences
        stop = lambda: game.extension_inferences >= cap  # noqa: E731
    result = mcts.run(game, setup.search_config(), stop=stop)
    wall = time.monotonic() - started
    report = RunReport(
        problem=problem_name,
        engine="mcts",
        outcome="",
        solved=False,
        wall_time=wall,
        total_inferences=game.extension_inferences,
        iterations=result.stats.iterations,
    )
    if isinstance(result.outcome, mcts.Solution):
        final = result.outcome.final_state
        report.solved = True
        report.outcome = "proof"
        report.extensions = final.extensions
        report.reductions = final.reductions
        cert = certificate_for(final, matrix)
        verdict = check_proof(matrix, cert)
        report.checker = "accepted" if verdict.accepted else f"rejected: {verdict.reason}"
        report.certificate = format_certificate(cert)
    elif isinstance(result.outcome, mcts.Exhausted):
        report.outcome = "exhausted"
    else:
        reason = result.outcome.reason
        report.outcome = "timeout" if reason == "time" else "budget"
        # the only stop condition run_engine installs is the inference cap
        report.detail = "inferences" if reason == "stopped" else reason
        if reason == "time":
            report.iterations = None
            report.total_inferences = None
    return report


def print_report(report: RunReport, out=None):
    out = out or sys.stdout
    print(f"problem    : {report.problem}", file=out)
    print(f"engine     : {report.engine}", file=out)
    print(f"outcome    : {report.outcome}", file=out)
    if report.detail:
        print(f"detail     : {report.detail}", file=out)
    if report.extensions is not None:
        print(f"extensions : {report.extensions}", file=out)
        print(f"reductions : {report.reductions}", file=out)
    if report.total_inferences is not None:
        print(f"inferences : {report.total_inferences}", file=out)
    if report.iterations is not None:
        print(f"iterations : {report.iterations}", file=out)
    if report.checker:
        print(f"checker    : {report.checker}", file=out)


# --- subcommands ------------------------------------------------------------

def _load_matrix(path: str, args) -> Matrix:
    problem = load_problem(path, tuple(args.include_dir or ()))
    options = ClausifyOptions(add_equality_axioms=args.equality_axioms)
    return prepare_matrix(clausify(problem, options))


def _setup_from_args(args) -> EngineSetup:
    timeout = args.timeout  # train and bench default to 5 s without any budget flag
    if timeout is None and args.max_inferences is None:
        timeout = args.default_timeout
    return EngineSetup(
        engine=args.engine,
        timeout=timeout,
        max_inferences=args.max_inferences,
        depth_start=args.depth_start,
        depth_increment=args.depth_increment,
        max_depth=args.max_depth,
        cut=args.cut,
        regularity=not args.no_regularity,
        lemmas=not args.no_lemmas,
        seed=args.seed,
        cp=args.cp,
        cp_amplitude=args.cp_amp,
        cp_period=args.cp_period,
        sim_depth=args.sim_depth,
        expansion=args.expansion,
        max_iterations=args.max_iterations,
        weights=args.weights,
        reduction_weight=args.reduction_weight,
        ratio_weight=args.reward_ratio_weight,
        combiner=args.combiner,
        certainty_c=args.cert_c,
        certainty_d=args.cert_d,
        raw_ratio=args.raw_ratio,
        model=args.model,
    )


def cmd_prove(args) -> int:
    try:
        matrix = _load_matrix(args.problem, args)
        setup = _setup_from_args(args)
        model = ProvabilityModel.load(setup.model) if setup.model else None
    except (ParseError, ClausifyError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report = run_engine(matrix, setup, os.path.basename(args.problem), model=model)
    print_report(report)
    print(f"wall time  : {report.wall_time:.3f}s", file=sys.stderr)
    if report.solved:
        if report.checker != "accepted":
            print("error: emitted certificate was rejected by the checker", file=sys.stderr)
            return 2
        if args.proof_out:
            with open(args.proof_out, "w", encoding="utf-8") as handle:
                handle.write(report.certificate)
            print(f"certificate: {args.proof_out}")
        return 0
    return 1


def cmd_train(args) -> int:
    problems = load_corpus(args.corpus)
    if not problems:
        print(f"error: no .p problems under {args.corpus}", file=sys.stderr)
        return 2
    setup = _setup_from_args(args)
    setup.engine = "deepening"
    store = Store()
    solved = 0
    for info in problems:
        try:
            matrix = _load_matrix(info.path, args)
        except (ParseError, ClausifyError, OSError) as err:
            print(f"warning: skipping {info.name}: {err}", file=sys.stderr)
            continue
        report = run_engine(matrix, setup, info.name, collect_training=True)
        if report.solved:
            solved += 1
            store.record_events(report.events)
        if args.verbose:
            print(f"  {info.name}: {report.outcome}")
    store.persist(args.model_out)
    print(f"solved {solved}/{len(problems)} problems")
    print(f"model entries: {len(store)}")
    print(f"model written to {args.model_out}")
    return 0


def _parse_config_spec(spec: str, base_args) -> tuple:
    """NAME=key:value,key:value configuration for bench sweeps."""
    if "=" in spec:
        name, _, body = spec.partition("=")
    else:
        name, body = spec, ""
    setup = _setup_from_args(base_args)
    aliases = {"reward_ratio_weight": "ratio_weight", "cp_amp": "cp_amplitude", "cert_c": "certainty_c", "cert_d": "certainty_d"}
    for item in filter(None, body.split(",")):
        key, _, value = item.partition(":")
        key = aliases.get(key.replace("-", "_"), key.replace("-", "_"))
        if not hasattr(setup, key):
            raise ValueError(f"unknown configuration key {key!r}")
        current = getattr(setup, key)
        if isinstance(current, bool):
            setattr(setup, key, value.lower() in ("1", "true", "yes", "on"))
        elif key in ("max_iterations", "max_inferences", "max_depth"):
            setattr(setup, key, int(value))
        elif isinstance(current, int):
            setattr(setup, key, int(value))
        elif isinstance(current, float) or current is None and key == "timeout":
            setattr(setup, key, float(value))
        else:
            setattr(setup, key, value)
    return name, setup


def cmd_bench(args) -> int:
    problems = load_corpus(args.corpus)
    if not problems:
        print(f"error: no .p problems under {args.corpus}", file=sys.stderr)
        return 2
    try:
        configs = [_parse_config_spec(spec, args) for spec in (args.config or ["default"])]
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    models = {}
    for name, setup in configs:
        if setup.model and setup.model not in models:
            models[setup.model] = ProvabilityModel.load(setup.model)

    rows = []
    solved_sets: dict = {name: set() for name, _ in configs}
    for info in problems:
        try:
            matrix = _load_matrix(info.path, args)
        except (ParseError, ClausifyError, OSError) as err:
            print(f"warning: skipping {info.name}: {err}", file=sys.stderr)
            continue
        for name, setup in configs:
            report = run_engine(matrix, setup, info.name, models.get(setup.model))
            rows.append((info.name, name, report))
            if report.solved:
                solved_sets[name].add(info.name)

    print(f"{'problem':28} {'config':14} {'outcome':10} {'ext':>7} {'iter':>7} {'time':>8}")
    for problem, config, report in sorted(rows, key=lambda r: (r[0], r[1])):
        ext = report.extensions if report.extensions is not None else "-"
        iters = report.iterations if report.iterations is not None else "-"
        print(f"{problem:28} {config:14} {report.outcome:10} {ext:>7} {iters:>7} {report.wall_time:>7.2f}s")
    print()
    for name, _ in configs:
        others = set().union(*(s for other, s in solved_sets.items() if other != name)) if len(configs) > 1 else set()
        unique = solved_sets[name] - others
        print(f"config {name}: solved {len(solved_sets[name])}/{len(problems)}, unique {len(unique)}")
        if unique:
            print(f"  unique: {', '.join(sorted(unique))}")

    if args.machine_out:
        with open(args.machine_out, "w", encoding="utf-8") as handle:
            handle.write("problem\tconfig\toutcome\tsolved\textensions\titerations\ttime\n")
            for problem, config, report in sorted(rows, key=lambda r: (r[0], r[1])):
                handle.write(
                    f"{problem}\t{config}\t{report.outcome}\t{int(report.solved)}\t"
                    f"{report.extensions if report.extensions is not None else ''}\t"
                    f"{report.iterations if report.iterations is not None else ''}\t"
                    f"{report.wall_time:.3f}\n"
                )
        print(f"machine report written to {args.machine_out}")
    return 0


def cmd_tsp(args) -> int:
    try:
        if args.instance:
            with open(args.instance, encoding="utf-8") as handle:
                instance = TspInstance.parse(handle.read())
        else:
            instance = TspInstance.random(args.random, seed=args.instance_seed)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    game = TspGame(instance, reading=args.weight_reading)
    config = mcts.SearchConfig(
        seed=args.seed,
        max_iterations=args.iterations,
        max_sim_depth=max(instance.n, 1),
        cp_base=args.cp,
    )
    result = mcts.run(game, config)
    best = result.stats.best_state
    print(f"cities     : {instance.n}")
    print(f"iterations : {result.stats.iterations}")
    if best is not None:
        print(f"best tour  : {' '.join(map(str, best))}")
        print(f"best length: {instance.tour_length(best):g}")
    if args.brute_force:
        tour, length = brute_force_optimum(instance)
        print(f"optimum    : {' '.join(map(str, tour))} (length {length:g})")
        if best is not None and instance.tour_length(best) == length:
            print("matched    : yes")
    return 0


def cmd_show(args) -> int:
    try:
        matrix = _load_matrix(args.problem, args)
    except (ParseError, ClausifyError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(matrix_to_cnf(matrix))
    print(f"% digest {matrix.digest}", file=sys.stderr)
    return 0


# --- argument parsing ---------------------------------------------------------

def _add_engine_flags(parser):
    parser.add_argument("--engine", choices=("deepening", "mcts"), default="deepening")
    parser.add_argument("--timeout", type=float, default=None, help="per-problem seconds")
    parser.add_argument("--max-inferences", type=int, default=None)
    parser.add_argument("--depth-start", type=int, default=1)
    parser.add_argument("--depth-increment", type=int, default=1)
    parser.add_argument("--max-depth", type=int, default=None)
    cut = parser.add_mutually_exclusive_group()
    cut.add_argument("--cut", dest="cut", action="store_true", default=False)
    cut.add_argument("--no-cut", dest="cut", action="store_false")
    parser.add_argument("--no-regularity", action="store_true")
    parser.add_argument("--no-lemmas", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cp", type=float, default=mcts.SearchConfig.cp_base)
    parser.add_argument("--cp-amp", type=float, default=0.0)
    parser.add_argument("--cp-period", type=float, default=0.0)
    parser.add_argument("--sim-depth", type=int, default=20)
    parser.add_argument("--expansion", choices=("first", "best"), default="first")
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--weights", choices=WEIGHT_POLICIES, default="constant")
    parser.add_argument("--reduction-weight", type=float, default=1.0)
    parser.add_argument("--reward-ratio-weight", type=float, default=0.5)
    parser.add_argument("--combiner", choices=COMBINERS, default="geometric")
    parser.add_argument("--cert-c", type=float, default=1.0)
    parser.add_argument("--cert-d", type=float, default=2.0)
    parser.add_argument("--raw-ratio", action="store_true")
    parser.add_argument("--model", default=None, help="literal statistics file")
    parser.add_argument("--include-dir", action="append", default=[])
    parser.add_argument("--equality-axioms", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcprover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="prove a single problem")
    p.add_argument("problem")
    _add_engine_flags(p)
    p.add_argument("--proof-out", default=None)
    p.set_defaults(func=cmd_prove, default_timeout=None)

    p = sub.add_parser("train", help="collect literal statistics from solved problems")
    p.add_argument("corpus", nargs="?", default=bundled_corpus_dir())
    _add_engine_flags(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train, default_timeout=5.0)

    p = sub.add_parser("bench", help="run configuration sweeps over a corpus")
    p.add_argument("corpus", nargs="?", default=bundled_corpus_dir())
    _add_engine_flags(p)
    p.add_argument("--config", action="append", default=None,
                   help="NAME=key:value,... (keys mirror the engine flags)")
    p.add_argument("--machine-out", default=None)
    p.set_defaults(func=cmd_bench, default_timeout=5.0)

    p = sub.add_parser("tsp", help="validate the search engine on travelling salesman")
    p.add_argument("--instance", default=None)
    p.add_argument("--random", type=int, default=6, help="random instance size")
    p.add_argument("--instance-seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cp", type=float, default=mcts.SearchConfig.cp_base)
    p.add_argument("--weight-reading", choices=WEIGHT_READINGS, default="prose")
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=cmd_tsp)

    p = sub.add_parser("show", help="print the prepared matrix in cnf form")
    p.add_argument("problem")
    p.add_argument("--include-dir", action="append", default=[])
    p.add_argument("--equality-axioms", action="store_true")
    p.set_defaults(func=cmd_show)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
