"""Command-line front end.

Subcommands: search, verify, eta, decompose, reduce.  Exit codes: 0 when
everything checked holds, 1 when a falsifying instance was found (for
`search`, an exact collision would refute the headline claim) or a
certificate could not be established (`sums.CertificateError`), 2 on
usage errors: a flag the subcommand does not read (for `verify`, a flag
outside the lemma's `_VERIFY` entry), --precision-bits outside [1,
MAX_PRECISION_BITS], a `verify` box that holds no instance, a search
bound or prime box (the `bertrand` prime table, the `prime-window` and
`large-prime-window` factor tables) that would not fit in physical memory
or under the process's address-space limit, or a report that cannot be
written.

Each `cmd_*` handler returns a `Run` (its verdict in `exit_code`), or
raises ValueError for a usage error.  `main` alone turns that, or a
`CertificateError`, into the report or the stderr message and the exit
code; any other exception is a bug and propagates as a traceback.  All
randomness is seeded, so reruns with equal parameters emit byte-identical
result payloads.  Timings and counters go to the manifest, not to the
results: `search` takes its `CollisionReport.stats`, `verify` merges the
`stats` of its sweeps (the `eta-band` and `e11-search` sweeps fill them),
and `eta` records its square root's `working_bits`.  Handlers report a
library record's facts as they are, and re-derive none of them.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time

from . import __version__
from .report import RunManifest, render
from .search import SearchConfig, search
from .sums import (
    DEFAULT_PRECISION_BITS,
    MAX_PRECISION_BITS,
    CertificateError,
    Interval,
    IntervalPair,
    epsilon,
    eta_band_report,
    g_exact,
    reduce_overlap,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2


class Run:
    """What a handler computed: the report's content and the exit code."""

    def __init__(
        self, parameters: dict, results: list, outcome: str, exit_code=EXIT_OK, stats=None
    ):
        self.parameters = parameters
        self.results = results
        self.outcome = outcome
        self.exit_code = exit_code
        self.stats = {} if stats is None else stats


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--output", metavar="PATH", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypharm",
        description="exact-arithmetic distinctness checks for reciprocal power sums "
        "over consecutive-integer windows",
    )
    parser.add_argument("--version", action="version", version=f"hypharm {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("search", help="screened exhaustive collision search up to a bound")
    p.add_argument("--max-n", type=int, required=True, help="largest window endpoint")
    p.add_argument("--exponent", type=int, default=2, help="reciprocal power (2 default, 1 harmonic)")
    p.add_argument("--moduli", type=int, default=3, help="number of screening primes")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run one lemma checker over a parameter range")
    p.add_argument(
        "--lemma",
        required=True,
        choices=tuple(_VERIFY),
    )
    for name in _VERIFY_FLAGS:  # an unset flag stays out of the namespace
        p.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser("eta", help="certified product-form offset for one window")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    _add_common(p)
    p.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BITS)

    for name, help_text in (
        ("decompose", "seven-term split of a disjoint pair's sum gap"),
        ("reduce", "rewrite an overlapping pair as a disjoint one"),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag in _PAIR_FLAGS:
            p.add_argument(f"--{flag}", type=int, required=True)
        _add_common(p)

    return parser


def cmd_search(args) -> Run:
    config = SearchConfig(
        max_n=args.max_n,
        exponent=args.exponent,
        modulus_count=args.moduli,
        seed=args.seed,
    )
    report = search(config)
    collided = bool(report.exact_collision_pairs)
    results = [{name: getattr(report, name) for name in report._fields if name != "stats"}]
    return Run(
        {"max_n": args.max_n, "exponent": args.exponent, "moduli": args.moduli, "seed": args.seed},
        results,
        "exact collision found" if collided else "no exact collisions",
        EXIT_FALSIFIED if collided else EXIT_OK,
        report.stats,
    )


# Each lemma's flags, as (default, least value that still leaves an instance to
# check; None if every value does), and its sweeps, called with the lemmas module
# and the filled box.  A box below a least would certify nothing, vacuously.
_VERIFY = {
    "bertrand": (
        {"n_max": (10_000, 2)},  # the [n, 2n-1] sweep starts at n = 2
        lambda lm, **box: [lm.sweep_bertrand(**box), lm.sweep_bertrand(**box, remark=True)],
    ),
    "prime-window": (
        {"k_max": (20, 1), "n_span": (500, 1)}, lambda lm, **box: [lm.sweep_prime_window(**box)]
    ),
    "lcm-bound": (
        {"a_max": (10, 1), "b_max": (10, 1), "n_max": (8, 0)},
        lambda lm, **box: [lm.sweep_lcm_bound(**box)],
    ),
    "large-prime-window": (
        {"k_max": (10, 1), "n_span": (300, 0)},
        lambda lm, **box: [lm.sweep_large_prime_window(**box)],
    ),
    "power-sums": ({"r_max": (200, 1)}, lambda lm, **box: [lm.sweep_power_sums(**box)]),
    "eta-band": (
        {"a_max": (20, 1), "r_max": (10, 0), "precision_bits": (DEFAULT_PRECISION_BITS, None)},
        lambda lm, **box: list(lm.sweep_eta_grid(**box)),
    ),
    "bracket-identity": (
        {
            "pairs": (100, 1),
            "max_total": (200, 2),
            "seed": (0, None),
            "precision_bits": (DEFAULT_PRECISION_BITS, None),
        },
        lambda lm, pairs, **box: [lm.sweep_bracket_identity(pairs, **box)],
    ),
    "e11-search": (
        {"a_max": (100, 1), "w_max": (12, 0)}, lambda lm, **box: [lm.sweep_e11_box(**box)]
    ),
    "decompose": (
        {"pairs": (100, 1), "max_total": (500, 2), "seed": (0, None)},
        lambda lm, pairs, **box: [lm.sweep_decompose(pairs, **box)],
    ),
}


_VERIFY_FLAGS = sorted({name for flags, _ in _VERIFY.values() for name in flags})


def _verify_box(args) -> dict:
    """The flags the lemma reads, with defaults filled in; ValueError if the
    box is empty or if a flag was given that the lemma does not read."""
    flags, _ = _VERIFY[args.lemma]
    given = vars(args)
    for name in _VERIFY_FLAGS:
        if name in given and name not in flags:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --lemma {args.lemma}")
    box = {name: given.get(name, default) for name, (default, _) in flags.items()}
    for name, (_, least) in flags.items():
        if least is not None and box[name] < least:
            raise ValueError(
                f"--{name.replace('_', '-')} {box[name]} leaves nothing to check; needs >= {least}"
            )
    return box


def cmd_verify(args) -> Run:
    from . import lemmas  # eta, reduce and search never load the lemmas

    sweeps = _VERIFY[args.lemma][1](lemmas, **args.box)
    stats = {key: value for sweep in sweeps for key, value in sweep.stats.items()}
    all_hold = all(sweep.holds for sweep in sweeps)
    results = [
        {
            "claim": sweep.claim,
            "params": sweep.params,
            "checked": sweep.checked,
            "holds": sweep.holds,
            "failure_count": len(sweep.failures),
            "failures": sweep.failures[:200],
            "notes": sweep.notes,
        }
        for sweep in sweeps
    ]
    return Run(
        {"lemma": args.lemma, **args.box},
        results,
        "all instances hold" if all_hold else "falsified instances found",
        EXIT_OK if all_hold else EXIT_FALSIFIED,
        stats,
    )


def cmd_eta(args) -> Run:
    interval = Interval(args.a, args.r)
    band = eta_band_report(interval, args.precision_bits)
    names = ("q_lower", "q_upper", "q_lower_holds", "q_upper_holds",
             "expr_bound", "expr_exact", "expr_lower_holds", "expr_upper_holds")
    # solve_eta certifies width <= 2^-p and, for r >= 1, eta inside the epsilon bracket
    results = [
        {
            "interval": interval,
            "eta": band.eta.eta,
            "eta_width_bits_ok": True,
            "epsilon_low": epsilon(args.a, args.precision_bits),
            "epsilon_high": epsilon(args.a + args.r, args.precision_bits),
            "strict_inside": args.r >= 1,
            "band": {name: getattr(band, name) for name in names},
        }
    ]
    parameters = {"a": args.a, "r": args.r, "precision_bits": args.precision_bits}
    return Run(parameters, results, "certified", stats={"working_bits": band.eta.k - 1})


_PAIR_FLAGS = ("a1", "r", "a2", "s")


def _pair(args) -> tuple[IntervalPair, dict]:
    """The window pair of `decompose` and `reduce`, and its report parameters."""
    parameters = {flag: getattr(args, flag) for flag in _PAIR_FLAGS}
    return IntervalPair(Interval(args.a1, args.r), Interval(args.a2, args.s)), parameters


def cmd_decompose(args) -> Run:
    pair, parameters = _pair(args)
    if not (pair.disjoint or pair.nested):
        flags = " ".join(f"--{flag} {value}" for flag, value in parameters.items())
        raise ValueError(
            f"windows overlap; run `hypharm reduce {flags}` "
            "to rewrite them as a disjoint pair first"
        )
    from . import lemmas

    # the decomposition refuses a nested pair; a disjoint one's chain report carries it in full
    report = lemmas.check_positivity_chain(pair)
    results = [
        {
            "pair": pair,
            "L": report.L,
            "terms": list(report.terms),
            "difference": report.difference,
            "sum_matches_difference": True,  # terms[6] is the residual, by construction
            "e11": report.e11,
            "expansion_sums_verified": report.expansion_sums_verified,
            "rewrites_verified": report.rewrites_verified,
            "chain_hypothesis_failures": list(report.hypothesis_failures),
            "chain_bounds": report.bounds,
        }
    ]
    return Run(parameters, results, "decomposed")


def cmd_reduce(args) -> Run:
    pair, parameters = _pair(args)
    reduced = reduce_overlap(pair)
    preserved = (
        g_exact(pair.first) - g_exact(pair.second)
        == g_exact(reduced.first) - g_exact(reduced.second)
    )
    results = [
        {
            "input": pair,
            "reduced": reduced,
            "reduced_disjoint": reduced.disjoint,
            "difference_preserved": preserved,
        }
    ]
    if preserved:
        return Run(parameters, results, "reduced")
    return Run(parameters, results, "difference not preserved", EXIT_FALSIFIED)


_HANDLERS = {
    "search": cmd_search,
    "verify": cmd_verify,
    "eta": cmd_eta,
    "decompose": cmd_decompose,
    "reduce": cmd_reduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        # a verify flag the lemma does not read is refused before any range check
        args.box = _verify_box(args) if args.subcommand == "verify" else None
        if hasattr(args, "precision_bits") and not 1 <= args.precision_bits <= MAX_PRECISION_BITS:
            raise ValueError(f"--precision-bits must lie in [1, {MAX_PRECISION_BITS}]")
        run = _HANDLERS[args.subcommand](args)
        manifest = RunManifest(
            subcommand=args.subcommand,
            parameters=run.parameters,
            version=__version__,
            seed=run.parameters.get("seed"),
            started=started,
            finished=datetime.datetime.now(datetime.timezone.utc).isoformat(),
            wall_time_s=round(time.perf_counter() - t0, 6),
            outcome=run.outcome,
            stats=run.stats,
        )
        text = render(manifest, run.results, args.format)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, CertificateError) as exc:
        print(f"hypharm {args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED if isinstance(exc, CertificateError) else EXIT_USAGE
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
