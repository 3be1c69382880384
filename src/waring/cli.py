"""Command line interface.

Verbs: rank, decompose, bound, verify, survey, hf.
Exit codes: 0 success, 1 parse/validation error, 2 verification failure,
3 resource bound exceeded, 141 (128 + SIGPIPE) stdout closed early.

A call whose first argument is a verb goes straight to that verb's parser,
found among the choices of the top-level parser's subparsers action.  Every
other argv (none, `-h`, an unknown verb, an option before the verb) goes
through the top-level parser, which hands a verb on to the same verb parser,
so help and error text are the same either way.  The hand-off parses the
rest of argv into a second namespace and copies it back: 41-46 us a call
against 17-20 us for the verb's parser alone (2-vCPU VM, Python 3.11),
where a millisecond `certify` job spent a fifth of its time parsing.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys

from . import apolarity, decompose, forms, rank, serialize
from .rank import ResourceLimitError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141


def _print_json(obj):
    print(serialize.dumps(obj))


def cmd_rank(args) -> int:
    form = forms.parse_form(args.form)
    total = rank.rank_coprime_sum(form)
    if total.bit_length() > rank.MAX_SURVEY_BITS:
        raise ResourceLimitError(f"the rank has {total.bit_length()} bits, above the "
                                 f"cap {rank.MAX_SURVEY_BITS} on a printed integer")
    breakdown = [{"monomial": str(m), "rank": rank.rank_monomial(m)}
                 for m in form.monomials]
    if args.json:
        _print_json({"form": str(form), "degree": form.degree,
                     "rank": total, "per_monomial": breakdown})
    else:
        print(total)
        if form.degree == 1:
            print("  degree 1: any linear form is a single d-th power")
        else:
            for entry in breakdown:
                print(f"  rk({entry['monomial']}) = {entry['rank']}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    form = forms.parse_form(args.form)
    dec = decompose.decompose_form(form)
    if args.json:
        _print_json(dec)
    else:
        print(f"rank {len(dec.terms)} decomposition of {form}:")
        print(serialize.pretty_decomposition(dec))
    return EXIT_OK


def cmd_bound(args) -> int:
    form = forms.parse_homogeneous(args.form)
    bound = apolarity.catalecticant_lower_bound(form, args.tmax)
    if not forms.is_coprime_sum(form):
        # lower bounds still apply, ranks do not
        print("note: input is not a coprime sum; reporting a lower bound only",
              file=sys.stderr)
    if args.json:
        _print_json({"form": args.form, "lower_bound": bound,
                     "t_max": args.tmax if args.tmax is not None else form.degree})
    else:
        print(bound)
    return EXIT_OK


def cmd_verify(args) -> int:
    form = forms.parse_form(args.form)
    with open(args.decomposition) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.decomposition}: JSON nested too deeply") from None
    expected = rank.rank_coprime_sum(form)
    changed = decompose._is_closed_form_json(form, obj, expected)
    if changed == ():
        # the closed form in decompose's canonical text: no number is built
        report, least = decompose.VerificationReport(True, (), True, None, expected,
                                                     expected), True
    elif changed:
        # near-closed: only the differing terms are loaded, and every other
        # term holds its block's least variable
        dec = serialize.decomposition_from_json(obj, [j for j, _ in changed])
        report = decompose.verify_decomposition(form, dec, changed)
        index = {v: i for i, v in enumerate(dec.variables)}
        least = all(dec.terms[j].linear[index[form.terms[t.block][1].least_variable]]
                    for j, t in changed)
    else:
        dec = serialize.decomposition_from_json(obj)
        decompose.check_blocks(form, dec)
        report = decompose.verify_decomposition(form, dec)
        least = report.term_count_matches and decompose.least_variable_check(form, dec).passed
    print(f"expansion matches: {report.expansion_matches}")
    for mono, want, got in report.mismatches:
        print(f"  mismatch at {mono}: expected {want}, got {got}")
    print(f"blocks linearly independent: {report.blocks_independent}")
    print(f"term count {report.term_count} vs rank {report.expected_rank}: "
          f"{report.term_count_matches}")
    if report.term_count_matches:
        print(f"least-variable property: {least}")
    ok = report.passed and least
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_survey(args) -> int:
    if args.ratio:
        report = rank.asymptotic_ratio_report(args.n, args.kmax)
        header = ["k", "d", "max_monomial_rank", "generic_rank", "ratio"]
        rows = [[r.k, r.d, r.monomial_rank, r.generic_rank,
                 serialize.fraction_to_str(r.ratio)] for r in report.rows]
        _emit_table(header, rows, csv=args.csv)
        print(f"# limit n!/(n-1)^(n-1) = "
              f"{serialize.fraction_to_str(report.limit)}"
              f" = {float(report.limit):.6f}")
        return EXIT_OK
    if args.range:
        degrees = args.range
    elif args.d is not None:
        degrees = [args.d]
    else:
        raise ValueError("survey needs a degree, --range or --ratio")
    rank.survey_size(args.n, degrees)
    header = ["d", "max_monomial_rank", "witness", "generic_rank", "exceptional"]
    rows = []
    for d in degrees:
        value, witness = rank.max_monomial_rank(args.n, d)
        generic = rank.generic_rank(args.n, d)
        rows.append([d, value, str(witness), generic.value,
                     "yes" if generic.exceptional else "no"])
    _emit_table(header, rows, csv=args.csv)
    return EXIT_OK


def _emit_table(header, rows, csv=False):
    if csv:
        print(",".join(str(h) for h in header))
        for row in rows:
            print(",".join(str(c) for c in row))
        return
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def _parse_generators(text):
    """An `hf` generator list as an ideal, refused by the price of its
    numerator before its generators are minimalized."""
    names, gens = forms.parse_generator_list(text)
    apolarity.admit_numerator("the Hilbert series numerator", len(gens), len(names))
    return forms.MonomialIdeal(len(names), gens, names)


def cmd_hf(args) -> int:
    if args.claim:
        form = forms.parse_form(args.claim)
        ideals = apolarity.claim_ideals(form)
        report = apolarity.verify_claim_identity(ideals, args.tmax)
        _print_claim(report)
        return EXIT_OK if report.passed else EXIT_VERIFY
    if args.claim_random:
        if args.claim_random > apolarity.MAX_CLAIM_CONFIGS:
            raise ResourceLimitError(f"{args.claim_random} random configurations are "
                                     f"above the cap {apolarity.MAX_CLAIM_CONFIGS}")
        rng = random.Random(args.seed)
        failures = 0
        for i in range(args.claim_random):
            ideals = apolarity.random_claim_configuration(rng)
            report = apolarity.verify_claim_identity(ideals, args.tmax)
            status = "pass" if report.passed else "FAIL"
            print(f"config {i + 1}: lhs={report.lhs} rhs={report.rhs} {status}")
            failures += not report.passed
        return EXIT_OK if failures == 0 else EXIT_VERIFY
    if not args.generators:
        raise ValueError("hf needs generators, --claim or --claim-random")
    ideal = _parse_generators(args.generators)
    t_max = args.tmax if args.tmax is not None else 10
    table = apolarity.hf_table(ideal, t_max)
    if args.json:
        _print_json({"generators": args.generators, "values": table,
                     "partial_sums": list(itertools.accumulate(table))})
    else:
        for t, v in enumerate(table):
            print(f"HF({t}) = {v}")
        print(f"sum = {sum(table)}")
    return EXIT_OK


def _print_claim(report):
    print(f"sum HF(T/intersection) = {report.lhs}")
    print(f"sum over blocks        = {' + '.join(str(s) for s in report.per_ideal)}"
          f" - {len(report.per_ideal) - 1} = {report.rhs}")
    print("PASS" if report.passed else "FAIL")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ValueError, so `main` prints one line
    and exits 1 as for any other bad input."""

    def error(self, message):
        raise ValueError(message)


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _degree_range(text):
    """'lo:hi' with 1 <= lo <= hi, as range(lo, hi + 1)."""
    lo, sep, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        sep = ""
    if not sep or not 1 <= lo <= hi:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with 1 <= lo <= hi, got {text!r}")
    return range(lo, hi + 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: building
    it costs more than a whole small job."""
    parser = _ArgumentParser(
        prog="waring",
        description="Waring ranks and exact power-sum decompositions for sums "
                    "of pairwise coprime monomials.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.verbs = sub.choices          # verb name -> its parser, for `main`

    p = sub.add_parser("rank", help="rank of a coprime-monomial sum")
    p.add_argument("form")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("decompose", help="verified minimal power-sum decomposition")
    p.add_argument("form")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bound", help="catalecticant lower bound for the rank")
    p.add_argument("form")
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="check a decomposition JSON against a form")
    p.add_argument("form")
    p.add_argument("decomposition", help="path to a decomposition JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("survey", help="maximal monomial ranks vs the generic rank")
    p.add_argument("n", type=_int_at_least(1))
    p.add_argument("d", type=_int_at_least(1), nargs="?")
    p.add_argument("--range", type=_degree_range, help="degree range lo:hi")
    p.add_argument("--ratio", action="store_true",
                   help="convergence table toward n!/(n-1)^(n-1)")
    p.add_argument("--kmax", type=_int_at_least(1), default=50)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("hf", help="Hilbert functions of monomial quotients")
    p.add_argument("generators", nargs="?",
                   help="comma-separated monomial generators, e.g. 'x1^2,x2^2'")
    p.add_argument("--tmax", type=_int_at_least(0), default=None)
    p.add_argument("--claim", help="verify the intersection identity for a form")
    p.add_argument("--claim-random", type=_int_at_least(1), metavar="COUNT",
                   help="verify the identity on COUNT random configurations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hf)

    return parser


def _parse_args(argv):
    parser = build_parser()
    verb = parser.verbs.get(argv[0]) if argv else None
    return verb.parse_args(argv[1:]) if verb else parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`waring ... | head -1`): not bad input;
        # point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
