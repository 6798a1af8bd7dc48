"""Command-line interface.

Subcommands
-----------
reduce     expand a braid word in the T_w basis
homfly     two-variable invariant of the closure (generic field only)
jones      one-variable invariant of the closure
decompose  coordinates of the closure in the partition basis
specht     cell-module table: dimensions, Gram data, head dimensions
verify     run the shipped verification suites

Field selection: ``--field generic`` (the default) works over Q(q1, q2) or,
for the specht table, Q(q) with (q1, q2) = (-1, q).  ``--field rationals
--q VALUE`` and ``--field fp --p P --q VALUE`` pin q in the one-parameter
convention.  The environment variable HECKELINK_FIELD supplies a default
("generic", "rationals:VALUE", or "fp:P:VALUE").  A --p or --q that the
selected field does not read is an input error.

Exit codes: 0 success, 2 input or parse error (a malformed field spec
included), 3 unsupported field for the requested operation, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable

from .braid import (
    BraidError,
    BraidWord,
    parse_braid_word,
    random_word,
    stabilize,
)
from .coefficients import (
    CoefficientError,
    FieldContext,
    PrimeField,
    Rationals,
    generic_field_context,
    generic_one_parameter_context,
    one_parameter_context,
    quantum_e,
    render_scalar,
)
from .hecke import HeckeContext, HeckeError, from_braid_word, to_symmetric_group
from .invariants import InvariantError, homflypt, jones, jones_via_bracket
from .oracles import OracleError, exhaustive_word_closure, faulty_braid_image, sga_mul
from .specht import (
    ProportionalityError,
    SpechtContext,
    SpechtError,
    count_standard_tableaux,
    dim_D_lambda,
    specht_module,
)
from .trace import (
    b_lambda,
    decompose_closure,
    markov_trace,
    partitions_of,
    trace_of_braid,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIELD = 3
EXIT_INTERNAL = 4

_VERIFY_SEED = 20240914


class FieldSelectionError(ValueError):
    pass


def _field_spec(args) -> tuple[str, int | str | None, str | None]:
    """(kind, p, q) from --field, else HECKELINK_FIELD, else generic.  A --p
    or --q that the selected field does not read raises CoefficientError."""
    env = os.environ.get("HECKELINK_FIELD")
    if args.field is not None:
        kind, p, q = args.field.lower(), args.p, args.q
        source, reads = f"--field {kind}", {"rationals": "q", "fp": "pq"}.get(kind, "")
    elif env:
        parts = env.split(":")
        kind, p, q = parts[0].lower(), None, None
        if kind == "rationals" and len(parts) == 2:
            q = parts[1]
        elif kind == "fp" and len(parts) == 3:
            p, q = parts[1], parts[2]
        elif kind != "generic" or len(parts) != 1:
            raise CoefficientError(f"cannot parse HECKELINK_FIELD={env!r}")
        source, reads = f"HECKELINK_FIELD={env!r}", ""
    else:
        kind, p, q, source, reads = "generic", None, None, "the default generic field", ""
    for flag, value in (("p", args.p), ("q", args.q)):
        if value is not None and flag not in reads:
            raise CoefficientError(f"--{flag} is not read by {source}")
    return kind, p, q


def _resolve_field(args, generic: Callable[[], FieldContext]) -> FieldContext:
    """The field context the arguments select: ``generic()`` by default,
    otherwise the one-parameter convention (q1, q2) = (-1, q).  A malformed
    spec raises CoefficientError."""
    kind, p, q = _field_spec(args)
    if kind == "generic":
        return generic()
    if kind == "rationals":
        if q is None:
            raise CoefficientError("--field rationals needs --q")
        field = Rationals()
    else:
        if p is None or q is None:
            raise CoefficientError("--field fp needs --p and --q")
        try:
            p = int(p)
        except ValueError as exc:
            raise CoefficientError(f"cannot parse prime {p!r}") from exc
        field = PrimeField(p)
    q_value = field.parse(q)
    if kind == "fp" and not 0 < int(q) < p:
        raise CoefficientError(f"need 0 < q < p, got q={q}, p={p}")
    return one_parameter_context(field, q_value)


def _require_generic(args, operation: str) -> None:
    kind, _, _ = _field_spec(args)
    if kind != "generic":
        raise FieldSelectionError(
            f"{operation} is only defined over the generic field; "
            f"rerun without --field {kind}"
        )


def _parse_word(args) -> BraidWord:
    return parse_braid_word(args.word, args.strands)


# -- command handlers ---------------------------------------------------------


def cmd_reduce(args) -> int:
    word = _parse_word(args)
    field = _resolve_field(args, generic_field_context)
    element = from_braid_word(word, HeckeContext(word.strands, field))
    if args.format == "json":
        print(json.dumps(element.to_json()))
    else:
        print(element.render())
    return EXIT_OK


def cmd_homfly(args) -> int:
    _require_generic(args, "the two-variable invariant")
    word = _parse_word(args)
    value = homflypt(word)
    if args.format == "json":
        print(
            json.dumps(
                {"num": value.num.render(), "den": value.den.render()}
            )
        )
    else:
        print(render_scalar(value))
    return EXIT_OK


def cmd_jones(args) -> int:
    _require_generic(args, "the one-variable invariant")
    word = _parse_word(args)
    value = jones(word)
    if args.format == "json":
        print(json.dumps(value.to_json()))
    else:
        print(value.render())
    return EXIT_OK


def cmd_decompose(args) -> int:
    _require_generic(args, "closure decomposition")
    word = _parse_word(args)
    dec = decompose_closure(word)
    if args.format == "json":
        print(json.dumps(dec.to_json()))
    else:
        for lam, coeff in dec.items():
            print(f"{lam.render()}: {render_scalar(coeff)}")
    return EXIT_OK


def cmd_specht(args) -> int:
    n = args.n
    if n < 0:
        raise BraidError(f"n must be >= 0, got {n}")
    rows = []
    if n > 0:
        sctx = SpechtContext(n, _resolve_field(args, generic_one_parameter_context))
        for lam in partitions_of(n):
            module = specht_module(lam, sctx)
            rows.append(
                {
                    "partition": lam.render(),
                    "dim_S": module.dimension,
                    "dim_D": module.gram_rank(),
                    "gram_det": render_scalar(module.gram_determinant()),
                }
            )
    if args.format == "json":
        print(json.dumps(rows))
    else:
        print("partition\tdim_S\tdim_D\tgram_det")
        for row in rows:
            print(
                f"{row['partition']}\t{row['dim_S']}\t{row['dim_D']}\t{row['gram_det']}"
            )
    return EXIT_OK


# -- verification ----------------------------------------------------------------


def _quick_suites(image_fn):
    """Bounded deterministic property suites; each yields (name, checks, failures)."""
    rng = random.Random(_VERIFY_SEED)
    field = generic_field_context()

    def braid_relations():
        checks = failures = 0
        for n in (2, 3, 4):
            ctx = HeckeContext(n, field)
            for i in range(1, n - 1):
                checks += 1
                lhs = image_fn(BraidWord(n, [i, i + 1, i]))
                rhs = image_fn(BraidWord(n, [i + 1, i, i + 1]))
                failures += lhs != rhs
            for i in range(1, n):
                for j in range(i + 2, n):
                    checks += 1
                    failures += image_fn(BraidWord(n, [i, j])) != image_fn(
                        BraidWord(n, [j, i])
                    )
            for i in range(1, n):
                checks += 1
                t = ctx.generator_image(i)
                quad = t * t - t.scalar_mul(field.q_sum) + ctx.identity().scalar_mul(
                    field.q_prod
                )
                failures += not quad.is_zero()
            checks += 1
            failures += image_fn(BraidWord(n, [1, -1])) != ctx.identity()
        return checks, failures

    def multiplicativity():
        checks = failures = 0
        for _ in range(60):
            n = rng.randrange(2, 5)
            ctx = HeckeContext(n, field)
            u = random_word(rng, n, rng.randrange(0, 5))
            v = random_word(rng, n, rng.randrange(0, 5))
            checks += 1
            failures += image_fn(u.concat(v)) != image_fn(u) * image_fn(v)
        return checks, failures

    def symmetric_group_oracle():
        checks = failures = 0
        sym = FieldContext(Rationals(), Fraction(1), Fraction(-1))
        for _ in range(60):
            n = rng.randrange(2, 5)
            ctx = HeckeContext(n, sym)
            xu = from_braid_word(random_word(rng, n, 4), ctx)
            xv = from_braid_word(random_word(rng, n, 4), ctx)
            checks += 1
            failures += to_symmetric_group(xu * xv) != sga_mul(
                to_symmetric_group(xu), to_symmetric_group(xv)
            )
        return checks, failures

    def trace_axioms():
        checks = failures = 0
        one_plus = field.field.one() + field.q_prod
        for _ in range(20):
            n = rng.randrange(2, 4)
            ctx = HeckeContext(n, field)
            a = from_braid_word(random_word(rng, n, 3), ctx)
            b = from_braid_word(random_word(rng, n, 3), ctx)
            checks += 1
            failures += markov_trace(a * b) != markov_trace(b * a)
        for _ in range(15):
            n = rng.randrange(1, 4)
            b = random_word(rng, n, rng.randrange(0, 5))
            checks += 2
            failures += one_plus * trace_of_braid(b) != field.q_sum * trace_of_braid(
                BraidWord(n + 1, b.letters)
            )
            failures += trace_of_braid(stabilize(b, -1)) != trace_of_braid(b)
        return checks, failures

    def partition_traces():
        checks = failures = 0
        delta = field.delta()
        for n in range(1, 6):
            for lam in partitions_of(n):
                checks += 1
                failures += trace_of_braid(b_lambda(lam)) != delta ** (lam.k - 1)
        return checks, failures

    def jones_against_bracket():
        checks = failures = 0
        trefoil = jones(BraidWord(2, [1, 1, 1]))
        checks += 1
        failures += trefoil.render() != "-t^4+t^3+t"
        for _ in range(20):
            b = random_word(rng, rng.randrange(2, 4), rng.randrange(0, 8))
            checks += 1
            failures += jones(b) != jones_via_bracket(b)
        return checks, failures

    def cell_modules():
        checks = failures = 0
        for n in (2, 3):
            sctx = SpechtContext.generic(n)
            for lam in partitions_of(n):
                module = specht_module(lam, sctx)
                checks += 2
                failures += module.dimension != count_standard_tableaux(lam)
                failures += module.gram_rank() != module.dimension
        f3 = PrimeField(3)
        e = quantum_e(f3.from_int(2))
        from .trace import e_restricted

        for lam in partitions_of(3):
            sctx = SpechtContext.at_value(3, f3, 2)
            checks += 1
            failures += (dim_D_lambda(lam, sctx) > 0) != e_restricted(lam, e)
        return checks, failures

    return [
        ("braid-relations", braid_relations),
        ("word-multiplicativity", multiplicativity),
        ("symmetric-group-oracle", symmetric_group_oracle),
        ("trace-axioms", trace_axioms),
        ("partition-traces", partition_traces),
        ("jones-vs-bracket", jones_against_bracket),
        ("cell-modules", cell_modules),
    ]


def cmd_verify(args) -> int:
    image_fn = faulty_braid_image if args.inject_fault else None
    if args.exhaustive:
        report = exhaustive_word_closure(args.n, args.max_len, image_fn=image_fn)
        if args.format == "json":
            print(json.dumps(report))
        else:
            print(f"checked {report['checked']} rewrites on {report['n']} strands")
            for violation in report["violations"]:
                print(
                    f"violation: {violation['move']} on {violation['word']} "
                    f"-> {violation['rewritten']}"
                )
            print("violations:", len(report["violations"]))
        return EXIT_OK if not report["violations"] else EXIT_INTERNAL

    if image_fn is None:
        field = generic_field_context()
        image_fn = lambda b: from_braid_word(b, HeckeContext(b.strands, field))

    suites = []
    total_failures = 0
    for name, suite in _quick_suites(image_fn):
        checks, failures = suite()
        total_failures += failures
        suites.append({"name": name, "checks": checks, "failures": failures})
    if args.format == "json":
        print(json.dumps({"suites": suites, "ok": total_failures == 0}))
    else:
        for entry in suites:
            status = "ok" if not entry["failures"] else "FAIL"
            print(f"{status} {entry['name']} ({entry['checks']} checks)")
        print("all checks passed" if not total_failures else "FAILURES DETECTED")
    return EXIT_OK if total_failures == 0 else EXIT_INTERNAL


# -- argument plumbing --------------------------------------------------------------


def _add_word_arguments(sub) -> None:
    sub.add_argument("word", help="braid word, e.g. '1 -2 1' or 'B3: 1 -2 1'")
    sub.add_argument("--strands", type=int, default=None, help="strand count")


def _add_field_arguments(sub) -> None:
    sub.add_argument(
        "--field",
        choices=["generic", "rationals", "fp", "Fp", "FP"],
        default=None,
        help="coefficient field (default: generic, or HECKELINK_FIELD)",
    )
    sub.add_argument("--p", type=int, default=None, help="prime for --field fp")
    sub.add_argument("--q", default=None, help="q value for rationals/fp fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelink",
        description="Exact Hecke-algebra computations and braid-closure invariants.",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="expand a braid word in the T_w basis")
    _add_word_arguments(p_reduce)
    _add_field_arguments(p_reduce)
    p_reduce.set_defaults(handler=cmd_reduce)

    p_homfly = sub.add_parser("homfly", help="two-variable closure invariant")
    _add_word_arguments(p_homfly)
    _add_field_arguments(p_homfly)
    p_homfly.set_defaults(handler=cmd_homfly)

    p_jones = sub.add_parser("jones", help="Jones polynomial of the closure")
    _add_word_arguments(p_jones)
    _add_field_arguments(p_jones)
    p_jones.set_defaults(handler=cmd_jones)

    p_dec = sub.add_parser("decompose", help="closure coordinates by partition")
    _add_word_arguments(p_dec)
    _add_field_arguments(p_dec)
    p_dec.set_defaults(handler=cmd_decompose)

    p_specht = sub.add_parser("specht", help="cell module table for all partitions")
    p_specht.add_argument("--n", type=int, required=True)
    _add_field_arguments(p_specht)
    p_specht.set_defaults(handler=cmd_specht)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("--quick", action="store_true", help="bounded property run")
    p_verify.add_argument(
        "--exhaustive", action="store_true", help="exhaustive word-rewrite closure"
    )
    p_verify.add_argument("--n", type=int, default=3, help="strands for --exhaustive")
    p_verify.add_argument(
        "--max-len", type=int, default=5, help="word length cap for --exhaustive"
    )
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the braid image on purpose (sanity check of the checker)",
    )
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        BraidError, HeckeError, CoefficientError, OracleError, SpechtError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FieldSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIELD
    except (InvariantError, ProportionalityError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
