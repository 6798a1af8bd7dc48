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
("generic", "rationals:VALUE", or "fp:P:VALUE").  Field names are read in
any case.  A --p or --q that the selected field does not read is an input
error.

Output: every handler prints through ``_emit``, one JSON line under
``--format json`` and the text lines otherwise.  The ``verify --quick``
suites yield one pass/fail verdict per check; ``cmd_verify`` counts them.

Exit codes: 0 success, 2 input or parse error (a malformed field spec or
command line included, reported on one stderr line), 3 unsupported field for
the requested operation, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Callable

from .braid import BraidError, BraidWord, parse_braid_word, random_word, stabilize
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
    check_size,
    count_standard_tableaux,
    dim_D_lambda,
    specht_module,
)
from .trace import (
    b_lambda,
    decompose_closure,
    e_restricted,
    markov_trace,
    partitions_of,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIELD = 3
EXIT_INTERNAL = 4

_VERIFY_SEED = 20240914


class FieldSelectionError(ValueError):
    pass


class UsageError(ValueError):
    """A malformed command line, in argparse's words."""


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` instead of printing the usage block and exiting,
    so that ``main`` reports it on one line; ``--help`` still exits 0."""

    def error(self, message):
        raise UsageError(message)


def _field_spec(args) -> tuple[str, int | str | None, str | None]:
    """(kind, p, q) from --field, else HECKELINK_FIELD, else generic.  A --p
    or --q that the selected field does not read raises CoefficientError."""
    env = os.environ.get("HECKELINK_FIELD")
    if args.field is not None:
        kind, p, q = args.field, args.p, args.q
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


def _parse_word(args, operation: str | None = None) -> BraidWord:
    """The braid word of a word command.  With an operation name, any field
    but the generic one is refused first with FieldSelectionError."""
    if operation is not None:
        kind, _, _ = _field_spec(args)
        if kind != "generic":
            raise FieldSelectionError(
                f"{operation} is only defined over the generic field; "
                f"rerun without --field {kind}"
            )
    return parse_braid_word(args.word, args.strands)


def _emit(args, data, *lines) -> None:
    """Print ``data`` as one JSON line under --format json, else ``lines``;
    each may be a function of no arguments, called only if printed."""
    if args.format == "json":
        print(json.dumps(data() if callable(data) else data))
    else:
        for line in lines:
            print(line() if callable(line) else line)


# -- command handlers ---------------------------------------------------------


def cmd_reduce(args) -> int:
    word = _parse_word(args)
    field = _resolve_field(args, generic_field_context)
    element = from_braid_word(word, HeckeContext(word.strands, field))
    _emit(args, element.to_json, element.render)
    return EXIT_OK


def cmd_homfly(args) -> int:
    value = homflypt(_parse_word(args, "the two-variable invariant"))
    data = {"num": value.num.render(), "den": value.den.render()}
    _emit(args, data, render_scalar(value))
    return EXIT_OK


def cmd_jones(args) -> int:
    value = jones(_parse_word(args, "the one-variable invariant"))
    _emit(args, value.to_json(), value.render())
    return EXIT_OK


def cmd_decompose(args) -> int:
    dec = decompose_closure(_parse_word(args, "closure decomposition"))
    lines = (f"{lam.render()}: {render_scalar(coeff)}" for lam, coeff in dec.items())
    _emit(args, dec.to_json(), *lines)
    return EXIT_OK


def cmd_specht(args) -> int:
    n = args.n
    if n < 0:
        raise BraidError(f"n must be >= 0, got {n}")
    field = _resolve_field(args, generic_one_parameter_context)
    rows = []
    if n > 0:
        sctx = SpechtContext(n, field)
        check_size(n)
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
    lines = ("\t".join(str(value) for value in row.values()) for row in rows)
    _emit(args, rows, "partition\tdim_S\tdim_D\tgram_det", *lines)
    return EXIT_OK


# -- verification ----------------------------------------------------------------


def _quick_suites(image_fn):
    """Bounded deterministic property suites, as (name, suite) pairs.  Each
    suite yields one verdict per check, True when the check passes.  All of
    them draw from one seeded generator, in this order.  ``image_fn`` maps a
    braid word to its Hecke image; None folds it over Q(q1, q2)."""
    rng = random.Random(_VERIFY_SEED)
    field = generic_field_context()
    if image_fn is None:
        image_fn = lambda b: from_braid_word(b, HeckeContext(b.strands, field))

    def braid_relations():
        for n in (2, 3, 4):
            ctx = HeckeContext(n, field)
            for i in range(1, n - 1):
                lhs = image_fn(BraidWord(n, [i, i + 1, i]))
                rhs = image_fn(BraidWord(n, [i + 1, i, i + 1]))
                yield lhs == rhs
            for i in range(1, n):
                for j in range(i + 2, n):
                    yield image_fn(BraidWord(n, [i, j])) == image_fn(BraidWord(n, [j, i]))
            for i in range(1, n):
                t = ctx.generator_image(i)
                quad = t * t - t.scalar_mul(field.q_sum) + ctx.identity().scalar_mul(
                    field.q_prod
                )
                yield quad.is_zero()
            yield image_fn(BraidWord(n, [1, -1])) == ctx.identity()

    def multiplicativity():
        for _ in range(60):
            n = rng.randrange(2, 5)
            u = random_word(rng, n, rng.randrange(0, 5))
            v = random_word(rng, n, rng.randrange(0, 5))
            yield image_fn(u.concat(v)) == image_fn(u) * image_fn(v)

    def symmetric_group_oracle():
        sym = FieldContext(Rationals(), Fraction(1), Fraction(-1))
        for _ in range(60):
            n = rng.randrange(2, 5)
            ctx = HeckeContext(n, sym)
            xu = from_braid_word(random_word(rng, n, 4), ctx)
            xv = from_braid_word(random_word(rng, n, 4), ctx)
            yield to_symmetric_group(xu * xv) == sga_mul(
                to_symmetric_group(xu), to_symmetric_group(xv)
            )

    # The trace of the whole image, not of the factored closure, so that the
    # axioms test the Hecke algebra and its trace rather than the factoring.
    def whole_trace(b):
        return markov_trace(from_braid_word(b, HeckeContext(b.strands, field)))

    def trace_axioms():
        one_plus = field.field.one() + field.q_prod
        for _ in range(20):
            n = rng.randrange(2, 4)
            ctx = HeckeContext(n, field)
            a = from_braid_word(random_word(rng, n, 3), ctx)
            b = from_braid_word(random_word(rng, n, 3), ctx)
            yield markov_trace(a * b) == markov_trace(b * a)
        for _ in range(15):
            n = rng.randrange(1, 4)
            b = random_word(rng, n, rng.randrange(0, 5))
            yield one_plus * whole_trace(b) == field.q_sum * whole_trace(
                BraidWord(n + 1, b.letters)
            )
            yield whole_trace(stabilize(b, -1)) == whole_trace(b)

    def partition_traces():
        delta = field.delta()
        for n in range(1, 6):
            for lam in partitions_of(n):
                yield whole_trace(b_lambda(lam)) == delta ** (lam.k - 1)

    def jones_against_bracket():
        yield jones(BraidWord(2, [1, 1, 1])).render() == "-t^4+t^3+t"
        for _ in range(20):
            b = random_word(rng, rng.randrange(2, 4), rng.randrange(0, 8))
            yield jones(b) == jones_via_bracket(b)

    def cell_modules():
        for n in (2, 3):
            sctx = SpechtContext.generic(n)
            for lam in partitions_of(n):
                module = specht_module(lam, sctx)
                yield module.dimension == count_standard_tableaux(lam)
                yield module.gram_rank() == module.dimension
        f3 = PrimeField(3)
        e = quantum_e(f3.from_int(2))
        for lam in partitions_of(3):
            sctx = SpechtContext.at_value(3, f3, 2)
            yield (dim_D_lambda(lam, sctx) > 0) == e_restricted(lam, e)

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
        n = 3 if args.n is None else args.n
        max_len = 5 if args.max_len is None else args.max_len
        report = exhaustive_word_closure(n, max_len, image_fn=image_fn)
        violations = report["violations"]
        _emit(
            args,
            report,
            f"checked {report['checked']} rewrites on {report['n']} strands",
            *(
                f"violation: {v['move']} on {v['word']} -> {v['rewritten']}"
                for v in violations
            ),
            f"violations: {len(violations)}",
        )
        return EXIT_INTERNAL if violations else EXIT_OK
    if args.n is not None or args.max_len is not None:
        raise UsageError("--n and --max-len apply only to --exhaustive")

    suites = []
    for name, suite in _quick_suites(image_fn):
        verdicts = list(suite())
        suites.append(
            {"name": name, "checks": len(verdicts), "failures": verdicts.count(False)}
        )
    ok = not any(entry["failures"] for entry in suites)
    _emit(
        args,
        {"suites": suites, "ok": ok},
        *(
            f"{'FAIL' if entry['failures'] else 'ok'} {entry['name']} "
            f"({entry['checks']} checks)"
            for entry in suites
        ),
        "all checks passed" if ok else "FAILURES DETECTED",
    )
    return EXIT_OK if ok else EXIT_INTERNAL


# -- argument plumbing --------------------------------------------------------------


def _add_field_arguments(sub) -> None:
    sub.add_argument(
        "--field",
        type=str.lower,
        choices=["generic", "rationals", "fp"],
        default=None,
        help="coefficient field (default: generic, or HECKELINK_FIELD)",
    )
    sub.add_argument("--p", type=int, default=None, help="prime for --field fp")
    sub.add_argument("--q", default=None, help="q value for rationals/fp fields")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="heckelink",
        description="Exact Hecke-algebra computations and braid-closure invariants.",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, handler in (
        ("reduce", "expand a braid word in the T_w basis", cmd_reduce),
        ("homfly", "two-variable closure invariant", cmd_homfly),
        ("jones", "Jones polynomial of the closure", cmd_jones),
        ("decompose", "closure coordinates by partition", cmd_decompose),
    ):
        p_word = sub.add_parser(name, help=help_text)
        p_word.add_argument("word", help="braid word, e.g. '1 -2 1' or 'B3: 1 -2 1'")
        p_word.add_argument("--strands", type=int, default=None, help="strand count")
        _add_field_arguments(p_word)
        p_word.set_defaults(handler=handler)

    p_specht = sub.add_parser("specht", help="cell module table for all partitions")
    p_specht.add_argument("--n", type=int, required=True)
    _add_field_arguments(p_specht)
    p_specht.set_defaults(handler=cmd_specht)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    mode = p_verify.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="bounded property run")
    mode.add_argument(
        "--exhaustive", action="store_true", help="exhaustive word-rewrite closure"
    )
    p_verify.add_argument("--n", type=int, help="strands for --exhaustive (default 3)")
    p_verify.add_argument(
        "--max-len", type=int, help="word length cap for --exhaustive (default 5)"
    )
    p_verify.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt the braid image on purpose (sanity check of the checker)",
    )
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    input_errors = (
        UsageError, BraidError, HeckeError, CoefficientError, OracleError, SpechtError
    )
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except input_errors as exc:
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
