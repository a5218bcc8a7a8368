"""Command-line interface for basis computation and irreducibility tests.

Six subcommands share one executable:

* ``dcb``        -- print the corrected basis of one weight class
* ``decompose``  -- expand a product of two basis vectors over the basis
* ``irred``      -- decide irreducibility of one induction product
* ``scan``       -- tabulate irreducibility over a range of shifts
* ``verify``     -- run one of the property-verification suites
* ``minor``      -- straighten a quantum minor and confirm its basis label

Every command accepts ``--json``.  ``dcb`` prints a whole weight class,
and ``decompose`` counts the class of its product; in both,
``--max-class-size N`` refuses a class of more than N labels before any
basis vector is computed.  Exit codes: 0 on success, 1 when a property or
cross-check fails (a ``verify`` case in which the basis core raises
InvariantError or ExactDivisionError is one failure that names the
case), 2 on usage errors (parse and argument errors, size-guard
refusals, ``verify`` bounds that select no case or that the suite does
not take), 3 on an internal fault (any other exception, a ValueError
from a computation or either core exception outside a ``verify`` case
included), and 141 when the reader of stdout closes it early, as a
shell reports a writer killed by SIGPIPE.
``scan`` writes each row once it is decided, so a fault partway through
exits 3 after the rows written.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from .algebra import (
    _check_indices,
    minor_multisegment,
    quantum_minor,
    render_combination,
)
from .canonical import (
    BasisCache,
    dcb_table,
    product_membership,
    structure_constants,
)
from .checks import SUITES
from .criteria import _verdict, evaluation_multisegment, parse_partition
from .laurent import LaurentPoly
from .multisegment import (
    Multisegment,
    Weight,
    class_exceeds,
    parse_multisegment,
    parse_weight,
)

OK, PROPERTY_FAILURE, USAGE_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
BROKEN_PIPE = 141  # a shell's status for a writer killed by SIGPIPE


class _UsageError(Exception):
    """Bad input detected after argparse (grammar or size guard)."""


def _as_usage(check, *args):
    """check(*args), its ValueError reported as a usage error.  Only for
    parsers and argument checks: a ValueError from a computation stays an
    internal fault."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise _UsageError(f"range {text!r} must look like lo:hi")
    try:
        bounds = int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"range {text!r} must be integer:integer") from exc
    if bounds[0] > bounds[1]:
        raise _UsageError(f"empty range {text!r}")
    return bounds


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated integers, got {text!r}"
                          ) from exc


def _coef_json(c: LaurentPoly) -> list[list[int]]:
    return [list(pair) for pair in c.items()]


def _at_least_zero(flag: str, value: int) -> None:
    if value < 0:
        raise _UsageError(f"{flag} must be at least 0")


def _check_class_size(weight: Weight, cap: int) -> None:
    """Refuse a class of more than cap labels, before any work."""
    _at_least_zero("--max-class-size", cap)
    if class_exceeds(weight, cap):
        raise _UsageError(f"weight class {weight} has more than {cap} "
                          "labels; raise --max-class-size")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


# -- subcommands -------------------------------------------------------------


def cmd_dcb(args: argparse.Namespace) -> int:
    weight = _as_usage(parse_weight, args.weight)
    _check_class_size(weight, args.max_class_size)
    table = dcb_table(weight, BasisCache())
    if args.json:
        print(table.to_json())
    else:
        # Each label is rendered once.
        names = {m: str(m) for m in table.labels}
        print("\n".join(
            f"G*({names[m]}) = "
            + render_combination([(names[n], c) for n, c in table.row(m)],
                                 "E*")
            for m in table.labels))
    return OK


def cmd_decompose(args: argparse.Namespace) -> int:
    m = _as_usage(parse_multisegment, args.m)
    n = _as_usage(parse_multisegment, args.n)
    _check_class_size((m + n).weight(), args.max_class_size)
    expansion = structure_constants(m, n, BasisCache())
    # sort_key is the class enumeration order; no two labels share it.
    rows = [(p, expansion[p])
            for p in sorted(expansion, key=Multisegment.sort_key)]
    simple = len(rows) == 1 and rows[0][1].single_power() is not None
    if args.json:
        _print_json({
            "m": str(m),
            "n": str(n),
            "factors": [
                {"label": str(p), "coef": _coef_json(c),
                 "multiplicity": c.at_one()}
                for p, c in rows
            ],
            "simple": simple,
        })
    else:
        lines = [f"G*({m}) * G*({n}) ="]
        lines += [f"  {c}  G*({p})   [multiplicity {c.at_one()}]"
                  for p, c in rows]
        lines.append("SIMPLE" if simple else "NOT SIMPLE")
        print("\n".join(lines))
    return OK


def _pattern_text(witness: tuple[int, ...] | None) -> str:
    return ("" if witness is None
            else "pattern " + " < ".join(str(x) for x in witness))


def _decide(alpha, a: int, beta, b: int, cache: BasisCache | None
            ) -> tuple[bool, tuple[int, ...] | None, bool]:
    """The verdict, its witness, and, given a cache, whether membership of
    G*(m_alpha) G*(m_beta) up to a power of v agrees with the verdict,
    decided from the two factors alone (product_membership)."""
    verdict, witness = _verdict(alpha, a, beta, b)
    if cache is None:
        return verdict, witness, True
    factors = [evaluation_multisegment(alpha, a),
               evaluation_multisegment(beta, b)]
    algebraic = product_membership(factors, cache) is not None
    return verdict, witness, algebraic == verdict


def cmd_irred(args: argparse.Namespace) -> int:
    alpha = _as_usage(parse_partition, args.alpha)
    beta = _as_usage(parse_partition, args.beta)
    verdict, witness, agrees = _decide(
        alpha, args.a, beta, args.b, BasisCache() if args.verify else None)
    if args.json:
        payload = {
            "alpha": list(alpha.parts), "a": args.a,
            "beta": list(beta.parts), "b": args.b,
            "irreducible": verdict,
            "pattern": list(witness) if witness is not None else None,
        }
        if args.verify:
            payload["verified"] = agrees
        _print_json(payload)
    else:
        print("IRREDUCIBLE" if verdict
              else f"REDUCIBLE {_pattern_text(witness)}")
    if not agrees:
        print(f"verification failed: separation says {verdict}, "
              f"membership says {not verdict}", file=sys.stderr)
        return PROPERTY_FAILURE
    return OK


def cmd_scan(args: argparse.Namespace) -> int:
    """One pass: each row is written once its shift is decided, and only
    the reducible shifts (a window the partitions fix) are kept.  --json
    writes the bytes of json.dumps(payload, indent=2) piece by piece; the
    head goes out with the first row, so a fault there writes nothing."""
    alpha = _as_usage(parse_partition, args.alpha)
    beta = _as_usage(parse_partition, args.beta)
    lo, hi = _parse_range(args.range)
    cache = BasisCache() if args.verify else None
    reducible, disagreements = [], []
    sep = json.dumps({"alpha": list(alpha.parts), "beta": list(beta.parts),
                      "range": [lo, hi]}, indent=2)[:-2] + \
        ',\n  "verdicts": [\n'
    for shift in range(lo, hi + 1):
        verdict, witness, agrees = _decide(alpha, 0, beta, shift, cache)
        if not verdict:
            reducible.append(shift)
        if not agrees:
            disagreements.append(shift)
        if not args.json:
            sys.stdout.write(f"b-a = {shift:+d}: "
                             f"{'IRREDUCIBLE' if verdict else 'REDUCIBLE'}\n")
            continue
        # Rows have a fixed shape; only a pattern pays for the encoder.
        pattern = "null" if witness is None else json.dumps(
            list(witness), indent=2).replace("\n", "\n      ")
        verified = "" if cache is None else \
            f',\n      "verified": {str(agrees).lower()}'
        sys.stdout.write(f'{sep}    {{\n      "shift": {shift},\n      '
                         f'"irreducible": {str(verdict).lower()},\n      '
                         f'"pattern": {pattern}{verified}\n    }}')
        sep = ",\n"
    if args.json:
        tail = json.dumps(reducible, indent=2).replace("\n", "\n  ")
        sys.stdout.write(f'\n  ],\n  "reducible_shifts": {tail}\n}}\n')
    else:
        print("reducible shifts: "
              + (", ".join(str(s) for s in reducible) or "none"))
    if disagreements:
        print(f"verification failed at shifts {disagreements}",
              file=sys.stderr)
    return PROPERTY_FAILURE if disagreements else OK


def _suite_defaults(suite) -> dict:
    """The suite's keyword defaults, read from its signature (no cache)."""
    return {name: p.default
            for name, p in inspect.signature(suite).parameters.items()
            if name != "cache"}


# Each suite's defaults; each verify flag sets the parameter of its name.
_SUITE_DEFAULTS = {suite: _suite_defaults(check)
                   for suite, check in SUITES.items()}
_SUITE_FLAGS = tuple(dict.fromkeys(name for d in _SUITE_DEFAULTS.values()
                                   for name in d))


def _suite_kwargs(args: argparse.Namespace) -> dict:
    """The suite's defaults, each overridden by the flag of the same name;
    a flag the suite does not take is a usage error."""
    kwargs = dict(_SUITE_DEFAULTS[args.suite])
    for name in _SUITE_FLAGS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in kwargs:
            raise _UsageError(f"--{name.replace('_', '-')} does not apply "
                              f"to suite {args.suite}")
        kwargs[name] = (_parse_range(value) if name.endswith("_range")
                        else value)
    _at_least_zero("--samples", kwargs.get("samples", 0))
    if args.suite == "frank" and kwargs["samples"] > 0 and (
            kwargs["max_factors"] < 2 or kwargs["max_entry"] < 1):
        raise _UsageError("random families need --max-factors of at least "
                          "2 and --max-entry of at least 1")
    return kwargs


def cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES[args.suite]
    report = suite(**_suite_kwargs(args))
    if report.cases == 0:
        raise _UsageError(f"the bounds select no case of suite {report.name}")
    if args.json:
        _print_json({
            "suite": report.name,
            "cases": report.cases,
            "ok": report.ok,
            "failures": report.failures,
        })
    else:
        print("\n".join([report.summary()]
                        + [f"  {f}" for f in report.failures]))
    return OK if report.ok else PROPERTY_FAILURE


def cmd_minor(args: argparse.Namespace) -> int:
    rows = _parse_int_list(args.rows)
    cols = _parse_int_list(args.cols)
    _as_usage(_check_indices, rows, cols)
    minor = quantum_minor(rows, cols)
    if not minor:
        if args.json:
            _print_json({"rows": list(rows), "cols": list(cols),
                         "zero": True})
        else:
            print("0")
        return OK
    label = minor_multisegment(rows, cols)
    confirmed = minor == BasisCache().dual_canonical(label)
    if args.json:
        _print_json({
            "rows": list(rows),
            "cols": list(cols),
            "zero": False,
            "expansion": [
                {"label": str(p), "coef": _coef_json(c)}
                for p, c in minor.items()
            ],
            "label": str(label),
            "confirmed": confirmed,
        })
    else:
        print("\n".join([
            f"minor = {render_combination(minor.items(), 'E*')}",
            f"label: {label}",
            f"confirmed equal to G*({label}): "
            f"{'yes' if confirmed else 'NO'}",
        ]))
    return OK if confirmed else PROPERTY_FAILURE


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcbasis",
        description="Exact dual canonical basis vectors and irreducibility "
                    "criteria for induction products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser,
                   class_cap: bool = False) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        if class_cap:
            p.add_argument("--max-class-size", type=int, default=5000,
                           metavar="N",
                           help="refuse a weight class of more than N labels "
                                "before any work (default 5000)")

    p = sub.add_parser("dcb", help="print the basis of one weight class")
    p.add_argument("--weight", required=True, metavar="POS:CNT,...",
                   help="weight as position:count pairs, e.g. 0:1,1:2,2:1")
    add_common(p, class_cap=True)
    p.set_defaults(func=cmd_dcb)

    p = sub.add_parser("decompose",
                       help="expand a product of two basis vectors")
    p.add_argument("--m", required=True, help='first label, e.g. "[1]+[2,3]"')
    p.add_argument("--n", required=True, help="second label")
    add_common(p, class_cap=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("irred", help="decide one induction product")
    p.add_argument("--alpha", required=True, help="partition, e.g. 4,2")
    p.add_argument("--a", type=int, default=0, help="first shift (default 0)")
    p.add_argument("--beta", required=True, help="partition, e.g. 2,2,1")
    p.add_argument("--b", type=int, default=0,
                   help="second shift (default 0)")
    p.add_argument("--verify", action="store_true",
                   help="re-derive the verdict through the algebraic oracle")
    add_common(p)
    p.set_defaults(func=cmd_irred)

    p = sub.add_parser("scan", help="tabulate verdicts over a shift range")
    p.add_argument("--alpha", required=True, help="partition, e.g. 4,2")
    p.add_argument("--beta", required=True, help="partition, e.g. 2,2,1")
    p.add_argument("--range", required=True, metavar="LO:HI",
                   help="closed range of b-a values")
    p.add_argument("--verify", action="store_true",
                   help="re-derive every verdict through the algebraic "
                        "oracle")
    add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a property-verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES),
                   help="which suite to run")
    for name in _SUITE_FLAGS:
        ranged = name.endswith("_range")
        shown = {suite: "no bound" if d[name] is None
                 else ":".join(map(str, d[name])) if ranged else d[name]
                 for suite, d in _SUITE_DEFAULTS.items() if name in d}
        p.add_argument(f"--{name.replace('_', '-')}",
                       type=None if ranged else int,
                       metavar="LO:HI" if ranged else "N",
                       help=", ".join(f"{s} ({v})" for s, v in shown.items()))
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("minor", help="straighten one quantum minor")
    p.add_argument("--rows", required=True, metavar="I1,I2,...",
                   help="increasing row indices")
    p.add_argument("--cols", required=True, metavar="J1,J2,...",
                   help="increasing column indices")
    add_common(p)
    p.set_defaults(func=cmd_minor)

    return parser


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Join each --flag with a next token that starts with '-' and a digit,
    so argparse takes it as the value; the flag's own parser then checks
    its grammar.  Every flag that takes a value takes numbers or labels."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token[:2] == "--" and i + 1 < len(argv)
                and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit()):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_dash_values(list(argv)))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader left: the exit's own flush goes to devnull, not here.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
