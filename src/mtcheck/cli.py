"""Command-line interface.

Subcommands: catalog, pair, survivors, lemma, exceptions, monodromy, check.
``check`` exits 0 on any verdict and 2 on inconsistent input; its machine
format emits one JSON object per descriptor with keys "conclusion",
"citations" and "notes".  Usage errors and bad values, also in one batch
row, print ``error: ...`` and count as status 1.  A ``check --file`` row is
the ``str.split`` tokens of its line, every flag written in full; a row may
not set ``--file`` or another ``--format`` (see ``_row_reader``).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

from .catalog import (IrrepDescriptor, descriptor, enumerate_minuscule,
                      minuscule_weight_indices)
from .checker import (AVDescriptor, Conclusion, EndoType, InputInconsistentError,
                      Reduction, Verdict, decide, explain)
from .divisibility import divisibility_solutions, exception_pairs
from .exclusion import check_pair, surviving_inners
from .monodromy import build_instance, verify_instance
from .roots import FormClass, LieType


# Python prints and parses ints of at most 4300 digits by default, and
# every dimension below 2^14284 has at most 4300 digits
_MAX_DIM_BITS = 14284


def _printable_descriptor(t: LieType, s: int) -> IrrepDescriptor:
    """``descriptor(t, s)``, refused if its dimension is 2^_MAX_DIM_BITS or
    more.  A lower bound on its log2 refuses first, so no refused dimension
    is computed: m - 1 for a half-spin of D_m, and k floor(log2((m+1) // k))
    for (A_m, ws), k = min(s, m + 1 - s), as binom(m+1, k) >= ((m+1) / k)^k.
    A binomial past that has k < _MAX_DIM_BITS, so it is cheap."""
    m, low = t.rank, 0
    if t.family == "D" and s in (m - 1, m):
        low = m - 1
    elif t.family == "A" and 1 <= s <= m:
        k = min(s, m + 1 - s)
        low = k * (((m + 1) // k).bit_length() - 1)
    if low < _MAX_DIM_BITS and (entry := descriptor(t, s)).dim.bit_length() <= _MAX_DIM_BITS:
        return entry
    raise ValueError(f"the dimension of {t}:w{s} is 2^{_MAX_DIM_BITS} or more, too large to print")


def _parse_irrep(text: str) -> IrrepDescriptor:
    """family:rank:weight, e.g. A:7:3."""
    try:
        family, rank, weight = text.split(":")
        return _printable_descriptor(LieType(family, int(rank)), int(weight))
    except ValueError as exc:
        raise ValueError(f"bad module spec {text!r}: {exc}") from exc


def _catalog_line(entry: IrrepDescriptor, machine: bool) -> str:
    if machine:
        return json.dumps({
            "family": entry.lie_type.family,
            "rank": entry.lie_type.rank,
            "weight": entry.weight_index,
            "dim": entry.dim,
            "form": entry.form.value,
        })
    return (f"{entry.lie_type} w{entry.weight_index} dim={entry.dim} "
            f"form={entry.form.value}")


def _cmd_catalog(args) -> int:
    t = LieType(args.family, args.rank)
    if indices := minuscule_weight_indices(t):  # check the largest: middle A weight, else last
        _printable_descriptor(t, (t.rank + 1) // 2 if t.family == "A" else indices[-1])
    for entry in enumerate_minuscule(t):
        print(_catalog_line(entry, args.format == "machine"))
    return 0


def _cmd_pair(args) -> int:
    verdict = check_pair(_parse_irrep(args.inner), _parse_irrep(args.outer), args.rank_tau)
    print(f"{'admissible' if verdict.admissible else 'excluded'}: {verdict.reason}")
    return 0


def _cmd_survivors(args) -> int:
    survivors = surviving_inners(args.dim, FormClass(args.form), args.rank_tau)
    if not survivors:
        print("none")
    for s in survivors:
        print(_catalog_line(s, machine=False))
    return 0


def _cmd_lemma(args) -> int:
    for m, s in divisibility_solutions(args.mmax):
        print(f"{m} {s}")
    return 0


def _cmd_exceptions(args) -> int:
    for p in exception_pairs(args.gmax):
        print(f"{p.g} {p.r}")
    return 0


def _cmd_monodromy(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    counts: dict[str, int] = {}
    for k in range(args.trials):
        inst = build_instance(args.g, args.r, args.seed + k)
        for name, ok in verify_instance(inst).items():
            counts[name] = counts.get(name, 0) + (1 if ok else 0)
    for name, good in counts.items():
        print(f"{name}: {good}/{args.trials} {'pass' if good == args.trials else 'FAIL'}")
    return 0 if all(good == args.trials for good in counts.values()) else 1


# the --endo token of each endomorphism type, looked up without a call to
# the enum class, which runs in Python
_ENDO_TYPES = {e.value: e for e in EndoType}


def _descriptor_from_args(values: dict) -> AVDescriptor:
    """The descriptor of one ``check`` flag set, keyed by dest: ``vars`` of
    a command's parse or one batch row."""
    text, signature = values["signature"], None
    if text:
        parts = text.split(",")
        if len(parts) != 2:
            raise InputInconsistentError("signature must be two comma-separated integers")
        try:
            signature = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ValueError(f"argument --signature: expected integers A,B, "
                             f"got {text!r}") from None
    return AVDescriptor(
        g=values["g"],
        endo_type=_ENDO_TYPES[values["endo"]],
        endo_degree=values["degree"],
        signature=signature,
        toric_rank=values["toric_rank"],
        reduction=(Reduction.BAD_SEMISTABLE_SPLIT if values["bad_semistable_split"]
                   else Reduction.GOOD_OR_UNKNOWN),
        simple=values["simple"],
        lie_parts_simple=values["simple_lie"],
    )


def _machine_record(v: Verdict) -> str:
    return json.dumps({
        "conclusion": v.conclusion.value,
        "citations": list(v.citations),
        "notes": list(v.notes),
    })


def _check_one(values: dict) -> int:
    try:
        verdict, status = decide(_descriptor_from_args(values)), 0
    except InputInconsistentError as exc:
        verdict, status = Verdict(Conclusion.INPUT_INCONSISTENT, (), (str(exc),)), 2
    print(_machine_record(verdict) if values["format"] == "machine" else explain(verdict))
    return status


def _row_reader(parser, check, flags, fmt: str):
    """The reader of the rows of one ``fmt`` batch, read off ``flags``, the
    actions of the ``check`` subparser, each a switch (nargs 0) or a flag
    with one value: their dests, types, choices, consts and defaults, with
    ``fmt`` as the format.  A row reads as a dict keyed by dest.

    A row is its line's ``str.split`` tokens.  A flag is written in full as
    ``check --help`` lists it.  A valued flag takes the next token as its
    value, whatever that token is, so ``--g -5`` means g = -5; a switch
    takes none; a repeated flag keeps its last value.  Any other token gets
    the "unrecognized arguments" error of a whole ``mtcheck check ...``
    parse, so an abbreviated flag or ``--flag=value`` refuses the row; a
    quoted or escaped value is a bad value.  A bad or missing value gets
    argparse's own error text, at the first such flag.  A help flag prints
    the usage to stderr, so stdout keeps one record per row, and refuses the
    row; so does a row that sets ``--file`` or another ``--format``."""
    defaults = {action.dest: action.default for action in flags
                if action.default is not argparse.SUPPRESS}
    defaults["format"] = fmt
    table = {option: action for action in flags for option in action.option_strings}

    def refuse(action, message):
        check.error(f"argument {'/'.join(action.option_strings)}: {message}")

    def read(line: str) -> dict:
        values = defaults.copy()
        extras = []
        tokens = iter(line.split())
        for token in tokens:
            action = table.get(token)
            if action is None:
                extras.append(token)
            elif action.nargs == 0:
                if action.default is argparse.SUPPRESS:  # the help flag stores nothing
                    check.print_help(sys.stderr)
                    raise ValueError("a help flag is not a descriptor")
                values[action.dest] = action.const
            else:
                if (value := next(tokens, None)) is None:
                    refuse(action, "expected one argument")
                if action.type is not None:
                    try:
                        value = action.type(value)
                    except (TypeError, ValueError):
                        refuse(action, f"invalid {action.type.__name__} value: {value!r}")
                if action.choices is not None and value not in action.choices:
                    refuse(action, f"invalid choice: {value!r} "
                                   f"(choose from {', '.join(map(repr, action.choices))})")
                values[action.dest] = value
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        if values["file"] is not None:
            raise ValueError("a batch row may not set --file")
        if values["format"] != fmt:
            raise ValueError(f"a batch row may not set --format {values['format']} "
                             f"in a {fmt} batch")
        return values

    return read


def _cmd_check(args, parser, check, flags) -> int:
    if args.file is None:
        return _check_one(vars(args))
    read = _row_reader(parser, check, flags, args.format)
    status = 0
    # surrogateescape keeps an undecodable byte in its row, whose own strict
    # decode below then fails; utf-8-sig drops a leading byte-order mark
    with open(args.file, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line = line.encode("utf-8", "surrogateescape").decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                row_status = _check_one(read(line))
            except ValueError as exc:
                print(f"error: line {number}: {exc}", file=sys.stderr)
                row_status = 1
            status = max(status, row_status)
    return status


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError: ``error: ...`` and 1, not exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = _Parser(prog="mtcheck")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the cataloged modules of one type")
    p.add_argument("--family", required=True, choices=list("ABCDE"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("pair", help="check one candidate proper inclusion")
    p.add_argument("--inner", required=True, metavar="FAM:RANK:WEIGHT")
    p.add_argument("--outer", required=True, metavar="FAM:RANK:WEIGHT")
    p.add_argument("--rank-tau", required=True, type=int)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("survivors", help="admissible proper-inclusion inners")
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--form", required=True, choices=sorted(f.value for f in FormClass))
    p.add_argument("--rank-tau", required=True, type=int)
    p.set_defaults(func=_cmd_survivors)

    p = sub.add_parser("lemma", help="binomial divisibility solutions")
    p.add_argument("--mmax", required=True, type=int)
    p.set_defaults(func=_cmd_lemma)

    p = sub.add_parser("exceptions", help="exception pairs (g, r)")
    p.add_argument("--gmax", required=True, type=int)
    p.set_defaults(func=_cmd_exceptions)

    p = sub.add_parser("monodromy", help="build and verify seeded instances")
    p.add_argument("--g", required=True, type=int)
    p.add_argument("--r", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(func=_cmd_monodromy)

    # the help flag is declared here, not by add_help, so that every flag of
    # a batch row has the Action that add_argument returns
    p = sub.add_parser("check", add_help=False, help="decide a descriptor (or a batch file)")
    flags = (
        p.add_argument("-h", "--help", action="help", help="show this help message and exit"),
        p.add_argument("--g", type=int, default=1),
        p.add_argument("--endo", choices=sorted(_ENDO_TYPES), default="Q"),
        p.add_argument("--degree", type=int, default=1),
        p.add_argument("--signature", default=None, metavar="A,B"),
        p.add_argument("--toric-rank", type=int, default=0),
        p.add_argument("--bad-semistable-split", action="store_true"),
        p.add_argument("--simple", action="store_true"),
        p.add_argument("--simple-lie", action="store_true",
                       help="assert simplicity of the Lie parts directly"),
        p.add_argument("--format", choices=["text", "machine"], default="text"),
        p.add_argument("--file", default=None,
                       help="batch mode: one flag set per line"),
    )
    p.set_defaults(func=partial(_cmd_check, parser=parser, check=p, flags=flags))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
