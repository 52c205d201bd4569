"""Batch command-line front end with JSON/CSV reports.

Every subcommand is one row of ``COMMANDS``: its group and name with their
help, its handler, its own arguments and, for ``bnc enum`` and ``verify
all``, a CSV view of its report.  ``build_parser`` builds every leaf parser
in one loop over the table.  A handler only computes its report; ``main``
alone writes it (JSON with a ``"schema"`` field, or the row's CSV view
under ``--output-format csv``) and chooses the exit code: 1 when the
report's ``"pass"`` is false, 0 otherwise.  Usage errors exit 2 (argparse),
computation failures exit 1 with a JSON error object.  Output is
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import acceptance
from .balgebra import CPMap, as_belement, belement_from_json, belement_to_json, json_fields
from .bnc import (
    MAX_ENUM_N, MAX_SCAN_ORDER, MAX_WALK_N, BncPartition, ChiWord, bnc_index, enumerate_bnc,
    mobius_bnc,
)
from .conjvar import (
    check_candidates,
    circular_entropy_experiment,
    fisher_info,
    fisher_minimization_experiment,
    scaled_semicircular,
    semicircular_entropy_experiment,
    solve_conjugate,
)
from .fock import FockModel, bisemicircular_from_json, make_bisemicircular
from .moments import bifree_test, transform_table
from .words import Monomial

SCHEMA = 1


def _checked(convert, ok, message: str):
    """An argparse ``type``: convert the text, then reject a value failing
    ``ok`` (a usage error, exit 2), wherever in the command line it is given."""

    def parse(text: str):
        x = convert(text)
        if not ok(x):
            raise argparse.ArgumentTypeError(message)
        return x

    return parse


_finite_nonzero = _checked(float, lambda x: 0 < abs(x) < math.inf, "must be finite and nonzero")
_positive_finite = _checked(float, lambda x: 0 < x < math.inf, "must be positive and finite")
_dimension = _checked(int, lambda n: 1 <= n <= 8, "must be in 1..8")
_max_order = _checked(int, lambda n: 2 <= n <= MAX_SCAN_ORDER, f"must be in 2..{MAX_SCAN_ORDER}")
_non_negative = _checked(int, lambda n: n >= 0, "must be >= 0")


class _Encoded(list):
    """A list of JSON values only, no NaN or infinity among them: ``_jsonable``
    returns it unwalked."""


def _jsonable(obj):
    if isinstance(obj, (int, str, _Encoded)):  # a bool is an int
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2:
            return [_jsonable(v) for v in obj]
        # Converted once; walked again only to print a NaN or infinite entry as null.
        out = belement_to_json(obj)
        return out if np.isfinite(obj).all() else _jsonable(out)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _jsonable(obj.item())
    if isinstance(obj, complex):
        # Relative, so that a large value's roundoff does not flip its type.
        if abs(obj.imag) < 1e-15 * max(1.0, abs(obj.real)):
            return _jsonable(obj.real)
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, float) and not math.isfinite(obj):  # JSON has no NaN or inf
        return None
    return obj


def _emit(report: dict, args) -> None:
    if args.output_format == "csv" and args.csv_view is not None:
        header, rows = args.csv_view(report)
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        sys.stdout.write(buf.getvalue())
    else:
        # json.dumps encodes in C; json.dump to a stream never does.
        report = {"schema": SCHEMA, **report}
        sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True) + "\n")


def _load_model(args) -> FockModel:
    if args.model:
        with open(args.model) as fh:
            return bisemicircular_from_json(json.load(fh), max_depth=args.truncation)
    eye = CPMap.identity(args.d)
    return make_bisemicircular([eye], [eye], max_depth=args.truncation)


_VALUE_FIELDS = {"d", "re", "im"}


def _plain_value(obj, d: int | None) -> bool:
    """True for a serialized value that ``belement_from_json`` reads as an
    n x n matrix with no question, n being ``d`` unless it is None: a dict
    of ``"re"`` and ``"im"``, each n lists of n floats, nulls or ints within
    float range, and optionally ``"d"``, the ``int`` n."""
    if type(obj) is not dict or not obj.keys() <= _VALUE_FIELDS:
        return False
    re, im = obj.get("re"), obj.get("im")
    if type(re) is not list or type(im) is not list:
        return False
    n = len(re) if d is None else d
    if not n or len(re) != n or len(im) != n:
        return False
    if "d" in obj and (type(obj["d"]) is not int or obj["d"] != n):
        return False
    for part in (re, im):
        for row in part:
            if type(row) is not list or len(row) != n:
                return False
            for x in row:
                if not (type(x) is float or x is None or (type(x) is int and -1e308 < x < 1e308)):
                    return False
    return True


def _read_table(path: str):
    """The chi word of a JSON table file (stdin for ``-``), its values as one
    ``(k, d, d)`` complex array in ``enumerate_bnc(chi)`` order, and the mask
    of the entries it lists.

    Each entry is checked in one pass, in order, and the values are
    converted once, at the end.  A partition is located by ``bnc_index``,
    so a bad one raises the partition check's ``ValueError``; a partition
    listed twice, or a value of another size than the first, is rejected
    too.  A value that is not plainly a number matrix of the first value's
    size (``_plain_value``) goes through ``belement_from_json``, which
    raises what is wrong with it.  The table and each entry may hold only
    their own fields (``schema``, which the ``mc`` reports print, included),
    and an entry's optional ``"chi"`` must be the table's."""
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    json_fields(data, "table", ("chi", "entries", "schema"))
    chi = ChiWord(data["chi"])
    word = str(chi)
    # Past the enumeration bound entries are checked as partitions, and
    # enumerate_bnc raises once they all are.
    locate = bnc_index if chi.n <= MAX_ENUM_N else BncPartition
    slots, seen, re, im = [], set(), [], []
    d = None  # every value must have the first value's size
    for entry in data["entries"]:
        json_fields(entry, "table entry", ("chi", "partition", "value"))
        if "chi" in entry and entry["chi"] != word and ChiWord(entry["chi"]) != chi:
            raise ValueError(f"entry chi {entry['chi']!r} differs from the table's {word!r}")
        i = locate(entry["partition"], chi)
        if i in seen:
            blocks = BncPartition(entry["partition"], chi).blocks
            raise ValueError(f"partition {list(map(list, blocks))} is listed twice")
        seen.add(i)
        value = entry["value"]
        if not _plain_value(value, d):
            as_belement(belement_from_json(value), d)
        d = len(value["re"])
        slots.append(i)
        re.append(value["re"])
        im.append(value["im"])
    parts = enumerate_bnc(chi)
    values = np.zeros((len(parts), d or 0, d or 0), dtype=complex)
    present = np.zeros(len(parts), dtype=bool)
    if slots:
        values[slots] = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
        present[slots] = True
    return chi, values, present


def _table_report(chi: ChiWord, values: np.ndarray) -> dict:
    """The report of a whole table, entries sorted by their position blocks.
    The values are converted by one ``tolist`` each part; an entry with a
    NaN or infinite part is walked to print it as null."""
    parts = enumerate_bnc(chi)
    order = sorted(range(len(parts)), key=lambda i: parts[i].blocks)
    values = values[order]
    rows = zip(values.real.tolist(), values.imag.tolist())
    finite = np.isfinite(values).all(axis=(1, 2)).tolist()
    word, d = str(chi), values.shape[1]
    return {
        "chi": word,
        "entries": _Encoded(
            {
                "chi": word,
                "partition": [list(b) for b in parts[i].blocks],
                "value": {"d": d, "re": re, "im": im} if ok else
                _jsonable({"d": d, "re": re, "im": im}),
            }
            for i, (re, im), ok in zip(order, rows, finite)
        ),
    }


# --- subcommand handlers: each computes its report and returns it ------------

def _cmd_bnc_enum(args) -> dict:
    chi = ChiWord(args.chi)
    parts = enumerate_bnc(chi)
    return {"chi": str(chi), "count": len(parts), "partitions": [p.to_json() for p in parts]}


def _bnc_enum_csv(rep: dict):
    rows = [(q["n"], q["chi"], json.dumps(q["blocks"])) for q in rep["partitions"]]
    return ("n", "chi", "blocks"), rows


def _cmd_bnc_mobius(args) -> dict:
    chi = ChiWord(args.chi)
    sigma = BncPartition(json.loads(args.sigma), chi)
    pi = BncPartition(json.loads(args.pi), chi)
    return {"chi": str(chi), "value": mobius_bnc(sigma, pi)}


def _cmd_mc(args) -> dict:
    chi, values, present = _read_table(args.table)
    to = "cumulants" if args.cmd == "to-cumulants" else "moments"
    return _table_report(chi, transform_table(chi, values, to, present))


def _cmd_bifree_test(args) -> dict:
    model = _load_model(args)
    return bifree_test(
        model.functional, model.symbols, max_order=args.max_order, tol=args.tolerance
    )


def _cmd_fock_moment(args) -> dict:
    model = _load_model(args)
    word = Monomial([model.symbol(tok) for tok in args.word.split()])
    F = model.functional
    return {"word": args.word, "value": F.expect(word), "trace": F.tau(word)}


def _cmd_conj_check(args) -> dict:
    (cand,) = cands = scaled_semicircular(args.lam)
    rep = check_candidates(cands, args.max_n)
    rep["target"] = f"{args.lam:g}*semicircular"
    finite = math.isfinite(rep["fisher"]) and math.isfinite(rep["cramer_rao_product"])
    # At max_n 0 only the empty word is walked, whose relation any candidate meets.
    rep["pass"] = bool(args.max_n > 0 and rep["max_residual"] <= args.tolerance and finite)
    if args.solve:
        solved, solved_resid = solve_conjugate(
            cand.model, cand.target, CPMap.identity(1), (), max_n=args.max_n
        )
        rep["solver_residual"] = solved_resid
        rep["solver_fisher"] = fisher_info([solved])
    return rep


# ``fisher run`` and ``entropy run``: group -> experiment name -> experiment.
_EXPERIMENTS = {
    "fisher": {"circular-min": fisher_minimization_experiment},
    "entropy": {
        "semicircular-max": semicircular_entropy_experiment,
        "circular-pair": circular_entropy_experiment,
    },
}


def _cmd_experiment(args) -> dict:
    return _EXPERIMENTS[args.group][args.experiment]()


def _cmd_verify_all(args) -> dict:
    # Progress lines (with timings) go to stderr; stdout carries only the
    # byte-stable summary.
    results, ok = acceptance.run_all(
        seed=args.seed, emit=lambda line: print(line, file=sys.stderr)
    )
    criteria = [
        {"id": r.cid, "name": r.name, "pass": r.passed, "detail": r.detail} for r in results
    ]
    return {"pass": ok, "seed": args.seed, "criteria": criteria}


def _verify_all_csv(rep: dict):
    rows = [(c["id"], c["name"], c["pass"], c["detail"]) for c in rep["criteria"]]
    return ("id", "name", "pass", "detail"), rows


class Command(NamedTuple):
    """One leaf subcommand, ``bifree GROUP NAME``: its handler, its own
    arguments as (flag, ``add_argument`` keywords) and, where the report is
    a table, the view that turns it into the (header, rows) printed under
    ``--output-format csv``."""

    group: str
    group_help: str
    name: str
    help: str
    handler: Callable[[argparse.Namespace], dict]
    arguments: tuple = ()
    csv_view: Callable[[dict], tuple] | None = None


_MODEL = ("--model", dict(default=None, help="model spec JSON file"))
_TABLE = ("--table", dict(required=True, help="JSON file or - for stdin"))
_BLOCKS = dict(required=True, help="JSON block list")

COMMANDS = (
    Command("bnc", "bi-non-crossing lattice", "enum", "enumerate BNC(chi)", _cmd_bnc_enum,
            (("--chi", dict(required=True)),), csv_view=_bnc_enum_csv),
    Command("bnc", "bi-non-crossing lattice", "mobius", "Moebius function value",
            _cmd_bnc_mobius,
            (("--chi", dict(required=True)), ("--sigma", _BLOCKS), ("--pi", _BLOCKS))),
    Command("mc", "moment/cumulant tables", "to-cumulants", "convolve a moment table",
            _cmd_mc, (_TABLE,)),
    Command("mc", "moment/cumulant tables", "to-moments", "sum a cumulant table",
            _cmd_mc, (_TABLE,)),
    Command("bifree", "bi-freeness checks", "test", "scan mixed cumulants",
            _cmd_bifree_test, (_MODEL,)),
    Command("fock", "Fock-space models", "moment", "expectation of an operator word",
            _cmd_fock_moment,
            (("--word", dict(required=True, help='e.g. "S1 S1 D1 D1"')), _MODEL)),
    Command("conj", "conjugate variables", "check", "verify the semicircular conjugate variable",
            _cmd_conj_check, (
                ("--lam", dict(type=_finite_nonzero, default=1.0, help="scale of the target")),
                ("--max-n", dict(type=int, choices=range(MAX_WALK_N + 1), default=6,
                                 help="longest test word")),
                ("--solve", dict(action="store_true", help="also run the least-squares solver")),
            )),
    Command("fisher", "Fisher information", "run", "run a Fisher experiment", _cmd_experiment,
            (("--experiment", dict(required=True, choices=tuple(_EXPERIMENTS["fisher"]))),)),
    Command("entropy", "entropy", "run", "run an entropy experiment", _cmd_experiment,
            (("--experiment", dict(required=True, choices=tuple(_EXPERIMENTS["entropy"]))),)),
    Command("verify", "acceptance suite", "all", "run every acceptance criterion",
            _cmd_verify_all, csv_view=_verify_all_csv),
)


def _add_config_options(p: argparse.ArgumentParser, default: bool = False) -> None:
    # On leaf subcommands the defaults are suppressed so that values given at
    # the top level are not overwritten.
    d = (lambda v: v) if default else (lambda v: argparse.SUPPRESS)
    p.add_argument("--output-format", choices=("json", "csv"), default=d("json"))
    p.add_argument("--tolerance", type=_positive_finite, default=d(1e-9))
    p.add_argument("--seed", type=_non_negative, default=d(0))
    p.add_argument("--d", type=_dimension, default=d(1), help="coefficient dimension, 1..8")
    p.add_argument("--max-order", type=_max_order, default=d(4), help=f"2..{MAX_SCAN_ORDER}")
    p.add_argument(
        "--truncation", type=_non_negative, default=d(None),
        help="Fock depth cap; an expectation fails only if a component that "
        "could still return to depth 0 would exceed it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="Computational engine for bi-free probability with amalgamation.",
    )
    _add_config_options(parser, default=True)
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for c in COMMANDS:
        if c.group not in groups:
            groups[c.group] = sub.add_parser(c.group, help=c.group_help).add_subparsers(
                dest="cmd", required=True
            )
        p = groups[c.group].add_parser(c.name, help=c.help)
        for flag, options in c.arguments:
            p.add_argument(flag, **options)
        _add_config_options(p)
        p.set_defaults(func=c.handler, csv_view=c.csv_view)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Parsing keeps no state in the parser, so one tree serves every call in
    # a process; building it costs milliseconds of argparse set-up.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.func(args)
        _emit(report, args)
    except BrokenPipeError:  # pragma: no cover
        return 1
    except Exception as exc:  # computation failure -> exit 1 with JSON error
        json.dump(
            {"schema": SCHEMA, "error": f"{type(exc).__name__}: {exc}"}, sys.stdout
        )
        sys.stdout.write("\n")
        return 1
    return 0 if report.get("pass", True) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
