"""Batch command-line front end with JSON/CSV reports.

Subcommands: ``bnc enum``, ``bnc mobius``, ``mc to-cumulants``,
``mc to-moments``, ``bifree test``, ``fock moment``, ``conj check``,
``fisher run``, ``entropy run``, ``verify all``.  Usage errors exit 2
(argparse), computation failures exit 1 with a JSON error object, success
exits 0.  Output is deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import acceptance
from .balgebra import CPMap, as_belement, belement_from_json, belement_to_json
from .bnc import BncPartition, ChiWord, enumerate_bnc, find_bnc, mobius_bnc
from .conjvar import (
    circular_entropy_experiment,
    conj_residual,
    fisher_info,
    fisher_minimization_experiment,
    scaled_semicircular,
    semicircular_entropy_experiment,
    solve_conjugate,
)
from .fock import BisemicircularModel, make_bisemicircular
from .moments import bifree_test, cumulants_from_moments, moments_from_cumulants
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
_max_order = _checked(int, lambda n: 2 <= n <= 8, "must be in 2..8")
_depth = _checked(int, lambda n: n >= 0, "must be >= 0")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return belement_to_json(obj) if obj.ndim == 2 else [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, complex):
        if abs(obj.imag) < 1e-15:
            return obj.real
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and obj != obj:  # NaN guard for JSON
        return None
    return obj


def _emit(report: dict, args, csv_rows=None, csv_header=None) -> None:
    report = {"schema": SCHEMA, **report}
    if args.output_format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        # json.dumps encodes in C; json.dump to a stream never does.
        sys.stdout.write(json.dumps(_jsonable(report), sort_keys=True) + "\n")


def _load_model(args) -> BisemicircularModel:
    if args.model:
        with open(args.model) as fh:
            return BisemicircularModel.from_json(json.load(fh), max_depth=args.truncation)
    eye = CPMap.identity(args.d)
    return make_bisemicircular([eye], [eye], max_depth=args.truncation)


def _read_table(path: str):
    """The chi word and the ``{partition: value}`` table of a JSON file, or
    of stdin for ``-``.  Each partition is found among ``enumerate_bnc(chi)``
    by ``find_bnc``, so a bad one raises the partition check's
    ``ValueError``; a partition listed twice, or a value of another size than
    the first, is rejected too."""
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    chi = ChiWord(data["chi"])
    table = {}
    d = None  # every value must have the first value's size
    for entry in data["entries"]:
        p = find_bnc(entry["partition"], chi)
        if p in table:
            raise ValueError(f"partition {list(map(list, p.blocks))} is listed twice")
        v = table[p] = as_belement(belement_from_json(entry["value"]), d)
        d = v.shape[0]
    return chi, table


def _table_report(chi: ChiWord, table: dict) -> dict:
    return {
        "chi": str(chi),
        "entries": [
            {
                "chi": str(chi),
                "partition": [list(b) for b in p.blocks],
                "value": belement_to_json(v),
            }
            for p, v in sorted(table.items(), key=lambda kv: kv[0].blocks)
        ],
    }


# --- subcommand handlers -----------------------------------------------------

def _cmd_bnc_enum(args) -> int:
    chi = ChiWord(args.chi)
    parts = enumerate_bnc(chi)
    rows = [(p.n, str(chi), json.dumps([list(b) for b in p.blocks])) for p in parts]
    _emit(
        {"chi": str(chi), "count": len(parts), "partitions": [p.to_json() for p in parts]},
        args,
        csv_rows=rows,
        csv_header=("n", "chi", "blocks"),
    )
    return 0


def _cmd_bnc_mobius(args) -> int:
    chi = ChiWord(args.chi)
    sigma = BncPartition(json.loads(args.sigma), chi)
    pi = BncPartition(json.loads(args.pi), chi)
    _emit({"chi": str(chi), "value": mobius_bnc(sigma, pi)}, args)
    return 0


def _cmd_mc(args, direction: str) -> int:
    chi, table = _read_table(args.table)
    out = {}
    for p in enumerate_bnc(chi):
        if direction == "to-cumulants":
            out[p] = cumulants_from_moments(table, p)
        else:
            out[p] = moments_from_cumulants(table, p)
    _emit(_table_report(chi, out), args)
    return 0


def _cmd_bifree_test(args) -> int:
    model = _load_model(args)
    rep = bifree_test(
        model.functional, model.symbols, max_order=args.max_order, tol=args.tolerance
    )
    _emit(rep, args)
    return 0 if rep["pass"] else 1


def _cmd_fock_moment(args) -> int:
    model = _load_model(args)
    word = Monomial([model.symbol(tok) for tok in args.word.split()])
    value = model.functional.expect(word)
    _emit(
        {
            "word": args.word,
            "value": belement_to_json(value),
            "trace": _jsonable(complex(np.trace(value)) / model.dim),
        },
        args,
    )
    return 0


def _cmd_conj_check(args) -> int:
    one = CPMap.identity(1)
    (cand,), (ctx,) = scaled_semicircular(args.lam)
    resid = conj_residual(cand, one, ctx, args.max_n)
    phi = fisher_info([cand])
    tau_sq = cand.functional.tau(Monomial([cand.target] * 2)).real
    rep = {
        "target": f"{args.lam:g}*semicircular",
        "max_residual": resid,
        "fisher": phi,
        "cramer_rao_product": phi * tau_sq,
        "pass": bool(resid <= args.tolerance),
    }
    if args.solve:
        solved, solved_resid = solve_conjugate(
            cand.model, cand.target, one, ctx, max_n=min(args.max_n, 4)
        )
        rep["solver_residual"] = solved_resid
        rep["solver_fisher"] = fisher_info([solved])
    _emit(rep, args)
    return 0 if rep["pass"] else 1


def _cmd_fisher_run(args) -> int:
    rep = fisher_minimization_experiment()
    _emit(rep, args)
    return 0 if rep["pass"] else 1


def _cmd_entropy_run(args) -> int:
    if args.experiment == "semicircular-max":
        rep = semicircular_entropy_experiment()
    else:
        rep = circular_entropy_experiment()
    rep = {k: v for k, v in rep.items() if k not in ("pair_report", "lift_report")}
    _emit(rep, args)
    return 0 if rep["pass"] else 1


def _cmd_verify_all(args) -> int:
    # Progress lines (with timings) go to stderr; stdout carries only the
    # byte-stable summary.
    results, ok = acceptance.run_all(
        seed=args.seed, emit=lambda line: print(line, file=sys.stderr)
    )
    summary = {
        "pass": ok,
        "seed": args.seed,
        "criteria": [
            {"id": r.cid, "name": r.name, "pass": r.passed, "detail": r.detail}
            for r in results
        ],
    }
    rows = [(r.cid, r.name, r.passed, r.detail) for r in results]
    _emit(summary, args, csv_rows=rows, csv_header=("id", "name", "pass", "detail"))
    return 0 if ok else 1


def _add_config_options(p: argparse.ArgumentParser, default: bool = False) -> None:
    # On leaf subcommands the defaults are suppressed so that values given at
    # the top level are not overwritten.
    d = (lambda v: v) if default else (lambda v: argparse.SUPPRESS)
    p.add_argument("--output-format", choices=("json", "csv"), default=d("json"))
    p.add_argument("--tolerance", type=_positive_finite, default=d(1e-9))
    p.add_argument("--seed", type=int, default=d(0))
    p.add_argument("--d", type=_dimension, default=d(1), help="coefficient dimension, 1..8")
    p.add_argument("--max-order", type=_max_order, default=d(4), help="2..8")
    p.add_argument(
        "--truncation", type=_depth, default=d(None),
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

    p_bnc = sub.add_parser("bnc", help="bi-non-crossing lattice").add_subparsers(
        dest="cmd", required=True
    )
    p = p_bnc.add_parser("enum", help="enumerate BNC(chi)")
    p.add_argument("--chi", required=True)
    _add_config_options(p)
    p.set_defaults(func=_cmd_bnc_enum)
    p = p_bnc.add_parser("mobius", help="Moebius function value")
    p.add_argument("--chi", required=True)
    p.add_argument("--sigma", required=True, help="JSON block list")
    p.add_argument("--pi", required=True, help="JSON block list")
    _add_config_options(p)
    p.set_defaults(func=_cmd_bnc_mobius)

    p_mc = sub.add_parser("mc", help="moment/cumulant tables").add_subparsers(
        dest="cmd", required=True
    )
    p = p_mc.add_parser("to-cumulants", help="convolve a moment table")
    p.add_argument("--table", required=True, help="JSON file or - for stdin")
    _add_config_options(p)
    p.set_defaults(func=lambda a: _cmd_mc(a, "to-cumulants"))
    p = p_mc.add_parser("to-moments", help="sum a cumulant table")
    p.add_argument("--table", required=True, help="JSON file or - for stdin")
    _add_config_options(p)
    p.set_defaults(func=lambda a: _cmd_mc(a, "to-moments"))

    p_bf = sub.add_parser("bifree", help="bi-freeness checks").add_subparsers(
        dest="cmd", required=True
    )
    p = p_bf.add_parser("test", help="scan mixed cumulants")
    p.add_argument("--model", default=None, help="model spec JSON file")
    _add_config_options(p)
    p.set_defaults(func=_cmd_bifree_test)

    p_fock = sub.add_parser("fock", help="Fock-space models").add_subparsers(
        dest="cmd", required=True
    )
    p = p_fock.add_parser("moment", help="expectation of an operator word")
    p.add_argument("--word", required=True, help='e.g. "S1 S1 D1 D1"')
    p.add_argument("--model", default=None, help="model spec JSON file")
    _add_config_options(p)
    p.set_defaults(func=_cmd_fock_moment)

    p_conj = sub.add_parser("conj", help="conjugate variables").add_subparsers(
        dest="cmd", required=True
    )
    p = p_conj.add_parser("check", help="verify the semicircular conjugate variable")
    p.add_argument("--lam", type=_finite_nonzero, default=1.0, help="scale of the target")
    p.add_argument("--max-n", type=int, choices=range(9), default=6, help="longest test word")
    p.add_argument("--solve", action="store_true", help="also run the least-squares solver")
    _add_config_options(p)
    p.set_defaults(func=_cmd_conj_check)

    p_fisher = sub.add_parser("fisher", help="Fisher information").add_subparsers(
        dest="cmd", required=True
    )
    p = p_fisher.add_parser("run", help="run a Fisher experiment")
    p.add_argument("--experiment", required=True, choices=("circular-min",))
    _add_config_options(p)
    p.set_defaults(func=_cmd_fisher_run)

    p_ent = sub.add_parser("entropy", help="entropy").add_subparsers(
        dest="cmd", required=True
    )
    p = p_ent.add_parser("run", help="run an entropy experiment")
    p.add_argument(
        "--experiment", required=True, choices=("semicircular-max", "circular-pair")
    )
    _add_config_options(p)
    p.set_defaults(func=_cmd_entropy_run)

    p_ver = sub.add_parser("verify", help="acceptance suite").add_subparsers(
        dest="cmd", required=True
    )
    p = p_ver.add_parser("all", help="run every acceptance criterion")
    _add_config_options(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # Parsing keeps no state in the parser, so one tree serves every call in
    # a process; building it costs milliseconds of argparse set-up.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return 1
    except Exception as exc:  # computation failure -> exit 1 with JSON error
        json.dump(
            {"schema": SCHEMA, "error": f"{type(exc).__name__}: {exc}"}, sys.stdout
        )
        sys.stdout.write("\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
