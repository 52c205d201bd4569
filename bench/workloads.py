"""The benchmark's workloads: seeded inputs, command sequences and output checks.

Each workload is a list of ``bifree`` CLI commands run in order.  Inputs are
generated here, in the ``run.py`` process, so that the run process starts with
cold lattice and moment caches.  Every command carries a check that returns
``None`` when its output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

FOCK_REFERENCE = Path(__file__).with_name("fock_reference.json")
TABLE_N = 7
N_WORDS = 64
WORD_LEN = 8


@dataclass
class Command:
    argv: list[str]
    check: Callable[[int, str], str | None]
    stdout_to: str | None = None  # file the run process writes stdout to

    def job(self) -> dict:
        return {"argv": self.argv, "stdout_to": self.stdout_to}


def _close(got, want, tol) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def _report(rc: int, out: str) -> dict:
    if rc != 0:
        raise ValueError(f"exit code {rc}: {out.strip()[:200]}")
    return json.loads(out)


def _checked(fn):
    """Turn a check on the parsed report into a check on (exit code, stdout)."""

    def check(rc: int, out: str) -> str | None:
        try:
            return fn(_report(rc, out))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"

    return check


@_checked
def _check_fisher(rep: dict) -> str | None:
    for key, want in (("lhs", 4.0), ("rhs", 2.0), ("ratio", 2.0)):
        if not _close(rep[key], want, 1e-6):
            return f"{key}={rep[key]!r}, expected {want}"
    if not rep["max_residual"] <= 1e-9:
        return f"max_residual={rep['max_residual']!r}"
    return None


def _check_entropy(expected: float):
    @_checked
    def check(rep: dict) -> str | None:
        if rep["pass"] is not True:
            return "pass is not true"
        if not abs(rep["lhs"] - expected) <= rep["bracket_width"] + 1e-12:
            return f"lhs={rep['lhs']!r} not within {rep['bracket_width']!r} of {expected!r}"
        return None

    return check


def _check_scan(tested: int):
    @_checked
    def check(rep: dict) -> str | None:
        if rep["pass"] is not True:
            return "pass is not true"
        if not rep["max_residual"] <= 1e-9:
            return f"max_residual={rep['max_residual']!r}"
        if rep["tested"] != tested:
            return f"tested={rep['tested']!r}, expected {tested}"
        return None

    return check


def _table_values(doc: dict) -> dict:
    return {
        json.dumps(e["partition"]): np.asarray(e["value"]["re"]) + 1j * np.asarray(e["value"]["im"])
        for e in doc["entries"]
    }


def _check_table_size(entries: int):
    @_checked
    def check(rep: dict) -> str | None:
        if len(rep["entries"]) != entries:
            return f"{len(rep['entries'])} entries, expected {entries}"
        return None

    return check


def _check_round_trip(table: dict):
    want = _table_values(table)

    @_checked
    def check(rep: dict) -> str | None:
        got = _table_values(rep)
        if got.keys() != want.keys():
            return "partitions differ from the input table"
        err = max(float(np.max(np.abs(got[k] - want[k]))) for k in want)
        return None if err <= 1e-10 else f"round trip error {err:.3e}"

    return check


def _check_fock(reference: np.ndarray):
    tol = 1e-9 * max(1.0, float(np.max(np.abs(reference))))

    @_checked
    def check(rep: dict) -> str | None:
        got = np.asarray(rep["value"]["re"]) + 1j * np.asarray(rep["value"]["im"])
        err = float(np.max(np.abs(got - reference)))
        return None if err <= tol else f"moment error {err:.3e} > {tol:.3e}"

    return check


def _conj_laws(seed: int, workdir: Path) -> list[Command]:
    # The paper's experiments take no input, so the seed changes nothing here.
    log_2pi_e = math.log(2.0 * math.pi * math.e)
    return [
        Command(["fisher", "run", "--experiment", "circular-min"], _check_fisher),
        Command(
            ["entropy", "run", "--experiment", "semicircular-max"],
            _check_entropy(0.5 * log_2pi_e),
        ),
        Command(
            ["entropy", "run", "--experiment", "circular-pair"],
            _check_entropy(2.0 * log_2pi_e),
        ),
    ]


def _lattice_scan(seed: int, workdir: Path) -> list[Command]:
    from bifree.balgebra import belement_to_json
    from bifree.bnc import ChiWord, catalan, enumerate_bnc

    rng = np.random.default_rng(seed)
    chi = ChiWord(rng.choice(["l", "r"], size=TABLE_N))
    parts = enumerate_bnc(chi)
    if len(parts) != catalan(TABLE_N):
        raise RuntimeError(f"enumerate_bnc gave {len(parts)} partitions for {chi}")
    values = rng.standard_normal(len(parts)) + 1j * rng.standard_normal(len(parts))
    table = {
        "chi": str(chi),
        "entries": [
            {"partition": [list(b) for b in p.blocks], "value": belement_to_json([[v]])}
            for p, v in zip(parts, values)
        ],
    }
    moments = workdir / "moments.json"
    cumulants = workdir / "cumulants.json"
    moments.write_text(json.dumps(table))
    return [
        Command(["bifree", "test", "--max-order", "7"], _check_scan(240)),
        Command(
            ["mc", "to-cumulants", "--table", str(moments)],
            _check_table_size(len(parts)),
            stdout_to=str(cumulants),
        ),
        Command(["mc", "to-moments", "--table", str(cumulants)], _check_round_trip(table)),
    ]


def _matrix_path(seed: int, workdir: Path) -> list[Command]:
    # The model comes from a recorded pool so that every moment has a
    # reference value from an earlier commit.
    pool = json.loads(FOCK_REFERENCE.read_text())["pool"]
    entry = pool[seed % len(pool)]
    model = workdir / "model.json"
    model.write_text(json.dumps(entry["model"]))
    rng = np.random.default_rng(seed)
    commands = [
        Command(["bifree", "test", "--max-order", "6", "--model", str(model)], _check_scan(114))
    ]
    for letters in rng.choice(["S1", "D1"], size=(N_WORDS, WORD_LEN)):
        ref = entry["moments_by_s_count"][str(int(np.sum(letters == "S1")))]
        commands.append(
            Command(
                ["fock", "moment", "--model", str(model), "--word", " ".join(letters)],
                _check_fock(np.asarray(ref["re"]) + 1j * np.asarray(ref["im"])),
            )
        )
    return commands


_BUILDERS = {
    "conj-laws": _conj_laws,
    "lattice-scan": _lattice_scan,
    "matrix-path": _matrix_path,
}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the workload's input files under ``workdir`` and return its commands."""
    return _BUILDERS[workload](seed, workdir)
