"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import bifree.cli
from bifree.balgebra import belement_from_json, belement_to_json
from bifree.bnc import BncPartition, ChiWord, enumerate_bnc
from bifree.acceptance import CriterionResult
from bifree.cli import main
from bifree.fock import FockModel, make_standard_semicircular
from bifree.moments import cumulants_from_moments, eval_moment_pi
from bifree.words import Monomial

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bnc_enum(capsys):
    code, out = run_cli(capsys, "bnc", "enum", "--chi", "llr")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["count"] == 5
    assert len(rep["partitions"]) == 5


def test_bnc_enum_csv(capsys):
    code, out = run_cli(capsys, "--output-format", "csv", "bnc", "enum", "--chi", "lr")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,chi,blocks"
    assert len(lines) == 3


def test_bnc_mobius(capsys):
    code, out = run_cli(
        capsys, "bnc", "mobius", "--chi", "ll", "--sigma", "[[1],[2]]", "--pi", "[[1,2]]"
    )
    assert code == 0
    assert json.loads(out)["value"] == -1


def test_bnc_mobius_at_enumeration_bound(capsys):
    n = 12
    code, out = run_cli(
        capsys, "bnc", "mobius", "--chi", "lr" * (n // 2),
        "--sigma", json.dumps([[k] for k in range(1, n + 1)]),
        "--pi", json.dumps([list(range(1, n + 1))]),
    )
    assert code == 0
    assert '"value": -58786' in out


def test_mc_round_trip(tmp_path, capsys):
    m = make_standard_semicircular()
    s = m.symbol("S1")
    chi = ChiWord("lll")
    table = {"schema": 1, "chi": "lll", "entries": []}
    for p in enumerate_bnc(chi):
        v = eval_moment_pi(m.functional, p, [Monomial([s])] * 3)
        table["entries"].append(
            {"partition": [list(b) for b in p.blocks], "value": belement_to_json(v)}
        )
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(table))
    code, out = run_cli(capsys, "mc", "to-cumulants", "--table", str(path))
    assert code == 0
    cum = json.loads(out)
    path2 = tmp_path / "cumulants.json"
    path2.write_text(json.dumps(cum))
    code, out = run_cli(capsys, "mc", "to-moments", "--table", str(path2))
    assert code == 0
    back = json.loads(out)
    orig = {json.dumps(e["partition"]): e["value"]["re"] for e in table["entries"]}
    rt = {json.dumps(e["partition"]): e["value"]["re"] for e in back["entries"]}
    for k in orig:
        assert np.allclose(orig[k], rt[k])


def test_mc_round_trip_n8(tmp_path, capsys):
    rng = np.random.default_rng(8)
    chi = ChiWord("lrrlrllr")
    entries = [
        {"partition": [list(b) for b in p.blocks],
         "value": belement_to_json([[complex(*rng.standard_normal(2))]])}
        for p in enumerate_bnc(chi)
    ]
    assert len(entries) == 1430
    path = tmp_path / "moments.json"
    path.write_text(json.dumps({"chi": str(chi), "entries": entries}))
    code, out = run_cli(capsys, "mc", "to-cumulants", "--table", str(path))
    assert code == 0
    path2 = tmp_path / "cumulants.json"
    path2.write_text(out)
    code, out = run_cli(capsys, "mc", "to-moments", "--table", str(path2))
    assert code == 0
    back = {json.dumps(e["partition"]): e["value"] for e in json.loads(out)["entries"]}
    assert len(back) == len(entries)
    for e in entries:
        got = belement_from_json(back[json.dumps(e["partition"])])
        assert np.max(np.abs(got - belement_from_json(e["value"]))) < 1e-10


def _seeded_table(n, seed):
    rng = np.random.default_rng(seed)
    chi = ChiWord(rng.choice(["l", "r"], size=n))
    entries = [
        {"partition": [list(b) for b in p.blocks],
         "value": belement_to_json([[complex(*rng.standard_normal(2))]])}
        for p in enumerate_bnc(chi)
    ]
    return {"chi": str(chi), "entries": entries}


@pytest.mark.parametrize("direction", ["to-cumulants", "to-moments"])
def test_mc_rejects_repeated_partition(tmp_path, capsys, direction):
    # The last value of a repeated partition used to win silently.
    table = _seeded_table(7, 14)
    repeat = {"partition": table["entries"][0]["partition"],
              "value": {"re": [[99.0]], "im": [[0.0]]}}
    table["entries"].append(repeat)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out = run_cli(capsys, "mc", direction, "--table", str(path))
    assert code == 1
    assert "listed twice" in json.loads(out)["error"]


@pytest.mark.parametrize("direction", ["to-cumulants", "to-moments"])
def test_mc_rejects_values_of_different_sizes(tmp_path, capsys, direction):
    # A 2x2 value among 1x1 ones used to broadcast into a mixed-size report.
    table = _seeded_table(7, 15)
    table["entries"][3]["value"] = belement_to_json(np.eye(2))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out = run_cli(capsys, "mc", direction, "--table", str(path))
    assert code == 1
    assert "dimension mismatch" in json.loads(out)["error"]


# Bad table partitions for chi = llll; the element-type cases used to be read
# as 1 (true) or fail with a TypeError.
BAD_PARTITIONS = {
    "not-bnc": [[1, 3], [2, 4]],
    "element-repeated": [[1, 1], [2, 3, 4]],
    "empty-block": [[1, 2, 3, 4], []],
    "out-of-range": [[1, 2, 3], [5]],
    "zero": [[0], [1, 2, 3]],
    "incomplete-cover": [[1, 2], [3]],
    "listed-twice": [[1, 2], [2, 3, 4]],
    "true": [[True], [2, 3, 4]],
    "float": [[1.0], [2, 3, 4]],
    "string": [["1"], [2, 3, 4]],
}


@pytest.mark.parametrize("raw", BAD_PARTITIONS.values(), ids=BAD_PARTITIONS)
def test_mc_rejects_bad_partition_like_the_constructor(raw, tmp_path, capsys):
    chi = ChiWord("llll")
    with pytest.raises(ValueError) as want:
        BncPartition(raw, chi)
    entries = [
        {"partition": [list(b) for b in p.blocks], "value": belement_to_json(np.eye(1))}
        for p in enumerate_bnc(chi)
    ]
    entries[5]["partition"] = raw
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"chi": str(chi), "entries": entries}))
    with pytest.raises(ValueError) as got:
        bifree.cli._read_table(str(path))
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    code, out = run_cli(capsys, "mc", "to-cumulants", "--table", str(path))
    assert code == 1
    assert json.loads(out)["error"] == f"ValueError: {want.value}"


@pytest.mark.parametrize("sigma", ["[[true],[2]]", "[[1.0],[2]]"])
def test_bnc_mobius_rejects_non_int_elements(sigma, capsys):
    code, out = run_cli(
        capsys, "bnc", "mobius", "--chi", "ll", "--sigma", sigma, "--pi", "[[1,2]]"
    )
    assert code == 1
    assert json.loads(out)["error"].startswith("ValueError: element ")


def test_bifree_test_subcommand(capsys):
    code, out = run_cli(capsys, "bifree", "test", "--max-order", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["schema"] == 1


def test_bifree_test_fails_on_nan_model(tmp_path, capsys):
    # A NaN in a Kraus operator makes cumulants NaN: the scan fails, exit 1.
    from bifree.balgebra import random_cpmap
    from bifree.fock import make_bisemicircular

    rng = np.random.default_rng(4)
    spec = make_bisemicircular([random_cpmap(2, rng)], [random_cpmap(2, rng)]).to_json()
    spec["left"][0]["kraus"][0]["re"][0][0] = math.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))
    code, out = run_cli(capsys, "--max-order", "4", "bifree", "test", "--model", str(path))
    assert code == 1
    rep = json.loads(out)
    assert not rep["pass"] and rep["max_residual"] is None and rep["violation_count"] > 0


def test_fock_moment(capsys):
    code, out = run_cli(capsys, "fock", "moment", "--word", "S1 S1 D1 D1")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["trace"] - 1.0) < 1e-12


def test_fock_moment_with_model_file(tmp_path, capsys):
    from bifree.fock import make_bisemicircular
    from bifree.conjvar import eta_flip

    model = make_bisemicircular([eta_flip()], [eta_flip()])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model.to_json()))
    code, out = run_cli(
        capsys, "fock", "moment", "--word", "S1 S1", "--model", str(path)
    )
    assert code == 0
    rep = json.loads(out)
    assert np.allclose(rep["value"]["re"], np.eye(2))


@pytest.mark.parametrize("from_file", [False, True])
def test_truncation_applies_to_every_model(from_file, tmp_path, capsys):
    # The identity model is built from --d or read with --model; the depth
    # cap holds for both.
    model = []
    if from_file:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(make_standard_semicircular(1, 1).to_json()))
        model = ["--model", str(path)]
    word = ["fock", "moment", "--word", "S1 S1 S1 S1 S1 S1", *model]
    code, out = run_cli(capsys, "--truncation", "2", *word)
    assert code == 1
    assert json.loads(out)["error"].startswith("TruncationError")
    code, out = run_cli(capsys, "--truncation", "3", *word)
    assert code == 0
    assert json.loads(out)["trace"] == 5.0


def test_conj_check(capsys):
    code, out = run_cli(capsys, "conj", "check", "--lam", "2.0", "--max-n", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    assert abs(rep["fisher"] - 0.25) < 1e-9
    assert abs(rep["cramer_rao_product"] - 1.0) < 1e-9


def test_conj_check_solver(capsys):
    code, out = run_cli(capsys, "conj", "check", "--solve", "--max-n", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["solver_residual"] <= 1e-8


def test_conj_check_evaluates_each_moment_once(capsys, monkeypatch):
    # The residual check and the solver read one moment cache: no word
    # reaches the Fock model twice.
    seen = []
    expectation = FockModel.expectation

    def counted(self, word):
        seen.append(word)
        return expectation(self, word)

    monkeypatch.setattr(FockModel, "expectation", counted)
    code, _ = run_cli(capsys, "conj", "check", "--max-n", "6", "--solve")
    assert code == 0
    assert seen and len(seen) == len(set(seen))


def _strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# The fisher and entropy tests below also apply the output checks of the
# benchmark's conj-laws workload, so a renamed or non-finite field fails here.

def test_fisher_run(capsys):
    code, out = run_cli(capsys, "fisher", "run", "--experiment", "circular-min")
    assert code == 0
    rep = _strict_json(out)
    assert rep["pass"] is True
    for key, want in (("lhs", 4.0), ("rhs", 2.0), ("ratio", 2.0)):
        assert abs(rep[key] - want) <= 1e-6, key
    assert rep["max_residual"] <= 1e-9


def test_entropy_run(capsys):
    # max_residual comes from the residual walks at fixed times, with d=1
    # Python complex arithmetic only, so it is pinned exactly; the other
    # fields read quadrature nodes built by LAPACK.
    log_2pi_e = math.log(2.0 * math.pi * math.e)
    for experiment, expected, residual in (
        ("semicircular-max", 0.5 * log_2pi_e, 1.1368683772161603e-13),
        ("circular-pair", 2.0 * log_2pi_e, 8.881784197001252e-16),
    ):
        code, out = run_cli(capsys, "entropy", "run", "--experiment", experiment)
        assert code == 0
        rep = _strict_json(out)
        assert rep["pass"] is True
        assert abs(rep["lhs"] - expected) <= rep["bracket_width"] + 1e-12
        assert abs(rep["lhs"] - expected) <= 1e-12
        assert rep["max_residual"] == residual


def test_invalid_chi_is_computation_error(capsys):
    # an invalid chi word is a computation failure: exit 1 with a JSON error
    code, out = run_cli(capsys, "bnc", "enum", "--chi", "xyz")
    assert code == 1
    assert "error" in json.loads(out)


def test_usage_error_exit_2(capsys):
    for argv in (
        ["nonsense"],
        ["fisher", "run", "--experiment", "nope"],
        ["entropy", "run", "--experiment", "nope"],
        ["conj", "check", "--max-n", "-1"],
        ["conj", "check", "--max-n", "9"],
        ["conj", "check", "--max-n", "-1", "--solve"],
        ["conj", "check", "--lam", "0"],
        ["--truncation", "-1", "fock", "moment", "--word", "S1"],
        ["fock", "moment", "--word", "S1", "--truncation", "-1"],
        ["--tolerance", "nan", "conj", "check", "--max-n", "2"],
        ["--tolerance", "inf", "conj", "check", "--max-n", "2"],
        ["--max-order", "-1", "bifree", "test"],
        ["bifree", "test", "--max-order", "1"],
        ["conj", "check", "--lam", "nan"],
        ["conj", "check", "--lam", "inf"],
        ["conj", "check", "--lam=-inf"],  # "--lam -inf" would read -inf as an option
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# Every value out of range is a usage error wherever it is given, even when
# a valid value later on the command line would override it.  Values are
# attached with "=", since argparse reads a separate "-inf" as an option.
REJECTED_CONFIG = [
    ("--d", "0"), ("--d", "-1"), ("--d", "9"),
    ("--max-order", "-1"), ("--max-order", "0"), ("--max-order", "1"), ("--max-order", "9"),
    ("--tolerance", "0"), ("--tolerance", "-1"), ("--tolerance", "nan"),
    ("--tolerance", "inf"), ("--tolerance", "-inf"),
    ("--truncation", "-1"),
]
VALID_CONFIG = {"--d": "1", "--max-order": "4", "--tolerance": "1e-9", "--truncation": "3"}


@pytest.mark.parametrize("flag, value", REJECTED_CONFIG)
def test_invalid_config_is_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([f"{flag}={value}", "bnc", "enum", "--chi", "lr"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("where", ["leaf", "top-overridden"])
@pytest.mark.parametrize("flag, value", REJECTED_CONFIG)
def test_invalid_config_after_subcommand_is_usage_error(flag, value, where, capsys):
    leaf = ["fock", "moment", "--word", "S1"]
    if where == "leaf":
        argv = [*leaf, f"{flag}={value}"]
    else:
        argv = [f"{flag}={value}", *leaf, flag, VALID_CONFIG[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# Exact stdout of three d=1 commands, which use only Python complex arithmetic
# and elementwise numpy (no LAPACK, no vectorized libm).  A change that moves a
# noise digit must update these strings and name every changed field.
PINNED_STDOUT = {
    ("fisher", "run", "--experiment", "circular-min"):
        '{"cramer_rao_expected": 4.0, "cramer_rao_product": 3.9999999999999982, '
        '"lhs": 3.999999999999999, "max_residual": 4.440892098500626e-16, '
        '"pass": true, "ratio": 2.0, "rhs": 1.9999999999999996, "schema": 1}\n',
    ("conj", "check", "--lam", "2.0", "--max-n", "6"):
        '{"cramer_rao_product": 1.0, "fisher": 0.25, "max_residual": 0.0, '
        '"pass": true, "schema": 1, "target": "2*semicircular"}\n',
    ("--max-order", "6", "bifree", "test"):
        '{"max_order": 6, "max_residual": 0.0, "pass": true, "schema": 1, '
        '"tested": 114, "tolerance": 1e-09, "vacuous": false, "violation_count": 0, '
        '"violations": [], "worst_word": null}\n',
}


@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=" ".join)
def test_pinned_stdout_bytes(argv, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == PINNED_STDOUT[argv]


# sha256 of the exact mc stdout on a seeded n=6 table, recorded before the
# transforms summed the cached intervals as arrays.
PINNED_MC_SHA256 = {
    ("to-cumulants", 1): "78ce1e848b3df65c1bdd46425218840105b66e8fa8d22b500d86954486059c4c",
    ("to-moments", 1): "29c0bc0874e15995136e6f863730ef7f11a3e6515795be7fea2d6b970c8e3b3c",
    ("to-cumulants", 2): "a92ee34eae528aea42d345c4e17fa61f6aa3e81181266e4793831783d8ed0fd1",
    ("to-moments", 2): "2b6ce33096ce64d8e630ec4672b33eaa18325ead61b3c049026c855c65916c54",
}


@pytest.mark.parametrize("direction, d", PINNED_MC_SHA256, ids=lambda x: str(x))
def test_pinned_mc_stdout_sha256(direction, d, tmp_path, capsys):
    rng = np.random.default_rng(606)
    chi = ChiWord(rng.choice(["l", "r"], size=6))
    entries = [
        {"partition": [list(b) for b in p.blocks],
         "value": belement_to_json(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))}
        for p in enumerate_bnc(chi)
    ]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"chi": str(chi), "entries": entries}))
    code, out = run_cli(capsys, "mc", direction, "--table", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_MC_SHA256[direction, d]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"bare {token} in JSON output")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("d", [1, 2])
def test_mc_prints_nan_as_null(d, tmp_path, capsys):
    rng = np.random.default_rng(55)
    chi = ChiWord("lrrlr")
    table = {p: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
             for p in enumerate_bnc(chi)}
    planted = enumerate_bnc(chi)[7]
    table[planted][0, d - 1] = complex(math.nan, 0.5)
    entries = [{"partition": [list(b) for b in p.blocks], "value": belement_to_json(v)}
               for p, v in table.items()]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"chi": str(chi), "entries": entries}))
    code, out = run_cli(capsys, "mc", "to-cumulants", "--table", str(path))
    assert code == 0
    rep = _strict_json(out)
    nulls = 0
    for e in rep["entries"]:
        want = cumulants_from_moments(table, BncPartition(e["partition"], chi))
        for part, got in (("re", want.real), ("im", want.imag)):
            for row_out, row in zip(e["value"][part], got.tolist()):
                for x, w in zip(row_out, row):
                    assert x is None if math.isnan(w) else x == w
                    nulls += x is None
    assert nulls > 0


# sha256 of the exact stdout of two d=2 scans, recorded before the scan left
# out the partitions with a zero chi-interval block.  "M" is pool model 3 of
# bench/fock_reference.json, written to a file for --model.
PINNED_SCAN_SHA256 = {
    ("bifree", "test", "--max-order", "7", "--model", "M"):
        "a45411219fbcd63bb719cdf1e1d9b30a6b556cc367a226d014744a1192546b56",
    ("--d", "2", "--max-order", "6", "bifree", "test"):
        "c7e80af6cf293e78328d52f10e2c697ac6eeee76373d2560bbde7d8604432880",
}


@pytest.mark.parametrize("argv", PINNED_SCAN_SHA256, ids=" ".join)
def test_pinned_d2_scan_stdout_sha256(argv, tmp_path, capsys):
    pool = json.loads((ROOT / "bench" / "fock_reference.json").read_text())["pool"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(pool[3]["model"]))
    code, out = run_cli(capsys, *(str(model) if a == "M" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SCAN_SHA256[argv]


# sha256 of the exact stdout of two d=1 scans, recorded before the d=1 scan
# indexed the Moebius table by block.  "M" is a model with scalar maps of
# Kraus operators 0.7 (left) and 1.3 (right), written to a file for --model.
PINNED_D1_SCAN_SHA256 = {
    ("--max-order", "8", "bifree", "test"):
        "86c518da16310751065dc2e08e2f7d0f3712c1e2bdefd57d1c7109d25da7131c",
    ("--max-order", "7", "bifree", "test", "--model", "M"):
        "082ee9a61fb04481bb34839e4c21cd4d2ee3ce58a3bcb7a220086626dfa10804",
}


@pytest.mark.parametrize("argv", PINNED_D1_SCAN_SHA256, ids=" ".join)
def test_pinned_d1_scan_stdout_sha256(argv, tmp_path, capsys):
    from bifree.balgebra import CPMap
    from bifree.fock import make_bisemicircular

    model = tmp_path / "model.json"
    spec = make_bisemicircular([CPMap([[[0.7]]])], [CPMap([[[1.3]]])]).to_json()
    model.write_text(json.dumps(spec))
    code, out = run_cli(capsys, *(str(model) if a == "M" else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_D1_SCAN_SHA256[argv]


def test_mc_reads_table_from_stdin(capsys, monkeypatch):
    code, out = run_cli(capsys, "bnc", "enum", "--chi", "lr")
    table = {
        "chi": "lr",
        "entries": [
            {"partition": p["blocks"], "value": belement_to_json(np.eye(1))}
            for p in json.loads(out)["partitions"]
        ],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(table)))
    code, out = run_cli(capsys, "mc", "to-cumulants", "--table", "-")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 2


def test_byte_stable_output(capsys):
    _, a = run_cli(capsys, "bnc", "enum", "--chi", "lrlr")
    _, b = run_cli(capsys, "bnc", "enum", "--chi", "lrlr")
    assert a == b
    _, a = run_cli(capsys, "bifree", "test", "--max-order", "3")
    _, b = run_cli(capsys, "bifree", "test", "--max-order", "3")
    assert a == b


def test_parser_built_once_per_process(capsys, monkeypatch):
    # Calls in one process share one parser; top-level options of one call
    # must not leak into the next, so each prints what a fresh call prints.
    argvs = [
        ("--max-order", "3", "bifree", "test"),
        ("bifree", "test"),
        ("--output-format", "csv", "bnc", "enum", "--chi", "lr"),
        ("bnc", "enum", "--chi", "lr"),
        ("--max-order", "2", "--output-format", "csv", "bnc", "enum", "--chi", "rl"),
    ]
    fresh = []
    for argv in argvs:
        bifree.cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    builds = []
    build = bifree.cli.build_parser
    monkeypatch.setattr(bifree.cli, "build_parser", lambda: builds.append(1) or build())
    bifree.cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in argvs] == fresh
    assert len(builds) == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_all_output_formats(fmt, capsys, monkeypatch):
    results = [CriterionResult(1, "lattice counts", True, "exact, 2 words", 0.5),
               CriterionResult(12, "total runtime", False, "over budget", 301.0)]
    monkeypatch.setattr(bifree.cli.acceptance, "run_all", lambda seed, emit: (results, False))
    code, out = run_cli(capsys, "--output-format", fmt, "verify", "all")
    assert code == 1
    if fmt == "csv":
        assert out.splitlines() == [
            "id,name,pass,detail", '1,lattice counts,True,"exact, 2 words"',
            "12,total runtime,False,over budget",
        ]
    else:
        rep = json.loads(out)
        assert (rep["pass"], rep["seed"]) == (False, 0)
        assert rep["criteria"][0] == {
            "id": 1, "name": "lattice counts", "pass": True, "detail": "exact, 2 words"
        }


def test_help_available_on_subcommands(capsys):
    for argv in (["--help"], ["bnc", "--help"], ["bnc", "enum", "--help"],
                 ["verify", "all", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()
