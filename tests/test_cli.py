"""Command-line behaviour: output shapes, exit codes, stdin, formats."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffrep.algebra import Multivector, Signature
from cliffrep.catalog import catalog_signatures
from cliffrep.cli import main
from cliffrep.text import format_multivector, parse_multivector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rep_examples(capsys):
    code, out, _ = run_cli(capsys, "rep", "--sig", "0,1", "1+2*eps1")
    assert code == 0
    assert out == "R(2)\n[ 1  -2 ]\n[ 2   1 ]\n"

    code, out, _ = run_cli(capsys, "rep", "--sig", "2,0", "e1")
    assert code == 0
    assert out.splitlines()[1:] == ["[ 1   0 ]", "[ 0  -1 ]"]

    code, out, _ = run_cli(capsys, "rep", "--sig", "0,1", "0")
    assert code == 0
    assert out == "R(2)\n[ 0  0 ]\n[ 0  0 ]\n"


def test_rep_route_flag(capsys):
    code, out, _ = run_cli(capsys, "rep", "--sig", "0,2", "--route", "real4", "eps1")
    assert code == 0
    assert out.startswith("R(4)\n")
    code, out, _ = run_cli(capsys, "rep", "--sig", "0,2", "eps1")
    assert out.startswith("H(1)\n")


def test_rep_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "rep", "--sig", "0,1", "1 + + 2")
    assert code == 2
    assert "position" in err


def test_rep_oversized_number_exit_code(capsys):
    code, out, err = run_cli(capsys, "rep", "--sig", "2,0", "9" * 5000)
    assert code == 2 and out == ""
    assert "position 0" in err and "Traceback" not in err
    code, _, err = run_cli(capsys, "rep", "--sig", "2,0", "1 + e" + "1" * 5000)
    assert code == 2 and "position 4" in err


def test_oversized_result_exit_code(capsys):
    # each input number fits the interpreter's int-to-str limit; the sum does not
    nines = "9" * 4300
    code, out, err = run_cli(capsys, "rep", "--sig", "2,0", f"{nines} + {nines}")
    assert code == 2 and out == ""
    assert "4300-digit" in err and "Traceback" not in err and len(err.splitlines()) == 1
    code, out, err = run_cli(capsys, "inverse", "--sig", "2,0", f"{nines}*e1 + {nines}*e1")
    assert code == 2 and out == ""
    assert "4300-digit" in err and "Traceback" not in err and len(err.splitlines()) == 1


def test_rep_catalog_miss_exit_code(capsys):
    code, _, err = run_cli(capsys, "rep", "--sig", "3,4", "1")
    assert code == 3
    assert "catalog miss" in err
    # a named route past the 17-generator bound is a miss, not a build
    code, out, err = run_cli(capsys, "rep", "--sig", "18,0", "--route", "periodic", "e1")
    assert code == 3 and out == ""
    assert "at most 17 generators" in err


def test_rep_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1+2*eps1"))
    code, out, _ = run_cli(capsys, "rep", "--sig", "0,1", "-")
    assert code == 0 and out.startswith("R(2)")


def test_inverse_examples(capsys):
    code, out, _ = run_cli(capsys, "inverse", "--sig", "1,0", "1+e1")
    assert code == 0 and out == "non-invertible\n"
    code, out, _ = run_cli(capsys, "inverse", "--sig", "0,1", "eps1")
    assert code == 0 and out == "-1*eps1\n"
    code, out, _ = run_cli(capsys, "inverse", "--sig", "0,2", "1+eps1")
    assert code == 0 and out == "1/2 - 1/2*eps1\n"


def test_classify_command(capsys):
    code, out, _ = run_cli(capsys, "classify", "--sig", "3,1")
    assert code == 0 and out == "(3,1) -> R(4)\n"


def test_table_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "n=2: (2,0) R(2)*  (1,1) R(2)*  (0,2) H(1)*"
    assert lines[3] == "n=3: (3,0) C(2)*  (2,1) 2R(2)*  (1,2) C(2)*  (0,3) 2H(1)*"


def test_table_marks_constructed_only(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "17")
    rows = out.splitlines()
    assert "(7,0) C(8)*" in rows[7]
    assert "(3,4) C(8) " in rows[7]  # mirror family not constructed
    # signatures built only through the periodicity step are marked too
    assert "(8,1) C(16)*" in rows[9] and "(10,0) R(32)*" in rows[10]
    assert "(17,0) 2R(256)*" in rows[17]


def test_generator_bound_is_an_argument_error(capsys):
    for argv, message in (
        (("classify", "--sig", "40,0"), "exceeds the 32-generator bound"),
        (("rep", "--sig", "33,0", "1"), "exceeds the 32-generator bound"),
        (("verify", "--sig", "0,40"), "exceeds the 32-generator bound"),
        (("table", "--max-n", "40"), "invalid choice: 40"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert message in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "table", "--max-n", "32")
    assert code == 0 and out.splitlines()[32].startswith("n=32: (32,0) R(65536)")


def test_verify_single_signature(capsys):
    code, out, _ = run_cli(capsys, "verify", "--sig", "1,1", "--seed", "7", "--trials", "20")
    assert code == 0
    assert "similarity pass" in out and "transform pass" in out


def test_verify_records_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--sig", "0,3", "--seed", "7", "--trials", "10", "--format", "records"
    )
    assert code == 0
    for line in out.strip().splitlines():
        fields = line.split("\t")
        assert len(fields) == 5 and fields[0] == "0,3" and fields[3] == "pass"


def test_verify_unknown_signature(capsys):
    code, _, err = run_cli(capsys, "verify", "--sig", "3,4")
    assert code == 3 and "catalog miss" in err
    # the catalog's own miss message: the mirror hint, and the bound past it
    assert "its mirror (4,3)" in err
    code, _, err = run_cli(capsys, "verify", "--sig", "18,0")
    assert code == 3 and "17 generators" in err


def test_verify_needs_exactly_one_scope(capsys):
    for argv in (["verify"], ["verify", "--all", "--sig", "2,1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "--sig" in err and "--all" in err and "Traceback" not in err


def test_verify_trials_must_be_positive(capsys):
    for value in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--sig", "2,1", "--trials", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "at least 1" in err and "Traceback" not in err


def test_verify_unknown_route_names_the_routes(capsys):
    code, out, err = run_cli(capsys, "verify", "--sig", "2,1", "--route", "nosuch")
    assert code == 3 and out == ""
    assert "'nosuch'" in err and "routes are diagonal" in err and "is covered" not in err
    # the diagonal family is the one route of (2,1)
    code, out, err = run_cli(capsys, "verify", "--sig", "2,1", "--route", "explicit")
    assert code == 3 and out == "" and "routes are diagonal" in err


def test_verify_route_scoped(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--sig", "0,2", "--route", "real4", "--trials", "5"
    )
    assert code == 0
    assert all(" real4 " in line for line in out.strip().splitlines())


def test_verify_exit_one_on_failing_check(capsys, monkeypatch):
    from cliffrep.algebra import Signature
    from cliffrep.verify import CheckReport

    def fake_suite(sig, route=None, seed=0, trials=None):
        return [CheckReport(Signature(1, 1), "explicit", "similarity", False, seed=seed,
                            counterexample="injected failure")]

    monkeypatch.setattr("cliffrep.verify.check_suite", fake_suite)
    code, out, err = run_cli(capsys, "verify", "--sig", "1,1")
    assert code == 1
    assert "FAIL" in out and "failing check" in err


def test_verify_all_visits_every_listed_route(capsys, monkeypatch):
    from cliffrep.verify import run_catalog_suite

    visited = []

    def fake_suite(sig, route=None, seed=0, trials=None):
        visited.append((sig, route))
        return []

    monkeypatch.setattr("cliffrep.verify.check_suite", fake_suite)
    every = [(sig, route) for sig, routes in catalog_signatures() for route in routes]
    assert run_catalog_suite() == []
    assert visited == every
    visited.clear()
    code, out, _ = run_cli(capsys, "verify", "--all")
    assert code == 0 and out == ""
    assert visited == every


def test_signature_argument_takes_only_ascii_digits(capsys):
    for text in ("1_0,0", "\u0663,1", "3,\u00b9", "+3,1"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--sig", text])
        err = capsys.readouterr().err
        assert exc.value.code == 2, text
        assert "ASCII digits" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "classify", "--sig", " 3 , 1 ")
    assert code == 0 and out == "(3,1) -> R(4)\n"


def test_numeric_options_take_only_ascii_digits(capsys):
    cases = (
        ["verify", "--sig", "1,0", "--trials", "\u0663", "--seed", "1"],
        ["verify", "--sig", "1,0", "--trials", "1", "--seed", "\u0661"],
        ["verify", "--sig", "1,0", "--trials", "1_0"],
        ["verify", "--sig", "1,0", "--seed", "+3"],
        ["verify", "--sig", "1,0", "--seed", "-"],
        ["verify", "--sig", "1,0", "--seed", "9" * 5000],
        ["table", "--max-n", "\u0662"],
        ["table", "--max-n", "1_0"],
    )
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert "Traceback" not in err, argv
    code, out, _ = run_cli(capsys, "verify", "--sig", "1,0", "--trials", " 2 ", "--seed", "-3")
    assert code == 0 and "seed=-3" in out
    code, out, _ = run_cli(capsys, "table", "--max-n", " 2 ")
    assert code == 0 and out.count("n=") == 3


# SHA-256 and record count of short seeded `verify --format records` runs:
# the check names, their order, seeds and pass states
_VERIFY_RECORDS = {
    ("--sig", "0,2", "--seed", "7", "--trials", "2"):
        (22, "c305b84c4a551e80247ac77d2d85893ca0693c919162f8b5664073b2cf884ff0"),
    ("--sig", "9,0", "--seed", "7", "--trials", "1"):
        (4, "c377865e7cfd3a42a593fb8f638f07163941c01df5eb7a315be02b4511d1ee00"),
}


def test_short_verify_records_are_pinned(capsys):
    for args, (count, digest) in _VERIFY_RECORDS.items():
        code, out, _ = run_cli(capsys, "verify", *args, "--format", "records")
        assert code == 0, args
        assert len(out.splitlines()) == count, args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_catalog_and_corrections(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0 and "(0,2) route=quaternion" in out
    code, out, _ = run_cli(capsys, "catalog", "--corrections")
    assert code == 0 and "Corrections" in out and "transform for (3,1)" in out


def test_print_parse_round_trip_random():
    rng = random.Random(10)
    sig = Signature(2, 1)
    for _ in range(50):
        mv = Multivector(
            sig, {m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for m in range(sig.dim)}
        )
        assert parse_multivector(sig, format_multivector(mv)) == mv


# -- fuzzing the command line

_ROUTE_NAMES = sorted({route for _sig, routes in catalog_signatures() for route in routes})
# widest p + q per command, so that no case builds a wide recipe
_MAX_N = {"rep": 8, "inverse": 4, "verify": 4, "classify": 40}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["rep", "inverse", "classify", "table", "verify"]))
    if command == "table":
        return ["table", "--max-n", str(draw(st.integers(-2, 34)))]
    bound = _MAX_N[command]
    pair = st.tuples(st.integers(0, bound), st.integers(0, bound))
    junk = st.sampled_from(["-1,2", "1,-1", "1,2,3", "1;2"]) | st.text(alphabet=", -x", max_size=5)
    sig = draw(pair.filter(lambda pq: sum(pq) <= bound).map(lambda pq: f"{pq[0]},{pq[1]}") | junk)
    argv = [command, f"--sig={sig}"]
    if command == "classify":
        return argv
    route = draw(st.one_of(
        st.none(), st.sampled_from(_ROUTE_NAMES), st.text(alphabet="aelmprx0-", max_size=8)
    ))
    if route is not None:
        argv.append(f"--route={route}")
    if command == "verify":
        return argv + ["--trials", "1", "--seed", str(draw(st.integers(0, 9)))]
    term = st.sampled_from(
        ["3", "1/2", "0", "1/0", "e1", "e2", "e12", "eps1", "eps12", "2*e1*eps1", "e9"]
    )
    expr = draw(st.one_of(
        st.lists(term, min_size=1, max_size=4).flatmap(
            lambda terms: st.sampled_from([" + ", "-", "+"]).map(lambda op: op.join(terms))
        ),
        st.text(alphabet="eps0123456789+-*/ ", max_size=16),
    ).filter(lambda e: e != "-"))
    # a leading space keeps an expression such as "-e1" from reading as an option
    return argv + [" " + expr if expr.startswith("-") else expr]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argv())
def test_cli_fuzz_ends_in_documented_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
