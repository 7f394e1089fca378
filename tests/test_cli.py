"""Command-line behaviour: output shapes, exit codes, stdin, formats."""

import io
import random
from fractions import Fraction

import pytest

from cliffrep.algebra import Multivector, Signature
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
    code, out, _ = run_cli(capsys, "table", "--max-n", "8")
    row7 = next(line for line in out.splitlines() if line.startswith("n=7:"))
    assert "(7,0) C(8)*" in row7
    assert "(3,4) C(8) " in row7  # mirror family not constructed


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
    assert "'nosuch'" in err and "explicit, diagonal" in err and "is covered" not in err


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

    monkeypatch.setattr("cliffrep.cli.check_suite", fake_suite)
    code, out, err = run_cli(capsys, "verify", "--sig", "1,1")
    assert code == 1
    assert "FAIL" in out and "failing check" in err


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
