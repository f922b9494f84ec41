"""End-to-end tests of the command line interface.

Everything below drives main() in process (capsys picks up stdout/stderr);
the byte-identity checks at the bottom spawn real subprocesses because that
is the form the determinism promise is made in.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from boolprod import __version__
from boolprod.bialphabet import dual_cauchy_reference
from boolprod.boolean import subset_alphabet
from boolprod.cli import _pair_label, _render_terms, main
from boolprod.errors import ConsistencyError
from boolprod.schur import check_schur_at_capacity


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_boolean_expand_text(capsys):
    code, out, err = run_cli(capsys, "boolean-expand", "--n", "3", "--k", "2")
    assert code == 0
    assert out == "s[2,1]\n"
    assert err == ""


def test_boolean_expand_elementary_slice(capsys):
    code, out, _ = run_cli(capsys, "boolean-expand", "--n", "2", "--k", "1", "--p", "1")
    assert code == 0
    assert out == "s[1]\n"


def test_total_text(capsys):
    code, out, _ = run_cli(capsys, "total", "--n", "2")
    assert code == 0
    assert out == "s[2,1]\n"


def test_schur_at_text(capsys):
    code, out, _ = run_cli(capsys, "schur-at", "--lambda", "2,1", "--n", "3", "--k", "2")
    assert code == 0
    assert out == "2 s[3] + 5 s[2,1] + 4 s[1,1,1]\n"


def test_lascoux_text(capsys):
    code, out, _ = run_cli(capsys, "lascoux", "--n", "2", "--kind", "symmetric")
    assert code == 0
    assert out == "equal: true\nterms: 4 s[2,1] + 2 s[2] + 6 s[1,1] + 3 s[1] + s[-]\n"


def test_determinant_both_routes(capsys):
    code, out, _ = run_cli(capsys, "binom-det", "--lambda", "2,1", "--mu", "1", "--dim", "3")
    assert code == 0
    assert out == "8\n"
    code, out, _ = run_cli(capsys, "gv-count", "--lambda", "2,1", "--mu", "1", "--dim", "3")
    assert code == 0
    assert out == "8\n"


def test_derangement_text(capsys):
    code, out, _ = run_cli(capsys, "derangement", "--n", "2")
    assert code == 0
    assert out == "(1 + q) s[2] + (1 + q + q^2) s[1,1]\n"


def test_derangement_specialized(capsys):
    code, out, _ = run_cli(capsys, "derangement", "--n", "4", "--q", "-1")
    assert code == 0
    assert out == "s[3,1] + s[2,2] + s[2,1,1] + s[1,1,1,1]\ndimension = 9\n"


def test_charpoly_text(capsys):
    code, out, _ = run_cli(capsys, "charpoly", "--n", "3", "--method", "mobius")
    assert code == 0
    assert out == "chi = t^3 - 7t^2 + 15t - 9\nregions = 32\nbounded = 0\n"


def test_regions_text(capsys):
    code, out, _ = run_cli(capsys, "regions", "--n", "2")
    assert code == 0
    assert out == "regions = 6\nbounded = 0\n"


def test_bialphabet_text(capsys):
    code, out, _ = run_cli(capsys, "bialphabet", "--n", "2", "--m", "1", "--j", "1", "--k", "1")
    assert code == 0
    assert out == "s[1,1](X) s[-](Y) + s[1](X) s[1](Y) + s[-](X) s[2](Y)\n"


def test_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "boolean-expand", "--n", "3", "--k", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {
        "command": "boolean-expand",
        "params": {"k": 2, "n": 3, "p": None},
        "result": {"terms": [{"partition": "2,1", "coeff": "1"}]},
        "version": __version__,
    }


def test_json_coefficients_are_strings(capsys):
    _, out, _ = run_cli(capsys, "schur-at", "--lambda", "2,1", "--n", "3", "--k", "2",
                        "--format", "json")
    record = json.loads(out)
    assert record["params"]["lambda"] == "2,1"
    assert all(isinstance(t["coeff"], str) for t in record["result"]["terms"])
    assert record["result"]["terms"][0] == {"partition": "3", "coeff": "2"}


def test_json_chi_payload_is_integral(capsys):
    _, out, _ = run_cli(capsys, "charpoly", "--n", "2", "--format", "json")
    record = json.loads(out)
    assert record["result"] == {"n": 2, "chi": [2, -3, 1], "regions": 6, "bounded": 0}
    assert all(isinstance(c, int) for c in record["result"]["chi"])


def test_json_qpoly_terms(capsys):
    _, out, _ = run_cli(capsys, "derangement", "--n", "2", "--format", "json")
    record = json.loads(out)
    assert record["result"]["terms"] == [
        {"partition": "2", "coeffs_q": ["1", "1"]},
        {"partition": "1,1", "coeffs_q": ["1", "1", "1"]},
    ]


def test_json_bialphabet_terms(capsys):
    _, out, _ = run_cli(capsys, "bialphabet", "--n", "1", "--m", "1", "--j", "1",
                        "--k", "1", "--format", "json")
    record = json.loads(out)
    assert record["result"]["terms"] == [
        {"x": "1", "y": "-", "coeff": "1"},
        {"x": "-", "y": "1", "coeff": "1"},
    ]


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "gv-count", "--lambda", "1,1,1,1", "--mu", "2", "--dim", "3")
    assert code == 2
    assert err.startswith("error:")
    # mu not inside la is no usage error: no path family, and the
    # determinant is 0 too
    for command in ("gv-count", "binom-det"):
        assert run_cli(capsys, command, "--lambda", "1", "--mu", "2", "--dim", "3") == (0, "0\n", "")

    code, _, err = run_cli(capsys, "boolean-expand", "--n", "2", "--k", "3")
    assert code == 2
    assert "k" in err

    code, _, err = run_cli(capsys, "lascoux", "--n", "1", "--kind", "exterior")
    assert code == 2
    assert "n >= 2" in err


def test_malformed_partition_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["schur-at", "--lambda", "1,x", "--n", "3", "--k", "2"])
    assert info.value.code == 2
    assert "invalid partition value" in capsys.readouterr().err


def test_capacity_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "total", "--n", "9")
    assert code == 3
    assert err.startswith("capacity:")

    code, _, err = run_cli(capsys, "charpoly", "--n", "7")
    assert code == 3
    assert "allow-long" in err

    for args in (("--n", "8", "--allow-long"), ("--n", "6", "--method", "mobius")):
        code, _, err = run_cli(capsys, "charpoly", *args)
        assert code == 3
        assert err.startswith("capacity:")


def test_boolean_expand_past_the_fold_ceiling_exits_3(capsys):
    code, out, err = run_cli(capsys, "boolean-expand", "--n", "8", "--k", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("capacity:") and "4,860,434 monomials" in err


def test_boolean_expand_slice_past_the_fold_ceiling_exits_3(capsys):
    # t + X_S in 8 variables: (7,3)'s fold steps and dots pass the work
    # ceiling once 430 of its keys are walked
    code, out, err = run_cli(capsys, "boolean-expand", "--n", "7", "--k", "3", "--p", "2")
    assert code == 3
    assert out == ""
    assert err == (
        "capacity: a product of 35 forms in 8 variables may take fold steps weighing "
        "58,005,728 and 430 or more keys times up to 16,302 monomials of its smaller fold, "
        "65,015,588 in all, above the ceiling of 65,000,000\n"
    )


def test_sparse_bialphabet_forms_are_not_held_to_the_fold_ceiling(capsys):
    # 14 forms x1 + y_i in 15 variables: a product of 2^14 monomials, which a
    # dense count, C(24,14) = 1,961,256, would refuse
    code, out, err = run_cli(capsys, "bialphabet", "--n", "1", "--m", "14", "--j", "1", "--k", "1")
    # exit 0 means it matched the dual Cauchy reference: a term per shape in the box
    assert code == 0 and err == ""
    assert out.startswith("s[14](X) s[-](Y) + ") and out.count(" + ") == 14


def test_lascoux_and_derangement_past_the_fold_ceiling_exit_3(capsys):
    code, out, err = run_cli(capsys, "lascoux", "--n", "9", "--kind", "exterior")
    assert (code, out) == (3, "")
    assert "36 forms in 10 variables may fold, within its Hall caps, into 1,046,868 mon" in err
    code, out, err = run_cli(capsys, "derangement", "--n", "17")
    assert (code, out) == (3, "")
    assert "17 forms in 17 variables may fold, within its Hall caps, into 1,747,547 mon" in err


def test_bialphabet_box_cap_refuses_before_expanding(capsys, monkeypatch):
    # the 20 forms of a 5-by-4 box pass both counts: the expansion runs and
    # exit 0 means it matched the dual Cauchy reference
    code, out, err = run_cli(capsys, "bialphabet", "--n", "5", "--m", "4", "--j", "1", "--k", "1")
    assert (code, err) == (0, "")
    assert out == _render_terms(dual_cauchy_reference(5, 4), _pair_label) + "\n"

    def unreachable(*args):
        raise AssertionError("pjk_expand ran past a refusal")

    # pjk_expand refuses before it folds any product
    monkeypatch.setattr("boolprod.polyring._capped_fold", unreachable)
    code, out, err = run_cli(capsys, "bialphabet", "--n", "5", "--m", "7", "--j", "1", "--k", "1")
    assert (code, out, err) == (
        3,
        "",
        "capacity: a product of 35 forms in 12 variables may fold, within its Hall caps, "
        "into 4,835,428 monomials, above the ceiling of 1,000,000\n",
    )
    code, out, err = run_cli(capsys, "bialphabet", "--n", "0", "--m", "2", "--j", "1", "--k", "1")
    assert (code, out, err) == (2, "", "error: need 0 <= j <= n, got j=1, n=0\n")


def test_schur_at_past_its_ceilings_exits_3_before_the_forms_are_built(capsys, monkeypatch):
    def unreachable(n, k):
        raise AssertionError("the forms were built past a refusal")

    monkeypatch.setattr("boolprod.cli.subset_alphabet", unreachable)
    code, out, err = run_cli(capsys, "schur-at", "--lambda", "17", "--n", "7", "--k", "3")
    assert (code, out) == (3, "")
    assert err == (
        "capacity: s[17] of 35 forms in 7 variables folds e_p up to p = 17: 35 forms "
        "times C(23,6) monomials = 3,533,145, above the ceiling of 3,000,000\n"
    )
    code, out, err = run_cli(capsys, "schur-at", "--lambda", "11,10", "--n", "7", "--k", "3")
    assert (code, out) == (3, "")
    assert err == (
        "capacity: s[11,10] in 7 variables spans more than 400 partitions of 21 in at "
        "most 7 parts, the ceiling\n"
    )
    # C(20,10) = 184,756 forms, never built
    code, out, err = run_cli(capsys, "schur-at", "--lambda", "2,1", "--n", "20", "--k", "10")
    assert (code, out) == (3, "") and "184,756 forms times C(22,19)" in err
    # an invalid k is still a usage error, and no work is bounded
    code, out, err = run_cli(capsys, "schur-at", "--lambda", "2,1", "--n", "3", "--k", "4")
    assert (code, out, err) == (2, "", "error: need 1 <= k <= n, got k=4, n=3\n")


def test_schur_at_past_the_alphabet_ceiling_exits_3(capsys):
    # s[1] of the (1001,1) alphabet, 1,001 forms times 1,001 monomials, is
    # within schur-at's own ceilings, and s[-] needs no work, but their forms
    # are refused at the alphabet's ceiling on coefficients, which (1000,1)
    # meets exactly
    check_schur_at_capacity((1,), 1001, 1001)
    for la in ("1", "-"):
        code, out, err = run_cli(capsys, "schur-at", "--lambda", la, "--n", "1001", "--k", "1")
        assert (code, out) == (3, "")
        assert err == (
            "capacity: an alphabet of forms in 1,001 variables reaches 1,001,000 coefficients "
            "at form 1,000, above the ceiling of 1,000,000\n"
        )
    assert len(subset_alphabet(1000, 1)) == 1000


def test_schur_at_past_its_row_ceiling_exits_3_in_a_fresh_process():
    # a row this long once ran out of stack in the determinant; a fresh
    # process has the default recursion limit the command line meets
    done = subprocess.run(
        [sys.executable, "-m", "boolprod", "schur-at", "--lambda", "1200", "--n", "1", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == (
        "capacity: s[1200] has a determinant of 1,200 rows, above the ceiling of 400\n"
    )


@pytest.mark.parametrize(
    "argv, err",
    [
        (["total", "--n", "124"], "124 variables reaches 1,000,060 coefficients at form 8,065"),
        (
            ["boolean-expand", "--n", "4000", "--k", "2000"],
            "4,000 variables reaches 1,004,000 coefficients at form 251",
        ),
        (
            ["lascoux", "--n", "1400", "--kind", "exterior"],
            "1,400 variables reaches 1,001,000 coefficients at form 715",
        ),
        (
            ["schur-at", "--lambda", "1", "--n", "20000", "--k", "10000"],
            "s[1] of more than 10^30 forms in 20000 variables folds e_p up to p = 1",
        ),
        (
            ["bialphabet", "--n", "20000", "--m", "1", "--j", "10000", "--k", "1"],
            "20,001 variables reaches 1,000,050 coefficients at form 50",
        ),
        (
            ["boolean-expand", "--n", "130", "--k", "65", "--p", "1"],
            "130 variables reaches 1,000,090 coefficients at form 7,693",
        ),
        # a count cut short is not printed as if it were exact
        (
            ["lascoux", "--n", "1" + "0" * 3000, "--kind", "exterior"],
            "an alphabet of forms in more than 10^30 variables reaches more than 10^30 "
            "coefficients at form 1",
        ),
        (
            ["derangement", "--n", "100000"],
            "100,000 variables reaches 10,000,000,000 coefficients at form 100,000",
        ),
        # refused before n! is taken, which would not end within the second
        (
            ["derangement", "--n", "10000000"],
            "10,000,000 variables reaches 100,000,000,000,000 coefficients at form 10,000,000",
        ),
    ],
    ids=[
        "total", "boolean-expand", "lascoux", "schur-at", "bialphabet", "slice", "lascoux-n",
        "derangement", "derangement-n",
    ],
)
def test_refusals_of_huge_inputs_exit_3(capsys, argv, err):
    # some of these counts pass Python's 4,300-digit limit for printing an
    # int; each refusal comes within a second, and no count past 10^30 is
    # printed as if it were exact
    start = time.perf_counter()
    code, out, got = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert got.startswith("capacity: ") and err in got
    assert all(int(x.replace(",", "")) <= 10**30 for x in re.findall(r"\d[\d,]*", got))


@pytest.mark.parametrize(
    "argv, count",
    [
        (["bialphabet", "--n", "2", "--m", "8", "--j", "2", "--k", "2"], "65,007,918 in all"),
        (["total", "--n", "6"], "118,767,724 in all"),
        (["boolean-expand", "--n", "8", "--k", "3"], "4,860,434 monomials"),
        (["boolean-expand", "--n", "7", "--k", "3", "--p", "2"], "65,015,588 in all"),
        (["lascoux", "--n", "9", "--kind", "exterior"], "1,046,868 monomials"),
        (["derangement", "--n", "17"], "1,747,547 monomials"),
    ],
)
def test_refusals_come_before_any_fold(capsys, monkeypatch, argv, count):
    def unreachable(*args):
        raise AssertionError("a product was folded before its refusal")

    for name in ("_mul_into", "_capped_fold"):
        monkeypatch.setattr(f"boolprod.polyring.{name}", unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("capacity: ") and count in err


def test_consistency_errors_exit_4(capsys, monkeypatch):
    def broken(n, allow_long=False):
        raise ConsistencyError("forced for the test")

    monkeypatch.setattr("boolprod.cli.charpoly_ff", broken)
    code, _, err = run_cli(capsys, "charpoly", "--n", "2")
    assert code == 4
    assert err.startswith("inconsistent:")


def test_timing_is_opt_in(capsys):
    _, out, _ = run_cli(capsys, "total", "--n", "2")
    assert "wall_time_ms" not in out

    _, out, _ = run_cli(capsys, "total", "--n", "2", "--timing")
    assert "wall_time_ms:" in out

    _, out, _ = run_cli(capsys, "total", "--n", "2", "--format", "json", "--timing")
    assert "wall_time_ms" in json.loads(out)

    _, out, _ = run_cli(capsys, "total", "--n", "2", "--format", "json")
    assert "wall_time_ms" not in json.loads(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def _spawn(argv, env=None):
    return subprocess.run(
        [sys.executable, "-m", "boolprod", *argv],
        capture_output=True,
        env=env,
        check=True,
    ).stdout


def test_output_is_byte_identical_across_runs():
    for argv in (
        ["schur-at", "--lambda", "2,1", "--n", "3", "--k", "2", "--format", "json"],
        ["boolean-expand", "--n", "4", "--k", "2", "--format", "json"],
    ):
        assert _spawn(argv) == _spawn(argv)


def test_output_ignores_thread_count():
    # No worker count is read: a stale BOOLPROD_THREADS, even one that is
    # not a number, must neither fail the run nor change its bytes.
    argv = ["boolean-expand", "--n", "4", "--k", "2", "--format", "json"]
    env = {k: v for k, v in os.environ.items() if k != "BOOLPROD_THREADS"}
    outs = [_spawn(argv, env)]
    for threads in ("1", "4", "many"):
        outs.append(_spawn(argv, {**env, "BOOLPROD_THREADS": threads}))
    assert all(out == outs[0] for out in outs)
