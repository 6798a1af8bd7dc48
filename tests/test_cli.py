"""Golden-file tests for the command-line surface.

Every documented invocation is pinned byte for byte; a second invocation
must reproduce the first exactly.
"""

import json

import pytest

from heckelink import cli, hecke
from heckelink.cli import main
from heckelink.invariants import InvariantError
from heckelink.specht import ProportionalityError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReduce:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "reduce", "--strands", "2", "1 1")
        assert code == 0
        assert out == "(q1+q2)*T[2,1] + (-q1*q2)*T[1,2]\n"

    def test_cancellation(self, capsys):
        code, out, _ = run(capsys, "reduce", "--strands", "2", "1 -1")
        assert code == 0
        assert out == "T[1,2]\n"

    @pytest.mark.parametrize(
        "strands, message",
        [("-1", "strand count must be >= 1, got -1"), ("65", "exceeds the limit of 64")],
    )
    def test_bad_strand_count_is_named(self, capsys, strands, message):
        code, out, err = run(capsys, "reduce", "--strands", strands, "1 70")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message in err

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "reduce", "--strands", "2", "3")
        assert code == 2
        assert out == ""
        assert "out of range" in err

    def test_inline_strands(self, capsys):
        code, out, _ = run(capsys, "reduce", "B3: 1 -2 1")
        assert code == 0

    def test_inline_strand_conflict(self, capsys):
        code, _, err = run(capsys, "reduce", "--strands", "2", "B3: 1")
        assert code == 2
        assert "conflicts" in err

    def test_zero_strands(self, capsys):
        code, _, err = run(capsys, "reduce", "--strands", "0", "")
        assert code == 2

    def test_unlink_jones(self, capsys):
        code, out, _ = run(capsys, "jones", "--strands", "2", "")
        assert code == 0
        assert out == "-s-s^-1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "reduce", "--strands", "2", "1 1")
        assert code == 0
        assert json.loads(out) == [
            {"perm": [2, 1], "coeff": "q1+q2"},
            {"perm": [1, 2], "coeff": "-q1*q2"},
        ]

    def test_prime_field(self, capsys):
        # (q1, q2) = (-1, 2) in F_3: T^2 = (q1+q2) T - q1 q2 = T + 2
        code, out, _ = run(
            capsys, "reduce", "--strands", "2", "--field", "fp", "--p", "3", "--q", "2", "1 1"
        )
        assert code == 0
        assert out == "T[2,1] + (2)*T[1,2]\n"

    @pytest.mark.parametrize(
        "fmt, unused, expected",
        [
            ("text", "to_json", "(q1+q2)*T[2,1] + (-q1*q2)*T[1,2]\n"),
            ("json", "render", '[{"perm": [2, 1], "coeff": "q1+q2"}, '
                               '{"perm": [1, 2], "coeff": "-q1*q2"}]\n'),
        ],
        ids=["text", "json"],
    )
    def test_builds_only_the_printed_form(self, capsys, monkeypatch, fmt, unused, expected):
        def refuse(self):
            raise AssertionError(f"{unused} built for --format {fmt}")

        monkeypatch.setattr(hecke.HeckeElement, unused, refuse)
        code, out, _ = run(capsys, "--format", fmt, "reduce", "--strands", "2", "1 1")
        assert (code, out) == (0, expected)


@pytest.mark.parametrize("command", ["reduce", "homfly", "jones", "decompose"])
def test_a_fold_past_the_support_limit_exits_2(capsys, monkeypatch, command):
    # the full twist on 6 strands folds to all 720 terms
    monkeypatch.setattr(hecke, "MAX_SUPPORT", 100)
    code, out, err = run(capsys, command, "--strands", "6", " ".join(["1 2 3 4 5"] * 6))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 100 terms" in err


W0_WORD = {n: " ".join(str(j) for k in range(1, n) for j in range(k, 0, -1)) for n in (6, 8)}


@pytest.mark.parametrize("command", ["homfly", "jones"])
def test_a_trace_step_past_the_support_limit_exits_2(capsys, monkeypatch, command):
    # the image of w0 is one term, but the trace steps of its closure on 8
    # strands reach 162 terms
    monkeypatch.setattr(hecke, "MAX_SUPPORT", 100)
    code, out, err = run(capsys, command, "--strands", "8", W0_WORD[8])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 100 terms" in err


def test_class_polynomials_past_the_support_limit_exit_2(capsys, monkeypatch):
    # the image of w0 on 6 strands is one term, whose class polynomial
    # explores 205 permutations
    monkeypatch.setattr(hecke, "MAX_SUPPORT", 100)
    code, out, err = run(capsys, "decompose", "--strands", "6", W0_WORD[6])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "more than 100 permutations" in err


class TestInvariantCommands:
    def test_jones_trefoil(self, capsys):
        code, out, _ = run(capsys, "jones", "--strands", "2", "1 1 1")
        assert code == 0
        assert out == "-t^4+t^3+t\n"

    def test_jones_unknot(self, capsys):
        code, out, _ = run(capsys, "jones", "--strands", "1", "")
        assert code == 0
        assert out == "1\n"

    def test_homfly_square(self, capsys):
        code, out, _ = run(capsys, "homfly", "--strands", "2", "1 1")
        assert code == 0
        assert out == "-q1^2*q2^2+q1^2+q1*q2+q2^2 / q1+q2\n"

    def test_jones_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "jones", "--strands", "2", "1 1 1")
        assert code == 0
        assert json.loads(out) == {
            "variable": "t",
            "components": 1,
            "coefficients": {"4": "-1", "3": "1", "1": "1"},
        }

    def test_non_generic_field_rejected(self, capsys):
        code, out, err = run(
            capsys, "jones", "--strands", "2", "--field", "rationals", "--q", "2", "1 1"
        )
        assert code == 3
        assert "generic" in err


class TestDecompose:
    def test_basis_braid(self, capsys):
        code, out, _ = run(capsys, "decompose", "--strands", "3", "2 1")
        assert code == 0
        assert out == "(3): 1\n"

    def test_two_strand_square(self, capsys):
        code, out, _ = run(capsys, "decompose", "--strands", "2", "1 1")
        assert code == 0
        assert out == "(2): q-1\n(1,1): q\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "decompose", "--strands", "2", "1 1")
        assert code == 0
        assert json.loads(out) == {"(2)": "q-1", "(1,1)": "q"}

    def test_six_strand_cycle(self, capsys):
        code, out, _ = run(capsys, "decompose", "--strands", "6", "1 2 3 4 5 -1 2")
        assert code == 0
        assert out == "(6): 1\n"

    def test_non_generic_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "decompose", "--strands", "2", "--field", "fp", "--p", "3", "--q", "2", "1 1",
        )
        assert code == 3
        assert "generic" in err


class TestSpecht:
    def test_generic_table(self, capsys):
        code, out, _ = run(capsys, "specht", "--n", "3")
        assert code == 0
        assert out == (
            "partition\tdim_S\tdim_D\tgram_det\n"
            "(3)\t1\t1\tq^3+2*q^2+2*q+1\n"
            "(2,1)\t2\t2\tq^3+q^2+q\n"
            "(1,1,1)\t1\t1\t1\n"
        )

    def test_prime_field_table(self, capsys):
        # q = 2 in F_3 gives 1 + q = 0, so e = 2
        code, out, _ = run(
            capsys, "specht", "--n", "2", "--field", "Fp", "--p", "3", "--q", "2"
        )
        assert code == 0
        assert out == (
            "partition\tdim_S\tdim_D\tgram_det\n"
            "(2)\t1\t0\t0\n"
            "(1,1)\t1\t1\t1\n"
        )

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "specht", "--n", "0")
        assert code == 0
        assert out == "partition\tdim_S\tdim_D\tgram_det\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "specht", "--n", "2")
        assert code == 0
        assert json.loads(out) == [
            {"partition": "(2)", "dim_S": 1, "dim_D": 1, "gram_det": "q+1"},
            {"partition": "(1,1)", "dim_S": 1, "dim_D": 1, "gram_det": "1"},
        ]

    @pytest.mark.parametrize("error", [ProportionalityError, InvariantError])
    def test_an_internal_fault_exits_4(self, capsys, monkeypatch, error):
        # a failed identity inside the library is no input error: exit 4,
        # nothing on stdout and one "internal error:" line on stderr
        def fail(lam, sctx):
            raise error(f"injected fault at {lam.render()}")

        monkeypatch.setattr(cli, "specht_module", fail)
        code, out, err = run(capsys, "specht", "--n", "3")
        assert (code, out) == (4, "")
        assert err == "internal error: injected fault at (3)\n"


QUICK_SUITES = [
    ("braid-relations", 13),
    ("word-multiplicativity", 60),
    ("symmetric-group-oracle", 60),
    ("trace-axioms", 50),
    ("partition-traces", 18),
    ("jones-vs-bracket", 21),
    ("cell-modules", 13),
]


class TestVerify:
    def test_quick(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick")
        assert code == 0
        assert out == "".join(
            f"ok {name} ({checks} checks)\n" for name, checks in QUICK_SUITES
        ) + "all checks passed\n"

    def test_quick_fault_injection_json(self, capsys):
        # the corrupted image breaks only the suites that go through it
        code, out, _ = run(capsys, "--format", "json", "verify", "--quick", "--inject-fault")
        assert code == 4
        failures = {"braid-relations": 3, "word-multiplicativity": 36}
        assert json.loads(out) == {
            "suites": [
                {"name": name, "checks": checks, "failures": failures.get(name, 0)}
                for name, checks in QUICK_SUITES
            ],
            "ok": False,
        }

    def test_exhaustive_fault_injection_text(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--exhaustive", "--n", "2", "--max-len", "3", "--inject-fault"
        )
        assert code == 4
        lines = out.splitlines()
        assert lines[0] == "checked 10 rewrites on 2 strands"
        assert lines[-1] == "violations: 10"
        assert len(lines) == 12
        assert all(line.startswith("violation: cancel on ") for line in lines[1:-1])
        assert "violation: cancel on [1, -1] -> []" in lines

    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "--exhaustive", "--n", "3", "--max-len", "4")
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == []
        assert report["checked"] > 0
        # without --n and --max-len: 3 strands, words up to length 5
        code, out, _ = run(capsys, "verify", "--exhaustive")
        assert code == 0
        assert out.splitlines()[0] == "checked 1480 rewrites on 3 strands"

    def test_fault_injection(self, capsys):
        code, out, _ = run(capsys, "verify", "--exhaustive", "--n", "2", "--max-len", "4", "--inject-fault")
        assert code == 4

    def test_quick_fault_injection(self, capsys):
        code, out, _ = run(capsys, "verify", "--quick", "--inject-fault")
        assert code == 4
        assert "FAIL" in out


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "decompose", "--strands", "3", "1 1 2")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_env_var_field(self, capsys, monkeypatch):
        monkeypatch.setenv("HECKELINK_FIELD", "fp:3:2")
        code, out, _ = run(capsys, "reduce", "--strands", "2", "1 1")
        assert code == 0
        assert out == "T[2,1] + (2)*T[1,2]\n"

    def test_env_var_overridden_by_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("HECKELINK_FIELD", "fp:3:2")
        code, out, _ = run(capsys, "reduce", "--strands", "2", "--field", "generic", "1 1")
        assert code == 0
        assert out == "(q1+q2)*T[2,1] + (-q1*q2)*T[1,2]\n"


class TestMalformedFieldSpec:
    @pytest.mark.parametrize(
        "env, argv",
        [
            (None, ["reduce", "--strands", "2", "--field", "rationals", "--q", "abc", "1"]),
            (None, ["reduce", "--strands", "2", "--field", "fp", "--p", "3", "--q", "2.5", "1"]),
            (None, ["specht", "--n", "3", "--field", "rationals", "--q", "1/0"]),
            (None, ["reduce", "--strands", "2", "--field", "fp", "--p", "3", "1"]),
            (None, ["reduce", "--strands", "2", "--field", "rationals", "1"]),
            (None, ["specht", "--n", "2", "--field", "fp", "--p", "3", "--q", "5"]),
            ("fp:x:2", ["reduce", "--strands", "2", "1"]),
            ("rationals:abc", ["reduce", "--strands", "2", "1"]),
            ("bogus", ["reduce", "--strands", "2", "1"]),
            ("bogus", ["jones", "--strands", "2", "1"]),
            (None, ["verify", "--exhaustive", "--n", "2", "--max-len", "-1"]),
            ("generic:2", ["reduce", "--strands", "2", "1"]),
            ("rationals:2", ["reduce", "--strands", "2", "1 1", "--q", "3"]),
            ("fp:3:2", ["reduce", "--strands", "2", "1", "--p", "5"]),
            (None, ["reduce", "--strands", "2", "--field", "rationals", "--q", "2", "--p", "7", "1"]),
            (None, ["reduce", "--strands", "2", "--field", "generic", "--q", "3", "1"]),
            (None, ["reduce", "--strands", "2", "--field", "generic", "--p", "3", "1"]),
            (None, ["reduce", "--strands", "2", "--q", "3", "1"]),
            (None, ["homfly", "--strands", "2", "--q", "3", "1"]),
            (None, ["specht", "--n", "2", "--field", "rationals", "--p", "5", "--q", "2"]),
            (None, ["reduce", "--strands", "99999999999", "1"]),
            (None, ["specht", "--n", "2", "--field", "fp", "--p", str(2**64 + 13), "--q", "2"]),
            # the field is resolved even when the table has no rows
            (None, ["specht", "--n", "0", "--field", "fp", "--p", "4", "--q", "2"]),
            ("bogus", ["specht", "--n", "0"]),
            # usage errors that argparse finds, on one line instead of the
            # usage block
            (None, []),
            (None, ["reduce"]),
            (None, ["reduce", "--strands", "x", "1"]),
            (None, ["specht"]),
            (None, ["specht", "--n", "2", "--field", "bogus"]),
            (None, ["specht", "--n", "2", "--field", "fp", "--p", "abc", "--q", "2"]),
            # verify flags that only --exhaustive reads, and both modes at once
            (None, ["verify", "--quick", "--n", "9"]),
            (None, ["verify", "--max-len", "4"]),
            (None, ["verify", "--quick", "--exhaustive"]),
            # an exhaustive run on fewer than one strand
            (None, ["verify", "--exhaustive", "--n", "0"]),
            (None, ["verify", "--exhaustive", "--n", "-3"]),
        ],
    )
    def test_exits_2_with_one_line(self, capsys, monkeypatch, env, argv):
        if env is None:
            monkeypatch.delenv("HECKELINK_FIELD", raising=False)
        else:
            monkeypatch.setenv("HECKELINK_FIELD", env)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_usage_error_names_the_argument(self, capsys):
        code, out, err = run(capsys, "reduce", "--strands", "x", "1")
        assert (code, out) == (2, "")
        assert err == "error: argument --strands: invalid int value: 'x'\n"

    @pytest.mark.parametrize("argv", [["--help"], ["specht", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: heckelink")

    def test_field_is_case_insensitive(self, capsys, monkeypatch):
        # "Fp" is pinned by the golden tables; any other case is read too
        monkeypatch.delenv("HECKELINK_FIELD", raising=False)
        argv = ["specht", "--n", "2", "--field", "fP", "--p", "3", "--q", "2"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "partition\tdim_S\tdim_D\tgram_det\n(2)\t1\t0\t0\n(1,1)\t1\t1\t1\n"

    @pytest.mark.parametrize(
        "env, argv, flag",
        [
            ("rationals:2", ["reduce", "--strands", "2", "1 1", "--q", "3"], "--q"),
            (None, ["reduce", "--strands", "2", "--field", "rationals", "--q", "2", "--p", "7", "1"], "--p"),
            (None, ["reduce", "--strands", "2", "--field", "generic", "--q", "3", "1"], "--q"),
            (None, ["jones", "--strands", "2", "--q", "3", "1"], "--q"),
        ],
    )
    def test_unread_flag_is_named(self, capsys, monkeypatch, env, argv, flag):
        if env is None:
            monkeypatch.delenv("HECKELINK_FIELD", raising=False)
        else:
            monkeypatch.setenv("HECKELINK_FIELD", env)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: {flag} is not read by" in err


def test_a_word_without_a_strand_count_is_refused(capsys):
    code, out, err = run(capsys, "reduce", "1 2")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "no strand count given" in err
