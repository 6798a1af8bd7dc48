"""Self-tests of the benchmark itself; run from the repository root with

    python3 perfbench/selftest.py

They check that the output checks catch injected faults (so ``failed_frac``
cannot read 0 on a broken pipeline), that inputs depend on the seed alone,
and that the tracer changes no result and accounts for its time.  Exit code
0 when every test passes.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import heckelink as hl  # noqa: E402

import workloads as W  # noqa: E402
from run import digest  # noqa: E402
from tracer import Tracer  # noqa: E402


def _failed_frac(flags) -> float:
    return sum(flags) / len(flags)


def _small_braid_ops():
    """The first two families of seed 0, without their 7-strand members."""
    return [op for op in W.braid_inputs(0) if op["family"] < 2 and op["strands"] < 7]


def test_word_closure_detects_faulty_image():
    ops = [{"n": 3, "max_len": 3}, {"n": 3, "max_len": 2}]
    clean = [W.word_run(hl, None, op) for op in ops]
    assert _failed_frac(W.word_check(hl, ops, clean)) == 0
    faulty = [W.word_run(hl, None, op, image_fn=hl.oracles.faulty_braid_image) for op in ops]
    assert _failed_frac(W.word_check(hl, ops, faulty)) > 0


def test_braid_check_detects_one_corrupted_value():
    ops = _small_braid_ops()
    outputs = [W.braid_run(hl, None, op) for op in ops]
    assert _failed_frac(W.braid_check(hl, ops, outputs)) == 0
    # A wrong Jones value on a member other than the family's first: the
    # family comparison and the bracket oracle must both see it.
    outputs[3] = dict(outputs[3], jones=outputs[3]["jones"] + "+t")
    flags = W.braid_check(hl, ops, outputs)
    assert flags[3] and sum(flags) == 1
    assert _failed_frac(flags) > 0


def test_cell_and_decompose_checks_detect_corruption():
    ops = [op for op in W.cell_inputs(0) if op["n"] <= 3]
    outputs = [W.cell_run(hl, W.cell_setup(hl, ops), op) for op in ops]
    assert not any(W.cell_check(hl, ops, outputs))
    outputs[1] = dict(outputs[1], dim_D=0)
    assert any(W.cell_check(hl, ops, outputs))

    ops = [op for op in W.decompose_inputs(0) if op["strands"] <= 3]
    outputs = [W.decompose_run(hl, None, op) for op in ops]
    assert not any(W.decompose_check(hl, ops, outputs))
    outputs[0] = {"(9)": "q"}
    assert any(W.decompose_check(hl, ops, outputs))


def test_fp_fields_realize_their_e():
    for e, choices in W.FP_BY_E.items():
        for p, q in choices:
            assert hl.quantum_e(hl.PrimeField(p).from_int(q)) == e, (p, q, e)


def test_inputs_depend_on_the_seed_alone():
    for name, (inputs, _, _, _) in W.WORKLOADS.items():
        assert inputs(7) == inputs(7), name
    assert W.braid_inputs(1) != W.braid_inputs(2)
    strands = sorted(op["strands"] for op in W.braid_inputs(1))
    assert strands == sorted(op["strands"] for op in W.braid_inputs(2))


def test_expected_rewrites_match_a_direct_run():
    report = hl.exhaustive_word_closure(3, 3)
    assert report["checked"] == W.expected_rewrites(3, 3)


def test_tracer_changes_no_result_and_accounts_for_time():
    ops = _small_braid_ops()[:6] + [{"n": 3, "max_len": 2}]
    braid_ops, word_op = ops[:-1], ops[-1]

    def run_all():
        out = [W.braid_run(hl, None, op) for op in braid_ops]
        return out + [W.word_run(hl, None, word_op)]

    plain = run_all()
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = run_all()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert digest(plain) == digest(traced)
    m = tracer.metrics()
    assert m["invariants.homflypt.calls"] == 2 * len(braid_ops)  # jones recomputes it
    assert m["invariants.jones.calls"] == len(braid_ops)
    assert m["coefficients.canonicalize.calls"] > 0  # bound in coefficients and trace
    assert m["hecke.letters_folded"] >= m["hecke.fold_letter.calls"] > 0
    assert m["oracles.rewrites_checked"] == W.expected_rewrites(3, 2)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s") and ".in_" not in k)
    assert abs(self_total - tracer.covered_s) < 1e-6
    assert tracer.covered_s <= wall
    # Uninstalled: the library is its own again.
    assert hl.homflypt.__module__ == "heckelink.invariants"
    assert hl.hecke.HeckeElement.__mul__.__module__ == "heckelink.hecke"


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
