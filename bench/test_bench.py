"""Tests of the benchmark itself: its checker fails planted wrong answers
and passes right ones, and an overrunning operation is stopped.

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys
from time import perf_counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import causalcurves  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, execute  # noqa: E402


def _mp(P):
    return causalcurves.MatrixParabola(P.A, P.B, P.C)


def _replace_call(op, call):
    return Op(op.name, call, op.check, op.limit, op.fault, op.is_fault)


@pytest.fixture(scope="module")
def membership():
    return workloads.membership_ops(5)


def test_right_verdicts_pass(membership):
    seeded = [op for op in membership if op.fault is None]
    assert {op.name.split(".")[0] for op in seeded} == {"membership"}
    assert all(execute(op).error is None for op in seeded)


def test_flipped_verdict_fails(membership):
    op = next(op for op in membership if op.name.startswith("membership.member.k0"))
    ok, sig = op.call()
    assert execute(_replace_call(op, lambda: (ok, sig))).error is None
    flipped = execute(_replace_call(op, lambda: (not ok, None)))
    assert flipped.error is not None and not flipped.expected


def test_wrong_signature_fails(membership):
    op = next(op for op in membership if op.name.startswith("membership.member.k0"))
    ok, sig = op.call()
    wrong = causalcurves.Signature(sig.n + 1, sig.m, sig.r, sig.k)
    assert execute(_replace_call(op, lambda: (ok, wrong))).error is not None


def test_fault_is_expected_only_for_its_own_wrong_answer(membership):
    op = next(op for op in membership if op.fault == "singular point missed")
    right = execute(_replace_call(op, lambda: (False, None)))
    assert right.error is None
    missed = execute(_replace_call(op, lambda: (True, causalcurves.Signature(18, 8, 1, 0))))
    assert missed.error is not None and missed.expected


def test_planted_yes_certificate_passes_and_perturbed_fails():
    rng = np.random.default_rng(3)
    P1, P2 = workloads.yes_pair(rng, 3)
    op = workloads._equivalence_op("yes", P1, P2, "yes")
    verdict = op.call()
    assert execute(_replace_call(op, lambda: verdict)).error is None
    cert = verdict.certificate
    bent = causalcurves.EquivalenceCertificate(cert.X * (1 + 1e-4), cert.alpha, cert.beta)
    perturbed = causalcurves.AlmostVerdict("yes", bent, "")
    assert execute(_replace_call(op, lambda: perturbed)).error is not None
    no = causalcurves.AlmostVerdict("no", None, "")
    assert execute(_replace_call(op, lambda: no)).error is not None


def test_no_pair_is_inequivalent_by_construction():
    rng = np.random.default_rng(4)
    P1, P2 = workloads.no_pair(rng, 3, same_signature=True)
    gap = np.abs(inputs.canonical_spectrum(P1) - inputs.canonical_spectrum(P2))
    assert gap.max() > 0.05
    op = workloads._equivalence_op("no", P1, P2, "no")
    assert execute(op).error is None


def test_integer_certificate_checks():
    rng = np.random.default_rng(6)
    P1, P2 = workloads.found_pair(rng, 2)
    op = workloads._search_op("found", P1, P2, workloads.FOUND_BOUND, True)
    cert = op.call()
    assert execute(_replace_call(op, lambda: cert)).error is None
    real = causalcurves.EquivalenceCertificate(cert.X * 1.1, cert.alpha, cert.beta)
    assert execute(_replace_call(op, lambda: real)).error is not None
    assert execute(_replace_call(op, lambda: None)).error is not None
    P1n, P2n = workloads.none_pair(rng, 2)
    none_op = workloads._search_op("none", P1n, P2n, workloads.NONE_BOUND, False)
    assert execute(none_op).error is None
    assert execute(_replace_call(none_op, lambda: cert)).error is not None


def test_cli_checks_read_envelopes():
    ops = workloads.cli_ops(2, workloads.cli_in_process)
    for op in ops:
        assert execute(op).error is None, op.name
    signature = next(op for op in ops if op.name == "cli.signature")
    body = {"ok": True, "error": None, "result": {"n": 5, "m": 2, "r": 0, "k": 1}}
    wrong = workloads.CliResult(0, json.dumps(body))
    assert execute(_replace_call(signature, lambda: wrong)).error is not None
    failed = workloads.CliResult(1, json.dumps({"ok": False, "error": {}, "result": None}))
    assert execute(_replace_call(signature, lambda: failed)).error is not None


def test_overrunning_operation_is_stopped():
    def spin():
        while True:
            pass

    op = Op("spin", spin, lambda result: None, limit=0.2)
    start = perf_counter()
    outcome = execute(op)
    assert perf_counter() - start < 5.0
    assert outcome.error is not None and "overran" in outcome.error


def test_overrunning_process_is_killed():
    start = perf_counter()
    with pytest.raises(workloads.OpTimeout):
        with workloads.deadline(0.5):
            workloads.run_process([sys.executable, "-c", "import time; time.sleep(30)"], None, ROOT)
    assert perf_counter() - start < 10.0


def test_tracer_restores_every_binding():
    import causalcurves.classify as classify

    before = (causalcurves.is_characteristic, classify.is_characteristic, np.linalg.eigh)
    tracer = tracing.Tracer()
    with tracer:
        assert classify.is_characteristic is not before[1]
        causalcurves.realize(_mp(inputs.frame(np.random.default_rng(1), 2, 1).parabola()), 5)
    assert (causalcurves.is_characteristic, classify.is_characteristic, np.linalg.eigh) == before
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["classify.realize.calls"] == 1
    assert metrics["charpoly.is_characteristic.calls"] == 1
    assert metrics["construction.build.calls"] == 1


def test_checks_are_not_traced():
    P = inputs.frame(np.random.default_rng(2), 2, 1).parabola()

    def check(result):
        causalcurves.symmat.det_poly(P.A, P.B, P.C)
        return "wrong"

    op = Op("traced", lambda: causalcurves.symmat.det_poly(P.A, P.B, P.C), check,
            fault="fault", is_fault=check)
    tracer = tracing.Tracer()
    execute(op, tracer)
    assert [span[tracing.NAME] for span in tracer.spans] == ["symmat.det_poly"]
    assert tracer.factor_calls == 2 * P.m + 1


def test_operations_left_at_the_stop_fail_at_their_limit(membership):
    import run

    tally = run.Tally()
    seconds = run.run_round(membership[:3], tally, stop_at=0.0)
    assert seconds == [op.limit for op in membership[:3]]
    assert tally.attempted == 3 and len(tally.failures) == 3 and not tally.correct
