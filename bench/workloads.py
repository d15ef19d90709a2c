"""The three workloads as fixed lists of operations with their checks.

An operation is one top-level library call or one CLI process.  Its
inputs are drawn from the run's seed, except the corpus in
``fixed_membership_ops``, which is drawn from ``FIXED_SEED`` because the
program fails on some of its inputs: with a fixed corpus the number of
failed operations is the same in every run, whatever the seed.
``corpus.py`` shows how ``FIXED_SEED`` is chosen.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import checks
import inputs
from inputs import ORDERS, Certificate, Parabola

#: Seed of the membership corpus that exposes known program faults: the
#: first whose failures match the failed shares measured by ``corpus.py``.
FIXED_SEED = 2
#: Per-operation time limits; an operation that overruns is stopped.
LIBRARY_LIMIT_S = 10.0
CLI_LIMIT_S = 30.0
#: search_certificate entry bounds: found pairs, and pairs with no certificate.
FOUND_BOUND = 3
NONE_BOUND = 5


class OpTimeout(Exception):
    """Raised in the main thread when an operation overruns its limit."""


def _alarm(signum, frame):
    raise OpTimeout()


@contextlib.contextmanager
def deadline(seconds):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    """One operation: a timed call and a check of its result.

    ``check`` returns None when the result is right.  ``fault`` names a
    known program fault; ``is_fault`` tells whether a wrong result is
    that fault, which makes the failure expected.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    limit: float = LIBRARY_LIMIT_S
    fault: str | None = None
    is_fault: Callable[[Any], bool] | None = None


@dataclass
class Outcome:
    seconds: float
    error: str | None = None
    expected: bool = False


def execute(op, tracer=None):
    """Run one operation under its time limit and check the result.  With
    ``tracer``, the call is traced and the check is not."""
    try:
        with tracer or contextlib.nullcontext(), deadline(op.limit):
            start = perf_counter()
            result = op.call()
            seconds = perf_counter() - start
    except OpTimeout:
        return Outcome(op.limit, f"overran its {op.limit:g} s limit")
    except Exception as exc:  # any exception is a failed operation
        return Outcome(perf_counter() - start, f"raised {type(exc).__name__}: {exc}")
    try:
        error = op.check(result)
    except Exception as exc:  # a result the check cannot read is wrong
        error = f"unreadable result: {type(exc).__name__}: {exc}"
    if error is None:
        return Outcome(seconds)
    expected = op.is_fault is not None and op.is_fault(result)
    if expected:
        error = f"{op.fault}: {error}"
    return Outcome(seconds, error, expected)


def _pkg():
    # Looked up at call time, so traced rebinding of the package's names applies.
    return sys.modules["causalcurves"]


def _mp(P):
    return _pkg().MatrixParabola(P.A, P.B, P.C)


# ---------------------------------------------------------------- membership


def _membership_op(name, P, n, expected, fault=None, is_fault=None):
    def call():
        return _pkg().is_characteristic(_mp(P), n)

    def check(result):
        ok, sig = result
        return checks.verdict_error(expected, ok, None if sig is None else sig.as_tuple())

    return Op(f"membership.{name}.m{P.m}", call, check, fault=fault, is_fault=is_fault)


def _member(rng, m, k):
    r = inputs.pick_r(rng, m, k)
    n = m + r + 2 + int(rng.integers(0, 3))
    return inputs.frame(rng, m, r, k).parabola(), n, (True, (n, m, r, k))


def _killed(rng, m):
    """a'' kills an eigenvector of a' with eigenvalue t != 0: Q(-1/t) is singular."""
    f = inputs.frame(rng, m, inputs.pick_r(rng, m))
    cols = f.cols.copy()
    cols[:, int(rng.choice(np.flatnonzero(f.t)))] = 0.0
    return inputs.Frame(f.W, f.t, cols, f.L).parabola()


def membership_ops(seed):
    """Three inputs per order of each kind: members (k = 0, k > 0,
    elliptic) and non-members (indefinite A, too few dimensions, a killed
    eigenvector), followed by the fixed corpus."""
    rng = np.random.default_rng(seed)
    ops = []
    for m in ORDERS:
        for _ in range(3):
            P, n, want = _member(rng, m, 0)
            ops.append(_membership_op("member.k0", P, n, want))
        for _ in range(3):
            P, n, want = _member(rng, m, int(rng.integers(1, m)) if m > 1 else 0)
            ops.append(_membership_op(f"member.k{'+' if m > 1 else '0'}", P, n, want))
        for _ in range(3):
            n = m + 2 + int(rng.integers(0, 2))
            ops.append(_membership_op("member.elliptic", inputs.elliptic(rng, m), n, (True, (n, m, 0, m))))
        for _ in range(3):
            f = inputs.frame(rng, m, inputs.pick_r(rng, m))
            d = rng.uniform(0.5, 2.0, m)
            d[int(rng.integers(m))] *= -1.0
            P = f.parabola(A_override=f.L.T @ np.diag(d) @ f.L)
            ops.append(_membership_op("nonmember.indefinite_A", P, m + f.r + 2, (False, None)))
        for _ in range(3):
            f = inputs.frame(rng, m, inputs.pick_r(rng, m))
            ops.append(_membership_op("nonmember.too_few_dims", f.parabola(), m + f.r + 1, (False, None)))
        # At m >= 5 the program misses the singular point on some draws,
        # so those orders come from the fixed corpus.
        if m <= 3:
            for _ in range(3):
                ops.append(_membership_op("nonmember.killed", _killed(rng, m), 2 * m + 2, (False, None)))
    return ops + fixed_membership_ops()


def _odd_det_degree(P):
    """Whether the package's det_poly returns an odd degree for P."""
    coeffs = sys.modules["causalcurves.symmat"].det_poly(P.A, P.B, P.C)
    return (len(coeffs) - 1) % 2 == 1


def fixed_membership_ops(seed=FIXED_SEED):
    """Inputs that expose known faults, the same in every run.

    * Members reparametrized by s -> alpha s + beta, alpha in [0.1, 10]
      log-uniform and beta in [-10, 10]: det_poly interpolates at the
      integer nodes -m..m and trims relative to the largest coefficient,
      so det Q can come back with odd degree and the member is rejected.
    * Killed-eigenvector non-members at m = 5 and 8: the critical point
      of det Q at -1/t is not located closely enough, and the singular
      Q(-1/t) is missed.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for m in ORDERS:
        for _ in range(12):
            k = int(rng.integers(0, m))
            P, n, want = _member(rng, m, k)
            alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            beta = float(rng.uniform(-10.0, 10.0))
            Q = inputs.reparametrize(P, alpha, beta)
            ops.append(
                _membership_op(
                    "member.reparametrized", Q, n, want, "det_poly gauge fault",
                    lambda result, Q=Q: not result[0] and _odd_det_degree(Q),
                )
            )
        if m >= 5:
            for _ in range(3):
                ops.append(
                    _membership_op(
                        "nonmember.killed", _killed(rng, m), 2 * m + 2, (False, None),
                        "singular point missed", lambda result: bool(result[0]),
                    )
                )
    return ops


# ---------------------------------------------------------------- equivalence


def _equivalence_op(name, P1, P2, expected):
    def call():
        return _pkg().almost_equivalent(_mp(P1), _mp(P2))

    def check(result):
        cert = result.certificate
        cert = None if cert is None else (cert.X, cert.alpha, cert.beta)
        return checks.almost_error(expected, P1, P2, result.verdict, cert)

    return Op(f"equivalence.{name}.m{P1.m}", call, check)


def _search_op(name, P1, P2, bound, expected_found):
    def call():
        return _pkg().search_certificate(_mp(P1), _mp(P2), bound)

    def check(cert):
        cert = None if cert is None else (cert.X, cert.alpha, cert.beta)
        return checks.search_error(expected_found, P1, P2, bound, cert)

    return Op(f"equivalence.{name}.m{P1.m}", call, check)


def _affine(rng):
    """alpha log-uniform in [0.5, 2], beta uniform in [-1, 1]."""
    return float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))), float(rng.uniform(-1.0, 1.0))


def yes_pair(rng, m, k=0):
    P2 = inputs.frame(rng, m, inputs.pick_r(rng, m, k), k).parabola()
    return inputs.apply(P2, Certificate(inputs.real_invertible(rng, m), *_affine(rng))), P2


def no_pair(rng, m, same_signature):
    """Signatures differ, or (m >= 3) canonical spectra of C^-1 B differ by > 0.05."""
    if same_signature:
        r = inputs.pick_r(rng, m)
        while True:
            P1 = inputs.frame(rng, m, r).parabola()
            P2 = inputs.frame(rng, m, r).parabola()
            gap = np.max(np.abs(inputs.canonical_spectrum(P1) - inputs.canonical_spectrum(P2)))
            if gap > 0.05:
                return P1, P2
    if m == 1:
        return inputs.frame(rng, 1, 1).parabola(), inputs.elliptic(rng, 1)
    r1 = inputs.pick_r(rng, m)
    return inputs.frame(rng, m, r1).parabola(), inputs.frame(rng, m, r1 % m + 1).parabola()


def found_pair(rng, m):
    P2 = inputs.frame(rng, m, inputs.pick_r(rng, m)).parabola()
    cert = Certificate(inputs.unimodular(rng, m, FOUND_BOUND - 1), *_affine(rng))
    return inputs.apply(P2, cert), P2


def none_pair(rng, m):
    """c Q1 with c in {2, 3} and Q1 related to Q2: min_s det Q is invariant
    under unimodular certificates and scales by c^m, so none exists."""
    P1, P2 = found_pair(rng, m)
    c = float(rng.choice([2.0, 3.0]))
    return Parabola(c * P1.A, c * P1.B, c * P1.C), P2


def equivalence_ops(seed):
    """Twenty operations per order.  m >= 3: fifteen "yes" pairs (seven
    with k = 1), two "no" pairs by signature and three by spectrum.
    m <= 2: ten "yes" pairs (five with k = 1 at m = 2), four "no" pairs by
    signature, and six integer certificate searches, four of which find
    one."""
    rng = np.random.default_rng(seed)
    ops = []
    for m in ORDERS:
        yes_k1 = {1: 0, 2: 5}.get(m, 7)
        n_yes = 15 if m >= 3 else 10
        for i in range(n_yes):
            k = 1 if i < yes_k1 else 0
            ops.append(_equivalence_op(f"yes.k{k}", *yes_pair(rng, m, k), "yes"))
        for same in (False, False, True, True, True) if m >= 3 else (False,) * 4:
            label = "no.spectrum" if same else "no.signature"
            ops.append(_equivalence_op(label, *no_pair(rng, m, same), "no"))
        if m <= 2:
            for _ in range(4):
                ops.append(_search_op("search.found", *found_pair(rng, m), FOUND_BOUND, True))
            for _ in range(2):
                ops.append(_search_op("search.none", *none_pair(rng, m), NONE_BOUND, False))
    return ops


# ---------------------------------------------------------------- cli


@dataclass
class CliResult:
    code: int
    stdout: str
    maxrss_kb: int = 0


def _python_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_process(argv, stdin_text, root):
    """One process, fed ``stdin_text``; returns its exit code, stdout and
    peak RSS.  The child is killed if the enclosing deadline fires."""
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=_python_env(root),
        cwd=root,
    )
    try:
        proc.stdin.write((stdin_text or "").encode())
        proc.stdin.close()
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        if not proc.stdin.closed:
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, out.decode(), usage.ru_maxrss)


def cli_process(root):
    """Runner that starts ``python -m causalcurves.cli`` for each call."""

    def run(args, stdin_text):
        return run_process([sys.executable, "-m", "causalcurves.cli", *args], stdin_text, root)

    return run


def cli_in_process(args, stdin_text):
    """Runner that calls ``cli.main`` in this process on a substituted stdin."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = importlib.import_module("causalcurves.cli").main(list(args))
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue())


class Pipe:
    """Carries one stage's stdout into the next stage's stdin."""

    def __init__(self):
        self.text = None


def _cli_op(name, args, runner, check, payload=None, pipe=None, piped=False):
    """``pipe`` receives this stage's stdout; ``piped`` stages read it."""

    def call():
        result = runner(args, pipe.text if piped else payload)
        if pipe is not None:
            pipe.text = result.stdout
        return result

    def checked(result):
        if result.code != 0:
            return f"exit code {result.code}: {result.stdout.strip()[:200]}"
        return check(checks.envelope(result.stdout))

    return Op(f"cli.{name}", call, checked, limit=CLI_LIMIT_S)


def cli_ops(seed, runner):
    """Chains example -> charpoly -> realize -> signature for three (t, r),
    then validate-parabola, compare and search-cert on seeded payloads."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(3):
        t, r = (float(v) for v in rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2))
        a1, a2, L = [[0.0, 0.0], [0.0, 1.0]], [[t, r]], np.eye(2)
        want = inputs.frame_parabola(a1, a2, L)
        pipe = Pipe()

        def manifold_error(res, a1=a1, a2=a2):
            same = res["n"] == 5 and all(
                np.allclose(res[key], value, rtol=1e-11, atol=0.0)
                for key, value in (("a_prime", a1), ("a_dblprime", a2), ("lattice", L))
            )
            return None if same else f"example data {res} differs from the construction"

        def realized_error(res, want=want):
            if res["n"] != 5:
                return f"realized n={res['n']} instead of 5"
            got = inputs.frame_parabola(res["a_prime"], res["a_dblprime"], res["lattice"])
            return checks.parabola_error(want, got, checks.CLI_RTOL)

        def signature_error(res):
            sig = checks.as_signature(res)
            return None if sig == (5, 2, 1, 0) else f"signature {sig} instead of (5, 2, 1, 0)"

        ops += [
            _cli_op("example", ["example", "--name", "dim5", "--t", repr(t), "--r", repr(r)],
                    runner, manifold_error, pipe=pipe),
            _cli_op("charpoly", ["charpoly"], runner,
                    lambda res, want=want: checks.parabola_error(want, checks.as_parabola(res), checks.CLI_RTOL),
                    pipe=pipe, piped=True),
            _cli_op("realize", ["realize", "--n", "5"], runner, realized_error, pipe=pipe, piped=True),
            _cli_op("signature", ["signature"], runner, signature_error, pipe=pipe, piped=True),
        ]
    members = [_member(rng, 2, 0), _member(rng, 3, 1)]
    f = inputs.frame(rng, 3, inputs.pick_r(rng, 3))
    nonmembers = [(_killed(rng, 2), 6), (f.parabola(), 3 + f.r + 1)]
    cases = [(P, n, want) for P, n, want in members] + [(P, n, (False, None)) for P, n in nonmembers]
    for P, n, want in cases:
        ops.append(
            _cli_op(
                "validate-parabola", ["validate-parabola", "--n", str(n)], runner,
                lambda res, want=want: checks.verdict_error(
                    want, res["characteristic"], checks.as_signature(res["signature"])),
                payload=json.dumps(P.as_dict()),
            )
        )
    pairs = [(yes_pair(rng, 2), "yes"), (yes_pair(rng, 3, 1), "yes"),
             (no_pair(rng, 2, False), "no"), (no_pair(rng, 3, True), "no")]
    for (P1, P2), want in pairs:
        ops.append(
            _cli_op(
                "compare", ["compare"], runner,
                lambda res, P1=P1, P2=P2, want=want: checks.almost_error(
                    want, P1, P2, res["verdict"], checks.as_certificate(res["certificate"])),
                payload=json.dumps({"P1": P1.as_dict(), "P2": P2.as_dict()}),
            )
        )
    for m in (1, 2):
        P1, P2 = found_pair(rng, m)
        ops.append(
            _cli_op(
                "search-cert", ["search-cert", "--bound", str(FOUND_BOUND)], runner,
                lambda res, P1=P1, P2=P2: checks.search_error(
                    True, P1, P2, FOUND_BOUND, checks.as_certificate(res["certificate"])),
                payload=json.dumps({"P1": P1.as_dict(), "P2": P2.as_dict()}),
            )
        )
    return ops
