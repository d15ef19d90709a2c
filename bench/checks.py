"""Checks of the program's answers, made with numpy alone.

Each check returns None when the answer is right and a short reason
when it is wrong.  Expected values come from the construction in
``inputs``; nothing here calls the package.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import Certificate, Parabola, apply

#: Relative tolerance of a certificate check, against 1 + max|Q1 entry|.
CERT_RTOL = 1e-6
#: Relative tolerance for CLI coefficients, which are printed to 12 digits.
CLI_RTOL = 1e-8


def _scale(P):
    return 1.0 + max(np.max(np.abs(P.A)), np.max(np.abs(P.B)), np.max(np.abs(P.C)))


def parabola_error(expected, got, rtol):
    """Coefficient-wise distance of ``got`` from ``expected``."""
    if got.A.shape != expected.A.shape:
        return f"order {got.m} instead of {expected.m}"
    gap = max(
        np.max(np.abs(got.A - expected.A)),
        np.max(np.abs(got.B - expected.B)),
        np.max(np.abs(got.C - expected.C)),
    )
    if not gap <= rtol * _scale(expected):
        return f"coefficients off by {gap:.3e}"
    return None


def verdict_error(expected, ok, signature):
    """``expected`` is (verdict, (n, m, r, k) or None)."""
    want_ok, want_sig = expected
    if bool(ok) != want_ok:
        return f"verdict {bool(ok)} instead of {want_ok}"
    if signature != want_sig:
        return f"signature {signature} instead of {want_sig}"
    return None


def certificate_error(P1, P2, X, alpha, beta, rtol=CERT_RTOL):
    """Whether X^T Q2(alpha s + beta) X equals Q1 at ``rtol``."""
    X = np.asarray(X, dtype=float)
    if X.shape != P1.A.shape:
        return f"certificate X has shape {X.shape}"
    if not (np.isfinite(alpha) and alpha > 0.0 and np.isfinite(beta)):
        return f"alpha={alpha}, beta={beta} is not an orientation-preserving map"
    err = parabola_error(P1, apply(P2, Certificate(X, alpha, beta)), rtol)
    return None if err is None else f"certificate fails: {err}"


def integral_certificate_error(P1, P2, X, alpha, beta, bound, rtol=CERT_RTOL):
    """A found integer certificate: integral, unimodular, within bound."""
    X = np.asarray(X, dtype=float)
    rounded = np.round(X)
    if np.max(np.abs(X - rounded)) > 1e-9:
        return "certificate X is not integral"
    if round(abs(np.linalg.det(rounded))) != 1:
        return "certificate X is not unimodular"
    if np.max(np.abs(rounded)) > bound:
        return f"certificate X has an entry beyond {bound}"
    return certificate_error(P1, P2, rounded, alpha, beta, rtol)


def almost_error(expected, P1, P2, verdict, certificate):
    """``expected`` is "yes" (any verified certificate) or "no"."""
    if verdict != expected:
        return f"verdict {verdict!r} instead of {expected!r}"
    if expected == "yes":
        if certificate is None:
            return "yes without a certificate"
        X, alpha, beta = certificate
        return certificate_error(P1, P2, X, alpha, beta)
    return None


def search_error(expected_found, P1, P2, bound, certificate):
    if certificate is None:
        return "no certificate found" if expected_found else None
    if not expected_found:
        return "found a certificate where none can exist"
    X, alpha, beta = certificate
    return integral_certificate_error(P1, P2, X, alpha, beta, bound)


def envelope(stdout):
    """The ``result`` of a successful CLI envelope, or raise ValueError."""
    body = json.loads(stdout)
    if body.get("ok") is not True:
        raise ValueError(f"error envelope {body.get('error')}")
    return body["result"]


def as_parabola(result):
    return Parabola(*(np.array(result[key], dtype=float) for key in "ABC"))


def as_signature(result):
    if result is None:
        return None
    return (result["n"], result["m"], result["r"], result["k"])


def as_certificate(result):
    if result is None:
        return None
    return result["X"], result["alpha"], result["beta"]
