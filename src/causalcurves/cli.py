"""JSON-in / JSON-out command line front end.

Every subcommand reads one JSON payload (from --input or stdin, except
``example`` which takes flags only) and writes a response envelope

    {"ok": true,  "error": null, "result": ...}
    {"ok": false, "error": {"code": ..., "message": ...}, "result": null}

to stdout.  Exit codes: 0 on success, 1 on a domain error (the code
field names the exception class), 2 on malformed input or flags.
Floats are emitted with 12 significant digits, keys sorted, so output
is deterministic and feeding a result back in re-emits it byte for
byte.  A full envelope is accepted wherever a payload is expected (its
``result`` field is unwrapped), which makes subcommands pipeable:

    causalcurves example --name dim4 | causalcurves charpoly
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import classify, construction
from .charpoly import MatrixParabola, char_polynomial, is_characteristic, reduce_degenerate
from .classify import EquivalenceCertificate
from .errors import CausalCurvesError
from .symmat import DEFAULT_TOL

MALFORMED_EXIT = 2
DOMAIN_EXIT = 1


class _MalformedInput(Exception):
    """Bad payload shape, unreadable JSON, or non-finite numbers."""


def _round_sig(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonify(obj):
    """Recursively convert to JSON-ready types, rounding floats."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_sig(float(obj))
    return obj


def _emit(payload, pretty=False):
    indent = 2 if pretty else None
    print(json.dumps(_jsonify(payload), sort_keys=True, indent=indent))


def _reject_constant(name):
    raise _MalformedInput(f"non-finite number {name!r} in input")


def _load_payload(args):
    if getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise _MalformedInput(f"cannot read {args.input}: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise _MalformedInput(f"invalid JSON: {exc}") from exc
    # Unwrap a piped response envelope.
    if isinstance(payload, dict) and "ok" in payload and "result" in payload:
        payload = payload["result"]
    if payload is None:
        raise _MalformedInput("payload is null")
    return payload


def _matrix(payload, key, rows=None, cols=None, allow_empty=False):
    if key not in payload:
        raise _MalformedInput(f"missing field {key!r}")
    raw = payload[key]
    if not isinstance(raw, list):
        raise _MalformedInput(f"field {key!r} must be a list of rows")
    if not raw:
        if allow_empty:
            return np.zeros((0, cols if cols else 0))
        raise _MalformedInput(f"field {key!r} must not be empty")
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _MalformedInput(f"field {key!r} is not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise _MalformedInput(f"field {key!r} must be two-dimensional")
    if not np.all(np.isfinite(arr)):
        raise _MalformedInput(f"field {key!r} contains non-finite entries")
    if rows is not None and arr.shape[0] != rows:
        raise _MalformedInput(f"field {key!r} must have {rows} rows")
    if cols is not None and arr.shape[1] != cols:
        raise _MalformedInput(f"field {key!r} must have {cols} columns")
    return arr


def _number(payload, key):
    if key not in payload:
        raise _MalformedInput(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _MalformedInput(f"field {key!r} must be a number")
    if not math.isfinite(value):
        raise _MalformedInput(f"field {key!r} is not finite")
    return float(value)


def _require_dict(payload, what="payload"):
    if not isinstance(payload, dict):
        raise _MalformedInput(f"{what} must be a JSON object")
    return payload


def _parse_manifold(payload, tol):
    payload = _require_dict(payload, "manifold payload")
    if not isinstance(payload.get("n"), int) or isinstance(payload["n"], bool):
        raise _MalformedInput("field 'n' must be an integer")
    a_prime = _matrix(payload, "a_prime")
    m = a_prime.shape[1]
    a_dbl = _matrix(payload, "a_dblprime", cols=m, allow_empty=True)
    lattice = _matrix(payload, "lattice", rows=m, cols=m)
    return construction.build(payload["n"], a_prime, a_dbl, lattice, tol)


def _parse_parabola(payload):
    payload = _require_dict(payload, "parabola payload")
    A = _matrix(payload, "A")
    m = A.shape[0]
    B = _matrix(payload, "B", rows=m, cols=m)
    C = _matrix(payload, "C", rows=m, cols=m)
    return MatrixParabola(A, B, C)


def _parse_certificate(payload):
    payload = _require_dict(payload, "certificate payload")
    X = _matrix(payload, "X")
    alpha = _number(payload, "alpha")
    beta = _number(payload, "beta")
    return EquivalenceCertificate(X, alpha, beta)


def _manifold_dict(M):
    return {
        "n": M.n,
        "a_prime": M.a_prime,
        "a_dblprime": M.a_dblprime,
        "lattice": M.lattice,
    }


def _parabola_dict(P):
    return {"A": P.A, "B": P.B, "C": P.C}


def _signature_dict(sig):
    if sig is None:
        return None
    return {"n": sig.n, "m": sig.m, "r": sig.r, "k": sig.k}


def _certificate_dict(cert):
    if cert is None:
        return None
    X = cert.X
    if cert.integral:
        X = np.round(X).astype(int)
    return {"X": X, "alpha": cert.alpha, "beta": cert.beta, "integral": cert.integral}


def _cmd_example(args):
    if args.name == "dim4":
        M = construction.example_4d()
    else:
        M = construction.example_5d(args.t, args.r)
    return _manifold_dict(M)


def _cmd_validate_manifold(args):
    M = _parse_manifold(_load_payload(args), args.tol)
    sig = construction.signature_of(M, args.tol)
    return {
        "valid": True,
        "signature": _signature_dict(sig),
        "elliptic": M.elliptic,
        "free": construction.check_free(M),
        "euclidean_factor_dim": construction.euclidean_factor_dim(M),
    }


def _cmd_charpoly(args):
    M = _parse_manifold(_load_payload(args), args.tol)
    return _parabola_dict(char_polynomial(M))


def _cmd_signature(args):
    M = _parse_manifold(_load_payload(args), args.tol)
    return _signature_dict(construction.signature_of(M, args.tol))


def _cmd_simple_form(args):
    M = _parse_manifold(_load_payload(args), args.tol)
    form = classify.simple_spectrum_form(M, args.tol)
    return {"eigenvalues": form.eigenvalues, "gram": form.gram}


def _cmd_validate_parabola(args):
    P = _parse_parabola(_load_payload(args))
    ok, sig = verdict = is_characteristic(P, args.n, args.tol)
    analysis = verdict.analysis
    # The Schur condition needs A positive definite; it is null otherwise.
    schur = analysis.schur if analysis.inv_root is not None else None
    return {
        "characteristic": ok,
        "signature": _signature_dict(sig),
        "poabc": analysis.positive,
        "schur_psd": None if schur is None else schur.psd,
        "schur_rank": None if schur is None else schur.rank,
    }


def _cmd_realize(args):
    P = _parse_parabola(_load_payload(args))
    return _manifold_dict(classify.realize(P, args.n, args.tol))


def _cmd_reduce(args):
    P = _parse_parabola(_load_payload(args))
    red = reduce_degenerate(P, args.tol)
    return {
        "k": red.constant_block.shape[0],
        "X": red.X,
        "constant_block": red.constant_block,
        "reduced": _parabola_dict(red.reduced),
    }


def _cmd_invariants(args):
    P = _parse_parabola(_load_payload(args))
    spectrum = classify.affine_spectrum(P, args.tol)
    return {"values": spectrum.values, "degenerate": spectrum.degenerate}


def _parse_pair(payload):
    payload = _require_dict(payload)
    if "P1" not in payload or "P2" not in payload:
        raise _MalformedInput("payload must carry fields 'P1' and 'P2'")
    return _parse_parabola(payload["P1"]), _parse_parabola(payload["P2"])


def _cmd_compare(args):
    P1, P2 = _parse_pair(_load_payload(args))
    verdict = classify.almost_equivalent(P1, P2, args.tol, args.n)
    return {
        "verdict": verdict.verdict,
        "reason": verdict.reason,
        "certificate": _certificate_dict(verdict.certificate),
    }


def _cmd_certify(args):
    payload = _require_dict(_load_payload(args))
    P1, P2 = _parse_pair(payload)
    if "certificate" not in payload:
        raise _MalformedInput("payload must carry field 'certificate'")
    cert = _parse_certificate(payload["certificate"])
    return {
        "equivalent": classify.verify_equivalence(P1, P2, cert, args.tol, args.n)
    }


def _cmd_search_cert(args):
    P1, P2 = _parse_pair(_load_payload(args))
    cert = classify.search_certificate(P1, P2, args.bound, args.tol)
    return {"found": cert is not None, "certificate": _certificate_dict(cert)}


_COMMANDS = {
    "example": _cmd_example,
    "validate-manifold": _cmd_validate_manifold,
    "charpoly": _cmd_charpoly,
    "validate-parabola": _cmd_validate_parabola,
    "realize": _cmd_realize,
    "reduce": _cmd_reduce,
    "signature": _cmd_signature,
    "invariants": _cmd_invariants,
    "simple-form": _cmd_simple_form,
    "compare": _cmd_compare,
    "certify": _cmd_certify,
    "search-cert": _cmd_search_cert,
}


def _tolerance(text):
    """argparse type of --tol: a finite, nonnegative float (NaN fails
    the comparison)."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text!r}")
    return value


def _add_io_flags(sub):
    sub.add_argument("--input", help="read the JSON payload from PATH instead of stdin")
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="relative tolerance (default %(default)g)")
    sub.add_argument("--pretty", action="store_true", help="indent the JSON output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="causalcurves",
        description="Characteristic parabolas of flat causal Lorentzian "
        "manifolds with unipotent holonomy: validation, extraction, "
        "reconstruction and equivalence testing over JSON.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("example", help="emit one of the built-in manifolds")
    sub.add_argument("--name", choices=["dim4", "dim5"], required=True)
    sub.add_argument("--t", type=float, default=1.0, help="dim5 parameter t (nonzero)")
    sub.add_argument("--r", type=float, default=1.0, help="dim5 parameter r (nonzero)")
    sub.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    sub.add_argument("--pretty", action="store_true")

    for name, help_text in [
        ("validate-manifold", "validate manifold data and report its signature"),
        ("charpoly", "extract the characteristic parabola of manifold data"),
        ("signature", "signature (n, m, r, k) of manifold data"),
        ("simple-form", "simple-spectrum normal form of manifold data"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_io_flags(sub)

    for name, help_text in [
        ("validate-parabola", "membership test for characteristic parabolas"),
        ("realize", "reconstruct manifold data from a valid parabola"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--n", type=int, required=True, help="ambient dimension")
        _add_io_flags(sub)

    sub = subs.add_parser("reduce", help="split off the s-independent block")
    _add_io_flags(sub)

    sub = subs.add_parser("invariants", help="affine spectrum of a parabola")
    _add_io_flags(sub)

    sub = subs.add_parser("compare", help="almost-equivalence verdict for two parabolas")
    sub.add_argument("--n", type=int, default=None, help="common ambient dimension")
    _add_io_flags(sub)

    sub = subs.add_parser("certify", help="verify an equivalence certificate")
    sub.add_argument("--n", type=int, default=None, help="common ambient dimension")
    _add_io_flags(sub)

    sub = subs.add_parser("search-cert", help="exhaustive integer certificate search (m <= 2)")
    sub.add_argument("--bound", type=int, default=3, help="entry bound for X (1..5)")
    _add_io_flags(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = _COMMANDS[args.command](args)
    except _MalformedInput as exc:
        _emit(
            {"ok": False, "error": {"code": "MalformedInput", "message": str(exc)}, "result": None},
            args.pretty,
        )
        return MALFORMED_EXIT
    except CausalCurvesError as exc:
        _emit(
            {
                "ok": False,
                "error": {"code": type(exc).__name__, "message": str(exc)},
                "result": None,
            },
            args.pretty,
        )
        return DOMAIN_EXIT
    _emit({"ok": True, "error": None, "result": result}, args.pretty)
    return 0


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
