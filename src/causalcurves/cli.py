"""JSON-in / JSON-out command line front end.

Every subcommand except ``example`` reads one JSON payload (from
--input or stdin) and writes a response envelope

    {"ok": true,  "error": null, "result": ...}
    {"ok": false, "error": {"code": ..., "message": ...}, "result": null}

to stdout.  Exit codes: 0 on success, 1 on a domain error (the code
field names the exception class), 2 on malformed input or flags.
Floats are emitted with 12 significant digits, keys sorted, so output
is deterministic and feeding a result back in re-emits it byte for
byte.  A full envelope is accepted wherever a payload is expected (its
``result`` field is unwrapped), which makes subcommands pipeable:

    causalcurves example --name dim4 | causalcurves charpoly

Each subcommand is declared once, in ``_COMMANDS``: a payload reader,
a handler, a help text and its own flags.  The parser, the payload
read and the envelope are written once for all of them.  A process
builds only the parser of the subcommand it runs, and its reader and
handler import the library modules they call when they run, so
``example`` never loads ``charpoly`` and no subcommand but the
equivalence ones, ``realize``, ``invariants`` and ``simple-form`` loads
``classify``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import CausalCurvesError
from .symmat import DEFAULT_TOL

MALFORMED_EXIT = 2
DOMAIN_EXIT = 1


class MalformedInput(Exception):
    """Bad payload shape, unreadable or undecodable input, invalid JSON,
    or non-finite numbers."""


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
    print(json.dumps(_jsonify(payload), sort_keys=True, indent=2 if pretty else None))


def _reject_constant(name):
    raise MalformedInput(f"non-finite number {name!r} in input")


def _load_payload(path):
    """The JSON payload in the file at ``path``, or on stdin if it is
    None; every way the text can fail to be JSON is malformed input."""
    try:
        if path:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"cannot decode input: {exc}") from exc
    except OSError as exc:
        raise MalformedInput(f"cannot read {path or 'stdin'}: {exc}") from exc
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nesting level.
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    # Unwrap a piped response envelope.
    if isinstance(payload, dict) and "ok" in payload and "result" in payload:
        payload = payload["result"]
    if payload is None:
        raise MalformedInput("payload is null")
    return payload


def _matrix(payload, key, rows=None, cols=None, allow_empty=False):
    if key not in payload:
        raise MalformedInput(f"missing field {key!r}")
    raw = payload[key]
    if not isinstance(raw, list):
        raise MalformedInput(f"field {key!r} must be a list of rows")
    if not raw:
        if allow_empty:
            return np.zeros((0, cols if cols else 0))
        raise MalformedInput(f"field {key!r} must not be empty")
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"field {key!r} is not a numeric matrix: {exc}") from exc
    if arr.ndim != 2:
        raise MalformedInput(f"field {key!r} must be two-dimensional")
    if not np.all(np.isfinite(arr)):
        raise MalformedInput(f"field {key!r} contains non-finite entries")
    if rows is not None and arr.shape[0] != rows:
        raise MalformedInput(f"field {key!r} must have {rows} rows")
    if cols is not None and arr.shape[1] != cols:
        raise MalformedInput(f"field {key!r} must have {cols} columns")
    return arr


def _number(payload, key):
    if key not in payload:
        raise MalformedInput(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise MalformedInput(f"field {key!r} must be a number")
    if not math.isfinite(value):
        raise MalformedInput(f"field {key!r} is not finite")
    return float(value)


def _require_dict(payload, what="payload"):
    if not isinstance(payload, dict):
        raise MalformedInput(f"{what} must be a JSON object")
    return payload


# Payload readers: (JSON payload, tol) -> the handler's input.  Only
# manifold data is validated against the tolerance.  Readers and
# handlers import the library modules they call when they run, and call
# them through module attributes at call time, so a rebound library
# function (a tracer, a test double) is the one that runs.


def _parse_manifold(payload, tol):
    payload = _require_dict(payload, "manifold payload")
    if not isinstance(payload.get("n"), int) or isinstance(payload["n"], bool):
        raise MalformedInput("field 'n' must be an integer")
    a_prime = _matrix(payload, "a_prime")
    m = a_prime.shape[1]
    a_dbl = _matrix(payload, "a_dblprime", cols=m, allow_empty=True)
    lattice = _matrix(payload, "lattice", rows=m, cols=m)
    from . import construction

    return construction.build(payload["n"], a_prime, a_dbl, lattice, tol)


def _parse_parabola(payload, tol=None):
    payload = _require_dict(payload, "parabola payload")
    A = _matrix(payload, "A")
    m = A.shape[0]
    B = _matrix(payload, "B", rows=m, cols=m)
    C = _matrix(payload, "C", rows=m, cols=m)
    from . import charpoly

    return charpoly.MatrixParabola(A, B, C)


def _parse_pair(payload, tol=None):
    payload = _require_dict(payload)
    if "P1" not in payload or "P2" not in payload:
        raise MalformedInput("payload must carry fields 'P1' and 'P2'")
    return _parse_parabola(payload["P1"]), _parse_parabola(payload["P2"])


def _parse_certified_pair(payload, tol=None):
    P1, P2 = _parse_pair(payload)
    if "certificate" not in payload:
        raise MalformedInput("payload must carry field 'certificate'")
    cert = _require_dict(payload["certificate"], "certificate payload")
    from . import classify

    return P1, P2, classify.EquivalenceCertificate(
        _matrix(cert, "X"), _number(cert, "alpha"), _number(cert, "beta")
    )


def _manifold_dict(M):
    return {"n": M.n, "a_prime": M.a_prime, "a_dblprime": M.a_dblprime, "lattice": M.lattice}


def _parabola_dict(P):
    return {"A": P.A, "B": P.B, "C": P.C}


def _signature_dict(sig):
    return None if sig is None else {"n": sig.n, "m": sig.m, "r": sig.r, "k": sig.k}


def _certificate_dict(cert):
    if cert is None:
        return None
    X = np.round(cert.X).astype(int) if cert.integral else cert.X
    return {"X": X, "alpha": cert.alpha, "beta": cert.beta, "integral": cert.integral}


# Handlers: (the reader's output, parsed flags) -> result.


def _cmd_example(_, args):
    from . import construction

    if args.name == "dim4":
        return _manifold_dict(construction.example_4d())
    return _manifold_dict(construction.example_5d(args.t, args.r))


def _cmd_validate_manifold(M, args):
    from . import construction

    return {
        "valid": True,
        "signature": _signature_dict(construction.signature_of(M, args.tol)),
        "elliptic": M.elliptic,
        "free": True,  # build has just passed the same freeness test on M
        "euclidean_factor_dim": construction.euclidean_factor_dim(M),
    }


def _cmd_charpoly(M, args):
    from . import charpoly

    return _parabola_dict(charpoly.char_polynomial(M))


def _cmd_signature(M, args):
    from . import construction

    return _signature_dict(construction.signature_of(M, args.tol))


def _cmd_simple_form(M, args):
    from . import classify

    form = classify.simple_spectrum_form(M, args.tol)
    return {"eigenvalues": form.eigenvalues, "gram": form.gram}


def _cmd_validate_parabola(P, args):
    from . import charpoly

    ok, sig = verdict = charpoly.is_characteristic(P, args.n, args.tol)
    analysis = verdict.analysis
    # The Schur condition needs A positive definite, and a positive Q(s)
    # has A = Q(0) definite: its inertia is then that of the C-gauge's H.
    # Where no C-gauge decides, D is formed from the frame Z^T A Z = I;
    # it is null where that frame does not exist.
    inertia = analysis.inertia if analysis.positive else None
    if inertia is None and analysis.a_frame is not None:
        schur = charpoly._schur(analysis)
        inertia = schur.psd, schur.rank
    psd, rank = inertia or (None, None)
    return {
        "characteristic": ok,
        "signature": _signature_dict(sig),
        "poabc": analysis.positive,
        "schur_psd": psd,
        "schur_rank": rank,
    }


def _cmd_reduce(P, args):
    from . import charpoly

    red = charpoly.reduce_degenerate(P, args.tol)
    return {
        "k": red.constant_block.shape[0],
        "X": red.X,
        "constant_block": red.constant_block,
        "reduced": _parabola_dict(red.reduced),
    }


def _cmd_realize(P, args):
    from . import classify

    return _manifold_dict(classify.realize(P, args.n, args.tol))


def _cmd_invariants(P, args):
    from . import classify

    spectrum = classify.affine_spectrum(P, args.tol)
    return {"values": spectrum.values, "degenerate": spectrum.degenerate}


def _cmd_compare(pair, args):
    from . import classify

    verdict = classify.almost_equivalent(*pair, args.tol, args.n)
    return {
        "verdict": verdict.verdict,
        "reason": verdict.reason,
        "certificate": _certificate_dict(verdict.certificate),
    }


def _cmd_certify(inputs, args):
    from . import classify

    return {"equivalent": classify.verify_equivalence(*inputs, args.tol, args.n)}


def _cmd_search_cert(pair, args):
    from . import classify

    cert = classify.search_certificate(*pair, args.bound, args.tol)
    return {"found": cert is not None, "certificate": _certificate_dict(cert)}


def _finite(text):
    """argparse type of --t and --r: a finite float (float reads 1e400
    as inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _tolerance(text):
    """argparse type of --tol: a finite, nonnegative float."""
    if (value := _finite(text)) < 0.0:
        raise argparse.ArgumentTypeError(f"must be a finite nonnegative number, got {text!r}")
    return value


class _Command(NamedTuple):
    read: Callable | None  # (payload, tol) -> input; None: no payload
    handle: Callable  # (input, args) -> result
    help: str
    flags: tuple = ()  # (flag, add_argument keywords) beyond --input/--tol/--pretty


_N = ("--n", {"type": int, "required": True, "help": "ambient dimension"})
_COMMON_N = ("--n", {"type": int, "default": None, "help": "common ambient dimension"})
_EXAMPLE_FLAGS = (
    ("--name", {"choices": ["dim4", "dim5"], "required": True}),
    ("--t", {"type": _finite, "default": 1.0, "help": "dim5 parameter t (nonzero)"}),
    ("--r", {"type": _finite, "default": 1.0, "help": "dim5 parameter r (nonzero)"}),
)
_BOUND = ("--bound", {"type": int, "default": 3, "help": "entry bound for X (1..5)"})

_COMMANDS = {
    "example": _Command(None, _cmd_example, "emit one of the built-in manifolds", _EXAMPLE_FLAGS),
    "validate-manifold": _Command(
        _parse_manifold, _cmd_validate_manifold, "validate manifold data and report its signature"),
    "charpoly": _Command(
        _parse_manifold, _cmd_charpoly, "extract the characteristic parabola of manifold data"),
    "signature": _Command(_parse_manifold, _cmd_signature, "signature (n, m, r, k) of manifold data"),
    "simple-form": _Command(
        _parse_manifold, _cmd_simple_form, "simple-spectrum normal form of manifold data"),
    "validate-parabola": _Command(
        _parse_parabola, _cmd_validate_parabola, "membership test for characteristic parabolas", (_N,)),
    "realize": _Command(
        _parse_parabola, _cmd_realize, "reconstruct manifold data from a valid parabola", (_N,)),
    "reduce": _Command(_parse_parabola, _cmd_reduce, "split off the s-independent block by X = [U | Y]"),
    "invariants": _Command(_parse_parabola, _cmd_invariants, "affine spectrum of a parabola"),
    "compare": _Command(
        _parse_pair, _cmd_compare, "almost-equivalence verdict for two parabolas", (_COMMON_N,)),
    "certify": _Command(
        _parse_certified_pair, _cmd_certify, "verify an equivalence certificate", (_COMMON_N,)),
    "search-cert": _Command(
        _parse_pair, _cmd_search_cert, "exhaustive integer certificate search (m <= 2)", (_BOUND,)),
}


def build_parser(commands=_COMMANDS):
    """The parser of ``commands``, by default every subcommand.  A parser
    of fewer commands still names all of them in its usage line, so its
    messages read as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="causalcurves",
        description="Characteristic parabolas of flat causal Lorentzian "
        "manifolds with unipotent holonomy: validation, extraction, "
        "reconstruction and equivalence testing over JSON.",
    )
    # A parser of one command lists all of them as its metavar, so its
    # usage line is the full parser's; the full parser leaves it to
    # argparse, which names the argument "command" in its errors.
    metavar = None if commands is _COMMANDS else "{" + ",".join(_COMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, command in commands.items():
        sub = subs.add_parser(name, help=command.help)
        for flag, options in command.flags:
            sub.add_argument(flag, **options)
        if command.read is not None:
            sub.add_argument("--input", help="read the JSON payload from PATH instead of stdin")
        sub.add_argument(
            "--tol", type=_tolerance, default=DEFAULT_TOL, help="relative tolerance (default %(default)g)")
        sub.add_argument("--pretty", action="store_true", help="indent the JSON output")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the invoked subcommand's parser is built; help and an unknown
    # command get the full parser.
    name = argv[0] if argv else None
    commands = {name: _COMMANDS[name]} if name in _COMMANDS else _COMMANDS
    try:
        args = build_parser(commands).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        data = None if command.read is None else command.read(_load_payload(args.input), args.tol)
        envelope, code = {"ok": True, "error": None, "result": command.handle(data, args)}, 0
    except (MalformedInput, CausalCurvesError) as exc:
        error = {"code": type(exc).__name__, "message": str(exc)}
        envelope = {"ok": False, "error": error, "result": None}
        code = MALFORMED_EXIT if isinstance(exc, MalformedInput) else DOMAIN_EXIT
    _emit(envelope, args.pretty)
    return code


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
