"""Command-line front end.

Subcommands, one pipeline each:

- ``charpoly``     trace, sigma, det, and the three real roots
- ``decompose``    orthogonal primitive idempotent decomposition
- ``diagonalize``  nested-conjugation diagonalization steps
- ``classify``     p-square class from det/sigma/trace thresholds
- ``oracle``       24x24 embedding spectrum and modified-equation report
- ``dirac``        rank-one factor of a null 2x2 momentum
- ``verify``       seeded batch property verification

Matrix input comes from ``--input PATH`` or ``--inline JSON``.  A 3x3
matrix is ``{"p": x, "m": x, "n": x, "a": [8], "b": [8], "c": [8]}``; a
2x2 momentum is ``{"s": x, "t": x, "z": [8]}``.  Output is ``--format
json`` (sorted keys, byte-deterministic) or ``text``.

Exit status: 0 success/PASS, 1 internal inconsistency (residuals over
tolerance, failed verification), 2 invalid input.

Examples::

    albert charpoly --inline '{"p":1,"m":2,"n":3,"a":[0]*8,...}'
    albert verify --seed 42 --count 1000 --format json
"""

from __future__ import annotations

import argparse
import json
import sys

# Only what every command shares is imported here; each handler imports the
# module it runs, so a cold start compiles no module its command does not use.
from .config import tolerances
from .exceptions import AlbertError, NonNullMomentumError
from .jordan import JordanMatrix
from .octonion import Octonion, format_octonion

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INVALID = 2

_MATRIX_COMMANDS = ("charpoly", "decompose", "diagonalize", "classify", "oracle")


class _InputError(Exception):
    """Invalid CLI input; maps to exit status 2."""


def _load_payload(args) -> dict:
    if bool(args.input) == bool(args.inline):
        raise _InputError("provide exactly one of --input PATH or --inline JSON")
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _InputError(f"cannot read {args.input}: {exc}") from exc
    else:
        text = args.inline
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict):
        raise _InputError("top-level JSON value must be an object")
    return payload


def _load(args, cls):
    """A JordanMatrix or Hermitian2 from the payload; malformed input is exit 2."""
    try:
        return cls.from_dict(_load_payload(args))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _matrix_lines(A: JordanMatrix) -> list[str]:
    entries = [
        [format_octonion(Octonion.from_real(A.p)), str(A.a), str(A.b.conjugate())],
        [str(A.a.conjugate()), format_octonion(Octonion.from_real(A.m)), str(A.c)],
        [str(A.b), str(A.c.conjugate()), format_octonion(Octonion.from_real(A.n))],
    ]
    widths = [max(len(row[j]) for row in entries) for j in range(3)]
    return [
        "[ " + " | ".join(row[j].rjust(widths[j]) for j in range(3)) + " ]"
        for row in entries
    ]


def _cmd_charpoly(args):
    from .cubic import solve_characteristic
    from .dirac import classify_psquare

    cls = classify_psquare(_load(args, JordanMatrix))
    tr, sigma, det = cls.trace, cls.sigma, cls.det
    roots = solve_characteristic(tr, sigma, det)
    return {"trace": tr, "sigma": sigma, "det": det, **roots.to_dict()}, [
        f"trace = {tr:.12g}",
        f"sigma = {sigma:.12g}",
        f"det   = {det:.12g}",
        f"roots = {', '.join(f'{r:.12g}' for r in roots.roots)}  ({roots.multiplicity})",
    ], EXIT_OK


def _cmd_decompose(args):
    from .spectral import decompose

    dec = decompose(_load(args, JordanMatrix))
    res = dec.residuals
    lines = []
    for lam, P in zip(dec.eigenvalues, dec.idempotents):
        lines += [f"eigenvalue {lam:.12g}:", *("  " + line for line in _matrix_lines(P))]
    lines.append(f"residuals: eigen {max(res['eigen']):.3e}, "
                 f"orthogonality {res['orthogonality']:.3e}, "
                 f"completeness {res['completeness']:.3e}, "
                 f"reconstruction {res['reconstruction']:.3e}")
    return dec.to_dict(), lines, EXIT_OK


def _cmd_diagonalize(args):
    from .f4 import diagonalize

    result = diagonalize(_load(args, JordanMatrix))
    lines = [f"steps: {len(result.steps)}"]
    for k, M in enumerate(result.steps, start=1):
        lines += [f"M{k}:", *("  " + line for line in _matrix_lines(M))]
    lines += [f"diagonal: {', '.join(f'{d:.12g}' for d in result.diagonal)}",
              f"off-diagonal residual: {result.residual:.3e}"]
    return result.to_dict(), lines, EXIT_OK


def _cmd_classify(args):
    from .dirac import classify_psquare

    cls = classify_psquare(_load(args, JordanMatrix))
    return cls.to_dict(), [
        f"p-square class: {cls.p}",
        f"det = {cls.det:.12g}, sigma = {cls.sigma:.12g}, trace = {cls.trace:.12g}",
    ], EXIT_OK


def _cmd_oracle(args):
    from .oracle import modified_char_check

    report = modified_char_check(_load(args, JordanMatrix))
    lines = ["lambda        mult  r"]
    lines += [f"{lam:+.9f}  {mult:4d}  {r:+.9f}" for lam, mult, r in report.clusters]
    lines.append("PASS" if report.passed else "FAIL")
    return report.to_dict(), lines, EXIT_OK if report.passed else EXIT_INCONSISTENT


def _cmd_dirac(args):
    from .dirac import Hermitian2, dirac_solve

    P = _load(args, Hermitian2)
    theta, sign = dirac_solve(P)
    residual = (P - Hermitian2.from_outer(theta) * float(sign)).norm()
    return {"theta": [t.coeffs.tolist() for t in theta], "sign": sign, "residual": residual}, [
        f"theta = ({theta[0]}, {theta[1]})",
        f"sign  = {sign:+d}",
        f"reconstruction residual = {residual:.3e}",
    ], EXIT_OK


def _cmd_verify(args):
    from .verify import _check_request, run_verification

    try:
        _check_request(args.count, args.seed)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    report = run_verification(count=args.count, seed=args.seed)
    lines = [f"seed {report.seed}, {report.count} samples per suite"]
    lines += [f"{row.name:26s} n={row.samples:5d}  max {row.max_residual:.3e}  "
              f"thr {row.threshold:.1e}  {'PASS' if row.passed else 'FAIL'}"
              for row in report.rows]
    lines.append("PASS" if report.passed else "FAIL")
    return report.to_dict(), lines, EXIT_OK if report.passed else EXIT_INCONSISTENT


# Each command returns its JSON payload, its text lines and its exit status.
_HANDLERS = {
    "charpoly": _cmd_charpoly,
    "decompose": _cmd_decompose,
    "diagonalize": _cmd_diagonalize,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "dirac": _cmd_dirac,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="albert",
        description="Exceptional Jordan algebra computations on 3x3 octonionic "
                    "Hermitian matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, matrix_input):
        if matrix_input:
            p.add_argument("--input", help="path to a JSON matrix file")
            p.add_argument("--inline", help="inline JSON matrix")
        p.add_argument("--atol", type=float, help="floor near zero, relative to max |entry|")
        p.add_argument("--rtol", type=float, help="relative tolerance override")
        p.add_argument("--mtol", type=float, help="eigenvalue merge tolerance override")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format (default json)")

    for name in _MATRIX_COMMANDS:
        add_common(sub.add_parser(name), matrix_input=True)
    add_common(sub.add_parser("dirac"), matrix_input=True)

    verify = sub.add_parser("verify")
    add_common(verify, matrix_input=False)
    verify.add_argument("--seed", type=int, default=42,
                        help="sample stream seed (default 42)")
    verify.add_argument("--count", type=int, default=1000,
                        help="samples per suite (default 1000)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    saved = vars(tolerances).copy()
    try:
        for name in saved:  # --atol, --rtol and --mtol last this one command
            if getattr(args, name) is not None:
                setattr(tolerances, name, getattr(args, name))
        payload, lines, code = _HANDLERS[args.command](args)
    except (_InputError, NonNullMomentumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AlbertError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    finally:
        vars(tolerances).update(saved)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
