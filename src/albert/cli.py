"""Command-line front end.

Commands, one pipeline each:

- ``charpoly``     trace, sigma, det, and the three real roots
- ``decompose``    orthogonal primitive idempotent decomposition
- ``diagonalize``  nested-conjugation diagonalization steps
- ``classify``     p-square class from det/sigma/trace thresholds
- ``oracle``       24x24 embedding spectrum and modified-equation report
- ``dirac``        rank-one factor of a null 2x2 momentum
- ``verify``       seeded batch property verification

Matrix input comes from ``--input PATH`` or ``--inline JSON``.  A 3x3
matrix is ``{"p": x, "m": x, "n": x, "a": [8], "b": [8], "c": [8]}``; a
2x2 momentum is ``{"s": x, "t": x, "z": [8]}``.  ``verify`` takes
``--seed`` and ``--count`` instead.  Output is ``--format json`` (sorted
keys, byte-deterministic) or ``text``; the text is built only when asked
for.

The command line is one command and the long options of ``_OPTIONS``, each
as ``--name value`` or ``--name=value`` and never abbreviated; ``-h`` or
``--help`` prints them.  The options are shared by every command, and one a
command does not take is a usage error, as is any other malformed command
line: the usage line and ``albert: error: <message>`` go to stderr, and the
exit status is 2.  No option sets a tolerance: they are the constants of
:mod:`albert.config`.

Exit status: 0 success/PASS, 1 internal inconsistency (residuals over
tolerance, failed verification), 2 invalid input or usage.

Examples::

    albert charpoly --inline '{"p":1,"m":2,"n":3,"a":[0]*8,...}'
    albert verify --seed 42 --count 1000 --format json
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import NoReturn

# Only what every command shares is imported here; each handler imports the
# module it runs, so a cold start compiles no module its command does not use.
from .exceptions import AlbertError, NonNullMomentumError
from .jordan import JordanMatrix, char_poly
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
    except RecursionError as exc:
        raise _InputError("malformed JSON: nested too deeply") from exc
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

    tr, sigma, det = char_poly(_load(args, JordanMatrix))
    roots = solve_characteristic(tr, sigma, det)
    return {"trace": tr, "sigma": sigma, "det": det, **roots.to_dict()}, lambda: [
        f"trace = {tr:.12g}",
        f"sigma = {sigma:.12g}",
        f"det   = {det:.12g}",
        f"roots = {', '.join(f'{r:.12g}' for r in roots.roots)}  ({roots.multiplicity})",
    ], EXIT_OK


def _cmd_decompose(args):
    from .spectral import decompose

    dec = decompose(_load(args, JordanMatrix))

    def lines():
        res = dec.residuals
        out = []
        for lam, P in zip(dec.eigenvalues, dec.idempotents):
            out += [f"eigenvalue {lam:.12g}:", *("  " + line for line in _matrix_lines(P))]
        out.append(f"residuals: eigen {max(res['eigen']):.3e}, "
                   f"orthogonality {res['orthogonality']:.3e}, "
                   f"completeness {res['completeness']:.3e}, "
                   f"reconstruction {res['reconstruction']:.3e}")
        return out

    return dec.to_dict(), lines, EXIT_OK


def _cmd_diagonalize(args):
    from .f4 import diagonalize

    result = diagonalize(_load(args, JordanMatrix))

    def lines():
        out = [f"steps: {len(result.steps)}"]
        for k, M in enumerate(result.steps, start=1):
            out += [f"M{k}:", *("  " + line for line in _matrix_lines(M))]
        return out + [f"diagonal: {', '.join(f'{d:.12g}' for d in result.diagonal)}",
                      f"off-diagonal residual: {result.residual:.3e}"]

    return result.to_dict(), lines, EXIT_OK


def _cmd_classify(args):
    from .dirac import classify_psquare

    cls = classify_psquare(_load(args, JordanMatrix))
    return cls.to_dict(), lambda: [
        f"p-square class: {cls.p}",
        f"det = {cls.det:.12g}, sigma = {cls.sigma:.12g}, trace = {cls.trace:.12g}",
    ], EXIT_OK


def _cmd_oracle(args):
    from .oracle import modified_char_check

    report = modified_char_check(_load(args, JordanMatrix))
    return report.to_dict(), lambda: [
        "lambda        mult  r",
        *(f"{lam:+.9f}  {mult:4d}  {r:+.9f}" for lam, mult, r in report.clusters),
        "PASS" if report.passed else "FAIL",
    ], EXIT_OK if report.passed else EXIT_INCONSISTENT


def _cmd_dirac(args):
    from .dirac import Hermitian2, dirac_solve

    P = _load(args, Hermitian2)
    theta, sign = dirac_solve(P)
    residual = (P - Hermitian2.from_outer(theta) * float(sign)).norm()
    payload = {"theta": [t.coeffs.tolist() for t in theta], "sign": sign, "residual": residual}
    return payload, lambda: [
        f"theta = ({theta[0]}, {theta[1]})",
        f"sign  = {sign:+d}",
        f"reconstruction residual = {residual:.3e}",
    ], EXIT_OK


def _cmd_verify(args):
    from .verify import _check_request, run_verification

    count = 1000 if args.count is None else args.count
    seed = 42 if args.seed is None else args.seed
    try:
        _check_request(count, seed)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    report = run_verification(count=count, seed=seed)
    return report.to_dict(), lambda: [
        f"seed {report.seed}, {report.count} samples per suite",
        *(f"{row.name:26s} n={row.samples:5d}  max {row.max_residual:.3e}  "
          f"thr {row.threshold:.1e}  {'PASS' if row.passed else 'FAIL'}"
          for row in report.rows),
        "PASS" if report.passed else "FAIL",
    ], EXIT_OK if report.passed else EXIT_INCONSISTENT


# Each command returns its JSON payload, a callable giving its text lines,
# and its exit status; the text is built only for ``--format text``.
_HANDLERS = {
    "charpoly": _cmd_charpoly,
    "decompose": _cmd_decompose,
    "diagonalize": _cmd_diagonalize,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "dirac": _cmd_dirac,
    "verify": _cmd_verify,
}


# Each long option: its type (a converter, or the tuple of its choices) and
# its help line.  An option not given reads None, except --format.
_OPTIONS = {
    "input": (str, "path to a JSON matrix file (all but verify)"),
    "inline": (str, "inline JSON matrix (all but verify)"),
    "format": (("json", "text"), "output format (default json)"),
    "seed": (int, "verify: sample stream seed (default 42)"),
    "count": (int, "verify: samples per suite (default 1000)"),
}

_USAGE = f"usage: albert {{{','.join(_HANDLERS)}}} [-h] [--OPTION VALUE ...]"


def _help() -> str:
    rows = [("-h, --help", "show this help message and exit")]
    for name, (kind, text) in _OPTIONS.items():
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.upper()
        rows.append((f"--{name} {value}", text))
    width = max(len(flag) for flag, _ in rows) + 2
    return "\n".join([
        _USAGE, "",
        "Exceptional Jordan algebra computations on 3x3 octonionic Hermitian matrices.", "",
        "options, each as --name VALUE or --name=VALUE:",
        *(f"  {flag.ljust(width)}{text}" for flag, text in rows)])


def _usage_error(message: str) -> NoReturn:
    print(f"{_USAGE}\nalbert: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_INVALID)


def _value(name: str, text: str):
    kind = _OPTIONS[name][0]
    if isinstance(kind, tuple):
        if text not in kind:
            _usage_error(f"argument --{name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
        return text
    try:
        return kind(text)
    except ValueError:
        _usage_error(f"argument --{name}: invalid {kind.__name__} value: {text!r}")


def _parse(argv) -> SimpleNamespace:
    """One command and the options of ``_OPTIONS``; ``-h`` prints the help
    and exits 0, anything else exits 2 through :func:`_usage_error`."""
    args = SimpleNamespace(**{**dict.fromkeys(_OPTIONS), "command": None, "format": "json"})
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            print(_help())
            raise SystemExit(EXIT_OK)
        if not token.startswith("-"):
            if args.command is not None:
                _usage_error(f"unrecognized arguments: {token}")
            if token not in _HANDLERS:
                _usage_error(f"argument command: invalid choice: {token!r} "
                             f"(choose from {', '.join(map(repr, _HANDLERS))})")
            args.command = token
            continue
        name, inline, text = token[2:].partition("=")
        if not token.startswith("--") or name not in _OPTIONS:
            _usage_error(f"unrecognized arguments: {token}")
        if not inline:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _usage_error(f"argument --{name}: expected one argument")
        setattr(args, name, _value(name, text))
    if args.command is None:
        _usage_error("the following arguments are required: command")
    # verify draws its own samples; every other command reads one matrix
    matrix = args.command in (*_MATRIX_COMMANDS, "dirac")
    refused = ("seed", "count") if matrix else ("input", "inline")
    given = [f"--{name}" for name in refused if getattr(args, name) is not None]
    if given:
        _usage_error(f"{args.command} does not take {' or '.join(given)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        payload, lines, code = _HANDLERS[args.command](args)
    except (_InputError, NonNullMomentumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AlbertError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines()))
    return code


if __name__ == "__main__":
    sys.exit(main())
