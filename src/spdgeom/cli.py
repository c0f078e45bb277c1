"""Command line interface.

Every invocation writes a single JSON report to stdout and human-readable
notes to stderr; usage errors and unreadable manifests get a report too.
Matrix arguments accept either a file path (JSON ``{"n": int, "data":
[[...]]}`` or bare ``[[...]]``, CSV rows without a header) or an inline JSON
array.  Matrices, ``file:`` subspaces and manifests share one reader: a NUL
byte in a path, a file that is not UTF-8, invalid JSON or a number out of
range (a 400-digit integer, ``"n": 1e400``) is a parse error.  Exit codes:
0 success, 2 parse/format error, 3 domain/precondition error, 4
non-convergence.

The commands are the rows of ``COMMANDS``, which build the argument parser,
check ``spd batch`` entries and drive the one runner.  Batch keys mirror the
CLI argument names, except that ``gl`` names its subspace ``g_subspace``.
An entry with a missing key, a non-string matrix or subspace argument, an
option value that does not convert, a non-finite number or lists and dicts
nested deeper than ``_MAX_DEPTH`` (which a strict JSON report cannot echo)
gets its own exit-2 report; the other entries still run.  JSON nested too
deeply for the parser is a parse error too.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .decompose import geodesic_project, mostow_gl, mostow_spd, _MAX_ITER, _TOL
from .errors import ConvergenceError, DomainError, ParseError, SpdGeomError
from .errors import _convert, _parse_json, _read_text
from .manifold import distance, geodesic, sectional_curvature_id
from .matfun import as_sym, frobenius, spd_exp, spd_log, _as_square, _one_size
from .subspace import (
    block_antidiag_subspace,
    block_diag_subspace,
    diag_subspace,
    load_subspace,
    lts_check,
    _LTS_TOL,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NO_CONVERGENCE = 4

# Inputs whose asymmetry exceeds this fraction of their norm are rejected;
# smaller asymmetries are symmetrized with a warning.
_ASYM_TOL = 1e-9

# Batch entry values nested deeper than this are refused: no argument is a
# list or dict, and a report has to echo what it is given.
_MAX_DEPTH = 32


def _default_tol():
    env = os.environ.get("SPD_TOL")
    if env is None:
        return _TOL
    return _convert(float, env, f"SPD_TOL={env!r} is not a number")


# ---------------------------------------------------------------------------
# Matrix ingestion


def _parse_rows(rows, origin):
    m = _convert(_floats, rows, f"{origin}: not a numeric matrix")
    try:
        return _as_square(m)
    except DomainError as exc:
        raise ParseError(f"{origin}: {exc}") from exc


def _floats(rows):
    return np.asarray(rows, dtype=float)


def _read_csv(text, origin):
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{origin}: empty CSV payload")
    return [_convert(_csv_row, ln, f"{origin}: bad CSV row {ln!r}") for ln in lines]


def _csv_row(line):
    return [float(tok) for tok in line.replace(",", " ").split()]


def _read_json_matrix(obj, origin):
    if isinstance(obj, list):
        return _parse_rows(obj, origin)
    if not isinstance(obj, dict):
        raise ParseError(f"{origin}: JSON payload must be an object or an array")
    if "data" not in obj:
        raise ParseError(f'{origin}: JSON object needs a "data" field')
    m = _parse_rows(obj["data"], origin)
    n = obj.get("n", len(m))
    if _convert(int, n, f"{origin}: declared n={n!r} is not an integer") != len(m):
        raise ParseError(f"{origin}: declared n={n} but data is {len(m)} x {len(m)}")
    return m


def read_matrix(source, fmt=None):
    """Read a square matrix from a path or inline JSON text."""
    if source.strip().startswith("["):
        obj = _parse_json(source.strip(), "inline matrix")
        return _read_json_matrix(obj, "inline matrix"), "<inline>"
    text = _read_text(source)
    if fmt is None:
        fmt = "csv" if source.lower().endswith(".csv") else "json"
    if fmt == "csv":
        return _parse_rows(_read_csv(text, source), source), source
    return _read_json_matrix(_parse_json(text, source), source), source


def symmetrize_input(m, origin, warnings):
    """Enforce the symmetric-input contract of the CLI.

    Asymmetry up to 1e-9 of the norm is repaired with a warning; anything
    larger is rejected.
    """
    asym = frobenius(m - m.T)
    scale = frobenius(m)
    if asym > _ASYM_TOL * scale:
        raise ParseError(
            f"{origin}: matrix is not symmetric (max asymmetry "
            f"{np.abs(m - m.T).max():.3e}, norm {scale:.3e})"
        )
    if asym > 0.0:
        warnings.append(f"{origin}: symmetrized input (asymmetry {asym:.3e})")
    return as_sym(m)


def _digest(m):
    payload = json.dumps(np.asarray(m, dtype=float).tolist()).encode()
    return hashlib.sha256(payload).hexdigest()


def _matrix_out(m):
    return np.asarray(m, dtype=float).tolist()


# ---------------------------------------------------------------------------
# Subspace specs


def parse_subspace_spec(spec, n):
    """Resolve "diag" | "block:p,q[,...]" | "antiblock:p,q" | "file:PATH".

    Block sizes must sum to n, checked before the basis is built; a file
    subspace is returned as read, for the caller to check against n.
    """
    if spec == "diag":
        return diag_subspace(n), None
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        return load_subspace(path), path
    kind, _, tail = spec.partition(":")
    if not spec.startswith(("block:", "antiblock:")):
        raise ParseError(
            f"unknown subspace spec {spec!r}; expected diag, block:..., "
            "antiblock:p,q or file:PATH"
        )
    what = f"bad block sizes in {spec!r}"
    sizes = [_convert(int, tok, what) for tok in tail.split(",") if tok]
    if not sizes:
        raise ParseError(f"no block sizes in {spec!r}")
    if kind == "antiblock" and len(sizes) != 2:
        raise ParseError(f"antiblock spec needs exactly two sizes, got {spec!r}")
    if sum(sizes) != n:
        raise DomainError(
            f"{kind} sizes {sizes} sum to {sum(sizes)}, matrix dimension is {n}"
        )
    if kind == "block":
        return block_diag_subspace(sizes), None
    return block_antidiag_subspace(*sizes), None


def _lts_payload(report):
    payload = {
        "is_lts": report.is_lts,
        "max_residual": report.max_residual,
        "double_bracket_is_lts": report.double_bracket_is_lts,
        "double_bracket_residual": report.double_bracket_residual,
        "tol": report.tol,
    }
    if report.witness is not None:
        payload["witness"] = {
            "x": _matrix_out(report.witness.x),
            "y": _matrix_out(report.witness.y),
            "z": _matrix_out(report.witness.z),
            "residual": report.witness.residual,
            "off_component": _matrix_out(report.witness.off_component),
        }
    else:
        payload["witness"] = None
    return payload


# ---------------------------------------------------------------------------
# Command table


@dataclass(frozen=True)
class Option:
    """A typed ``--name`` option; a missing or null value takes the default.

    With ``fallback``, any false value (0, "", null) takes ``fallback()``
    instead, before conversion: ``--tol 0`` is the default tolerance.
    """

    type: Callable
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    fallback: Callable | None = None


@dataclass(frozen=True)
class Command:
    """One ``spd`` command, run as ``call(*matrices, [subspace,] **options)``.

    ``format`` only reads the matrices.  A subspace command returns a result
    with the ``outputs`` matrices, ``iterations`` and ``residual``; the
    others return the outputs.  ``lts`` has no matrices: it gets the spec and
    an option reader and returns ``(inputs, outputs, diagnostics)``.
    """

    help: str
    matrices: tuple
    options: dict
    call: Callable
    subspace: str | None = None
    symmetrize: bool = True
    outputs: tuple = ()
    reconstruct: Callable | None = None


def _lts(spec, opt):
    if spec.startswith("file:"):
        n = None
    elif (n := opt("n")) is None:
        raise ParseError("--n is required for built-in subspace specs")
    sub, _ = parse_subspace_spec(spec, n)
    report = lts_check(sub, tol=opt("tol"))
    return (
        {"subspace": spec, "dim": sub.dim, "n": sub.n},
        _lts_payload(report),
        {"warnings": []},
    )


_FORMAT = {
    "format": Option(
        str, None, "input file format (default: by extension)", ("json", "csv")
    )
}
_SOLVER = {
    **_FORMAT,
    "tol": Option(float, None, "convergence tolerance (or env SPD_TOL)",
                  fallback=_default_tol),
    "max_iter": Option(int, fallback=lambda: _MAX_ITER),
    "unchecked": Option(bool, False, "skip the bracket-closure check of the subspace"),
}

# The library functions are called through their names in this module, so
# that a wrapper which rebinds those names also sees the calls.
COMMANDS = {
    "dist": Command(
        "geodesic distance between two matrices", ("a", "b"), _FORMAT,
        lambda a, b: {"distance": distance(a, b)},
    ),
    "geodesic": Command(
        "point on the geodesic between two matrices", ("a", "b"),
        {"t": Option(float, 0.5), **_FORMAT},
        lambda a, b, t: {
            "t": t, "point": _matrix_out(geodesic((a, b), t))
        },
    ),
    "logm": Command(
        "matrix logarithm", ("x",), _FORMAT, lambda x: {"log": _matrix_out(spd_log(x))}
    ),
    "expm": Command(
        "matrix exponential of a symmetric matrix", ("x",), _FORMAT,
        lambda x: {"exp": _matrix_out(spd_exp(x))},
    ),
    "project": Command(
        "geodesic projection onto exp(E)", ("x",), _SOLVER,
        lambda x, sub, **opts: geodesic_project(x, sub, **opts), "subspace",
        outputs=("pi",),
    ),
    "mostow": Command(
        "two-sided factorization x = e f e", ("x",), _SOLVER,
        lambda x, sub, **opts: mostow_spd(x, sub, **opts), "subspace",
        outputs=("e", "f", "pi"), reconstruct=lambda r: r.e @ r.f @ r.e,
    ),
    # gl keeps its own subspace key: it is echoed in report params and
    # used by batch manifests.
    "gl": Command(
        "factorization g = k f e with k orthogonal", ("g",), _SOLVER,
        lambda g, sub, **opts: mostow_gl(g, sub, **opts), "g_subspace",
        symmetrize=False, outputs=("k", "f", "e"),
        reconstruct=lambda r: r.k @ r.f @ r.e,
    ),
    "lts": Command(
        "bracket-closure check of a subspace", (),
        {
            "n": Option(int, None, "ambient dimension for built-in specs"),
            "tol": Option(float, fallback=lambda: _LTS_TOL),
        },
        _lts, "subspace",
    ),
    "curvature": Command(
        "sectional curvature at the identity", ("x", "y"), _FORMAT,
        lambda x, y: {"sectional_curvature": sectional_curvature_id(x, y)},
    ),
}


def _text(params, key):
    """A matrix or subspace argument: a path, inline JSON or a spec."""
    value = params.get(key)
    if not isinstance(value, str):
        problem = "is missing" if value is None else f"must be a string, got {value!r}"
        raise ParseError(f"argument {key!r} {problem}")
    return value


def _unfit(value):
    """Why a report cannot echo ``value``: a NaN or infinite float in it or in
    its lists and dicts (strict JSON has no such numbers), or lists and dicts
    nested deeper than ``_MAX_DEPTH``; None when it can."""
    stack = [(value, 0)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            return "non-finite number"
        if isinstance(value, (list, dict)):
            if depth == _MAX_DEPTH:
                return f"nesting deeper than {_MAX_DEPTH}"
            items = value.values() if isinstance(value, dict) else value
            stack.extend((item, depth + 1) for item in items)
    return None


def _option(params, key, opt):
    value = params.get(key)
    if opt.fallback is not None and not value:
        return opt.fallback()
    if value is None:
        return opt.default
    converted = _convert(opt.type, value, f"bad value for option {key!r}")
    if _unfit(converted):
        raise ParseError(f"option {key!r} is not a finite number: {value!r}")
    if opt.choices is not None and converted not in opt.choices:
        raise ParseError(
            f"bad value for option {key!r}: {value!r} is not one of "
            + ", ".join(opt.choices)
        )
    return converted


def _run(cmd, params):
    """Run one table command: params -> (inputs, outputs, diagnostics).

    Options are converted after the inputs are read: input errors come first.
    """

    def opt(key):
        return _option(params, key, cmd.options[key])

    if not cmd.matrices:
        return cmd.call(_text(params, cmd.subspace), opt)
    warnings, args, inputs, outputs = [], [], {}, {}
    for key in cmd.matrices:
        m, origin = read_matrix(_text(params, key), opt("format"))
        if cmd.symmetrize:
            m = symmetrize_input(m, origin, warnings)
        args.append(m)
        inputs[key] = {"source": origin, "n": int(m.shape[0]), "sha256": _digest(m)}
    _one_size(*args)
    x = args[0]
    if cmd.subspace is not None:
        spec = _text(params, cmd.subspace)
        sub, path = parse_subspace_spec(spec, x.shape[0])
        _one_size(x, n=sub.n)
        args.append(sub)
        inputs["subspace"] = spec
        if path is not None:
            outputs["lts"] = _lts_payload(lts_check(sub))
    kwargs = {key: opt(key) for key in cmd.options if key != "format"}
    try:
        result = cmd.call(*args, **kwargs)
    except SpdGeomError as exc:
        # The report of a failed run still carries what was built, such as
        # the bracket-check witness.
        exc.partial_outputs = outputs
        raise
    diagnostics = {"warnings": warnings}
    if cmd.subspace is None:
        return inputs, result, diagnostics
    for key in cmd.outputs:
        outputs[key] = _matrix_out(getattr(result, key))
    if cmd.reconstruct is not None:
        recon = frobenius(cmd.reconstruct(result) - x) / frobenius(x)
        outputs["reconstruction_residual"] = recon
    diagnostics.update(iterations=result.iterations, residual=result.residual)
    return inputs, outputs, diagnostics


# ---------------------------------------------------------------------------
# Reports


# Error class -> exit code and report error type; the first match wins.
_ERRORS = (
    (ParseError, EXIT_PARSE, "parse"),
    (ConvergenceError, EXIT_NO_CONVERGENCE, "non-convergence"),
    (DomainError, EXIT_DOMAIN, "domain"),
)


def _report(command, params, exc=None):
    """The report skeleton; with ``exc``, the report of a failed run."""
    report = {
        "command": None if _unfit(command) else command,
        "params": {k: v for k, v in params.items() if not (v is None or _unfit(v))},
        "inputs": {},
        "outputs": {},
        "diagnostics": {"iterations": None, "residual": None, "warnings": []},
        "exit_code": EXIT_OK,
    }
    if exc is not None:
        code, kind = next((c, k) for cls, c, k in _ERRORS if isinstance(exc, cls))
        report["exit_code"] = code
        report["error"] = {"type": kind, "message": str(exc)}
        residual = getattr(exc, "residual", None)
        if residual is not None:
            report["diagnostics"]["residual"] = float(residual)
        report["outputs"] = getattr(exc, "partial_outputs", None) or {}
    return report


def run_report(command, params):
    """Execute one command and wrap the outcome in a report dict."""
    try:
        entry = {"command": command, **params}
        bad = [f"{why} in {key!r}" for key in entry if (why := _unfit(entry[key]))]
        if bad:
            raise ParseError(", ".join(bad))
        if not isinstance(command, str) or command not in COMMANDS:
            raise ParseError(f"unknown command {command!r}")
        inputs, outputs, diagnostics = _run(COMMANDS[command], params)
    except SpdGeomError as exc:
        return _report(command, params, exc)
    except MemoryError as exc:  # e.g. a ready-made subspace of huge n
        error = DomainError(f"input too large for memory: {exc}")
        return _report(command, params, error)
    report = _report(command, params)
    report.update(inputs=inputs, outputs=outputs)
    report["diagnostics"].update(diagnostics)
    return report


def run_batch(manifest_path):
    """Process a JSON array of command objects, one report per entry."""
    text = _read_text(manifest_path, "manifest ")
    entries = _parse_json(text, f"manifest {manifest_path}")
    if not isinstance(entries, list):
        raise ParseError("batch manifest must be a JSON array of command objects")
    reports = []
    for idx, entry in enumerate(entries):
        if isinstance(entry, dict) and "command" in entry:
            params = {k: v for k, v in entry.items() if k != "command"}
            reports.append(run_report(entry["command"], params))
        else:
            error = ParseError(f"entry {idx} is not a command object")
            reports.append(_report(None, {}, error))
    return reports


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Turns usage errors into ParseError, so they also end in a report."""

    def error(self, message):
        raise ParseError(f"{message} (see {self.prog} --help)")


def build_parser():
    parser = _Parser(
        prog="spd",
        description=(
            "Geometry of symmetric positive-definite matrices: distances, "
            "geodesics, matrix exp/log, geodesic projection and two-sided "
            "factorizations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key in cmd.matrices:
            p.add_argument(key)
        if cmd.subspace is not None:
            p.add_argument(cmd.subspace, metavar="subspace")
        for key, opt in cmd.options.items():
            flag = "--" + key.replace("_", "-")
            if opt.type is bool:
                p.add_argument(flag, dest=key, action="store_true", help=opt.help)
            else:
                p.add_argument(flag, dest=key, type=opt.type, default=opt.default,
                               choices=opt.choices, help=opt.help)
    p = sub.add_parser("batch", help="run a JSON manifest of commands")
    p.add_argument("manifest")
    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    command, params = None, {}
    try:
        params = vars(build_parser().parse_args(argv))
        command = params.pop("command")
        if command == "batch":
            result = run_batch(params["manifest"])
        else:
            result = run_report(command, params)
    except ParseError as exc:  # a usage error or an unreadable manifest
        result = _report(command, params, exc)

    try:
        print(json.dumps(result, indent=2), flush=True)
    except BrokenPipeError:
        # The reader left early.  The rest of the report goes to devnull, so
        # that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    batch = isinstance(result, list)
    reports = result if batch else [result]
    for rep in reports:
        if rep["exit_code"] != EXIT_OK:
            note = "batch entry failed: " if batch else ""
            print(f"spd: {note}{rep['error']['message']}", file=sys.stderr)
    codes = [rep["exit_code"] for rep in reports]
    return next((code for code in codes if code != EXIT_OK), EXIT_OK)


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
