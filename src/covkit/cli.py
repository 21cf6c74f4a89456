"""Command-line front door: parse specification files, dispatch to the
engines, and emit machine-readable reports.

Exit codes: 0 success, 1 validation failure, 2 parse or usage error, 3
numeric tolerance failure, 4 out of memory; output into a pipe its reader
closed ends quietly with 0.  The command line is read
against one table, :data:`COMMANDS`, which also renders the ``-h`` text.
Reports are byte-stable for fixed inputs, tolerances, and sample seeds;
wall time goes to stderr.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import specfile
from .cpmaps import cp_extremal, cp_validate, kraus_extract, ksgns
from .fingroup import GroupStructureError, cocycle_status, rep_status
from .instruments import (
    B_from_instrument,
    ObservableSpec,
    as_cpmap,
    instrument_extremal,
    naimark,
    phase_space,
    sample_stream,
    validate_instrument,
    validate_observable,
)
from .kernels import (
    Checks,
    DilationResidualError,
    kernel_extremal,
    kolmogorov_decompose,
    validate_kernel,
)
from .numlin import DEFAULT_TOL, NotPositiveError, Tolerances, frob, psd_status

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4


class Report:
    """Verdicts with their residuals, artifacts with provenance notes."""

    def __init__(self, command, kind, tol: Tolerances):
        self.body = {
            "command": command,
            "kind": kind,
            "tolerances": {
                "psd_eig": tol.psd_eig,
                "rank_rel": tol.rank_rel,
                "unitary_fro": tol.unitary_fro,
                "recon_fro": tol.recon_fro,
            },
            "verdicts": {},
            "artifacts": {},
        }

    def verdict(self, name, ok, residual=0.0):
        # a non-finite residual certifies nothing: the verdict fails and its
        # residual is written as null, so the report stays strict JSON
        residual = float(residual)
        finite = math.isfinite(residual)
        self.body["verdicts"][name] = {"ok": bool(ok) and finite, "residual": residual if finite else None}

    def artifact(self, name, provenance, **payload):
        self.body["artifacts"][name] = {"provenance": provenance, **payload}

    @property
    def all_ok(self) -> bool:
        return all(v["ok"] for v in self.body["verdicts"].values())


def _load_file(path, tol: Tolerances):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise specfile.SpecFileError(str(exc)) from exc
    return specfile.load(text, tol)


def _write_file(path, text):
    # an unwritable path is exit 2, as an unreadable one is
    try:
        with open(path, "w", encoding="utf-8") as handle:
            print(text, file=handle)
    except OSError as exc:
        raise specfile.SpecFileError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _merge_checks(report: Report, checks: Checks):
    for name, check in checks.items():
        report.verdict(name, check.ok, check.residual)


def cmd_validate(args) -> int:
    tol = args.tol
    kind, obj = _load_file(args.file, tol)
    report = Report("validate", kind, tol)
    if kind == "group":
        # the table and the action are exact: a violation is a parse error
        report.verdict("group_axioms", True)
        if "action" in obj:
            report.verdict("action", True)
        if "cocycle" in obj:
            status = cocycle_status(obj["cocycle"], tol)
            report.verdict("cocycle", status[0] is None, status[1])
        if "rep" in obj:
            # the product rows certify the representation only for a 2-cocycle, most often payload.cocycle itself
            same = "cocycle" in obj and np.array_equal(obj["cocycle"].values, obj["rep"].cocycle.values)
            bad_cocycle, cocycle_residual = status if same else cocycle_status(obj["rep"].cocycle, tol)
            bad, residual = rep_status(obj["rep"], tol)
            report.verdict("rep", bad is None and bad_cocycle is None, max(residual, cocycle_residual))
    elif kind == "kernel":
        _merge_checks(report, validate_kernel(obj[0], tol))
    elif kind == "cpmap":
        _merge_checks(report, cp_validate(obj, tol))
        if frob(obj.values) <= tol.recon_fro:
            report.artifact("warning", "validation note", message="the map is zero")
    elif kind == "observable":
        _merge_checks(report, validate_observable(obj, tol))
    elif kind == "instrument":
        _merge_checks(report, validate_instrument(obj, tol))
    elif kind == "phase_space":
        # building the instrument validates it: print that certificate
        checks = Checks()
        phase_space(*obj, tol, checks)
        _merge_checks(report, checks)
    elif kind == "state":
        report.verdict("positive", *psd_status(obj, tol))
        drift = abs(np.trace(obj).real - 1.0)
        report.verdict("unit_trace", drift <= tol.recon_fro, drift)
    _finish(report, args)
    return EXIT_OK if report.all_ok else EXIT_INVALID


def cmd_dilate(args) -> int:
    tol = args.tol
    kind, obj = _load_file(args.file, tol)
    report = Report("dilate", kind, tol)
    if kind == "kernel":
        spec, _ = obj
        dec = kolmogorov_decompose(spec, tol)
        _merge_checks(report, dec.checks)
        report.artifact(
            "decomposition",
            "minimal covariant factorization of the kernel blocks",
            rank=dec.rank,
            factors=specfile._pairs(dec.factors),
            dilation_rep=specfile._pairs(dec.sym.matrices),
        )
    elif kind == "cpmap":
        dil = ksgns(obj, tol)
        _merge_checks(report, dil.checks)
        report.artifact(
            "dilation",
            "minimal covariant dilation: intertwiner, algebra representation",
            rank=dil.rank,
            j=specfile._pairs(dil.j),
            pi_units=specfile._pairs(dil.pi_units),
            sym=None if dil.mult_rep is None else specfile._pairs(dil.sym(np.arange(obj.symmetry.group.order))),
        )
    elif kind == "observable":
        naim = naimark(obj, tol)
        _merge_checks(report, naim.checks)
        group, table = obj.symmetry.group, obj.symmetry.action.table
        blocks = specfile._pairs(np.stack(naim.mult_rep))  # (|X|, |G|, r, r): transitive, so one r
        report.artifact(
            "naimark",
            "minimal covariant Naimark dilation: fibers, isometry, transport blocks",
            fiber_dims=list(naim.mult),
            isometry=specfile._pairs(naim.j),
            # block w of cocycle_blocks[g] carries fiber g^{-1} w into fiber w
            cocycle_blocks={str(g): blocks[table[group.inv(g)], g] for g in group.elements()},
        )
    elif kind == "instrument":
        dil = ksgns(as_cpmap(obj), tol)
        _merge_checks(report, dil.checks)
        report.artifact(
            "dilation",
            "minimal covariant dilation of the instrument as a CP map",
            rank=dil.rank,
            j=specfile._pairs(dil.j),
        )
    else:
        raise specfile.SpecFileError(f"dilate does not apply to kind {kind!r}")
    _finish(report, args)
    return EXIT_OK


def cmd_extremal(args) -> int:
    tol = args.tol
    kind, obj = _load_file(args.file, tol)
    report = Report("extremal", kind, tol)
    direction = "Hermitian direction on the dilation certifying a convex split"
    if kind == "kernel":
        spec, z_pairs = obj
        cert = kernel_extremal(spec, z_pairs, tol)
        neighbours = (
            [specfile.kernel_out(p, z_pairs) for p in cert.perturbed] if cert.perturbed else None
        )
    elif kind == "cpmap":
        cert = cp_extremal(obj, tol)
        neighbours = [specfile.cpmap_out(p) for p in cert.perturbed] if cert.perturbed else None
    elif kind == "observable":
        cert = instrument_extremal(obj.as_instrument(), tol)
        direction = "Hermitian direction X on the base-coset Kraus multiplicity space (I_K (x) X with K = 1), certifying a convex split"
        neighbours = (
            [specfile.observable_out(ObservableSpec(p.choi, obj.symmetry)) for p in cert.perturbed]
            if cert.perturbed
            else None
        )
    elif kind == "instrument":
        cert = instrument_extremal(obj, tol)
        direction = "Hermitian direction I_K (x) X, X on the base-coset Kraus multiplicity space, certifying a convex split"
        neighbours = (
            [specfile.instrument_out(p) for p in cert.perturbed] if cert.perturbed else None
        )
    else:
        raise specfile.SpecFileError(f"extremal does not apply to kind {kind!r}")
    # the outcome is data, not a pass/fail gate
    report.verdict("decision_reached", True, float(cert.freedom))
    report.artifact(
        "decision",
        "extremality in the covariant comparison class",
        extreme=cert.extreme,
        freedom=cert.freedom,
    )
    if cert.witness is not None:
        report.artifact(
            "witness",
            direction,
            matrix=specfile._pairs(cert.witness),
        )
    if neighbours:
        report.artifact(
            "split",
            "the two neighbours whose midpoint is the input; both re-validate",
            plus=neighbours[0],
            minus=neighbours[1],
        )
    _finish(report, args)
    return EXIT_OK


def cmd_kraus(args) -> int:
    tol = args.tol
    kind, obj = _load_file(args.file, tol)
    report = Report("kraus", kind, tol)
    if kind == "cpmap":
        dil = ksgns(obj, tol)
        ops = kraus_extract(obj, dil, tol)
        report.verdict("reconstruction", *dil.checks["reconstruction"])
        report.artifact(
            "kraus",
            "Kraus family reproducing the map; count equals the Choi rank",
            count=len(ops),
            operators=specfile._pairs(ops),
        )
    elif kind == "instrument":
        data = B_from_instrument(obj, tol)
        report.verdict("roundtrip", *data.checks["roundtrip"])
        report.artifact(
            "kraus",
            "generating family extracted from the base outcome",
            count=len(data.b_ops),
            operators=specfile._pairs(data.b_ops),
        )
    else:
        raise specfile.SpecFileError(f"kraus does not apply to kind {kind!r}")
    _finish(report, args)
    return EXIT_OK


def cmd_phase_space(args) -> int:
    tol = args.tol
    kind, obj = _load_file(args.file, tol)
    if kind != "phase_space":
        raise specfile.SpecFileError("phase-space needs a phase_space document")
    d, ops = obj
    spec = phase_space(d, ops, tol)
    text = specfile.document("instrument", specfile.instrument_out(spec))
    if args.out:
        _write_file(args.out, text)
    else:
        print(text)
    return EXIT_OK


def cmd_sample(args) -> int:
    tol = args.tol
    kind, obj = _load_file(args.file, tol)
    if kind == "phase_space":
        # building the instrument certifies it on its Kraus rows
        obj = phase_space(obj[0], obj[1], tol)
    elif kind == "instrument":
        checks = validate_instrument(obj, tol)
        if not checks.ok:
            raise ValueError(f"instrument invalid: {', '.join(checks.failed())}")
    else:
        raise specfile.SpecFileError("sample needs an instrument or phase_space document")
    state_kind, state = _load_file(args.state, tol)
    if state_kind != "state":
        raise specfile.SpecFileError("the second file must be a state document")
    # the probability and the post state depend on the outcome alone, so
    # each outcome's line is encoded once
    lines = {}
    for result in sample_stream(obj, state, args.n, args.seed, tol):
        line = lines.get(result.outcome)
        if line is None:
            record = [result.outcome, result.probability, specfile.matrix_out(result.post_state)]
            line = lines[result.outcome] = json.dumps(record) + "\n"
        sys.stdout.write(line)
    return EXIT_OK


def _finish(report: Report, args):
    # built whole before anything is written; print adds the newline without copying the text
    text = specfile.dumps(report.body)
    if args.json_out:
        _write_file(args.json_out, text)
    print(text)


# -- the command table and its argv reader -------------------------------------


class UsageError(Exception):
    """The command line does not match the command table (exit code 2)."""


class Option(NamedTuple):
    dest: str
    convert: Callable[[str], object]  # raises ValueError on a value outside its domain
    default: object
    help: str


class Command(NamedTuple):
    run: Callable[[SimpleNamespace], int]
    positionals: tuple[str, ...]
    options: dict[str, Option]  # flag -> option, spelled in full
    help: str


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"expected a positive finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def _path(text: str) -> str:
    if not text:
        raise ValueError("expected a path, got an empty string")
    return text


# every command reads these into one Tolerances
_TOLERANCE_OPTIONS = {
    "--tol-psd-eig": Option("psd_eig", _tolerance, DEFAULT_TOL.psd_eig, "PSD eigenvalue slack"),
    "--tol-rank-rel": Option("rank_rel", _tolerance, DEFAULT_TOL.rank_rel, "relative rank cutoff"),
    "--tol-unitary-fro": Option("unitary_fro", _tolerance, DEFAULT_TOL.unitary_fro, "unitarity certificate slack"),
    "--tol-recon-fro": Option("recon_fro", _tolerance, DEFAULT_TOL.recon_fro, "reconstruction certificate slack"),
}
# the four commands that print a report can also write it to a file
_REPORT_OPTIONS = {
    **_TOLERANCE_OPTIONS,
    "--json-out": Option("json_out", _path, None, "also write the report to this path"),
}

COMMANDS = {
    "validate": Command(cmd_validate, ("file",), _REPORT_OPTIONS, "check a document against its kind's invariants"),
    "dilate": Command(cmd_dilate, ("file",), _REPORT_OPTIONS, "minimal dilation per kind (Kolmogorov / KSGNS / Naimark)"),
    "extremal": Command(cmd_extremal, ("file",), _REPORT_OPTIONS, "decide extremality and emit a witness or split"),
    "kraus": Command(cmd_kraus, ("file",), _REPORT_OPTIONS, "extract a Kraus / generating family"),
    "phase-space": Command(
        cmd_phase_space,
        ("file",),
        {**_TOLERANCE_OPTIONS, "--out": Option("out", _path, None, "write the instrument document here, not to stdout")},
        "build the discrete phase-space instrument from a seed",
    ),
    "sample": Command(
        cmd_sample,
        ("file", "state"),
        {
            **_TOLERANCE_OPTIONS,
            "-n": Option("n", _count, 1, "number of draws"),
            "--seed": Option("seed", _count, 0, "seed of the outcome draws"),
        },
        "draw outcomes and post states from an instrument",
    ),
}
_HELP = ("-h", "--help")
_DESCRIPTION = "Covariant kernels, dilations, and quantum instruments over finite symmetry groups."


def read_argv(argv) -> tuple[str | None, SimpleNamespace | None]:
    """The command name and its arguments, read against :data:`COMMANDS`.

    Options may come before or after the positionals, as ``--flag value`` or
    ``--flag=value``; ``--`` ends the options.  The arguments are ``None``
    when help is asked for, and the name too for the top-level help.
    Raises :class:`UsageError` on anything the table does not allow.
    """
    if not argv:
        raise UsageError(f"missing command (one of {', '.join(COMMANDS)})")
    name = argv[0]
    if name in _HELP:
        return None, None
    command = COMMANDS.get(name)
    if command is None:
        raise UsageError(f"unknown command {name!r} (one of {', '.join(COMMANDS)})")
    values = {option.dest: option.default for option in command.options.values()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
        elif token in _HELP:
            return name, None
        elif token.startswith("-") and token != "-":
            flag, inline, text = token.partition("=")
            option = command.options.get(flag)
            if option is None:
                owners = [other for other, c in COMMANDS.items() if flag in c.options]
                if owners:
                    raise UsageError(f"{name}: {flag} is an option of {', '.join(owners)}, not of {name}")
                raise UsageError(f"{name}: unknown option {flag}")
            if not inline:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"{name}: {flag} needs a value")
            try:
                values[option.dest] = option.convert(text)
            except ValueError as exc:
                raise UsageError(f"{name}: {flag}: {exc}") from None
        else:
            positionals.append(token)
    wanted = command.positionals
    if len(positionals) < len(wanted):
        raise UsageError(f"{name}: missing {wanted[len(positionals)].upper()}")
    if len(positionals) > len(wanted):
        raise UsageError(f"{name}: unexpected argument {positionals[len(wanted)]!r}")
    values.update(zip(wanted, positionals))
    tol = Tolerances(**{option.dest: values.pop(option.dest) for option in _TOLERANCE_OPTIONS.values()})
    return name, SimpleNamespace(tol=tol, **values)


def _columns(rows) -> list[str]:
    width = max(len(left) for left, _ in rows) + 2
    return [f"  {left:<{width}}{right}" for left, right in rows]


def help_text(name: str | None = None) -> str:
    """The ``-h`` text of the top level, or of one command, from :data:`COMMANDS`."""
    if name is None:
        lines = ["usage: covkit COMMAND [OPTIONS]", "", _DESCRIPTION, "", "commands:"]
        lines += _columns([(n, c.help) for n, c in COMMANDS.items()])
        lines += ["", "'covkit COMMAND -h' lists the options of one command."]
    else:
        command = COMMANDS[name]
        rows = [
            (f"{flag} {o.dest.upper()}", o.help if o.default is None else f"{o.help} (default {o.default!r})")
            for flag, o in command.options.items()
        ]
        rows.append(("-h, --help", "show this help"))
        places = " ".join(p.upper() for p in command.positionals)
        lines = [f"usage: covkit {name} {places} [OPTIONS]", "", command.help, "", "options:"] + _columns(rows)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        name, args = read_argv(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args is None:
        sys.stdout.write(help_text(name))
        return EXIT_OK
    start = time.perf_counter()
    try:
        code = COMMANDS[name].run(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except (specfile.SpecFileError, GroupStructureError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DilationResidualError, NotPositiveError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"resource failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        # the reader closed stdout, as `covkit sample ... | head` does: stop
        # writing, and point stdout at devnull so the flush at shutdown
        # cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    finally:
        elapsed = time.perf_counter() - start
        print(f"wall time: {elapsed:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
