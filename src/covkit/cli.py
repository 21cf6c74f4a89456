"""Command-line front door: parse specification files, dispatch to the
engines, and emit machine-readable reports.

Exit codes: 0 success, 1 validation failure, 2 parse error, 3 numeric
tolerance failure, 4 out of memory.  Reports are byte-stable for fixed
inputs, tolerances, and sample seeds; wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

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
    EquivalenceError,
    kernel_extremal,
    kolmogorov_decompose,
    validate_kernel,
)
from .numlin import NotPositiveError, Tolerances, frob, psd_status

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4


def _tolerances(args) -> Tolerances:
    return Tolerances(
        psd_eig=args.tol_psd_eig,
        rank_rel=args.tol_rank_rel,
        unitary_fro=args.tol_unitary_fro,
        recon_fro=args.tol_recon_fro,
    )


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
        self.body["verdicts"][name] = {"ok": bool(ok), "residual": float(residual)}

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


def _merge_checks(report: Report, checks: Checks):
    for name, check in checks.items():
        report.verdict(name, check.ok, check.residual)


def cmd_validate(args) -> int:
    tol = _tolerances(args)
    kind, obj = _load_file(args.file, tol)
    report = Report("validate", kind, tol)
    if kind == "group":
        # the table and the action are exact: a violation is a parse error
        report.verdict("group_axioms", True)
        if "action" in obj:
            report.verdict("action", True)
        if "cocycle" in obj:
            bad, residual = cocycle_status(obj["cocycle"])
            report.verdict("cocycle", bad is None, residual)
        if "rep" in obj:
            # the product rows certify the representation only for a 2-cocycle
            bad_cocycle, cocycle_residual = cocycle_status(obj["rep"].cocycle)
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
        d, ops = obj
        spec = phase_space(d, ops, tol)
        _merge_checks(report, validate_instrument(spec, tol))
    elif kind == "state":
        report.verdict("positive", *psd_status(obj, tol))
        drift = abs(np.trace(obj).real - 1.0)
        report.verdict("unit_trace", drift <= tol.recon_fro, drift)
    _finish(report, args)
    return EXIT_OK if report.all_ok else EXIT_INVALID


def cmd_dilate(args) -> int:
    tol = _tolerances(args)
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
            sym=None if dil.mult_rep is None else specfile._pairs([dil.sym(g) for g in obj.symmetry.group.elements()]),
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
    tol = _tolerances(args)
    kind, obj = _load_file(args.file, tol)
    report = Report("extremal", kind, tol)
    direction = "Hermitian direction on the dilation certifying a convex split"
    if kind == "kernel":
        spec, z_pairs = obj
        cert = kernel_extremal(spec, z_pairs, None, tol)
        neighbours = (
            [specfile.kernel_out(p, z_pairs) for p in cert.perturbed] if cert.perturbed else None
        )
    elif kind == "cpmap":
        cert = cp_extremal(obj, None, tol)
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
    tol = _tolerances(args)
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
    tol = _tolerances(args)
    kind, obj = _load_file(args.file, tol)
    if kind != "phase_space":
        raise specfile.SpecFileError("phase-space needs a phase_space document")
    d, ops = obj
    spec = phase_space(d, ops, tol)
    text = specfile.document("instrument", specfile.instrument_out(spec))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_sample(args) -> int:
    tol = _tolerances(args)
    kind, obj = _load_file(args.file, tol)
    if kind == "phase_space":
        obj = phase_space(obj[0], obj[1], tol)
    elif kind != "instrument":
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
    text = specfile.dumps(report.body) + "\n"
    sys.stdout.write(text)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-psd-eig", type=float, default=1e-9, help="PSD eigenvalue slack (default 1e-9)")
    common.add_argument("--tol-rank-rel", type=float, default=1e-9, help="relative rank cutoff (default 1e-9)")
    common.add_argument("--tol-unitary-fro", type=float, default=1e-8, help="unitarity certificate slack (default 1e-8)")
    common.add_argument("--tol-recon-fro", type=float, default=1e-8, help="reconstruction certificate slack (default 1e-8)")
    # the four commands that print a report can also write it to a file
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument("--json-out", type=str, default=None, help="also write the report to this path")

    parser = argparse.ArgumentParser(
        prog="covkit",
        description=(
            "Covariant kernels, dilations, and quantum instruments over finite "
            "symmetry groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[report], help="check a document against its kind's invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dilate", parents=[report], help="minimal dilation per kind (Kolmogorov / KSGNS / Naimark)")
    p.add_argument("file")
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("extremal", parents=[report], help="decide extremality and emit a witness or split")
    p.add_argument("file")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("kraus", parents=[report], help="extract a Kraus / generating family")
    p.add_argument("file")
    p.set_defaults(func=cmd_kraus)

    p = sub.add_parser("phase-space", parents=[common], help="build the discrete phase-space instrument from a seed")
    p.add_argument("file")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_phase_space)

    p = sub.add_parser("sample", parents=[common], help="draw outcomes and post states from an instrument")
    p.add_argument("file")
    p.add_argument("state")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="seed of the outcome draws (default 0)")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except (specfile.SpecFileError, GroupStructureError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DilationResidualError, EquivalenceError, NotPositiveError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:
        print(f"resource failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        elapsed = time.perf_counter() - start
        print(f"wall time: {elapsed:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
