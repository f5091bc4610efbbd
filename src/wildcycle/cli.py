"""Command line interface.

    wildcycle <command> --input <file> [--truncation T] [--lambda0 <value>]
              [--output <file>] [--json] [--order R] [--unfolded]

Commands: decompose, nearby, regularity, ramify, twist, mellin, verify.
Exit codes: 0 success; 1 input error; 2 unsupported algebraic extension or
insufficient truncation (the report carries the required truncation);
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys

from .connection import ExpFactor
from .document import MAX_TRUNCATION, InputDocument
from .errors import (InsufficientTruncation, InternalInvariantError,
                     NonTerminating, ParseError,
                     UnsupportedAlgebraicExtension, WildcycleError)
from .params import ParamScalar
from .report import Report

# The modules of the engine's stages are imported by the commands that run
# them, so a call loads only what its command needs.

COMMANDS = ("decompose", "nearby", "regularity", "ramify", "twist", "mellin",
            "verify")


def build_argument_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wildcycle",
        description="formal-local invariants of meromorphic lambda-connections")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--input", required=True, help="input document path")
    ap.add_argument("--truncation", type=int, default=None,
                    help="override the document truncation")
    ap.add_argument("--lambda0", default=None,
                    help="Gaussian-rational model point (default 1)")
    ap.add_argument("--output", default=None,
                    help="write the summary here and the JSON alongside")
    ap.add_argument("--json", action="store_true",
                    help="print the JSON report instead of the summary")
    ap.add_argument("--order", type=int, default=None,
                    help="ramification order for the ramify command")
    ap.add_argument("--unfolded", action="store_true",
                    help="per-summand nearby table without orbit folding")
    return ap


def run_command(command: str, doc: InputDocument, lambda0=None,
                unfolded: bool = False, order_override=None) -> Report:
    """Dispatch one command on a parsed document; returns the report."""
    report = Report(command=command)
    report.sections["input"] = {
        "rank": doc.rank,
        "ramification": doc.ramification,
        "truncation": doc.truncation,
        "cyclotomic_order": doc.cyclotomic_order,
        "document": doc.render(),
    }
    lam0 = lambda0 if lambda0 is not None else doc.lambda0_points[0]
    conn = doc.connection()
    if command == "decompose":
        _section_decomposition(report, conn, doc)
    elif command == "verify":
        from .turrittin import verify_decomposition
        dec = _section_decomposition(report, conn, doc)
        ver = verify_decomposition(conn, dec)
        report.sections["verification"] = _jsonable(ver)
        if not ver["pass"]:
            report.status = "failed"
            report.findings.append("decomposition verification failed")
    elif command == "nearby":
        from .nearby import deligne_nearby_cycles
        table = deligne_nearby_cycles(conn, lambda0=lam0, folded=not unfolded)
        report.sections["nearby_cycles"] = table.as_json()
    elif command == "regularity":
        from .regular import regularity_test
        res = regularity_test(conn)
        report.sections["regularity"] = _jsonable(res)
        if not res["agree"]:
            report.status = "failed"
            report.findings.append("regularity criteria disagree")
    elif command == "ramify":
        r = order_override if order_override is not None else doc.order
        out = conn.ramify_pullback(r)
        report.sections["ramify"] = {
            "order": r,
            "ramification": out.q,
            "matrix": out.action.render(doc.tvar, doc.lvar),
        }
    elif command == "twist":
        if doc.twist is None:
            raise WildcycleError("twist command needs a 'twist:' header")
        out = conn.twist_exponential(doc.twist, doc.twist_sign)
        report.sections["twist"] = {
            "phi": ExpFactor(1, doc.twist.coeffs).render(doc.tvar),
            "sign": doc.twist_sign,
            "matrix": out.action.render(doc.tvar, doc.lvar),
        }
    elif command == "mellin":
        _section_mellin(report, doc)
    else:
        raise WildcycleError(f"unknown command {command}")
    return report


def _section_decomposition(report, conn, doc):
    """The Newton polygon, read off the decomposition, and the decomposition
    itself; returns the decomposition."""
    from .reduction import decomposition_slopes
    from .turrittin import NewtonPolygon, formal_decompose, required_truncation
    dec = formal_decompose(conn)
    poly = NewtonPolygon.of(decomposition_slopes(dec))
    report.sections["newton_polygon"] = {
        "slopes": poly.as_json(),
        "minimal_ramification": poly.ramification(),
        "regular": poly.is_regular(),
    }
    summands = []
    for s in dec.summands:
        summands.append({
            "phi": s.phi.render(doc.tvar),
            "phi_level": s.phi.q,
            "rank": s.rank,
        })
    bound = required_truncation(conn.rank, conn.pole_order(), conn.q,
                                doc.truncation)
    report.sections["decomposition"] = {
        "q_input": dec.q_input,
        "relative_ramification": dec.rel_ramification,
        "q_used": dec.q_used,
        "summands": summands,
        "certified_order": dec.certified_order,
        "required_truncation_bound": bound,
    }
    if bound > MAX_TRUNCATION:
        report.findings.append(f"required_truncation_bound: {bound}"
                               + _cap_note(bound))
    return dec


def _cap_note(truncation: int) -> str:
    """Says when a truncation the report names is one the CLI refuses."""
    if truncation <= MAX_TRUNCATION:
        return ""
    return f" (above the truncation cap {MAX_TRUNCATION})"


def _section_mellin(report, doc):
    if not doc.mellin:
        raise WildcycleError("mellin command needs mellin_* headers")
    from .exponents import ComplexExponent
    from .mellin import (ExpansionTerm, mellin_poles_merged,
                         model_orthonormal_block)
    re, im = doc.mellin["beta"]
    beta = ComplexExponent.of(re, im)
    ell = doc.mellin["ell"]
    phi = doc.mellin["phi"] or ExpFactor.zero(doc.ramification)
    term = ExpansionTerm(phi=phi, beta=beta, ell=ell,
                         kprime=doc.mellin["kprime"],
                         ksecond=doc.mellin["ksecond"],
                         coeff=ParamScalar.rational(1))
    poles = mellin_poles_merged([term])
    block = model_orthonormal_block(beta, ell)
    block_poles = mellin_poles_merged(block)
    report.sections["mellin"] = {
        "term": term.render(),
        "poles": [p.as_json() for p in poles],
        "model_block": [t.render() for t in block],
        "model_block_poles": [p.as_json() for p in block_poles],
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return str(obj)


def main(argv=None) -> int:
    args = build_argument_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"wildcycle: cannot read input: {exc}", file=sys.stderr)
        return 1
    try:
        doc = InputDocument.parse(text, truncation=args.truncation)
        lam0 = None
        if args.lambda0 is not None:
            lam0 = doc._scalar(args.lambda0, 0)
        report = run_command(args.command, doc, lambda0=lam0,
                             unfolded=args.unfolded,
                             order_override=args.order)
    except ParseError as exc:
        report = Report(command=args.command, status="input-error",
                        findings=[str(exc)])
        _emit(report, args)
        return 1
    except (UnsupportedAlgebraicExtension, InsufficientTruncation) as exc:
        findings = [f"{type(exc).__name__}: {exc}"]
        if isinstance(exc, InsufficientTruncation) and exc.required:
            findings.append(f"required truncation: {exc.required}"
                            + _cap_note(exc.required))
        if isinstance(exc, UnsupportedAlgebraicExtension) and exc.min_poly:
            findings.append(f"minimal polynomial: {exc.min_poly}")
        report = Report(command=args.command, status="unsupported",
                        findings=findings)
        _emit(report, args)
        return 2
    except (InternalInvariantError, NonTerminating) as exc:
        report = Report(command=args.command, status="internal-error",
                        findings=[f"{type(exc).__name__}: {exc}"])
        _emit(report, args)
        return 3
    except WildcycleError as exc:
        report = Report(command=args.command, status="input-error",
                        findings=[str(exc)])
        _emit(report, args)
        return 1
    _emit(report, args)
    return 0 if report.status in ("ok", "failed") else 1


def _emit(report: Report, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report.human_text())
        with open(args.output + ".json", "w", encoding="utf-8") as handle:
            handle.write(report.to_json_text())
        return
    if args.json:
        sys.stdout.write(report.to_json_text())
    else:
        sys.stdout.write(report.human_text())


if __name__ == "__main__":
    raise SystemExit(main())
