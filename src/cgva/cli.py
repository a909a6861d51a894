"""Batch command line front end.

Four subcommands: validate an algebra against the structural assumptions,
build the commutative algebra and export its tables, run the verification
suites, and evaluate mode expressions on the vacuum module.  All reports
are deterministic: same configuration and seed, same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .cg import _construct, build_cg, identity_suite
from .degree2 import (DegreeTwo, conformal_suite, correspondence_suite,
                      ideal_closure_suite)
from .fields import FieldError, field_spec_string, parse_field_spec
from .lie import (AlgebraError, algebra_from_dict, algebra_from_name,
                  algebra_hash)
from .report import SuiteReport
from .vertex import (VertexEngine, axiom_suite, comp_lemma_suite,
                     format_state, parse_state)

PRNG_NAME = "python-random-mt19937"

VERIFY_CHOICES = ("axioms", "comp-lemmas", "cg-identities", "main-theorem",
                  "conformal", "ideal-closure", "all")


class CliError(Exception):
    """Unusable invocation: bad flags, bad field, unreadable input."""


def _parse_form(text: str):
    t = text.strip().lower().replace("-", "_")
    if t in ("dual_coxeter", "killing"):
        return t
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(
            f"bad form {text!r}: expected dual-coxeter, killing, or a "
            "rational Killing multiple like 1/4") from exc


def _resolve_algebra(args):
    """Returns (algebra, form description for the report)."""
    try:
        field = parse_field_spec(args.field)
    except FieldError as exc:
        raise CliError(str(exc)) from exc
    if args.file and args.algebra:
        raise CliError("choose one of --algebra and --file, not both")
    if args.file:
        if args.form is not None:
            raise CliError("--form applies to builtin algebras; a file "
                           "carries its own form")
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from exc
        return algebra_from_dict(data, field), "from-file"
    if not args.algebra:
        raise CliError("no algebra given: use --algebra or --file")
    form = _parse_form(args.form) if args.form is not None else "dual_coxeter"
    try:
        alg = algebra_from_name(args.algebra, field, form)
    except AlgebraError as exc:
        if "unknown builtin" in str(exc):
            raise CliError(str(exc)) from exc
        raise
    desc = form if isinstance(form, str) else str(form)
    return alg, desc


def _header(alg, form_desc) -> dict:
    """The fields every report and export opens with."""
    return {
        "tool": "cgva",
        "version": __version__,
        "algebra": alg.name,
        "algebra_hash": algebra_hash(alg),
        "field": field_spec_string(alg.field),
        "form": form_desc,
    }


def _envelope(args, alg, form_desc, suites):
    return {
        **_header(alg, form_desc),
        "seed": args.seed,
        "samples": args.samples,
        "max_degree": args.max_degree,
        "prng": PRNG_NAME,
        "passed": all(s.passed for s in suites),
        "suites": [s.to_dict() for s in suites],
    }


def _render_text(env) -> str:
    lines = [f"cgva {env['version']}  algebra {env['algebra']}  "
             f"field {env['field']}  form {env['form']}"]
    for suite in env["suites"]:
        lines.append(f"suite {suite['suite']}: "
                     f"{'PASS' if suite['passed'] else 'FAIL'}")
        for c in suite["checks"]:
            mark = "ok" if c["passed"] else "FAIL"
            extra = f"  ({c['details']})" if c["details"] else ""
            lines.append(f"  {c['name']}: {mark}{extra}")
        for k, v in suite["meta"].items():
            lines.append(f"  [{k} = {v}]")
    lines.append(f"overall: {'PASS' if env['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _render_validation(env) -> str:
    lines = [f"algebra {env['algebra']} over {env['field']}: "
             f"{'PASS' if env['passed'] else 'FAIL'}"]
    for k, v in sorted(env["validation"].items()):
        lines.append(f"  {k}: {v}")
    lines.extend(f"  note: {n}" for n in env["notes"])
    return "\n".join(lines) + "\n"


def _emit(args, env, render_text) -> None:
    if args.format == "text":
        text = render_text(env)
    else:
        text = json.dumps(env, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    alg, form_desc = _resolve_algebra(args)
    rep = alg.validate()
    ok = rep.structure_ok and rep.nondegenerate_ok
    notes = []
    if ok and rep.center_dim:
        notes.append("main-theorem: inadmissible (center != 0)")
    env = {
        **_header(alg, form_desc),
        "passed": ok,
        "validation": rep.to_dict(),
        "notes": notes,
    }
    _emit(args, env, _render_validation)
    return 0 if ok else 1


def cmd_build_cg(args) -> int:
    alg, form_desc = _resolve_algebra(args)
    algebra = build_cg(alg)
    unit = algebra.unit()
    lines = [f"dim A = {algebra.dim}", f"unital: {'yes' if unit else 'no'}"]
    if unit:
        fmt = alg.field.format
        terms = " + ".join(
            f"{fmt(c)} {alg.labels[i]}*{alg.labels[j]}"
            for t, c in sorted(unit.items())
            for (i, j) in [algebra.im_monomials[t]])
        lines.append(f"unit = S({terms})")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.out:
        payload = {
            **_header(alg, form_desc),
            "unit": ([[t, alg.field.format(c)] for t, c in sorted(unit.items())]
                     if unit else None),
            "tables": algebra.export_tables(),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args) -> int:
    alg, form_desc = _resolve_algebra(args)
    which = args.which
    suites: list[SuiteReport] = []
    if which in ("axioms", "all"):
        suites.append(axiom_suite(alg, samples=args.samples, seed=args.seed,
                                  max_degree=args.max_degree))
    if which in ("comp-lemmas", "all"):
        suites.append(comp_lemma_suite(alg))
    # one A serves the identity suite and the degree-2 suites.  build_cg
    # refuses a failed *-ideal proof; cg-identities alone reports it
    needs_a = which in ("main-theorem", "conformal", "ideal-closure", "all")
    if needs_a or which == "cg-identities":
        cg = build_cg(alg) if needs_a else _construct(alg)
    if which in ("cg-identities", "all"):
        suites.append(identity_suite(cg, samples=args.samples, seed=args.seed))
    if needs_a:
        # one DegreeTwo on that A, with its engine and ker T, serves all three
        d2 = DegreeTwo(cg)
        if which in ("main-theorem", "all"):
            suites.append(correspondence_suite(d2))
        if which in ("conformal", "all"):
            suites.append(conformal_suite(d2))
        if which in ("ideal-closure", "all"):
            suites.append(ideal_closure_suite(d2))
    env = _envelope(args, alg, form_desc, suites)
    _emit(args, env, _render_text)
    return 0 if env["passed"] else 1


def cmd_eval(args) -> int:
    alg, _ = _resolve_algebra(args)
    eng = VertexEngine(alg)
    try:
        state = parse_state(eng, args.expression)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    sys.stdout.write(format_state(alg, state) + "\n")
    return 0


# -- argument plumbing -----------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--algebra", help="builtin algebra name, e.g. sl2, so5")
    source.add_argument("--file", help="path to an algebra JSON file")
    source.add_argument("--field", default="q",
                        help="q for the rationals or fp:N for an odd prime N")
    source.add_argument("--form",
                        help="dual-coxeter (default), killing, or a rational "
                             "multiple of the Killing form")
    report = argparse.ArgumentParser(add_help=False, parents=[source])
    report.add_argument("--out", help="write the report here instead of stdout")
    report.add_argument("--format", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(
        prog="cgva",
        description="Exact commutative algebras from Lie algebras, with "
                    "their degree-2 vertex-algebra verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[report],
                   help="check the structural assumptions on an algebra")
    bcg = sub.add_parser("build-cg", parents=[source],
                         help="build A(g, kappa); print dimension and unit, "
                              "optionally export tables")
    bcg.add_argument("--out", help="also write the product and tau tables "
                                   "here, as JSON")
    bcg.add_argument("--seed", type=int, default=0,
                     help="accepted and ignored: the build draws no samples")
    ver = sub.add_parser("verify", parents=[report],
                         help="run one verification suite or all of them")
    ver.add_argument("which", choices=VERIFY_CHOICES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    ev = sub.add_parser("eval", parents=[source],
                        help="normal order a mode expression")
    ev.add_argument("expression")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "build-cg": cmd_build_cg,
    "verify": cmd_verify,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.max_degree < 2:
            parser.error("--max-degree must be at least 2")
        if args.samples < 1:
            parser.error("--samples must be positive")
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        sys.stderr.write(f"cgva: {exc}\n")
        return 2
    except AlgebraError as exc:
        sys.stderr.write(f"cgva: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
