"""Command-line interface: parse, transform, build automata, evaluate, check.

Grammar files are plain text: directives first, then one equation per line.

    @semiring tropical
    @alphabet a b c
    @sort x x1
    @sort z z1 z2
    @start z2
    @buchi 1
    x1 = (1) a x1 b | (1) a b
    z1 = c z1
    z2 = x1 z1 | z1

Sorts: y-variables give a quemiring system, x- and z-variables a mixed one;
z-equations must be right-linear (one trailing z-variable per monomial).
Exit codes: 0 ok, 1 semantic failure, 2 usage error (including a file that
cannot be read or written).  Lasso values are exact on grammars and automata
alike, so no answer is inconclusive.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, replace

from . import __version__
from .gnf import (
    GnfPipelineReport,
    decompose_canonical,
    finite_gnf,
    normalize_decomposition,
    pipeline_from_decomposition,
)
from .pda import (
    SimpleOmegaPDA,
    behavior_finite,
    behavior_omega_lasso,
    induced_finite_pda,
    induced_omega_pda,
    pda_from_json,
    pda_to_dot,
    pda_to_json,
)
from .semiring import SemiringError, SemiringInstance, instance_by_name
from .series import (
    LassoWord,
    Polynomial,
    SeriesError,
    format_polynomial,
    parse_polynomial,
)
from .system import (
    AlgebraicSystem,
    CanonicalSelector,
    IllFormedSystem,
    MixedSystem,
    OmegaSystem,
    SegmentTable,
    SemanticFailure,
    canonical_omega_lasso,
    induce_mixed,
    is_gnf_mixed,
    is_gnf_omega,
    sparse_row,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class GrammarError(ValueError):
    def __init__(self, msg: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {msg}")
        self.line = line
        self.column = column


@dataclass
class GrammarFile:
    """Parsed grammar file: the system plus its @start and @buchi directives."""

    instance: SemiringInstance
    terminals: tuple[str, ...]
    kind: str  # "omega" or "mixed"
    system: OmegaSystem | MixedSystem
    start: str | None
    buchi: int | None


def parse_grammar(text: str) -> GrammarFile:
    instance = None
    terminals: list[str] = []
    sorts: dict[str, str] = {}
    order: list[str] = []
    start = None
    buchi = None
    equations: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@"):
            fields = line.split()
            directive = fields[0]
            if directive == "@semiring":
                if len(fields) != 2:
                    raise GrammarError("@semiring takes one name", lineno)
                try:
                    instance = instance_by_name(fields[1])
                except SemiringError as exc:
                    raise GrammarError(str(exc), lineno) from None
            elif directive == "@alphabet":
                terminals.extend(fields[1:])
            elif directive == "@sort":
                if len(fields) < 3 or fields[1] not in ("x", "y", "z"):
                    raise GrammarError("@sort needs x|y|z and variable names", lineno)
                for v in fields[2:]:
                    if v in sorts:
                        raise GrammarError(f"variable {v} declared twice", lineno)
                    sorts[v] = fields[1]
                    order.append(v)
                if "y" in sorts.values() and len(set(sorts.values())) > 1:
                    raise GrammarError("y-variables cannot be mixed with x/z-variables", lineno)
            elif directive == "@start":
                if len(fields) != 2:
                    raise GrammarError("@start takes one variable", lineno)
                start = fields[1]
            elif directive == "@buchi":
                try:
                    (buchi,) = map(int, fields[1:])
                except ValueError:
                    raise GrammarError("@buchi takes one integer", lineno) from None
            else:
                raise GrammarError(f"unknown directive {directive}", lineno)
            continue
        if "=" not in line:
            raise GrammarError("expected an equation or a directive", lineno)
        lhs, rhs = line.split("=", 1)
        equations.append((lhs.strip(), rhs.strip(), lineno))

    if instance is None:
        raise GrammarError("missing @semiring directive", 1)
    if not terminals:
        raise GrammarError("missing @alphabet directive", 1)
    if not sorts:
        raise GrammarError("missing @sort directive", 1)
    known = set(terminals) | set(sorts)
    rhs_by_var: dict[str, Polynomial] = {}
    line_of = {}
    for lhs, rhs, lineno in equations:
        line_of[lhs] = lineno
        if lhs not in sorts:
            raise GrammarError(f"equation for undeclared variable {lhs}", lineno)
        if lhs in rhs_by_var:
            raise GrammarError(f"second equation for {lhs}", lineno)
        try:
            rhs_by_var[lhs] = parse_polynomial(rhs, instance, lambda s: s in known)
        except (SeriesError, SemiringError) as exc:
            raise GrammarError(str(exc), lineno, column=len(lhs) + 4) from None
    for v in sorts:
        rhs_by_var.setdefault(v, Polynomial.zero(instance))

    kinds = set(sorts.values())
    ts = tuple(terminals)
    if kinds <= {"y"}:
        y_vars = tuple(v for v in order)
        sys = OmegaSystem(instance, ts, y_vars, tuple(rhs_by_var[v] for v in y_vars))
        return GrammarFile(instance, ts, "omega", sys, start, buchi)
    x_vars = tuple(v for v in order if sorts[v] == "x")
    z_vars = tuple(v for v in order if sorts[v] == "z")
    z_ix = {z: j for j, z in enumerate(z_vars)}
    rho_rows = []
    for zi in z_vars:
        terms: dict[int, list] = {}
        for mono in rhs_by_var[zi].monomials:
            w = mono.word
            if not w or w[-1] not in z_ix or any(s in z_ix for s in w[:-1]):
                raise GrammarError(
                    f"z-equation for {zi} must be right-linear in z-variables", line_of[zi]
                )
            terms.setdefault(z_ix[w[-1]], []).append((mono.coeff, w[:-1]))
        rho_rows.append(sparse_row(instance, terms))
    sys = MixedSystem(
        instance,
        ts,
        x_vars,
        tuple(rhs_by_var[v] for v in x_vars),
        z_vars,
        tuple(rho_rows),
    )
    return GrammarFile(instance, ts, "mixed", sys, start, buchi)


def format_grammar(g: GrammarFile) -> str:
    lines = [f"@semiring {g.instance.name}", "@alphabet " + " ".join(g.terminals)]
    if g.kind == "omega":
        lines.append("@sort y " + " ".join(g.system.variables))
    else:
        if g.system.x_vars:
            lines.append("@sort x " + " ".join(g.system.x_vars))
        if g.system.z_vars:
            lines.append("@sort z " + " ".join(g.system.z_vars))
    if g.start is not None:
        lines.append(f"@start {g.start}")
    if g.buchi is not None:
        lines.append(f"@buchi {g.buchi}")
    if g.kind == "omega":
        for v, p in zip(g.system.variables, g.system.rhs):
            lines.append(f"{v} = {format_polynomial(p)}")
    else:
        for v, p in zip(g.system.x_vars, g.system.x_rhs):
            lines.append(f"{v} = {format_polynomial(p)}")
        z_vars = g.system.z_vars
        for zi, row in zip(z_vars, g.system.rho):
            terms = [
                (mono.coeff, mono.word + (z_vars[j],))
                for j, p in row.items()
                for mono in p.monomials
            ]
            lines.append(f"{zi} = {format_polynomial(Polynomial.build(g.instance, terms))}")
    return "\n".join(lines) + "\n"


def _load(path: str) -> GrammarFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read())


def _symbols_of(text: str) -> tuple[str, ...]:
    if " " in text:
        return tuple(text.split())
    return tuple(text)


def _parse_lasso(text: str) -> LassoWord:
    if text.count(":") != 1:
        raise ValueError("lasso words are written prefix:period, with one ':'")
    u, v = text.split(":", 1)
    if not v:
        raise ValueError("lasso period must be nonempty")
    return LassoWord(_symbols_of(u) if u else (), _symbols_of(v))


# -- commands -----------------------------------------------------------------


def cmd_parse(args) -> int:
    g = _load(args.path)
    if g.kind == "omega":
        gnf = is_gnf_omega(g.system)
        summary = {
            "kind": "omega",
            "semiring": g.instance.name,
            "variables": list(g.system.variables),
            "gnf": gnf,
        }
    else:
        summary = {
            "kind": "mixed",
            "semiring": g.instance.name,
            "x_variables": list(g.system.x_vars),
            "z_variables": list(g.system.z_vars),
            "gnf": is_gnf_mixed(g.system),
        }
    summary["start"] = g.start
    summary["buchi"] = g.buchi
    summary["version"] = __version__
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _selection(
    g: GrammarFile, name: str | None = None, sorts: str = "xz", buchi: int | None = None
) -> tuple[MixedSystem, int, int, int]:
    """The mixed system a command reads, its x- and z-index and Buchi count.

    The variable is `name` (looked up in `sorts`, among the y-variables of an
    omega file), else the file's @start (looked up in either sort).  A paired
    file (an omega file, or one with as many x- as z-variables) selects one
    index for both sorts, as `induce_mixed` pairs x_i and z_i; in an unpaired
    file the variable sets its own sort's index and the other keeps its
    default: x-variable 0, or the last z-variable.  With no variable the
    z-index is the last z-variable, the component `gnf` outputs carry.  The
    Buchi count is `buchi`, else @buchi, else min(1, m).
    """
    mixed = induce_mixed(g.system) if g.kind == "omega" else g.system
    m = len(mixed.z_vars)
    paired = len(mixed.x_vars) == m
    x, z = (m - 1 if paired else 0), m - 1
    if name is None:
        name, sorts = g.start, "xz"
    if name is not None:
        for sort in sorts:
            names = g.system.variables if g.kind == "omega" else getattr(mixed, f"{sort}_vars")
            if name in names:
                i = names.index(name)
                if paired:
                    x = z = i
                elif sort == "x":
                    x = i
                else:
                    z = i
                break
        else:
            raise IllFormedSystem(f"unknown start variable {name!r}")
    k = buchi if buchi is not None else g.buchi if g.buchi is not None else min(1, m)
    return mixed, x, z, k


_NO_OMEGA = "the grammar has no omega component: it declares no z-variable"


def cmd_gnf(args) -> int:
    g = _load(args.path)
    report = GnfPipelineReport()
    report.add("input", kind=g.kind, version=__version__)
    target = args.target
    finite = g.kind == "mixed" and not g.system.z_vars
    mixed, x, z, k = _selection(g, args.component, "x" if finite else "z", args.buchi)
    if (g.kind == "omega" and target == "omega" and is_gnf_omega(g.system)) or (
        g.kind == "mixed" and target == "mixed" and is_gnf_mixed(g.system)
    ):
        # the options replace the directives they override, so the output
        # selects what the input and options did
        report.add("identity", skipped=True)
        out_g = replace(
            g,
            start=g.start if args.component is None else args.component,
            buchi=g.buchi if args.buchi is None else args.buchi,
        )
        _emit(args, format_grammar(out_g), report)
        return EXIT_OK
    if finite:
        if target == "omega":
            raise IllFormedSystem(_NO_OMEGA)
        # the mixed target of a finite grammar is its finite normal form,
        # with the same coefficient on every nonempty word
        nf = finite_gnf(mixed.x_part).system
        report.add("finite_gnf", variables=len(nf.variables))
        out = MixedSystem(g.instance, nf.terminals, nf.variables, nf.rhs, (), ())
        out_g = GrammarFile(g.instance, nf.terminals, "mixed", out, mixed.x_vars[x], None)
        _emit(args, format_grammar(out_g), report)
        return EXIT_OK
    dec = decompose_canonical(mixed, k, z)
    report.add("decompose", terms=dec.width, buchi=k, component=mixed.z_vars[z])
    source = (mixed.x_part, x) if mixed.x_vars else None
    norm, gnf_mixed, sel, omega_sys, omega_sel, report = pipeline_from_decomposition(
        dec, report, source
    )
    if target == "mixed":
        out_g = GrammarFile(
            g.instance,
            gnf_mixed.terminals,
            "mixed",
            gnf_mixed,
            gnf_mixed.z_vars[sel.component],
            sel.buchi_count,
        )
    else:
        out_g = GrammarFile(
            g.instance,
            omega_sys.terminals,
            "omega",
            omega_sys,
            omega_sys.variables[omega_sel.component],
            omega_sel.buchi_count,
        )
    _emit(args, format_grammar(out_g), report)
    return EXIT_OK


def _emit(args, grammar_text: str, report: GnfPipelineReport) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(grammar_text)
    else:
        sys.stdout.write(grammar_text)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())


def cmd_build_pda(args) -> int:
    mixed, x, z, k = _selection(_load(args.path), args.start, buchi=args.buchi)
    if mixed.z_vars:
        if len(mixed.x_vars) != len(mixed.z_vars):
            raise IllFormedSystem(
                "omega construction needs equally many x- and z-variables; "
                "run the normal form first"
            )
        auto = induced_omega_pda(mixed, z, k)
    else:
        auto = induced_finite_pda(mixed.x_part, x)
    doc = pda_to_json(auto)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        print(doc)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(pda_to_dot(auto))
    return EXIT_OK


def _print_value(v) -> None:
    print(SemiringInstance.format_value(v))


def cmd_eval(args) -> int:
    if args.word is None and args.lasso is None:
        print("error: need --word or --lasso", file=sys.stderr)
        return EXIT_USAGE
    if args.path.endswith(".json"):
        for option, given in (("--buchi", args.buchi), ("--component", args.component)):
            if given is not None:
                print(
                    f"error: {option} selects from a grammar; an automaton's initial "
                    "and repeated states are fixed by build-pda",
                    file=sys.stderr,
                )
                return EXIT_USAGE
        with open(args.path, "r", encoding="utf-8") as fh:
            auto = pda_from_json(fh.read())
        if args.word is not None:
            _print_value(behavior_finite(auto, _symbols_of(args.word)))
            return EXIT_OK
        _print_value(behavior_omega_lasso(auto, _parse_lasso(args.lasso)).value)
        return EXIT_OK

    g = _load(args.path)
    if args.word is not None:
        mixed, x, _, _ = _selection(g, args.component, "x", args.buchi)
        if not mixed.x_vars:
            raise IllFormedSystem("a finite word needs an x- or y-variable; the grammar has none")
        word = _symbols_of(args.word)
        table = SegmentTable(mixed.x_part, word)
        _print_value(table.coeff(mixed.x_vars[x], 0, len(word)))
        return EXIT_OK
    if g.kind == "mixed" and not g.system.z_vars:
        raise IllFormedSystem(_NO_OMEGA)
    mixed, _, z, k = _selection(g, args.component, "z", args.buchi)
    _print_value(canonical_omega_lasso(mixed, k, z, _parse_lasso(args.lasso)).value)
    return EXIT_OK


def cmd_check(args) -> int:
    from . import checks

    seed = args.seed
    if args.suite == "identities":
        failures = checks.identity_suite(random.Random(seed))
    elif args.suite == "oracle":
        failures = checks.oracle_suite(random.Random(seed))
    else:
        failures = checks.examples_suite(args.golden)
    for name, ok, info in failures.lines:
        print(f"{'PASS' if ok else 'FAIL'} {name}{'' if not info else ' ' + info}")
    print(f"{'PASS' if failures.ok else 'FAIL'} suite={args.suite} seed={seed} version={__version__}")
    return EXIT_OK if failures.ok else EXIT_FAIL


SELECTION_RULE = "README: 'Which component a command reads'"
BUCHI_HELP = "Buchi count, else @buchi, else min(1, m); " + SELECTION_RULE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="staromega",
        description="weighted omega-context-free systems, normal forms and automata",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a grammar file and print a summary")
    p.add_argument("path")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("gnf", help="run the normal form pipeline")
    p.add_argument("path")
    p.add_argument("--target", choices=("mixed", "omega"), default="omega")
    p.add_argument("--buchi", type=int, default=None, help=BUCHI_HELP)
    p.add_argument(
        "--component",
        default=None,
        help="variable to normalize, else @start: a z- or y-variable, or an "
        "x-variable in a grammar without z-variables; " + SELECTION_RULE,
    )
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_gnf)

    p = sub.add_parser("build-pda", help="construct the induced pushdown automaton")
    p.add_argument("path")
    p.add_argument(
        "--start", default=None, help="start variable of any sort, else @start; " + SELECTION_RULE
    )
    p.add_argument("--buchi", type=int, default=None, help=BUCHI_HELP)
    p.add_argument("--out", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_build_pda)

    p = sub.add_parser("eval", help="evaluate a word or lasso word")
    p.add_argument("path", help="grammar file or automaton .json")
    p.add_argument("--word", default=None)
    p.add_argument("--lasso", default=None)
    p.add_argument("--buchi", type=int, default=None, help=BUCHI_HELP)
    p.add_argument(
        "--component",
        default=None,
        help="variable to evaluate, else @start: an x-variable for --word, a "
        "z-variable for --lasso, a y-variable in an omega grammar; " + SELECTION_RULE,
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", choices=("identities", "examples", "oracle"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--golden", default=None)
    p.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SemanticFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
