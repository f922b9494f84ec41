"""Command line front end.

Every subcommand prints either a plain text payload or a JSON record with
the fields command, params, result, version (plus wall_time_ms when --timing
is passed; timing is opt-in precisely so that default output is byte
identical across runs).  Exit codes: 0 success, 2 usage, 3 capacity ceiling,
4 failed internal cross-check.
"""

import argparse
import json
import sys
import time
from functools import partial

from . import __version__
from .bialphabet import dual_cauchy_reference, pjk_expand
from .boolean import _subset_count, boolean_product, ep_subset, subset_alphabet, total_boolean
from .derangements import bnm1_q, frobenius_dimension, specialize_q
from .errors import CapacityError, ConsistencyError
from .lascoux import binomial_det, gv_count, lascoux_check
from .polyring import Alphabet, QPoly
from .resonance import charpoly_ff, charpoly_mobius
from .schur import schur_at_alphabet, schur_at_plan
from .tableaux import format_partition, parse_partition


def partition(text: str):
    return parse_partition(text)


def _pair_label(key) -> str:
    return "s[{}](X) s[{}](Y)".format(*map(format_partition, key))


def _pair_fields(key) -> dict:
    return dict(zip("xy", map(format_partition, key)))


def _render_terms(v, label=lambda la: f"s[{format_partition(la)}]") -> str:
    if not v.terms:
        return "0"
    parts = []
    for key, c in v.items_sorted():
        if isinstance(c, QPoly):
            parts.append(f"({c}) {label(key)}")
        elif c == 1:
            parts.append(label(key))
        else:
            parts.append(f"{c} {label(key)}")
    return " + ".join(parts)


def _terms_json(v, fields=lambda la: {"partition": format_partition(la)}) -> list:
    out = []
    for key, c in v.items_sorted():
        entry = fields(key)
        if isinstance(c, QPoly):
            entry["coeffs_q"] = [str(x) for x in c.coeffs]
        else:
            entry["coeff"] = str(c)
        out.append(entry)
    return out


def _chi_payload(n: int, chi) -> dict:
    return {
        "n": n,
        "chi": list(chi.coeffs),
        "regions": (-1) ** n * chi(-1),
        "bounded": (-1) ** n * chi(1),
    }


def _cmd_boolean_expand(args):
    if args.p is None:
        v = boolean_product(args.n, args.k)
    else:
        v = ep_subset(args.n, args.k, args.p)
    return {"terms": _terms_json(v)}, [_render_terms(v)]


def _cmd_total(args):
    v = total_boolean(args.n)
    return {"terms": _terms_json(v)}, [_render_terms(v)]


def _cmd_schur_at(args):
    # counted before any form is built; an empty plan, s_la = 1 or 0, needs none
    plan = schur_at_plan(args.la, args.n, _subset_count(args.n, args.k), args.k)
    a = subset_alphabet(args.n, args.k) if plan else Alphabet(args.n, ())
    v = schur_at_alphabet(args.la, a, plan)
    return {"terms": _terms_json(v)}, [_render_terms(v)]


def _cmd_lascoux(args):
    report = lascoux_check(args.n, args.kind)
    return (
        {"equal": report.equal, "terms": _terms_json(report.lhs)},
        [f"equal: {'true' if report.equal else 'false'}",
         f"terms: {_render_terms(report.lhs)}"],
    )


def _cmd_binomial(route, args):
    value = route(args.la, args.mu, args.dim)
    return {"value": str(value)}, [str(value)]


def _cmd_derangement(args):
    v = bnm1_q(args.n)
    if args.q is None:
        return {"terms": _terms_json(v)}, [_render_terms(v)]
    at_q = specialize_q(v, args.q)
    dim = frobenius_dimension(v, args.q)
    return (
        {"terms": _terms_json(at_q), "dimension": dim},
        [_render_terms(at_q), f"dimension = {dim}"],
    )


def _cmd_charpoly(args):
    if args.method == "mobius":
        chi = charpoly_mobius(args.n)
    else:
        chi = charpoly_ff(args.n, allow_long=args.allow_long)
    payload = _chi_payload(args.n, chi)
    return payload, [
        f"chi = {chi}",
        f"regions = {payload['regions']}",
        f"bounded = {payload['bounded']}",
    ]


def _cmd_regions(args):
    chi = charpoly_ff(args.n, allow_long=args.allow_long)
    payload = _chi_payload(args.n, chi)
    return payload, [
        f"regions = {payload['regions']}",
        f"bounded = {payload['bounded']}",
    ]


def _cmd_bialphabet(args):
    v = pjk_expand(args.n, args.m, args.j, args.k)
    # the reference's ceiling passes every box that pjk_expand admits, so it cannot refuse
    if args.j == 1 and args.k == 1 and v.terms != dual_cauchy_reference(args.n, args.m).terms:
        raise ConsistencyError("expansion deviates from the dual Cauchy reference")
    return {"terms": _terms_json(v, _pair_fields)}, [_render_terms(v, _pair_label)]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--timing",
        action="store_true",
        help="include wall time in the output (breaks byte-identical output)",
    )
    parser = argparse.ArgumentParser(
        prog="boolprod",
        description="Exact Schur-basis expansions of subset-sum products.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boolean-expand", parents=[common],
                       help="Schur expansion of the size-k subset-sum product or its p-th elementary slice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.set_defaults(func=_cmd_boolean_expand)

    p = sub.add_parser("total", parents=[common],
                       help="Schur expansion of the product over all subset sizes")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_total)

    p = sub.add_parser("schur-at", parents=[common],
                       help="a Schur polynomial evaluated at the size-k subset-sum alphabet")
    p.add_argument("--lambda", dest="la", type=partition, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_schur_at)

    p = sub.add_parser("lascoux", parents=[common],
                       help="verify the pair-product identity and print the expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("exterior", "symmetric"), required=True)
    p.set_defaults(func=_cmd_lascoux)

    for name, route in (("binom-det", binomial_det), ("gv-count", gv_count)):
        p = sub.add_parser(name, parents=[common],
                           help="binomial determinant (direct or by path enumeration)")
        p.add_argument("--lambda", dest="la", type=partition, required=True)
        p.add_argument("--mu", type=partition, required=True)
        p.add_argument("--dim", type=int, required=True)
        p.set_defaults(func=partial(_cmd_binomial, route))

    p = sub.add_parser("derangement", parents=[common],
                       help="q-deformed (n, n-1) expansion, optionally evaluated at q")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.set_defaults(func=_cmd_derangement)

    p = sub.add_parser("charpoly", parents=[common],
                       help="characteristic polynomial of the subset-sum arrangement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("ff", "mobius"), default="ff")
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("regions", parents=[common],
                       help="region counts of the subset-sum arrangement")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("bialphabet", parents=[common],
                       help="two-alphabet product expanded into Schur pairs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_bialphabet)
    return parser


def _params_of(args) -> dict:
    skip = {"command", "func", "format", "timing"}
    rename = {"la": "lambda"}
    return {
        rename.get(key, key): format_partition(value) if isinstance(value, tuple) else value
        for key, value in sorted(vars(args).items())
        if key not in skip
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        result, lines = args.func(args)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 4

    if args.format == "json":
        record = {
            "command": args.command,
            "params": _params_of(args),
            "result": result,
            "version": __version__,
        }
        if args.timing:
            record["wall_time_ms"] = round(elapsed_ms, 3)
        print(json.dumps(record))
    else:
        for line in lines:
            print(line)
        if args.timing:
            print(f"wall_time_ms: {elapsed_ms:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
