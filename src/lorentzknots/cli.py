"""Command-line front door.

Subcommands mirror the library layers: ``diagrams`` (combinatorics),
``weights`` (character tables), ``jones`` (spin expansions), ``lorentz``
(two-parameter invariants and the cross-pipeline check), ``qlg`` (truncated
braid sums), and ``verify`` (the acceptance suite).

Configuration precedence is flags > config file (JSON with keys mirroring
the run configuration) > defaults; a subcommand accepts only the config keys
whose flags it takes.  Exit codes: 2 for usage errors, 3 when a resource
guard refuses the computation, 4 when an internal consistency assertion
fails (the message names the identity that broke); 1 for a failed
verification.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction

from .acceptance import CRITERIA, run_acceptance
from .braids import catalog_knot, parse_braid
from .diagrams import (
    enumerate_diagrams,
    four_t_generators,
    parse_diagram,
    quotient_dimension,
)
from .errors import InternalConsistencyError, ResourceGuardError
from .invariants import equivalence_check, x_invariant
from .jones import jones_framed, jones_z_interpolated, jones_zero_framed
from .polynomials import specialize
from .qlorentz import SYMBOLIC, braid_sum
from .scalars import GaussianRational
from .weights import lambda_mp_direct, lambda_mp_factorized, lambda_z_sl2

DEFAULTS = {
    "order": 6,
    "format": "pretty",
}

FORMATS = ("json", "csv", "pretty")

CONFIG_KEYS = set(DEFAULTS) | {"braid", "strands", "knot", "m", "p"}

INTEGER_KEYS = {"order", "m", "strands"}


def _load_config(path, args):
    """Read a JSON config whose keys the chosen subcommand all reads.

    A subcommand reads exactly the config keys that are also its flags, that
    is, attributes of its parsed ``args``.
    """
    with open(path) as fh:
        data = json.load(fh)
    unread = set(data) - (CONFIG_KEYS & set(vars(args)))
    if unread:
        raise ValueError(f"config keys not read by {args.command}: {sorted(unread)}")
    return data


def _integer(value, key):
    """``value`` as an int; a usage error naming ``key`` unless it is integral."""
    try:
        number = Fraction(str(value))
    except ValueError:
        number = None
    if number is None or number.denominator != 1:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _setting(args, config, key):
    value = getattr(args, key, None)
    if value is None and key in config:
        value = config[key]
    if value is None:
        value = DEFAULTS.get(key)
    if key in INTEGER_KEYS and value is not None:
        value = _integer(value, key)
    if key == "order" and value is not None and value < 0:
        raise ValueError("order must be nonnegative")
    if key == "format" and value not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {value!r}")
    return value


def _resolve_braid(args, config):
    braid_text = _setting(args, config, "braid")
    knot = _setting(args, config, "knot")
    if knot:
        return catalog_knot(knot).braid
    if braid_text is not None:
        strands = _setting(args, config, "strands")
        if strands is None:
            # parse_braid reports a malformed token; here it counts for nothing
            indices = (re.fullmatch(r"-?s(\d+)", t) for t in braid_text.split())
            strands = max((int(m.group(1)) for m in indices if m), default=0) + 1
        return parse_braid(braid_text, strands)
    raise ValueError("need --braid or --knot")


def _parse_spin(text):
    """Spin written as an integer or half-integer ('3/2') -> doubled int."""
    frac = Fraction(text)
    doubled = 2 * frac
    if doubled.denominator != 1 or doubled < 0:
        raise ValueError(f"spin must be a nonnegative half-integer, got {text}")
    return int(doubled)


def _only_format(args, config, mode, formats):
    """Refuse a --format (flag or config) that ``mode`` does not print."""
    fmt = args.format or config.get("format")
    if fmt is not None and fmt not in formats:
        raise ValueError(f"{mode} prints {' or '.join(formats)}, not --format {fmt}")


def _emit_poly_series(series, fmt, out):
    if fmt == "json":
        _emit_series(series, fmt, out)
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["h_order", "param_degree", "re_num", "re_den", "im_num", "im_den"])
        for n, poly in enumerate(series.coeffs):
            writer.writerows([n, k, *c.to_json()] for k, c in enumerate(poly.coeffs) if c)
    else:
        for n, poly in enumerate(series.coeffs):
            out.write(f"h^{n}: {poly}\n")


def _emit_series(series, fmt, out):
    if fmt == "json":
        out.write(json.dumps(series.to_json(), indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["h_order", "value"])
        for n, c in enumerate(series.coeffs):
            writer.writerow([n, str(c)])
    else:
        out.write(str(series) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_diagrams(args, config, out):
    fmt = _setting(args, config, "format")
    if args.enumerate is not None:
        _only_format(args, config, "--enumerate", ("json", "pretty"))
        diagrams = enumerate_diagrams(args.enumerate)
        if fmt == "json":
            out.write(json.dumps([d.gauss_text() for d in diagrams]) + "\n")
        else:
            for d in diagrams:
                out.write((d.gauss_text() or "(unit)") + "\n")
    elif args.parse is not None:
        _only_format(args, config, "--parse", ("json",))
        d = parse_diagram(args.parse)
        out.write(json.dumps({"canonical": d.gauss_text(), "chords": d.n}) + "\n")
    elif args.four_t is not None:
        _only_format(args, config, "--four-t", ("json",))
        gens = four_t_generators(args.four_t)
        out.write(json.dumps([g.to_json() for g in gens], indent=2) + "\n")
    elif args.quotient_dim is not None:
        _only_format(args, config, "--quotient-dim", ("json",))
        n = args.quotient_dim
        out.write(json.dumps({"n": n, "dimension": quotient_dimension(n)}) + "\n")
    else:
        raise ValueError("diagrams: choose --enumerate, --parse, --four-t or --quotient-dim")
    return 0


def _cmd_weights(args, config, out):
    _only_format(args, config, "weights", ("json", "pretty"))
    fmt = _setting(args, config, "format")
    d = parse_diagram(args.diagram)
    m = _setting(args, config, "m")
    if args.sl2:
        if args.direct or m is not None:
            flag = "--direct" if args.direct else "--m"
            raise ValueError(f"--sl2 takes no {flag}: the spin-z character has neither")
        poly = lambda_z_sl2(d)
        doc = {"diagram": d.gauss_text(), "variable": "z", "coeffs": poly.to_json()}
    else:
        m = m or 0
        route = lambda_mp_direct if args.direct else lambda_mp_factorized
        poly = route(d, m)
        doc = {
            "diagram": d.gauss_text(),
            "m": m,
            "variable": "p",
            "coeffs": poly.to_json(),
        }
    if fmt == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"{doc.get('diagram') or '(unit)'}: {poly}\n")
    return 0


def _cmd_jones(args, config, out):
    fmt = _setting(args, config, "format")
    order = _setting(args, config, "order")
    braid = _resolve_braid(args, config)
    if args.interpolate:
        if args.framed or args.spin is not None:
            flag = "--framed" if args.framed else "--spin"
            raise ValueError(f"--interpolate takes no {flag}: it fits every spin, zero-framed")
        series = jones_z_interpolated(braid, order)
        _emit_poly_series(series, fmt, out)
    elif args.spin is not None:
        two_alpha = _parse_spin(args.spin)
        series = (
            jones_framed(braid, two_alpha, order)
            if args.framed
            else jones_zero_framed(braid, two_alpha, order)
        )
        _emit_series(series, fmt, out)
    else:
        raise ValueError("jones: choose --spin or --interpolate")
    return 0


def _cmd_lorentz(args, config, out):
    fmt = _setting(args, config, "format")
    order = _setting(args, config, "order")
    braid = _resolve_braid(args, config)
    m = _setting(args, config, "m") or 0
    p = _setting(args, config, "p")
    if args.check_equivalence:
        if m:
            raise ValueError(
                f"--check-equivalence compares against X(0, p), so m must be 0, got {m}"
            )
        if p is None:
            raise ValueError("--check-equivalence needs --p")
        _only_format(args, config, "--check-equivalence", ("json",))
        if str(p) != SYMBOLIC:
            p = _integer(p, "p")
        report = equivalence_check(braid, p, order)
        out.write(json.dumps(report, indent=2) + "\n")
        return 0 if report["pass"] else 1
    inv = x_invariant(braid, m, order)
    if p is None or str(p) == SYMBOLIC:
        _emit_poly_series(inv.series, fmt, out)
    else:
        series = specialize(inv.series, Fraction(str(p)))
        _emit_series(series, fmt, out)
    return 0


def _cmd_qlg(args, config, out):
    fmt = _setting(args, config, "format")
    order = _setting(args, config, "order")
    braid = _resolve_braid(args, config)
    p = _setting(args, config, "p")
    if p is None or str(p) == SYMBOLIC:
        series = braid_sum(braid, SYMBOLIC, order)
        _emit_poly_series(series, fmt, out)
    else:
        p = GaussianRational(Fraction(str(p)))
        series = braid_sum(braid, p, order)
        _emit_series(series, fmt, out)
    return 0


def _cmd_verify(args, config, out):
    numbers = None
    if args.criteria:
        numbers = [tok.strip() for tok in args.criteria.split(",") if tok.strip()]
        known = {num for num, _, _ in CRITERIA}
        bad = set(numbers) - known
        if bad:
            raise ValueError(f"unknown criteria: {sorted(bad)}")
    ok = run_acceptance(numbers, stream=lambda line: out.write(line + "\n"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzknots",
        description="Perturbative knot invariants from Lorentz-group representation theory.",
    )
    parser.add_argument("--config", help="JSON config file (flags win over it)")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *flags):
        """Add the shared flags named; each subcommand takes only those it reads."""
        for flag in flags:
            if flag == "--format":
                p.add_argument(flag, choices=FORMATS)
            else:
                p.add_argument(flag, type=int)

    p = sub.add_parser("diagrams", help="chord diagram combinatorics")
    shared(p, "--format")
    p.add_argument("--enumerate", type=int, metavar="N")
    p.add_argument("--parse", metavar="WORD")
    p.add_argument("--four-t", dest="four_t", type=int, metavar="N")
    p.add_argument("--quotient-dim", dest="quotient_dim", type=int, metavar="N")

    p = sub.add_parser("weights", help="central character tables")
    shared(p, "--format")
    p.add_argument("--diagram", required=True, metavar="WORD")
    p.add_argument("--m", type=int)
    p.add_argument("--sl2", action="store_true", help="spin-z character instead")
    p.add_argument("--direct", action="store_true", help="use the module-action route")

    p = sub.add_parser("jones", help="spin expansions of the braid closure")
    shared(p, "--format", "--order")
    p.add_argument("--braid")
    p.add_argument("--strands", type=int)
    p.add_argument("--knot")
    p.add_argument("--spin", help="half-integer spin, e.g. 3/2")
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--framed", action="store_true", help="blackboard framing")

    p = sub.add_parser("lorentz", help="two-parameter invariants")
    shared(p, "--format", "--order")
    p.add_argument("--braid")
    p.add_argument("--strands", type=int)
    p.add_argument("--knot")
    p.add_argument("--m", type=int)
    p.add_argument("--p", help="integer, rational, or 'symbolic'")
    p.add_argument("--check-equivalence", action="store_true")

    p = sub.add_parser("qlg", help="quantum Lorentz braid sums")
    shared(p, "--format", "--order")
    p.add_argument("--braid")
    p.add_argument("--strands", type=int)
    p.add_argument("--knot")
    p.add_argument("--p", help="integer, rational, or 'symbolic'")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


_COMMANDS = {
    "diagrams": _cmd_diagrams,
    "weights": _cmd_weights,
    "jones": _cmd_jones,
    "lorentz": _cmd_lorentz,
    "qlg": _cmd_qlg,
    "verify": _cmd_verify,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config, args) if args.config else {}
        return _COMMANDS[args.command](args, config, out)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
