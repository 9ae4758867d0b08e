"""Command-line front end.

Instance files are UTF-8 JSON:

    {
      "base": {"minpoly": [2, -1, 1]}   or   {"base": {"matrix": [[0, -2], [1, 1]]}},
      "w": 2,
      "digitset": "minimal-norm" | "rational-interval" | [[digit], ...],
      "precision_cap": 4096
    }

Minimal polynomial coefficients are ascending (constant term first) and
monic; integers anywhere in the file may be JSON strings when they
exceed 64 bits. The NAF_PRECISION_CAP_BITS environment variable
overrides the file's precision cap, which applies to matrix and
minimal-polynomial bases alike.

Output is deterministic: fixed key order, `key = value` lines in text
mode, the same keys in JSON mode. Exit codes: 0 success, 1 when a
counterexample or weight violation was found, 2 on input errors and
resource caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import digitset as dsm
from . import lattice as lam
from . import numberfield as nfm
from .errors import LatnafError
from .exactreal import DEFAULT_PRECISION_CAP_BITS, sqrt_lower, sqrt_upper

# expansion, nadscheck and optimality are imported by the subcommands that
# run them: a call pays start-up only for its own work


def _as_int(v, what: str) -> int:
    if isinstance(v, bool):
        raise ValueError(f"{what}: expected an integer, got a boolean")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v.strip(), 10)
        except ValueError:
            raise ValueError(f"{what}: not an integer: {v!r}") from None
    raise ValueError(f"{what}: expected an integer, got {type(v).__name__}")


def _as_list(v, what: str) -> list:
    if not isinstance(v, list):
        raise ValueError(f"{what}: expected a list, got {type(v).__name__}")
    return v


def _as_int_list(v, what: str, item: str) -> list[int]:
    return [_as_int(c, item) for c in _as_list(v, what)]


def _load_instance(path: str):
    """Parse and validate an instance file.

    Returns (geo, make_digits): the base's Geometry, which carries the
    precision cap, and make_digits, which builds the digit set on it on
    demand: `info` must keep working on bases that are not expanding,
    and those reject digit-set construction outright.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: instance file must hold a JSON object")
    base = raw.get("base")
    if not isinstance(base, dict) or len(base.keys() & {"minpoly", "matrix"}) != 1:
        raise ValueError(
            f"{path}: base must hold exactly one of 'minpoly' or 'matrix'"
        )
    w = _as_int(raw.get("w", 1), "w")
    if w < 1:
        raise ValueError(f"{path}: w must be at least 1")
    cap = raw.get("precision_cap")
    env_cap = os.environ.get("NAF_PRECISION_CAP_BITS")
    if env_cap is not None:
        cap = env_cap
    cap_bits = DEFAULT_PRECISION_CAP_BITS if cap is None else _as_int(cap, "precision_cap")
    if cap_bits < 1:
        raise ValueError(f"{path}: precision_cap must be positive")

    if "minpoly" in base:
        coeffs = _as_int_list(base["minpoly"], "minpoly", "minpoly coefficient")
        source = nfm.build(coeffs)
    else:
        rows = [
            _as_int_list(row, "matrix row", "matrix entry")
            for row in _as_list(base["matrix"], "matrix")
        ]
        source = lam.LatticeInstance.from_matrix(rows)
    geo = dsm.geometry(source, cap_bits)

    family = raw.get("digitset", "minimal-norm")
    if isinstance(family, list):
        pts = [tuple(_as_int_list(p, "digit", "digit coordinate")) for p in family]

        def make_digits():
            return dsm.from_digits(geo, w, pts)

    elif family == "minimal-norm":

        def make_digits():
            return dsm.build_minimal_norm(geo, w)

    elif family == "rational-interval":

        def make_digits():
            return dsm.build_rational_interval(geo, w)

    else:
        raise ValueError(
            f"{path}: digitset must be 'minimal-norm', 'rational-interval' "
            "or a list of digits"
        )
    return geo, make_digits


def _dec_down(v: Fraction, places: int = 12) -> str:
    scaled = v * 10**places
    n = scaled.numerator // scaled.denominator
    return _place_point(n, places)


def _dec_up(v: Fraction, places: int = 12) -> str:
    scaled = v * 10**places
    n = -((-scaled.numerator) // scaled.denominator)
    return _place_point(n, places)


def _place_point(n: int, places: int) -> str:
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _enclosure(lo: Fraction, hi: Fraction) -> str:
    return f"[{_dec_down(lo)}, {_dec_up(hi)}]"


def _fmt_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _fmt_digit(d) -> str:
    return ",".join(str(c) for c in d)


def _fmt_word_token(d) -> str:
    if len(d) == 1:
        return str(d[0])
    return "(" + ",".join(str(c) for c in d) + ")"


def _parse_point(text: str, n: int):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"point must have {n} comma-separated coordinates")
    try:
        return tuple(int(p, 10) for p in parts)
    except ValueError:
        raise ValueError(f"point coordinates must be integers: {text!r}") from None


def _cmd_info(geo, make_digits, args):
    inst = geo.inst
    pairs: list[tuple[str, object]] = []
    pairs.append(("n", inst.n))
    pairs.append(("char_poly", list(lam.char_poly(inst))))
    pairs.append(("det", inst.det))
    expanding = lam.is_expanding(inst)
    pairs.append(("expanding", expanding))
    if not expanding:
        return pairs, [], 0
    if geo.nf is not None:
        for j, mod_sq in enumerate(nfm.embedding_moduli_sq(geo.nf), start=1):
            iv = mod_sq.interval(64)
            pairs.append(
                (
                    f"embedding_modulus_{j}",
                    _enclosure(sqrt_lower(iv.lo, 64), sqrt_upper(iv.hi, 64)),
                )
            )
    uiv = geo.u.interval(64)
    pairs.append(("inv_norm", _enclosure(uiv.lo, uiv.hi)))
    pairs.append(("w0", geo.w0_bound))
    ctx = geo.norm_context
    pairs.append(("r_sq", _fmt_fraction(ctx.r_sq)))
    pairs.append(("R_sq", _fmt_fraction(ctx.R_sq)))
    pairs.append(("r", _enclosure(sqrt_lower(ctx.r_sq, 64), sqrt_upper(ctx.r_sq, 64))))
    pairs.append(("R", _enclosure(sqrt_lower(ctx.R_sq, 64), sqrt_upper(ctx.R_sq, 64))))
    pairs.append(("tiling_w", geo.tiling_w_bound))
    return pairs, [], 0


def _cmd_digit_set(geo, make_digits, args):
    ds = make_digits()
    pairs = [("count", len(ds.digits))]
    rows = [_fmt_digit(d) for d in ds.digits]
    return pairs, rows, 0


def _cmd_expand(geo, make_digits, args):
    from . import expansion as em

    if args.point is None:
        raise ValueError("expand requires --point")
    ds = make_digits()
    inst = ds.inst
    p = _parse_point(args.point, inst.n)
    result = em.expand(ds, p, args.max_steps)
    if isinstance(result, em.CycleReport):
        pairs = [
            ("status", "counterexample"),
            ("cycle", " ".join(_fmt_word_token(q) for q in result.cycle)),
        ]
        return pairs, [], 1
    word = result.word
    pairs = [
        ("msd", " ".join(_fmt_word_token(d) for d in reversed(word))),
        ("lsd", " ".join(_fmt_word_token(d) for d in word)),
        ("weight", result.weight),
        (
            "value_check",
            "ok" if em.value(inst, word) == inst.check_point(p) else "FAILED",
        ),
    ]
    return pairs, [], 0


def _cmd_check_nads(geo, make_digits, args):
    from . import nadscheck as ncm

    verdict = ncm.decide(make_digits())
    pairs: list[tuple[str, object]] = [("status", verdict.status)]
    if verdict.bound_used is not None:
        pairs.append(("bound_used", verdict.bound_used))
    if verdict.search_radius is not None:
        pairs.append(("search_radius", _fmt_fraction(verdict.search_radius)))
    if verdict.witness is not None:
        pairs.append(
            ("cycle", " ".join(_fmt_word_token(q) for q in verdict.witness.cycle))
        )
        return pairs, [], 1
    return pairs, [], 0


def _cmd_check_optimality(geo, make_digits, args):
    from . import optimality as om

    if args.radius < 0:
        # the library reads a negative radius as an empty sweep; on the
        # command line it is a typo, not a clean result
        raise ValueError("--radius must be at least 0")
    ds = make_digits()
    cert = om.check_hypotheses(ds)
    pairs: list[tuple[str, object]] = [
        ("cell_symmetric", cert.cell_symmetric),
        ("cell_within_base_image", cert.cell_within_base_image),
        ("contraction_below_cell_ratio", cert.contraction_below_cell_ratio),
        ("window_inequality", cert.window_inequality),
        ("verdict", cert.verdict),
    ]
    report = om.verify_empirically(ds, args.radius, args.seed)
    pairs.append(("points_checked", report.points_checked))
    pairs.append(("sampled", report.sampled))
    pairs.append(("violations", len(report.violations)))
    code = 0
    if report.violations:
        for p, got, want in report.violations[:10]:
            pairs.append((f"violation_{_fmt_digit(p)}", f"naf={got} oracle={want}"))
        code = 1
    return pairs, [], code


_COMMANDS = {
    "info": _cmd_info,
    "digit-set": _cmd_digit_set,
    "expand": _cmd_expand,
    "check-nads": _cmd_check_nads,
    "check-optimality": _cmd_check_optimality,
}


def _emit(pairs, rows, fmt: str) -> None:
    if fmt == "json":
        obj = {}
        for k, v in pairs:
            obj[k] = v
        if rows:
            obj["digits"] = rows
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=False) + "\n")
        return
    for k, v in pairs:
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, list):
            v = "[" + ", ".join(str(x) for x in v) + "]"
        sys.stdout.write(f"{k} = {v}\n")
    for row in rows:
        sys.stdout.write(row + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latnaf",
        description=(
            "Window non-adjacent digit systems over lattices with an "
            "expanding base"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--instance", required=True, help="path to a JSON instance file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name == "expand":
            p.add_argument("--point", help="comma-separated integer coordinates")
            p.add_argument("--max-steps", type=int, default=None)
        if name == "check-optimality":
            p.add_argument("--radius", type=int, default=0)
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        geo, make_digits = _load_instance(args.instance)
        pairs, rows, code = _COMMANDS[args.command](geo, make_digits, args)
    except (LatnafError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(pairs, rows, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
