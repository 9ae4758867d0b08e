"""Inputs of the three workloads, generated from a variant number.

A run's `--seed` picks the variants its passes use (see `pass_variants`);
every input of a pass is a pure function of its variant, so the golden
outputs recorded for each variant cover every seed. Nothing here imports
latnaf: the worker and the runner share these definitions.
"""

from __future__ import annotations

import random
from fractions import Fraction

# --- expand-stream ----------------------------------------------------------

EXPAND_VARIANTS = 32

# (name, base, w): base is ("minpoly", coeffs) or ("matrix", rows)
EXPAND_SYSTEMS = (
    ("t2w2", ("minpoly", (-2, 1)), 2),
    ("t3w3", ("minpoly", (-3, 1)), 3),
    ("q541w3", ("minpoly", (5, -4, 1)), 3),
    ("m31w2", ("matrix", ((3, 1), (-1, 3))), 2),
    ("c3101w4", ("minpoly", (3, 1, 0, 1)), 4),
)
EXPAND_DIMS = {"t2w2": 1, "t3w3": 1, "q541w3": 2, "m31w2": 2, "c3101w4": 3}
EXPAND_SHORT = 1200  # short points per system per pass
EXPAND_LONG = 12  # long points per system per pass
EXPAND_WARM = 30  # untimed warm-up points per system


def _short_point(rng, n):
    span = 10**6 if n == 1 else 10**3
    return tuple(rng.randint(-span, span) for _ in range(n))


def _long_point(rng, n):
    out = []
    for _ in range(n):
        digits = rng.randint(100, 300)
        mag = rng.randint(10 ** (digits - 1), 10**digits - 1)
        out.append(mag if rng.random() < 0.5 else -mag)
    return tuple(out)


def expand_ops(variant: int):
    """The timed operations of one pass, in a seeded interleaved order:
    (system, kind, point) with kind "short" or "long"."""
    rng = random.Random(f"expand-stream/{variant}")
    ops = []
    for name, _base, _w in EXPAND_SYSTEMS:
        n = EXPAND_DIMS[name]
        ops += [(name, "short", _short_point(rng, n)) for _ in range(EXPAND_SHORT)]
        ops += [(name, "long", _long_point(rng, n)) for _ in range(EXPAND_LONG)]
    rng.shuffle(ops)
    return ops


def expand_warmup():
    rng = random.Random("expand-stream/warm-up")
    return [
        (name, _short_point(rng, EXPAND_DIMS[name]))
        for name, _b, _w in EXPAND_SYSTEMS
        for _ in range(EXPAND_WARM)
    ]


# --- optimality-sweep -------------------------------------------------------

SWEEP_VARIANTS = 16

SWEEP_SYSTEMS = (
    ("t3w2", ("minpoly", (-3, 1)), 2),
    ("q541w3", ("minpoly", (5, -4, 1)), 3),
    ("t2w2", ("minpoly", (-2, 1)), 2),
)
# verify_empirically radii per system, each + variant / SWEEP_VARIANTS:
# distinct per variant and above the invariant-ball bound (2 and 8.25),
# so no two calls share a distance table, while the work barely changes.
# Six short sweeps per system rather than one long one let the
# calibration chunks between them follow the machine's speed.
SWEEP_RADII = {"t3w2": tuple(800 + 10 * i for i in range(6)), "q541w3": tuple(range(30, 36))}
ORACLE_FAST = 6  # min_weight_oracle calls on t2w2 per pass
ORACLE_SLOW = 18  # min_weight_oracle calls on q541w3 per pass
ORACLE_POOL_PER_STRATUM = SWEEP_VARIANTS


def sweep_radii(system: str, variant: int):
    return [r + Fraction(variant, SWEEP_VARIANTS) for r in SWEEP_RADII[system]]


def oracle_pool():
    """Candidate oracle points for q541w3, before stratification: the
    recorder measures the work of each and sorts them into ORACLE_SLOW
    strata of ORACLE_POOL_PER_STRATUM points."""
    rng = random.Random("optimality-sweep/oracle-pool")
    return [
        (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        for _ in range(ORACLE_SLOW * ORACLE_POOL_PER_STRATUM)
    ]


def oracle_fast_points(variant: int):
    rng = random.Random(f"optimality-sweep/fast/{variant}")
    return [(rng.randint(-(10**6), 10**6),) for _ in range(ORACLE_FAST)]


def oracle_slow_points(strata, variant: int):
    """One point from each recorded stratum: every variant then carries
    the same spread of oracle work."""
    return [tuple(s[(variant + 5 * i) % len(s)]) for i, s in enumerate(strata)]


# --- cli-corpus -------------------------------------------------------------

CLI_VARIANTS = 8

# gate-3 bases with one window width each: a seeded width would change the
# digit-set size, and with it the cost of the call, from seed to seed
GATE3_LINEAR = ((-2, 2), (-3, 3), (-4, 1), (-5, 2))
GATE3_QUADRATIC = (((2, -1, 1), 3), ((2, -2, 1), 3), ((5, -4, 1), 2), ((2, 0, 1), 3))


def custom_digits(min_digits, d, shift, c):
    """Minimal-norm digits with d replaced by d + c * shift, where shift
    is phi^w(k) for a fixed k: the class is unchanged, the digit moves
    outward, and the invariant ball (hence the orbit search) grows with
    c."""
    moved = tuple(a + c * b for a, b in zip(d, shift))
    return [list(moved) if tuple(x) == tuple(d) else list(x) for x in min_digits]


# The custom sets: (instance name, minpoly, w, digit d, shift per unit of c, c).
CUSTOM_SETS = (
    ("custom541c2", (5, -4, 1), 2, (-6, 3), (-75, 45), 2),
    ("custom541c3", (5, -4, 1), 2, (-6, 3), (-75, 45), 3),
    ("custom211c2", (2, -1, 1), 3, (-1, 1), (0, 12), 2),
    ("custom211c3", (2, -1, 1), 3, (-1, 1), (0, 12), 3),
)

# Calls that stall at the seed commit: QuadExt.sqrt_rational factors the
# ~560-digit enclosure bound for R^2/r^2 with sympy.factorint.
KNOWN_STALLS = ("info c3101w4", "check-nads c3101w3")


def cli_instances():
    """Instance files of one pass: name -> JSON object. The digit lists
    of the custom sets are filled in by the caller (they need latnaf).
    The instances are the same for every variant; the calls vary."""
    inst = {}
    for tau, w in GATE3_LINEAR:
        inst[f"lin{-tau}"] = {"base": {"minpoly": [tau, 1]}, "w": w}
    for coeffs, w in GATE3_QUADRATIC:
        name = "quad" + "".join(str(abs(c)) for c in coeffs)
        inst[name] = {"base": {"minpoly": list(coeffs)}, "w": w}
    inst["t2w2"] = {"base": {"minpoly": [-2, 1]}, "w": 2}
    inst["t3w2"] = {"base": {"minpoly": [-3, 1]}, "w": 2}
    inst["q541w3"] = {"base": {"minpoly": [5, -4, 1]}, "w": 3}
    inst["q221w2"] = {"base": {"minpoly": [2, -2, 1]}, "w": 2}
    inst["q211w2"] = {"base": {"minpoly": [2, -1, 1]}, "w": 2}
    inst["m31w2"] = {"base": {"matrix": [[3, 1], [-1, 3]]}, "w": 2}
    inst["readme"] = {"base": {"matrix": [[0, -2], [1, 1]]}, "w": 2}
    inst["c3101w4"] = {"base": {"minpoly": [3, 1, 0, 1]}, "w": 4}
    inst["c3101w3"] = {"base": {"minpoly": [3, 1, 0, 1]}, "w": 3}
    for name, coeffs, w, _d, _s, _c in CUSTOM_SETS:
        inst[name] = {"base": {"minpoly": list(coeffs)}, "w": w, "digitset": None}
    return inst


def cli_calls(variant: int):
    """The calls of one pass, in a seeded order: (key, argv without the
    instance path, instance name, format). `key` names the call in the
    golden file."""
    rng = random.Random(f"cli-corpus/calls/{variant}")

    def pt(n, span):
        return ",".join(str(rng.randint(-span, span)) for _ in range(n))

    calls = [
        ("info", "lin2", "text", []),
        ("info", "quad211", "json", []),
        ("info", "q541w3", "text", []),
        ("info", "readme", "text", []),
        ("info", "c3101w4", "text", []),
        ("digit-set", "lin3", "json", []),
        ("digit-set", "quad541", "text", []),
        ("digit-set", "quad201", "text", []),
        ("digit-set", "c3101w4", "json", []),
        ("digit-set", "c3101w3", "text", []),
        ("expand", "t2w2", "text", ["--point=" + pt(1, 10**6)]),
        ("expand", "lin5", "json", ["--point=" + pt(1, 10**6)]),
        ("expand", "q541w3", "json", ["--point=" + pt(2, 1000)]),
        ("expand", "c3101w4", "text", ["--point=" + pt(3, 1000)]),
        ("expand", "readme", "json", ["--point=" + pt(2, 1000)]),
        ("check-nads", "lin4", "text", []),
        ("check-nads", "q221w2", "json", []),
        ("check-nads", "q211w2", "text", []),
        ("check-nads", "quad221", "text", []),
        ("check-nads", "c3101w4", "json", []),
        ("check-nads", "c3101w3", "text", []),
        ("check-nads", "custom541c2", "json", []),
        ("check-nads", "custom541c3", "text", []),
        ("check-nads", "custom211c2", "text", []),
        ("check-nads", "custom211c3", "json", []),
        ("check-optimality", "t3w2", "text", ["--radius", str(rng.randint(350, 353))]),
        ("check-optimality", "q221w2", "json", ["--radius", str(rng.randint(30, 31))]),
        (
            "check-optimality",
            "q541w3",
            "text",
            ["--radius", str(rng.randint(20, 21)), "--seed", str(rng.randint(0, 99))],
        ),
        ("check-optimality", "quad541", "text", ["--radius", str(rng.randint(16, 17))]),
        ("check-optimality", "m31w2", "json", ["--radius", str(rng.randint(30, 31))]),
    ]
    rng.shuffle(calls)
    return [
        (f"{cmd} {inst}", [cmd, *extra, "--format", fmt], inst)
        for cmd, inst, fmt, extra in calls
    ]


def pass_variants(seed: int, count: int, variants: int):
    """Variants for the passes of one run: a seeded permutation, so runs
    with different seeds use different inputs."""
    order = random.Random(seed).sample(range(variants), variants)
    return [order[i % variants] for i in range(count)]
