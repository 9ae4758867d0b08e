"""Per-layer metrics from merged calling-context trees.

Conventions: `.s` is seconds per pass, `.calls`, `.points` and
`.ball_points` are counts per pass, `.us` and `.ms` are the mean per
call, `*_per_step` divides by the division steps of `expansion.expand`
(the summed word lengths) and counts only calls made inside `expand`.
A time never counts a recursive call twice: only the outermost call of
a name on a path adds its time. A metric whose layer did not run on the
workload reads 0 and is listed under "not exercised".
"""

from __future__ import annotations

from collections import Counter

# name, unit, better
METRICS = (
    ("expansion.expand.us_per_step", "us/step", "lower"),
    ("expansion.digit_of.calls_per_step", "calls/step", "lower"),
    ("lattice.solve_divisibility.calls_per_step", "calls/step", "lower"),
    ("lattice.solve_divisibility.us", "us", "lower"),
    ("lattice.residue_key.calls_per_step", "calls/step", "lower"),
    ("lattice.residue_key.us", "us", "lower"),
    ("intmat.mat_vec.calls_per_step", "calls/step", "lower"),
    ("digitset.DigitSet.inst.accesses_per_step", "accesses/step", "lower"),
    ("digitset.DigitSet.inst.us", "us", "lower"),
    ("expansion.step.calls", "count", "lower"),
    ("expansion.step.us", "us", "lower"),
    ("nadscheck.search.s", "s", "lower"),
    ("nadscheck.search.ball_points", "count", "lower"),
    ("nadscheck.search.steps_per_ball_point", "steps/point", "lower"),
    ("nadscheck.certify.s", "s", "lower"),
    ("quadform.enumerate_ball.points", "count", "lower"),
    ("quadform.enumerate_ball.us_per_point", "us/point", "lower"),
    ("quadform.closest_lattice_points.calls", "count", "lower"),
    ("quadform.closest_lattice_points.us", "us", "lower"),
    ("digitset.build_minimal_norm.s", "s", "lower"),
    ("digitset.build_minimal_norm.us_per_class", "us/class", "lower"),
    ("digitset.norm_context.s", "s", "lower"),
    ("digitset.tiling_w_bound.s", "s", "lower"),
    ("numberfield.build.s", "s", "lower"),
    ("numberfield.gram_enclosure.calls", "count", "lower"),
    ("numberfield.gram_enclosure.s", "s", "lower"),
    ("exactreal.CReal.compare.calls", "count", "lower"),
    ("exactreal.CReal.compare.s", "s", "lower"),
    ("exactreal.CReal.interval.max_bits", "bits", "lower"),
    ("exactreal.QuadExt.sqrt_rational.s", "s", "lower"),
    ("optimality.verify_empirically.self_s", "s", "lower"),
    ("optimality.verify_empirically.self_us_per_point", "us/point", "lower"),
    ("optimality.min_weight_oracle.ms", "ms", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.spawn_s", "s", "lower"),
    ("perfbench.trace_overhead_pct", "%", "lower"),
)

VERIFY_CHILDREN_EXCLUDED = ("expansion.expand", "quadform.enumerate_ball", "digitset.geometry")


class Summary:
    """Per-name totals over a merged tree."""

    def __init__(self, root):
        self.count = Counter()
        self.time_ns = Counter()  # outermost calls only
        self.extra = {}
        self.count_in = {}  # (ancestor, name) -> calls made under ancestor
        self.extra_in = {}  # (ancestor, name, key) -> extra summed under ancestor
        self.verify_excluded_ns = 0
        self._walk(root, Counter())

    def _walk(self, node, anc):
        for child in node.children.values():
            name = child.name
            self.count[name] += child.count
            if anc[name] == 0:
                self.time_ns[name] += child.total
            for key, val in child.extra.items():
                old = self.extra.get((name, key), 0)
                self.extra[(name, key)] = max(old, val) if key == "max_bits" else old + val
            for a, depth in anc.items():
                if depth:
                    k = (a, name)
                    self.count_in[k] = self.count_in.get(k, 0) + child.count
                    for key, val in child.extra.items():
                        ek = (a, name, key)
                        self.extra_in[ek] = self.extra_in.get(ek, 0) + val
            if node.name == "optimality.verify_empirically" and name in VERIFY_CHILDREN_EXCLUDED:
                self.verify_excluded_ns += child.total
            anc[name] += 1
            self._walk(child, anc)
            anc[name] -= 1


def compute(root, passes, cli_calls=None):
    """Per-layer metrics: name -> value. `cli_calls` lists (wall, import,
    cli.main, cli.main self) seconds for each traced CLI call that
    finished."""
    s = Summary(root)
    steps = s.extra.get(("expansion.expand", "steps"), 0)
    ex = "expansion.expand"

    def per(x, y):
        return x / y if y else 0.0

    def mean_us(name):
        return per(s.time_ns[name] / 1e3, s.count[name])

    def in_expand(name):
        return per(s.count_in.get((ex, name), 0), steps)

    def per_pass_s(name):
        return per(s.time_ns[name] / 1e9, passes)

    search_points = s.extra_in.get(("nadscheck.search", "quadform.enumerate_ball", "points"), 0)
    ball_points = s.extra.get(("quadform.enumerate_ball", "points"), 0)
    classes = s.extra.get(("digitset.build_minimal_norm", "classes"), 0)
    verify_points = s.extra.get(("optimality.verify_empirically", "points"), 0)
    verify_self_ns = s.time_ns["optimality.verify_empirically"] - s.verify_excluded_ns
    out = {
        "expansion.expand.us_per_step": per(s.time_ns[ex] / 1e3, steps),
        "expansion.digit_of.calls_per_step": in_expand("expansion.digit_of"),
        "lattice.solve_divisibility.calls_per_step": in_expand("lattice.solve_divisibility"),
        "lattice.solve_divisibility.us": mean_us("lattice.solve_divisibility"),
        "lattice.residue_key.calls_per_step": in_expand("lattice.residue_key"),
        "lattice.residue_key.us": mean_us("lattice.residue_key"),
        "intmat.mat_vec.calls_per_step": in_expand("intmat.mat_vec"),
        "digitset.DigitSet.inst.accesses_per_step": in_expand("digitset.DigitSet.inst"),
        "digitset.DigitSet.inst.us": mean_us("digitset.DigitSet.inst"),
        "expansion.step.calls": per(s.count["expansion.step"], passes),
        "expansion.step.us": mean_us("expansion.step"),
        "nadscheck.search.s": per_pass_s("nadscheck.search"),
        "nadscheck.search.ball_points": per(search_points, passes),
        "nadscheck.search.steps_per_ball_point": per(
            s.count_in.get(("nadscheck.search", "expansion.step"), 0), search_points
        ),
        "nadscheck.certify.s": per_pass_s("nadscheck.certify"),
        "quadform.enumerate_ball.points": per(ball_points, passes),
        "quadform.enumerate_ball.us_per_point": per(
            s.time_ns["quadform.enumerate_ball"] / 1e3, ball_points
        ),
        "quadform.closest_lattice_points.calls": per(
            s.count["quadform.closest_lattice_points"], passes
        ),
        "quadform.closest_lattice_points.us": mean_us("quadform.closest_lattice_points"),
        "digitset.build_minimal_norm.s": per_pass_s("digitset.build_minimal_norm"),
        "digitset.build_minimal_norm.us_per_class": per(
            s.time_ns["digitset.build_minimal_norm"] / 1e3, classes
        ),
        "digitset.norm_context.s": per_pass_s("digitset.norm_context"),
        "digitset.tiling_w_bound.s": per_pass_s("digitset.tiling_w_bound"),
        "numberfield.build.s": per_pass_s("numberfield.build"),
        "numberfield.gram_enclosure.calls": per(s.count["numberfield.gram_enclosure"], passes),
        "numberfield.gram_enclosure.s": per_pass_s("numberfield.gram_enclosure"),
        "exactreal.CReal.compare.calls": per(s.count["exactreal.CReal.compare"], passes),
        "exactreal.CReal.compare.s": per_pass_s("exactreal.CReal.compare"),
        "exactreal.CReal.interval.max_bits": s.extra.get(
            ("exactreal.CReal.interval", "max_bits"), 0
        ),
        "exactreal.QuadExt.sqrt_rational.s": per_pass_s("exactreal.QuadExt.sqrt_rational"),
        "optimality.verify_empirically.self_s": per(verify_self_ns / 1e9, passes),
        "optimality.verify_empirically.self_us_per_point": per(
            verify_self_ns / 1e3, verify_points
        ),
        "optimality.min_weight_oracle.ms": mean_us("optimality.min_weight_oracle") / 1e3,
    }
    calls = cli_calls or []
    out["cli.import_s"] = per(sum(c[1] for c in calls), len(calls))
    out["cli.main.self_s"] = per(sum(c[3] for c in calls), len(calls))
    out["cli.spawn_s"] = per(sum(w - i - m for w, i, m, _s in calls), len(calls))
    return out

