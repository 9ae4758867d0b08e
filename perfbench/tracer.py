"""Out-of-package tracer for latnaf.

`install()` replaces every public function of the latnaf modules, in
every module namespace that binds it, with a timing wrapper, and wraps
the `DigitSet.inst` property, `CReal.compare`, `CReal.interval` and
`QuadExt.sqrt_rational`. Nothing under `src/` changes.

Calls are folded into a calling-context tree: one node per call path,
holding the call count, total time and a few per-function extras (word
lengths, points enumerated, precision bits). Self time is a node's
total minus its children's totals. Calls near the root (depth <= 2)
are also kept as full spans (name, start, end, parent) for the trace
file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = (
    "intmat",
    "lattice",
    "exactreal",
    "quadform",
    "numberfield",
    "digitset",
    "expansion",
    "nadscheck",
    "optimality",
    "cli",
)

SPAN_DEPTH = 2
SPAN_CAP = 20_000

_now = time.perf_counter_ns


class Node:
    __slots__ = ("name", "children", "count", "total", "extra")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.count = 0
        self.total = 0
        self.extra = {}

    def child(self, name):
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def to_json(self):
        return {
            "name": self.name,
            "count": self.count,
            "total_ns": self.total,
            "extra": self.extra,
            "children": [c.to_json() for c in self.children.values()],
        }

    @classmethod
    def from_json(cls, obj):
        node = cls(obj["name"])
        node.count = obj["count"]
        node.total = obj["total_ns"]
        node.extra = dict(obj["extra"])
        for c in obj["children"]:
            node.children[c["name"]] = cls.from_json(c)
        return node

    def merge(self, other):
        self.count += other.count
        self.total += other.total
        for k, v in other.extra.items():
            self.extra[k] = max(self.extra.get(k, 0), v) if k == "max_bits" else (
                self.extra.get(k, 0) + v
            )
        for name, c in other.children.items():
            self.child(name).merge(c)


class Tracer:
    def __init__(self):
        self.root = Node("<root>")
        self.node = self.root
        self.stack = []  # (node, start) of the calls in progress
        self.spans = []
        self.open_spans = []
        self.t0 = _now()

    def dump(self, path, extra=None):
        """Write the tree and the spans. Calls still in progress are
        closed at now, so a process stopped at its deadline still reports
        where its time went."""
        now = _now()
        for node, start in self.stack:
            node.count += 1
            node.total += now - start
        for idx in self.open_spans:
            self.spans[idx][2] = now - self.t0
        out = {
            "tree": self.root.to_json(),
            "spans": self.spans,
            "open": [self.spans[i][0] for i in self.open_spans],
        }
        if extra:
            out.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


TRACER: Tracer | None = None


def _wrap(fn, name, hook=None):
    def wrapper(*args, **kwargs):
        tr = TRACER
        parent = tr.node
        node = parent.children.get(name)
        if node is None:
            node = parent.child(name)
        tr.node = node
        stack = tr.stack
        span = None
        if len(stack) < SPAN_DEPTH and len(tr.spans) < SPAN_CAP:
            span = len(tr.spans)
            parent_span = tr.open_spans[-1] if tr.open_spans else None
            tr.spans.append([name, _now() - tr.t0, None, parent_span])
            tr.open_spans.append(span)
        t0 = _now()
        stack.append((node, t0))
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = _now() - t0
            stack.pop()
            node.count += 1
            node.total += dt
            tr.node = parent
            if span is not None:
                tr.spans[span][2] = _now() - tr.t0
                tr.open_spans.pop()
        if hook is not None:
            hook(node, args, result)
        return result

    functools.update_wrapper(wrapper, fn)
    wrapper.__traced__ = True
    return wrapper


def _hook_expand(node, args, result):
    word = getattr(result, "word", None)
    if word is not None:
        node.extra["steps"] = node.extra.get("steps", 0) + len(word)


def _hook_len(key):
    def hook(node, args, result):
        node.extra[key] = node.extra.get(key, 0) + len(result)

    return hook


def _hook_digitset(node, args, result):
    node.extra["classes"] = node.extra.get("classes", 0) + len(result.digits) - 1


def _hook_verify(node, args, result):
    node.extra["points"] = node.extra.get("points", 0) + result.points_checked


def _hook_interval(node, args, result):
    bits = args[1] if len(args) > 1 else 0
    if bits > node.extra.get("max_bits", 0):
        node.extra["max_bits"] = bits


HOOKS = {
    "expansion.expand": _hook_expand,
    "quadform.enumerate_ball": _hook_len("points"),
    "digitset.build_minimal_norm": _hook_digitset,
    "optimality.verify_empirically": _hook_verify,
    "exactreal.CReal.interval": _hook_interval,
}


def _is_traceable(obj):
    if inspect.isfunction(obj):
        return True
    # functools.lru_cache wrappers (`geometry`, `char_poly`, ...) are not
    # functions but expose cache_info
    return callable(obj) and not inspect.isclass(obj) and hasattr(obj, "cache_info")


def install():
    """Wrap the public latnaf functions; returns the tracer."""
    global TRACER
    if TRACER is not None:
        return TRACER
    TRACER = Tracer()
    pkg = importlib.import_module("latnaf")
    mods = [importlib.import_module(f"latnaf.{m}") for m in MODULES]
    wrappers = {}
    for ns in [pkg, *mods]:
        for attr, obj in list(vars(ns).items()):
            if attr.startswith("_") or not _is_traceable(obj):
                continue
            owner = getattr(obj, "__module__", "") or ""
            if not owner.startswith("latnaf."):
                continue
            if getattr(obj, "__traced__", False):
                continue
            key = id(obj)
            if key not in wrappers:
                name = owner[len("latnaf."):] + "." + obj.__name__
                wrappers[key] = _wrap(obj, name, HOOKS.get(name))
            setattr(ns, attr, wrappers[key])

    digitset = importlib.import_module("latnaf.digitset")
    exactreal = importlib.import_module("latnaf.exactreal")
    prop = digitset.DigitSet.inst
    digitset.DigitSet.inst = property(_wrap(prop.fget, "digitset.DigitSet.inst"))
    creal = exactreal.CReal
    creal.compare = _wrap(creal.compare, "exactreal.CReal.compare")
    creal.interval = _wrap(
        creal.interval, "exactreal.CReal.interval", HOOKS["exactreal.CReal.interval"]
    )
    quad = exactreal.QuadExt
    sqrt_rational = quad.__dict__["sqrt_rational"].__func__
    quad.sqrt_rational = classmethod(
        _wrap(sqrt_rational, "exactreal.QuadExt.sqrt_rational")
    )
    return TRACER
