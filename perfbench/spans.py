"""Spans recorded around calls into xoverlab's layers, from outside the package.

``install()`` wraps the public functions listed in ``WRAPPED`` and replaces
them in every xoverlab namespace that bound them (``from .x import name``
copies a reference, so patching only the defining module would miss callers
such as ``cli`` and ``verify``).  A wrapper records one span per call: name,
layer, parent span, item id, start and end in ``perf_counter_ns``, whether
an exception escaped, and a work count taken from the call's arguments or
return value.  Spans stay in memory until ``write()`` dumps them as JSON
lines; ``summarize()`` turns such a file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("words", "crossover", "graphs", "partialcube", "axioms", "matroid",
          "cli", "verify")


def _len_members(args, kwargs, out):
    return len(out.members)


def _len(args, kwargs, out):
    return len(out)


def _graph_edges(args, kwargs, out):
    return out.m


def _arg_graph_edges(args, kwargs, out):
    return args[0].m


def _table_entries(args, kwargs, out):
    v = len(out)
    return v * (v + 1) // 2


def _survivors_and_ground(args, kwargs, out):
    return [len(out.covectors), out.ground_size]


def _family_size(args, kwargs, out):
    return len(args[0]) if hasattr(args[0], "__len__") else 0


def _covers(args, kwargs, out):
    return len(out.covers)


# (module, attribute, span name, count extractor); the span's layer is the
# first dotted component of its name.
WRAPPED = (
    ("crossover", "rset", "crossover.rset", _len_members),
    ("crossover", "rset_recursive", "crossover.rset_recursive", _len_members),
    ("crossover", "find_parents", "crossover.find_parents", _len),
    ("crossover", "lex_extreme_path_vertices", "crossover.lex_paths", _len),
    ("crossover", "closure", "crossover.closure", _len),
    ("graphs", "word_graph", "graphs.word_graph", _graph_edges),
    ("partialcube", "is_partial_cube", "partialcube.is_partial_cube",
     _arg_graph_edges),
    ("partialcube", "is_antipodal", "partialcube.is_antipodal", None),
    ("partialcube", "vc_dimension", "partialcube.vc_dimension", None),
    ("partialcube", "is_planar_quadrangulation", "partialcube.quadrangulation",
     None),
    ("partialcube", "largest_cube_minor_dim", "partialcube.cube_minor", None),
    ("axioms", "table_from_rset", "axioms.table", _table_entries),
    ("axioms", "table_from_closure", "axioms.table", _table_entries),
    ("axioms", "table_from_interval", "axioms.table", _table_entries),
    ("axioms", "check_axiom", "axioms.check", None),
    ("matroid", "covectors_from_topes", "matroid.covectors",
     _survivors_and_ground),
    ("matroid", "check_face_axioms", "matroid.face_axioms", _family_size),
    ("matroid", "face_lattice", "matroid.lattice", _covers),
    ("matroid", "is_uniform", "matroid.uniform", None),
    ("matroid", "tope_graph", "matroid.tope_graph", None),
    ("matroid", "uniform_tope_check", "matroid.tope_check", None),
    ("matroid", "om_from_rset", "matroid.om_from_rset", None),
    ("cli", "render_command", "cli.render", _len),
)

# Methods patched on their class, so every caller sees them.
WRAPPED_METHODS = (
    ("words", "WordSet", "__init__", "words.wordset"),
    ("graphs", "SimpleGraph", "distances", "graphs.distances"),
)


class Recorder:
    """In-memory span log plus the Word construction counter."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.item = -1
        self.words_built = 0
        self.item_words: list[tuple[int, int]] = []
        self._next_id = 0

    def start_item(self, item: int) -> None:
        self.item = item
        self.words_built = 0

    def end_item(self) -> None:
        self.item_words.append((self.item, self.words_built))

    def span(self, name: str, fn, count=None):
        """fn wrapped to record one span per call; the layer is name's prefix."""
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            nested = any(f[1] == name for f in self.stack)
            self.stack.append((sid, name))
            err = 0
            n = None
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                err = 1
                raise
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
                if not err and count is not None:
                    n = count(args, kwargs, out)
                self.spans.append(
                    (sid, parent, name, layer, self.item, t0, t1, n, err, nested)
                )
            return out
        return wrapper

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "layer", "item", "t0", "t1", "n",
                "err", "nested")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
            for item, built in self.item_words:
                fh.write(json.dumps({"item": item, "words_built": built}) + "\n")


def _rebind(original, replacement) -> None:
    """Replace original wherever an xoverlab namespace or suite table holds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "xoverlab" or modname.startswith("xoverlab.")):
            continue
        space = vars(mod)
        for attr, value in list(space.items()):
            if value is original:
                space[attr] = replacement
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    if v is original:
                        value[key] = replacement


def install(rec: Recorder) -> None:
    """Wrap every traced function in every namespace that bound it."""
    import importlib

    mods = {m: importlib.import_module(f"xoverlab.{m}")
            for m in ("words", "crossover", "graphs", "partialcube", "axioms",
                      "matroid", "cli", "verify")}
    for mod, attr, name, count in WRAPPED:
        original = getattr(mods[mod], attr)
        _rebind(original, rec.span(name, original, count))
    for suite in list(mods["verify"].SUITES.values()):
        _rebind(suite, rec.span("verify.suite", suite))
    for mod, cls_name, meth, name in WRAPPED_METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, rec.span(name, getattr(cls, meth)))

    word_cls = mods["words"].Word
    word_init = word_cls.__init__

    def counting_init(self, *args, **kwargs):
        rec.words_built += 1
        word_init(self, *args, **kwargs)

    word_cls.__init__ = counting_init


def summarize(lines) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its JSON-lines records."""
    spans = []
    words_built = 0
    for line in lines:
        rec = json.loads(line)
        if "words_built" in rec:
            words_built += rec["words_built"]
        else:
            spans.append(rec)
    by_id = {s["id"]: s for s in spans}
    # Records are written as spans close, so children precede parents.
    child_time: dict[int, int] = {}
    foreign: dict[int, int] = {}
    fn: dict[str, dict[str, float]] = {}
    layer_self = {layer: 0 for layer in LAYERS}
    layer_errors = {layer: 0 for layer in LAYERS}
    for s in spans:
        dur = s["t1"] - s["t0"]
        own_foreign = foreign.get(s["id"], 0)
        layer_self[s["layer"]] += dur - child_time.get(s["id"], 0)
        parent = by_id.get(s["parent"])
        if parent is not None:
            child_time[parent["id"]] = child_time.get(parent["id"], 0) + dur
            passed = dur if parent["layer"] != s["layer"] else own_foreign
            foreign[parent["id"]] = foreign.get(parent["id"], 0) + passed
        if s["err"] and (parent is None or parent["layer"] != s["layer"]):
            layer_errors[s["layer"]] += 1
        agg = fn.setdefault(s["name"], {"calls": 0, "busy": 0, "self": 0, "n": 0})
        agg["calls"] += 1
        if not s["nested"]:
            agg["busy"] += dur
            agg["self"] += dur - own_foreign
        if isinstance(s["n"], list):
            survivors, ground = s["n"]
            agg["n"] += survivors
            agg["grid"] = agg.get("grid", 0) + 3 ** ground
        elif s["n"] is not None:
            agg["n"] += s["n"]
            agg["n2"] = agg.get("n2", 0) + s["n"] ** 2

    def get(name, key):
        return fn.get(name, {}).get(key, 0)

    def sec(name, key="busy"):
        return get(name, key) / 1e9

    grid = get("matroid.covectors", "grid")
    out = {
        "words.word.built": words_built,
        "words.wordset.calls": get("words.wordset", "calls"),
        "words.wordset.busy_s": sec("words.wordset"),
        "crossover.rset.calls": get("crossover.rset", "calls"),
        "crossover.rset.busy_s": sec("crossover.rset"),
        "crossover.rset.self_s": sec("crossover.rset", "self"),
        "crossover.rset.members": get("crossover.rset", "n"),
        "crossover.rset_recursive.busy_s": sec("crossover.rset_recursive"),
        "crossover.find_parents.busy_s": sec("crossover.find_parents"),
        "crossover.lex_paths.busy_s": sec("crossover.lex_paths"),
        "crossover.closure.calls": get("crossover.closure", "calls"),
        "crossover.closure.busy_s": sec("crossover.closure"),
        "crossover.closure.self_s": sec("crossover.closure", "self"),
        "crossover.closure.members": get("crossover.closure", "n"),
        "graphs.word_graph.busy_s": sec("graphs.word_graph"),
        "graphs.word_graph.edges": get("graphs.word_graph", "n"),
        "graphs.distances.busy_s": sec("graphs.distances"),
        "partialcube.is_partial_cube.calls": get("partialcube.is_partial_cube", "calls"),
        "partialcube.is_partial_cube.busy_s": sec("partialcube.is_partial_cube"),
        "partialcube.is_partial_cube.edges": get("partialcube.is_partial_cube", "n"),
        "partialcube.is_antipodal.busy_s": sec("partialcube.is_antipodal"),
        "partialcube.vc_dimension.busy_s": sec("partialcube.vc_dimension"),
        "partialcube.quadrangulation.busy_s": sec("partialcube.quadrangulation"),
        "partialcube.cube_minor.busy_s": sec("partialcube.cube_minor"),
        "axioms.table.calls": get("axioms.table", "calls"),
        "axioms.table.busy_s": sec("axioms.table"),
        "axioms.table.entries": get("axioms.table", "n"),
        "axioms.check.calls": get("axioms.check", "calls"),
        "axioms.check.busy_s": sec("axioms.check"),
        "matroid.covectors.calls": get("matroid.covectors", "calls"),
        "matroid.covectors.busy_s": sec("matroid.covectors"),
        "matroid.covectors.survivors": get("matroid.covectors", "n"),
        "matroid.covectors.grid": grid,
        "matroid.covectors.survivor_ratio": (
            get("matroid.covectors", "n") / grid if grid else 0.0
        ),
        "matroid.face_axioms.pairs": get("matroid.face_axioms", "n2"),
        "matroid.face_axioms.calls": get("matroid.face_axioms", "calls"),
        "matroid.face_axioms.busy_s": sec("matroid.face_axioms"),
        "matroid.lattice.busy_s": sec("matroid.lattice"),
        "matroid.lattice.covers": get("matroid.lattice", "n"),
        "matroid.uniform.busy_s": sec("matroid.uniform"),
        "matroid.tope_graph.busy_s": sec("matroid.tope_graph"),
        "cli.render.calls": get("cli.render", "calls"),
        "cli.render.busy_s": sec("cli.render"),
        "cli.render.self_s": sec("cli.render", "self"),
        "cli.render.bytes": get("cli.render", "n"),
        "verify.suite.busy_s": sec("verify.suite"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        out[f"{layer}.errors"] = layer_errors[layer]
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric; counts derived by arithmetic, not
    measured, are labelled computed."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("matroid.covectors.grid", "matroid.face_axioms.pairs"):
        return "count-computed"
    if name == "matroid.covectors.survivor_ratio":
        return "ratio-computed"
    return "count"
