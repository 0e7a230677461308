"""The benchmark's workloads: fixed item lists built from a seed, with exact checks.

An item is one closed-loop request: ``run()`` is the timed call into the
library, ``check(out)`` returns failure messages and ``digest(out)`` a
fingerprint of the output; both run outside the timed call.  The seed only
picks parent words (which positions differ, which letters the parents
carry) or, for ``docs``, which of ``POOL`` recorded variants of an
invocation runs.  It never changes the (alphabet, n, k, t) schedule, so the
cost of a pass does not drift with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

# Library calls go through module attributes so that the spans installed by
# spans.install() see the benchmark's own calls too.
from xoverlab import axioms, cli, crossover, matroid, partialcube, verify
from xoverlab.words import AlphabetSpec, Word

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "docs_digests.json"
POOL = 8


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def letters(ws) -> list[tuple[int, ...]]:
    return [w.letters for w in ws]


def expected_size(k: int, t: int) -> int:
    """|R_k(x, y)| for parents at distance t: 2^t, or 2*Phi_k(t-1) past k."""
    return 2 ** t if t <= k else 2 * sum(comb(t - 1, i) for i in range(k + 1))


def rset_failures(k: int, x: Word, y: Word, members) -> list[str]:
    """Exact check of a recombination set without calling the library.

    Every member must copy x where the parents agree, take each differing
    letter from one parent, and switch parents at most k times along the
    differing positions.  There are exactly expected_size(k, t) such words,
    so with the size check the set is pinned.
    """
    words = [w.letters for w in members]
    t = sum(a != b for a, b in zip(x.letters, y.letters))
    bad = []
    if len(words) != expected_size(k, t) or len(set(words)) != len(words):
        bad.append(f"size {len(words)} != {expected_size(k, t)}")
    for w in words:
        seq = []
        for a, b, c in zip(x.letters, y.letters, w):
            if a == b:
                if c != a:
                    seq = None
                    break
            elif c in (a, b):
                seq.append(c == b)
            else:
                seq = None
                break
        if seq is None or sum(p != q for p, q in zip(seq, seq[1:])) > k:
            bad.append(f"member {w} is not a <= {k}-switch parent choice")
            break
    return bad


def random_pair(rng: random.Random, sizes: tuple[int, ...], t: int) -> tuple[Word, Word]:
    spec = AlphabetSpec(sizes)
    x = [rng.randrange(a) for a in sizes]
    y = list(x)
    for p in rng.sample(range(len(sizes)), t):
        y[p] = (x[p] + rng.randrange(1, sizes[p])) % sizes[p]
    return Word(tuple(x), spec), Word(tuple(y), spec)


# --------------------------------------------------------------------- pairs

def _pairs_binary(k: int, x: Word, y: Word) -> Item:
    def run():
        r = crossover.rset(k, x, y).members
        rec = crossover.rset_recursive(k, x, y).members if k >= 2 else None
        lex = crossover.lex_extreme_path_vertices(x, y) if k == 1 else None
        return r, rec, lex

    def check(out):
        r, rec, lex = out
        bad = rset_failures(k, x, y, r)
        if rec is not None and letters(rec) != letters(r):
            bad.append("rset_recursive differs from rset")
        if lex is not None and letters(lex) != letters(r):
            bad.append("lex extreme path vertices differ from R_1")
        return bad

    def digest(out):
        return sha(repr([None if ws is None else letters(ws) for ws in out]))

    return Item(f"pairs k={k} x={x} y={y}", run, check, digest)


def _pairs_letters(k: int, x: Word, y: Word) -> Item:
    return Item(
        f"pairs k={k} x={x} y={y} spec={x.spec}",
        lambda: crossover.rset(k, x, y).members,
        lambda r: rset_failures(k, x, y, r),
        lambda r: sha(repr(letters(r))),
    )


def _pairs_parents(k: int, x: Word, y: Word) -> Item:
    target = crossover.rset(k, x, y).members
    want = {frozenset((x.letters, y.letters))}

    def check(found):
        got = {frozenset((u.letters, v.letters)) for u, v in found}
        if len(found) != 1 or got != want:
            return [f"find_parents gave {len(found)} pairs, want exactly ({x}, {y})"]
        return []

    return Item(
        f"find_parents k={k} x={x} y={y}",
        lambda: crossover.find_parents(k, target),
        check,
        lambda found: sha(repr([(u.letters, v.letters) for u, v in found])),
    )


def pairs_items(seed: int) -> list[Item]:
    rng = random.Random(f"pairs/{seed}")
    items = []
    for n in range(8, 17):
        for k in range(1, 7):
            for t in sorted({0, n // 4, n // 2, 3 * n // 4, n}):
                items.append(_pairs_binary(k, *random_pair(rng, (2,) * n, t)))
    for sizes in ((3,) * 6, (3,) * 8, (2, 3, 4) * 2, (2, 3, 4) * 3):
        n = len(sizes)
        for k in range(1, 5):
            for t in (n // 2, n):
                items.append(_pairs_letters(k, *random_pair(rng, sizes, t)))
    for _ in range(2):
        for n in (4, 5, 6):
            for k in (1, 2, 3):
                for t in range(k + 2, n + 1):
                    items.append(_pairs_parents(k, *random_pair(rng, (2,) * n, t)))
    return items


# ----------------------------------------------------------------------- om

def _om_item(k: int, n: int, x: Word) -> Item:
    full = (1 << n) - 1
    y = Word.from_index(full ^ x.index, x.spec)

    def run():
        topes = [matroid.word_to_sign(w) for w in crossover.rset(k, x, y).members]
        out = {"tope_check": matroid.uniform_tope_check(topes)}
        om = out["om"] = matroid.covectors_from_topes(topes)
        out["faces"] = matroid.check_face_axioms(om.covectors)
        out["uniform"] = matroid.is_uniform(om)
        if n <= 6:
            out["lattice"] = matroid.face_lattice(om)
        if k == 2:
            out["quad"] = partialcube.is_planar_quadrangulation(matroid.tope_graph(om))
        return out

    def check(out):
        om = out["om"]
        bad = []
        if not out["tope_check"] or len(om.topes) != expected_size(k, n):
            bad.append(f"tope count {len(om.topes)} != 2 Phi_{k}({n - 1})")
        if om.rank != k + 1:
            bad.append(f"rank {om.rank} != {k + 1}")
        if (len(om.cocircuits) != 2 * comb(n, k)
                or any(c.support_size != n - k for c in om.cocircuits)):
            bad.append(f"cocircuits are not 2*C({n},{k}) of support {n - k}")
        if out["uniform"] != (True, n - k):
            bad.append(f"is_uniform gave {out['uniform']}")
        if not out["faces"].holds:
            bad.append(f"face axioms fail: {out['faces'].axiom}")
        if "quad" in out and out["quad"] != (True, n * n - n):
            bad.append(f"quadrangulation {out['quad']} != (True, {n * n - n})")
        if "lattice" in out:
            levels = out["lattice"].level_sizes()
            if sum(levels) != len(om.covectors) + 1 or len(levels) != k + 3:
                bad.append(f"lattice levels {levels}")
            if (k, n) == (2, 4) and levels != (1, 12, 24, 14, 1):
                bad.append(f"lattice levels {levels} != (1, 12, 24, 14, 1)")
        return bad

    def digest(out):
        om = out["om"]
        parts = [str(c) for c in om.covectors] + [repr(out["uniform"])]
        if "lattice" in out:
            parts.append(repr(out["lattice"].covers))
        if "quad" in out:
            parts.append(repr(out["quad"]))
        return sha(" ".join(parts))

    return Item(f"om k={k} n={n} x={x}", run, check, digest)


def om_items(seed: int) -> list[Item]:
    rng = random.Random(f"om/{seed}")
    items = []
    # n = 8 stops at k = 3: the face-axiom scans at n = 8, k >= 4 take 26 s
    # together, more than a whole run may spend.
    for n in range(2, 9):
        for k in range(1, n if n < 8 else 4):
            x = Word.from_index(rng.randrange(1 << n), AlphabetSpec((2,) * n))
            items.append(_om_item(k, n, x))
    return items


# --------------------------------------------------------------------- docs

def _word_args(x: Word, y: Word) -> list[str]:
    argv = ["-x", str(x), "-y", str(y)]
    if not x.spec.is_binary:
        argv += ["--spec", str(x.spec)]
    return argv


def docs_slots() -> list[tuple[str, Callable[[random.Random], list[str]]]]:
    """Seed-dependent invocations: (slot name, argv builder from a variant rng)."""
    slots = []

    def pair(cmd, k, sizes, t, fmt):
        def build(rng):
            argv = [cmd, "-k", str(k)] + _word_args(*random_pair(rng, sizes, t))
            return argv + (["--format", fmt] if fmt != "json" else [])
        return build

    for d in (8, 9, 10):
        for k in (2, 3, 4):
            fmt = "dot" if k == 2 else "json"
            # n = d: a constant coordinate would make the VC-dimension
            # search cost depend on where the seed put it.
            slots.append((f"graph/{d}/{k}", pair("graph", k, (2,) * d, d, fmt)))
    for t in (8, 9, 10):
        for k in (1, 2):
            slots.append((f"closure/{t}/{k}",
                          pair("closure", k, (2,) * (t + 1), t, "json")))
    for sizes, k in (((3,) * 5, 1), ((3,) * 6, 2), ((2, 3, 4) * 2, 1),
                     ((3, 2) * 3 + (3,), 2)):
        slots.append((f"closure/{','.join(map(str, sizes))}/{k}",
                      pair("closure", k, sizes, len(sizes), "json")))
    # t = k + 1: the set is closed, so the document's is_closed check scans
    # every pair; for larger t its early exit would make the cost depend on
    # the seed.
    for n in range(12, 17):
        for k in (2, 4):
            fmt = "table" if n % 2 else "json"
            slots.append((f"rset/{n}/{k}", pair("rset", k, (2,) * n, k + 1, fmt)))
    return slots


def docs_fixed() -> list[list[str]]:
    """Seed-independent invocations besides the goldens."""
    out = []
    for spec in ("2^4", "2^5", "3,3", "2,3,3"):
        for source in ("rset:1", "rset:2", "closure:1", "closure:2", "interval"):
            out.append(["axioms", "--source", source, "--spec", spec])
    for n in (5, 6, 7):
        for k in range(1, n):
            out.append(["om", "-k", str(k), "-n", str(n)]
                       + (["--format", "table"] if k == 1 else []))
    for suite in ("r2", "hamming", "axioms"):
        out.append(["verify", suite])
    return out


def docs_variant_argv(slot: str, build, variant: int) -> list[str]:
    return build(random.Random(f"docs/{slot}/{variant}"))


def load_goldens(root: Path) -> list[tuple[list[str], Path]]:
    sys.path.insert(0, str(root / "tests"))
    try:
        from golden_manifest import GOLDEN, GOLDEN_DIR
    finally:
        sys.path.pop(0)
    return [(argv, GOLDEN_DIR / name) for argv, name in GOLDEN]


def _doc_item(argv: list[str], want: bytes | str, how: str) -> Item:
    def check(text):
        got = text.encode() if how == "bytes" else sha(text)
        return [] if got == want else [f"document differs ({how}): {' '.join(argv)}"]

    return Item("docs " + " ".join(argv), lambda: cli.render_command(argv),
                check, sha)


def docs_items(seed: int, root: Path) -> list[Item]:
    digests = json.loads(DIGESTS.read_text())
    items = [_doc_item(argv, path.read_bytes(), "bytes")
             for argv, path in load_goldens(root)]
    rng = random.Random(f"docs/{seed}")
    argvs = [docs_variant_argv(slot, build, rng.randrange(POOL))
             for slot, build in docs_slots()]
    for argv in argvs + docs_fixed():
        items.append(_doc_item(argv, digests.get(" ".join(argv), ""), "sha256"))
    return items


# -------------------------------------------------------------------- probe

def probe_item() -> Item:
    """One tiny call into every traced function, so that every per-layer
    metric is measured on every workload; the layers a workload does not
    stress stay nearly idle."""
    spec = AlphabetSpec((2,) * 4)
    x, y = Word((0, 1, 1, 0), spec), Word((1, 0, 0, 1), spec)

    def run():
        g = crossover.transit_graph(2, x, y)
        emb = partialcube.is_partial_cube(g)
        table = axioms.table_from_rset(1, AlphabetSpec((2, 2)))
        s3 = AlphabetSpec((2,) * 3)
        topes = [matroid.word_to_sign(w) for w in crossover.rset(
            2, Word((0, 0, 0), s3), Word((1, 1, 1), s3)).members]
        om = matroid.covectors_from_topes(topes)
        return {
            "rset": crossover.rset(2, x, y).members,
            "recursive": crossover.rset_recursive(2, x, y).members,
            "lex": crossover.lex_extreme_path_vertices(x, y),
            "parents": crossover.find_parents(1, crossover.rset(1, x, y).members),
            "closure": crossover.closure(1, x, y),
            "graph": (g.n, g.m, emb is not None,
                      partialcube.is_antipodal(g) is not None,
                      partialcube.vc_dimension(list(g.vertices)),
                      partialcube.largest_cube_minor_dim(emb),
                      partialcube.is_planar_quadrangulation(g)),
            "T1": axioms.check_axiom(table, "T1").holds,
            "om": (om.rank, matroid.check_face_axioms(om.covectors).holds,
                   matroid.is_uniform(om), matroid.face_lattice(om).level_sizes(),
                   matroid.tope_graph(om).m),
            "cli": cli.render_command(["rset", "-k", "1", "-x", "0", "-y", "1",
                                       "--spec", "2"]),
            "verify": verify.SUITES["r2"](ts=(4,)).passed,
        }

    def check(out):
        bad = rset_failures(2, x, y, out["rset"])
        bad += rset_failures(2, x, y, out["recursive"])
        bad += rset_failures(1, x, y, out["lex"])
        if [(u.letters, v.letters) for u, v in out["parents"]] != [(x.letters, y.letters)]:
            bad.append("probe find_parents")
        if len(out["closure"]) != 16:
            bad.append("probe closure is not the 16-word interval")
        if out["graph"] != (14, 24, True, True, 3, 3, (True, 12)):
            bad.append(f"probe graph stats {out['graph']}")
        if out["om"] != (3, True, (True, 1), (1, 6, 12, 8, 1), 12) or not out["T1"]:
            bad.append(f"probe om {out['om']} / T1 {out['T1']}")
        if '"size": 2' not in out["cli"] or not out["verify"]:
            bad.append("probe cli / verify")
        return bad

    return Item("probe", run, check, lambda out: sha(repr(sorted(
        (k, repr(v)) for k, v in out.items()))))


def items_for(workload: str, seed: int, root: Path) -> list[Item]:
    if workload == "pairs":
        items = pairs_items(seed)
    elif workload == "docs":
        items = docs_items(seed, root)
    elif workload == "om":
        items = om_items(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items + [probe_item()]
