"""Seeded edit histories, built before anything is timed.

A history starts from either a generated module (by default the
repository's benchmark generator configuration, about 9-16k nodes) or
a seeded draw from the installed CPython standard library, then advances
through chained ``repro.corpus.mutate_source`` commits with its default
geometric commit-size draw.  Every version of a history is a distinct
tree: a commit whose mutations left the tree unchanged is redrawn, so
content addressing never folds two versions into one.

Both draws keep only first versions whose tree size lies in the
workload's node band, so that a run's cost depends on the seed as
little as possible: the seed picks which files and which commits, not
how large they are.  For the same reason a workload may keep only
commits of a middling size (``COMMIT_EDITS`` edits in the daemon's own
script for the commit).  The default draw gives one-edit commits about
as often as ones with tens of edits, and one in eight runs to hundreds
of edits; the script's size sets much of a served diff's cost (scripts
are validated, serialized and sent), so with a handful of commits a
run, the seed's luck with the draw would otherwise move the served
figures by a third.  A workload that keeps the default sizes may still
drop the draw's refactors (commits that duplicate a function, 90-480
edits): whether a run's sixteen commits hold none, one or three of them
would otherwise set its p90.

The program under test receives only the source text (and, for the
write workload, scripts computed from it).
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass, field

#: the edits a sized commit's script has (bounds included)
COMMIT_EDITS = (8, 30)


@dataclass(frozen=True)
class Size:
    """How much input one run of a workload builds."""

    generated: int  # histories starting from a generated module
    stdlib: int  # histories starting from a stdlib file
    versions: int  # versions per history (the first one included)
    nodes: tuple[int, int]  # size band of every history's first version
    #: the generated modules: "baseline" (repro.bench.baseline's
    #: configuration), "small" (about a third of it) or "tiny" (the
    #: self-test's scale)
    modules: str = "baseline"
    #: redraw every commit whose script has a size outside COMMIT_EDITS
    sized: bool = False
    #: keep commits that duplicate a function (the draw's refactors)
    refactors: bool = True


@dataclass
class History:
    origin: str
    nodes: int  # tree size of the first version
    versions: list[str] = field(default_factory=list)
    #: canonical tree of every version, kept when commits were sized
    trees: list = field(default_factory=list)

    def describe(self) -> dict:
        return {
            "origin": self.origin,
            "nodes": self.nodes,
            "bytes": [len(v.encode("utf8")) for v in self.versions],
        }


def _generator_config(modules: str):
    from repro.corpus import GeneratorConfig

    if modules == "tiny":
        return GeneratorConfig(n_functions=(2, 3), n_classes=(0, 1))
    if modules == "small":
        # about 4-7k nodes
        return GeneratorConfig(n_functions=(10, 14), n_classes=(2, 4))
    # the configuration of repro.bench.baseline's corpus (~14k nodes)
    return GeneratorConfig(n_functions=(24, 32), n_classes=(6, 10))


def _parse(source: str):
    from repro.adapters.pyast import parse_python

    return parse_python(source).with_canonical_uris()


def _advance(
    source: str, seen: set[str], rng: random.Random, tree=None, refactors: bool = True
) -> tuple[str, object]:
    """One commit on top of ``source`` whose tree is new to ``seen`` (and
    that duplicates no function, unless ``refactors``).
    Given ``tree``, the canonical tree of ``source``, the commit must also
    have a size within ``COMMIT_EDITS``, and its own canonical tree is
    returned with it, so a history parses each version once.

    ``seen`` holds ``ast.unparse`` texts, which name a tree: a commit's
    result is already such a text."""
    from repro.core import DiffOptions, URIGen, diff
    from repro.corpus import mutate_source

    for _ in range(200):
        new, applied = mutate_source(source, rng)
        if not applied or new in seen:
            continue
        if not refactors and "duplicate_function" in applied:
            continue
        new_tree = None
        if tree is not None:
            # the daemon's own script for this commit decides its size
            new_tree = _parse(new)
            script, _ = diff(
                tree, new_tree, DiffOptions(typecheck="none"), urigen=URIGen(start=tree.size + 1)
            )
            if not COMMIT_EDITS[0] <= len(script) <= COMMIT_EDITS[1]:
                continue
        seen.add(new)
        return new, new_tree
    raise RuntimeError("mutate_source produced no suitable commit in 200 draws")


def build_histories(workload: str, seed: int, size: Size) -> list[History]:
    """The histories of one run; the same ``(workload, seed, size)``
    always gives the same histories."""
    from repro.adapters.pyast import to_tnode
    from repro.corpus import generate_module, load_stdlib_corpus

    rng = random.Random(f"perfbench:{workload}:{seed}")
    lo, hi = size.nodes

    def in_band(module: ast.Module):
        """The tree of ``module``, or None when its size is outside the band."""
        tree = to_tnode(module)
        return tree if lo <= tree.size <= hi else None

    def generated_in_band(source: str):
        """``in_band`` for a generated module.  Its tree has 1.04-1.09
        nodes per ``ast`` node, so a module whose ``ast`` node count
        rules the band out is skipped before the costly conversion."""
        module = ast.parse(source)
        n_ast = sum(1 for _ in ast.walk(module))
        if n_ast > hi or 1.2 * n_ast < lo:
            return None
        return in_band(module)

    starts: list[tuple[str, str, object]] = []
    config = _generator_config(size.modules)
    for _ in range(200):
        if len(starts) == size.generated:
            break
        gseed = rng.randrange(2**31)
        source = generate_module(gseed, config)
        tree = generated_in_band(source)
        if tree is not None:
            starts.append((f"generated:{gseed}", source, tree))
    drawn = 0
    # 5.5 to 8 bytes of real source per node in the band: skip files
    # that cannot be in it before parsing them
    for rel, source in load_stdlib_corpus(n_files=400, seed=rng.randrange(2**31)):
        if drawn == size.stdlib:
            break
        if not 5 * lo <= len(source.encode("utf8")) <= 9 * hi:
            continue
        tree = in_band(ast.parse(source))
        if tree is not None:
            starts.append((f"stdlib:{rel}", source, tree))
            drawn += 1
    if len(starts) < size.generated + size.stdlib:
        raise RuntimeError(f"too few first versions with {lo}..{hi} nodes")

    histories: list[History] = []
    seen: set[str] = set()
    for origin, source, tree in starts:
        seen.add(ast.unparse(ast.parse(source)))
        hist = History(origin, tree.size, [source])
        if size.sized:
            hist.trees.append(tree.with_canonical_uris())
        for _ in range(1, size.versions):
            new, tree = _advance(
                hist.versions[-1],
                seen,
                rng,
                hist.trees[-1] if hist.trees else None,
                size.refactors,
            )
            hist.versions.append(new)
            if tree is not None:
                hist.trees.append(tree)
        histories.append(hist)
    return histories

