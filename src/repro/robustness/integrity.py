"""Whole-tree integrity verification for mutable trees.

Definitions 3.3/3.4 (:func:`repro.core.mtree.mnode_well_typed`) type a
tree *given* the slots and roots it is supposed to have.  The verifier
here answers the unconditional question a recipient of a patched tree
actually has: *is this a closed, well-formed tree at all?*  It checks

* **index consistency** — every index key maps to a node carrying that
  URI, and the pre-defined root is the indexed root;
* **link bidirectionality** — every kid reference points to the indexed
  object for that URI (no stale or aliased nodes) and every node has at
  most one parent;
* **no empty slots** — every kid link holds a subtree (the root slot may
  be empty only in the empty tree);
* **no leaks** — every indexed node is reachable from the root
  (``allow_detached=True`` relaxes this and the slot check, for
  inspecting mid-transaction or deliberately open trees);
* **signature conformance** (when ``sigs`` is given) — tags are
  declared, literal links and values match the signature, kid links are
  exactly the signature's (consecutive ``0..k-1`` for variadic
  constructors), and every kid's sort is a subtype of its slot's sort.

:func:`check_tree` returns the violations as strings;
:func:`verify_tree` raises :class:`IntegrityError` carrying them.
Fingerprinting (:func:`tree_state`, :func:`tree_fingerprint`) gives the
canonical content snapshot the rollback tests compare against;
:func:`tnode_state` computes the same snapshot from an immutable tree.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.observability import OBS, metrics as _metrics, span as _span

from repro.core.mtree import MTree
from repro.core.node import ROOT_LINK, ROOT_TAG
from repro.core.signature import SignatureRegistry
from repro.core.tree import TNode, literal_key
from repro.core.uris import ROOT_URI, URI


class IntegrityError(Exception):
    """A mutable tree violates a structural or signature invariant."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        shown = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        super().__init__(f"{len(violations)} violation(s): {shown}{more}")


def check_tree(
    tree: MTree,
    sigs: Optional[SignatureRegistry] = None,
    *,
    allow_detached: bool = False,
    max_violations: int = 100,
) -> list[str]:
    """All integrity violations of ``tree``, empty if the tree is sound."""
    out: list[str] = []

    def report(msg: str) -> bool:
        out.append(msg)
        return len(out) >= max_violations

    with _span("repro.verify.tree"):
        index = tree.index
        root = index.get(ROOT_URI)
        if root is not tree.root:
            report(f"index entry for {ROOT_URI!r} is not the tree's root node")
        if ROOT_LINK not in tree.root.kids:
            report(f"root node lacks the {ROOT_LINK!r} slot")

        # index keys, kid wiring, parent counts
        parents: dict[URI, int] = {}
        for uri, n in index.items():
            if len(out) >= max_violations:
                break
            if n.uri != uri:
                if report(f"index key {uri!r} maps to node with URI {n.uri!r}"):
                    break
            for link, kid in n.kids.items():
                if kid is None:
                    empty_ok = allow_detached or (
                        n is tree.root and len(index) == 1
                    )
                    if not empty_ok and report(
                        f"{n.node}.{link} is an empty slot"
                    ):
                        break
                    continue
                indexed = index.get(kid.uri)
                if indexed is None:
                    if report(f"{n.node}.{link} references unindexed node {kid.node}"):
                        break
                    continue
                if indexed is not kid:
                    if report(
                        f"{n.node}.{link} references a stale object for URI "
                        f"{kid.uri} (index holds a different node)"
                    ):
                        break
                if kid is tree.root:
                    if report(f"{n.node}.{link} references the pre-defined root"):
                        break
                parents[kid.uri] = parents.get(kid.uri, 0) + 1
        for uri, count in parents.items():
            if len(out) >= max_violations:
                break
            if count > 1:
                report(f"node {uri!r} has {count} parents")

        # reachability: anything indexed but unreachable is a leaked root
        if not allow_detached and len(out) < max_violations:
            reachable = {n.uri for n in tree.root.iter_subtree()}
            for uri in index:
                if uri not in reachable:
                    if report(f"node {uri!r} is not reachable from the root"):
                        break

        # signature conformance
        if sigs is not None:
            for uri, n in index.items():
                if len(out) >= max_violations:
                    break
                if n is tree.root:
                    continue
                sig = sigs.get(n.tag)
                if sig is None:
                    report(f"{n.node}: tag has no declared signature")
                    continue
                if set(n.lits) != set(sig.lit_links):
                    report(
                        f"{n.node}: literal links {sorted(n.lits)} != "
                        f"signature links {sorted(sig.lit_links)}"
                    )
                else:
                    for link in sig.lit_links:
                        base = sig.lit_type(link)
                        if not base.check(n.lits[link]):
                            report(
                                f"{n.node}.{link}: literal {n.lits[link]!r} "
                                f"is not a {base}"
                            )
                if sig.is_variadic:
                    expected_links = {str(i) for i in range(len(n.kids))}
                    if set(n.kids) != expected_links:
                        report(
                            f"{n.node}: variadic kid links {sorted(n.kids)} "
                            f"are not consecutive 0..{len(n.kids) - 1}"
                        )
                        continue
                elif set(n.kids) != set(sig.kid_links):
                    report(
                        f"{n.node}: kid links {sorted(n.kids)} != "
                        f"signature links {sorted(sig.kid_links)}"
                    )
                    continue
                for link, kid in n.kids.items():
                    if kid is None or kid is tree.root:
                        continue
                    kid_sig = sigs.get(kid.tag)
                    if kid_sig is None:
                        continue  # reported above for the kid itself
                    expected = sig.kid_type(link)
                    if not sigs.is_subtype(kid_sig.result, expected):
                        report(
                            f"{n.node}.{link}: kid sort {kid_sig.result} "
                            f"is not a subtype of {expected}"
                        )

    if OBS.enabled:
        m = _metrics()
        m.counter("repro.verify.trees").inc()
        if out:
            m.counter("repro.verify.violations").inc(len(out))
    return out


def verify_tree(
    tree: MTree,
    sigs: Optional[SignatureRegistry] = None,
    *,
    allow_detached: bool = False,
) -> None:
    """Raise :class:`IntegrityError` unless ``tree`` passes
    :func:`check_tree` cleanly."""
    violations = check_tree(tree, sigs, allow_detached=allow_detached)
    if violations:
        raise IntegrityError(violations)


def tree_state(tree: MTree) -> tuple:
    """A canonical, order-independent snapshot of the *entire* tree state —
    the full index including detached roots, with type-aware literal keys
    (:func:`repro.core.tree.literal_key`).  Two trees with equal states
    are indistinguishable to every observer of the standard semantics.
    """
    entries = []
    for uri, n in tree.index.items():
        kids = tuple(
            (link, None if kid is None else repr(kid.uri))
            for link, kid in n.kids.items()
        )
        lits = tuple((link, literal_key(v)) for link, v in n.lits.items())
        entries.append((repr(uri), n.tag, kids, lits))
    entries.sort(key=lambda e: e[0])
    return tuple(entries)


def tnode_state(tree: TNode) -> tuple:
    """:func:`tree_state` of ``tnode_to_mtree(tree)``, read straight off
    the immutable tree: no :class:`MTree` copy, and no lazily cached
    accessors (``kid_items``, ``node``) filled on the nodes it visits.

    The entries are built in the same pre-order as
    :func:`~repro.core.tree.tnode_to_mtree` fills its index, so a URI
    seen twice keeps its last entry there as here.
    """
    root = repr(ROOT_URI)
    entries = {root: (root, ROOT_TAG, ((ROOT_LINK, repr(tree.uri)),), ())}
    stack = [tree]
    pop = stack.pop
    extend = stack.extend
    while stack:
        n = pop()
        sig = n.sig
        key = repr(n.uri)
        kids = n.kids
        if kids:
            links = (
                sig.kid_links if sig.variadic is None else map(str, range(len(kids)))
            )
            kid_refs = tuple(zip(links, [repr(k.uri) for k in kids]))
            extend(reversed(kids))
        else:
            kid_refs = ()
        lits = n.lits
        lit_keys = tuple(zip(sig.lit_links, map(literal_key, lits))) if lits else ()
        entries[key] = (key, sig.tag, kid_refs, lit_keys)
    return tuple([entries[key] for key in sorted(entries)])


def tree_fingerprint(tree: MTree) -> str:
    """A stable hex digest of :func:`tree_state` — what the fault-injection
    harness compares to assert byte-identical rollback."""
    return hashlib.sha256(repr(tree_state(tree)).encode("utf8")).hexdigest()
