"""Functional patch application for immutable trees.

``diff`` already returns the patched tree, but consumers that *receive*
an edit script (over the wire, from a history store) need to apply it to
a :class:`~repro.core.tree.TNode` they hold.  The standard semantics
works on mutable :class:`~repro.core.mtree.MTree`; this module closes the
loop:

* :func:`mtree_to_tnode` — rebuild an immutable tree from a patched
  MTree, preserving URIs;
* :func:`apply_script` — the composition ``TNode → MTree → patch →
  TNode``: a pure function from tree and script to tree.
"""

from __future__ import annotations

from typing import Optional

from repro.observability import span as _span

from .edits import EditScript
from .mtree import MNode, MTree, PatchError
from .signature import SignatureRegistry
from .tree import TNode, tnode_to_mtree


def mnode_to_tnode(node: MNode, sigs: SignatureRegistry, *, validate: bool = True) -> TNode:
    """Rebuild an immutable tree from a (complete) mutable subtree.

    Raises :class:`PatchError` if the subtree contains empty slots — only
    closed trees have an immutable counterpart.  Iterative post-order, so
    arbitrarily deep patched trees rebuild without ``RecursionError``.

    ``validate=False`` skips the per-node signature checks, for trees
    :func:`repro.robustness.check_tree` has already passed (it checks
    the same tags, link sets, literal types and kid sorts).
    """
    # pre frames carry (node, None); post frames (node, (sig, kid_links))
    stack: list[tuple[MNode, Optional[tuple]]] = [(node, None)]
    results: list[TNode] = []
    while stack:
        n, info = stack.pop()
        if info is None:
            sig = sigs[n.tag]
            kid_links = (
                tuple(str(i) for i in range(len(n.kids)))
                if sig.is_variadic
                else sig.kid_links
            )
            stack.append((n, (sig, kid_links)))
            for link in reversed(kid_links):
                kid = n.kids.get(link)
                if kid is None:
                    raise PatchError(f"{n.node} has an empty slot {link!r}")
                stack.append((kid, None))
        else:
            sig, kid_links = info
            cnt = len(kid_links)
            if cnt:
                kids = results[-cnt:]
                del results[-cnt:]
            else:
                kids = []
            lits = [n.lits[link] for link in sig.lit_links]
            results.append(TNode(sigs, sig, kids, lits, n.uri, validate=validate))
    return results[0]


def mtree_to_tnode(tree: MTree, sigs: SignatureRegistry, *, validate: bool = True) -> TNode:
    """The immutable counterpart of the tree attached under the root
    (options as for :func:`mnode_to_tnode`)."""
    main = tree.main
    if main is None:
        raise PatchError("the tree is empty")
    return mnode_to_tnode(main, sigs, validate=validate)


def apply_script(
    tree: TNode,
    script: EditScript,
    sigs: Optional[SignatureRegistry] = None,
    *,
    atomic: bool = False,
    verify: bool = False,
) -> TNode:
    """Apply an edit script to an immutable tree, returning the patched
    immutable tree.  The input tree is not modified.

    ``atomic=True`` applies the script transactionally (pre-flight linear
    typecheck plus rollback-on-failure, see
    :func:`repro.robustness.patch_atomic`); ``verify=True`` additionally
    runs the tree-integrity verifier on the patched mutable tree before
    rebuilding the immutable result.  Because the input tree is never
    mutated, the rollback only affects the intermediate
    :class:`~repro.core.mtree.MTree` — the flags exist so recipients of
    untrusted scripts get structured, indexed errors instead of partially
    converted state.
    """
    sigs = sigs if sigs is not None else tree.sigs
    with _span("repro.patch.apply_script"):
        mtree = tnode_to_mtree(tree)
        mtree.patch(script, atomic=atomic, sigs=sigs, verify=verify)
        return mtree_to_tnode(mtree, sigs)
