"""Content-addressed tree store: parse once, diff many times.

The one-shot CLI re-parses both files on every ``repro diff`` — at the
north-star scale (many diffs against few distinct documents) parsing
dominates.  The store turns the parsed artifacts into shared immutable
state: each uploaded source is parsed once, canonicalized
(:meth:`~repro.core.tree.TNode.with_canonical_uris`) and filed under
the sha256 **tree fingerprint** (:func:`fingerprint_tree`: the
:func:`repro.robustness.tree_fingerprint` bytes, computed straight from
the canonical tree).  Clients submit sources once and from then on
address trees by fingerprint.

Content addressing is by *tree* content, not source bytes: two sources
that parse to the same canonical tree (formatting, comments) share one
entry — uploading the reformatted file is a cache hit and diffing the
two fingerprints is the identity.  The fingerprint is exactly what the
fault-injection harness compares for byte-identical rollback, so "same
fingerprint" means "indistinguishable to every observer of the standard
semantics".  A re-upload of an entry's *own* source bytes does not even
parse once the store has parsed those bytes itself: it maps each such
source string to the fingerprint of its parse.  Only its own parses
fill the map (uploads and snapshot recovery): an apply result's
unparsed source need not parse back to the result, so its first
re-upload parses and, when the round trip holds, maps the source.

Mutation semantics mirror ``robustness/``'s transactional patching: the
store never mutates an entry in place.  :meth:`TreeStore.apply` patches
a *fresh* ``MTree`` built from the stored tree with
``patch(atomic=True, verify=True)`` — any failure rolls the scratch tree
back and leaves the store untouched — and only a verified result is
inserted, under its own (new) fingerprint (:func:`finish_patch` turns
the scratch tree into the entry).  Entries are immutable after insert;
capacity is bounded by LRU eviction.

All methods are thread-safe (the asyncio front ends call them from
executor threads).
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.core import MTree, SignatureRegistry, TNode, mtree_to_tnode, tnode_to_mtree
from repro.observability import OBS, metrics as _metrics
from repro.robustness.integrity import tnode_state


class StoreError(Exception):
    """A store-level request problem (unknown fingerprint, parse failure)."""


class UnknownFingerprint(StoreError):
    def __init__(self, fingerprint: str) -> None:
        super().__init__(f"unknown tree fingerprint: {fingerprint}")
        self.fingerprint = fingerprint


class StoredTree:
    """One immutable store entry: source text + parsed canonical tree.

    ``tree`` has canonical pre-order URIs (1..size), so scripts produced
    against it are meaningful to any process that re-parses the same
    source — the same contract as the CLI's ``diff``/``apply``.
    """

    __slots__ = ("fingerprint", "source", "filename", "tree", "nodes")

    def __init__(
        self, fingerprint: str, source: Optional[str], filename: str, tree: TNode
    ) -> None:
        self.fingerprint = fingerprint
        self.source = source
        self.filename = filename
        self.tree = tree
        self.nodes = tree.size

    def describe(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "filename": self.filename,
            "nodes": self.nodes,
        }


def fingerprint_tree(tree: TNode) -> str:
    """The store key of a canonical tree: the sha256 hex digest of its
    :func:`~repro.robustness.integrity.tnode_state` — byte-identical to
    ``tree_fingerprint(tnode_to_mtree(tree))`` without the copy."""
    return hashlib.sha256(repr(tnode_state(tree)).encode("utf8")).hexdigest()


def finish_patch(
    mtree: MTree, sigs: SignatureRegistry, *, validate: bool = False
) -> tuple[TNode, str, str]:
    """``(tree, source, fingerprint)`` of a patched scratch tree.

    Rebuilds the immutable tree in one pass over ``mtree`` and
    renumbers it canonically in a copy pass.  The per-node signature
    checks are skipped by default: a tree patched with ``verify=True``
    has passed :func:`~repro.robustness.check_tree`, which checks the
    same tags, link sets, literal types and kid sorts.
    ``validate=True`` keeps them for a tree no verifier saw whole
    (apply-batch's composition of independently verified scripts)."""
    from repro.adapters.pyast import unparse_python

    tree = mtree_to_tnode(mtree, sigs, validate=validate).with_canonical_uris()
    return tree, unparse_python(tree), fingerprint_tree(tree)


class TreeStore:
    """Bounded, thread-safe, content-addressed map of parsed trees.

    Counters (under ``repro.server.store.``): ``parses`` (sources
    parsed — one per upload whose bytes the source map does not hold,
    flat across byte-identical re-uploads of parsed sources and all
    fingerprint-addressed requests; the "no re-parse" evidence the
    smoke gate scrapes),
    ``puts`` (new entries), ``dups`` (inserts and uploads whose tree was
    already stored, ``source_hits`` among them: re-uploads answered from
    the source map without a parse), ``hits``/``misses`` (fingerprint
    lookups), ``evictions``, and the ``trees`` gauge.
    """

    def __init__(self, max_trees: int = 1024) -> None:
        if max_trees < 1:
            raise ValueError(f"max_trees must be >= 1, got {max_trees}")
        self.max_trees = max_trees
        # lock-order class "store._lock": may be held while taking the
        # durable store's "store._io_lock", never acquired under it —
        # the sanitizer (repro.robustness.locksan) enforces the order
        # when enabled and hands back a plain RLock otherwise
        from repro.robustness import locksan

        self._lock = locksan.rlock("store._lock")
        #: insertion/touch order is LRU order (dicts preserve insertion).
        self._trees: dict[str, StoredTree] = {}
        #: source strings this store parsed -> their parse's fingerprint;
        #: each is its entry's own source and leaves with the entry
        self._sources: dict[str, str] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._trees)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._trees

    def _count(self, name: str, n: int = 1) -> None:
        if OBS.enabled:
            _metrics().counter(f"repro.server.store.{name}").inc(n)

    def _gauge(self) -> None:
        if OBS.enabled:
            _metrics().gauge("repro.server.store.trees").set(len(self._trees))

    def put_source(self, source: str, filename: str = "<uploaded>") -> tuple[StoredTree, bool]:
        """Parse ``source`` and insert it; returns ``(entry, was_cached)``.

        Raises :class:`StoreError` for unparseable input.  An upload
        whose tree is already stored returns the existing entry
        (``was_cached=True``).  When the store has parsed these bytes
        for a resident entry before, the answer comes from the source
        map without a parse; otherwise (a reformatted file, the first
        re-upload of an apply result) the parse it pays is the price of
        discovering the fingerprint.  Fingerprint-addressed requests
        never parse.
        """
        from repro.adapters.pyast import parse_python

        with self._lock:
            fp = self._sources.get(source)
            if fp is not None:
                # eviction drops an entry's source, so the entry is resident
                entry = self._trees[fp] = self._trees.pop(fp)
                self._count("source_hits")
                self._count("dups")
                return entry, True
        self._count("parses")
        try:
            try:
                tree = parse_python(source, filename).with_canonical_uris()
            except SystemError:
                # CPython's C AST constructor keeps recursion-depth
                # bookkeeping that can transiently desync when many
                # executor threads parse at once ("AST constructor
                # recursion depth mismatch").  The parse itself is
                # deterministic, so one retry settles it instead of
                # surfacing a spurious 500 to the client.
                self._count("parse_retries")
                tree = parse_python(source, filename).with_canonical_uris()
        except SyntaxError as exc:
            where = f" (line {exc.lineno})" if exc.lineno else ""
            raise StoreError(
                f"{filename}: {exc.msg or 'invalid syntax'}{where}"
            ) from None
        except ValueError as exc:  # e.g. null bytes in source
            raise StoreError(f"{filename}: {exc}") from None
        return self._insert(tree, source, filename, parsed=True)

    def put_tree(
        self,
        tree: TNode,
        source: Optional[str] = None,
        filename: str = "<patched>",
        fingerprint: Optional[str] = None,
    ) -> tuple[StoredTree, bool]:
        """Insert an already-parsed canonical tree (e.g. an apply result).

        Callers that already fingerprinted the tree (batch apply compares
        fingerprints before committing) pass it through to skip the
        second hash."""
        return self._insert(tree, source, filename, fingerprint=fingerprint)

    def _insert(
        self,
        tree: TNode,
        source: Optional[str],
        filename: str,
        fingerprint: Optional[str] = None,
        *,
        parsed: bool = False,
    ) -> tuple[StoredTree, bool]:
        # callers that already fingerprinted the tree (apply staging,
        # snapshot recovery) pass it in; hashing a large tree twice is
        # the dominant avoidable cost on the write path.  ``parsed``:
        # ``tree`` is this store's own parse of ``source``, the only
        # proof the source map accepts (an apply result's unparsed
        # source need not parse back to the result)
        fp = fingerprint if fingerprint is not None else fingerprint_tree(tree)
        with self._lock:
            existing = self._trees.get(fp)
            if existing is not None:
                self._trees[fp] = self._trees.pop(fp)  # refresh LRU position
                if parsed and source == existing.source:
                    # the first re-upload of an apply result's source
                    # has just proven the round trip
                    self._sources.setdefault(source, fp)
                self._count("dups")
                return existing, True
            entry = StoredTree(fp, source, filename, tree)
            self._trees[fp] = entry
            if parsed:
                self._sources.setdefault(source, fp)
            while len(self._trees) > self.max_trees:
                evicted = self._trees.pop(next(iter(self._trees)))
                src = evicted.source
                if src is not None and self._sources.get(src) == evicted.fingerprint:
                    del self._sources[src]
                self._count("evictions")
            self._count("puts")
            self._gauge()
            return entry, False

    def get(self, fingerprint: str) -> StoredTree:
        """Look an entry up by fingerprint; raises :class:`UnknownFingerprint`."""
        with self._lock:
            entry = self._trees.get(fingerprint)
            if entry is None:
                self._count("misses")
                raise UnknownFingerprint(fingerprint)
            self._trees[fingerprint] = self._trees.pop(fingerprint)
            self._count("hits")
            return entry

    def list(self) -> list[dict[str, Any]]:
        with self._lock:
            return [entry.describe() for entry in self._trees.values()]

    def apply(
        self, fingerprint: str, script, commit: bool = True
    ) -> tuple[StoredTree, bool, str]:
        """Atomically patch a stored tree; returns ``(entry, was_cached, source)``.

        The script is applied to a scratch ``MTree`` with the full
        transactional machinery (pre-flight typecheck, undo journal,
        post-verify); a rejected patch raises
        :class:`~repro.core.PatchError` with the store unchanged.  On
        success the patched tree is unparsed and — with ``commit`` —
        inserted under its own fingerprint (the store being
        content-addressed, a "mutation" is always a new entry).
        """
        base = self.get(fingerprint)
        sigs = base.tree.sigs
        mtree = tnode_to_mtree(base.tree)
        # PatchError propagates to the service layer; atomic => the
        # scratch tree rolled back and the store was never touched.
        mtree.patch(script, atomic=True, sigs=sigs, verify=True)
        tree, source, fp = finish_patch(mtree, sigs)
        if not commit:
            return StoredTree(fp, source, base.filename, tree), False, source
        entry, was_cached = self._insert(tree, source, base.filename, fp)
        return entry, was_cached, source
