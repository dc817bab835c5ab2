"""Oracles for the served write path: fingerprint, canonical renumbering,
apply rebuild and the store's source map.

Each layer of the durable write path takes one pass over the tree.
These tests pin every one-pass form to the slower definition it
replaced, byte for byte:

* :func:`repro.server.store.fingerprint_tree` (read straight off the
  TNode) equals ``tree_fingerprint(tnode_to_mtree(t))``;
* :meth:`TNode.with_canonical_uris` (hashes, height and size copied)
  equals a rebuild that recomputes them;
* :func:`repro.server.store.finish_patch` equals the
  ``parse_tuple(mtree.to_tuple()).with_canonical_uris()`` chain;
* a data dir written by the earlier implementation
  (``tests/fixtures/durable_v1``) recovers clean, to the same
  fingerprints.

The source map (a re-upload of an entry's own bytes answers without a
parse) is tested for its edge cases: eviction, unparseable input,
concurrent duplicates under the lock-order sanitizer, and recovery.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.pyast import parse_python, python_grammar, unparse_python
from repro.core import TNode, diff, hash_scheme, random_tree, tnode_to_mtree
from repro.core.edits import EditScript, Update
from repro.robustness import tree_fingerprint
from repro.server import ReproService, ServiceError, StoreError, TreeStore
from repro.server.durable import DurableTreeStore
from repro.server.store import finish_patch, fingerprint_tree

from .util import exp_trees

FIXTURES = Path(__file__).parent / "fixtures"
PARENT_DATA = FIXTURES / "durable_v1"


# -- reference definitions ---------------------------------------------------


def rehashing_canonical(tree: TNode, start: int = 1) -> TNode:
    """Pre-order renumbering that rebuilds every node through the
    constructor, recomputing its hashes, height and size."""
    counter = start
    stack: list[tuple[TNode, bool, int]] = [(tree, False, 0)]
    results: list[TNode] = []
    while stack:
        n, post, uri = stack.pop()
        if not post:
            uri = counter
            counter += 1
            stack.append((n, True, uri))
            for k in reversed(n.kids):
                stack.append((k, False, 0))
        else:
            cnt = len(n.kids)
            kids = results[-cnt:] if cnt else []
            if cnt:
                del results[-cnt:]
            results.append(TNode(n.sigs, n.sig, kids, n.lits, uri, validate=False))
    return results[0]


def rebuild_chain(mtree) -> TNode:
    """The apply rebuild ``finish_patch`` replaced."""
    grammar = python_grammar().grammar
    return rehashing_canonical(grammar.parse_tuple(mtree.to_tuple()))


def assert_same_nodes(a: TNode, b: TNode) -> None:
    """Node-for-node equality: URIs, tags, literals, both hashes, height
    and size."""
    assert a.to_tuple(with_uris=True) == b.to_tuple(with_uris=True)
    for x, y in zip(a.iter_subtree(), b.iter_subtree()):
        assert x.structure_hash == y.structure_hash
        # the type-aware literal hash separates 1 from True, which the
        # tuple comparison above does not
        assert x.literal_hash == y.literal_hash
        assert (x.height, x.size) == (y.height, y.size)


def old_fingerprint(tree: TNode) -> str:
    return tree_fingerprint(tnode_to_mtree(tree))


# -- corpora -----------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_sources() -> list[list[str]]:
    """The frozen benchmark corpus: per module, every version's source."""
    from repro.bench.baseline import corpus_sources

    return corpus_sources()


@pytest.fixture(scope="module")
def bench_trees(bench_sources) -> list[list[TNode]]:
    """The first two versions of two modules of that corpus, parsed and
    canonicalized once (13k-node trees: all 16 would add half a minute
    to the tier-1 run without a new kind of input)."""
    return [
        [parse_python(text).with_canonical_uris() for text in versions[:2]]
        for versions in bench_sources[:2]
    ]


def fixture_pairs() -> list[tuple[str, str]]:
    """The frozen batch corpus's parseable before/after pairs."""
    from repro.batch import discover_pairs

    root = FIXTURES / "batch"
    pairs, _, _ = discover_pairs(str(root / "before"), str(root / "after"))
    out = []
    for before, after in pairs:
        texts = (Path(before).read_text("utf8"), Path(after).read_text("utf8"))
        try:
            for text in texts:
                parse_python(text)
        except SyntaxError:
            continue  # the poisoned pair
        out.append(texts)
    return out


def stdlib_sources(n: int = 3) -> list[str]:
    from repro.corpus import load_stdlib_corpus

    return [source for _, source in load_stdlib_corpus(n_files=n, seed=12)]


# -- fingerprint -------------------------------------------------------------


class TestFingerprint:
    def test_bench_corpus(self, bench_trees):
        for versions in bench_trees:
            for tree in versions:
                assert fingerprint_tree(tree) == old_fingerprint(tree)

    def test_fixture_corpus_and_stdlib(self):
        texts = [t for pair in fixture_pairs() for t in pair] + stdlib_sources()
        assert texts
        for text in texts:
            tree = parse_python(text)
            # canonical or not, the snapshot is the same function of the tree
            assert fingerprint_tree(tree) == old_fingerprint(tree)
            canon = tree.with_canonical_uris()
            assert fingerprint_tree(canon) == old_fingerprint(canon)

    @settings(max_examples=60, deadline=None)
    @given(exp_trees())
    def test_hypothesis_exp_trees(self, tree):
        assert fingerprint_tree(tree) == old_fingerprint(tree)
        canon = tree.with_canonical_uris()
        assert fingerprint_tree(canon) == old_fingerprint(canon)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_hypothesis_python_trees(self, seed):
        # random trees of the full Python signature: variadic lists,
        # optional slots and every literal type the grammar declares
        sigs = python_grammar().grammar.sigs
        tree = random_tree(sigs, sigs["Module"].result, random.Random(seed), max_depth=6)
        assert fingerprint_tree(tree) == old_fingerprint(tree)
        canon = tree.with_canonical_uris()
        assert fingerprint_tree(canon) == old_fingerprint(canon)

    def test_does_not_fill_accessor_caches(self):
        tree = parse_python("def f(x):\n    return [x, 1.5, 'a']\n").with_canonical_uris()
        fingerprint_tree(tree)
        for n in tree.iter_subtree():
            for slot in ("_node", "_kid_items", "_lit_items", "_identity_hash"):
                assert not hasattr(n, slot), (n.tag, slot)


# -- canonical renumbering ---------------------------------------------------


class TestCanonicalUris:
    @pytest.mark.parametrize("scheme", ["blake2b", "sha256"])
    def test_equals_rehashing_rebuild(self, scheme):
        texts = [t for pair in fixture_pairs() for t in pair] + stdlib_sources(2)
        with hash_scheme(scheme):
            for text in texts:
                tree = parse_python(text)
                for start in (1, 7):
                    assert_same_nodes(
                        tree.with_canonical_uris(start), rehashing_canonical(tree, start)
                    )

    @settings(max_examples=60, deadline=None)
    @given(exp_trees(), st.sampled_from(["blake2b", "sha256"]))
    def test_hypothesis(self, tree, scheme):
        with hash_scheme(scheme):
            tree = rehashing_canonical(tree, 100)  # hashed under `scheme`
            assert_same_nodes(tree.with_canonical_uris(), rehashing_canonical(tree))

    def test_copies_set_every_slot_a_fresh_node_sets(self):
        tree = parse_python("def f(x):\n    return [x, 1.5, 'a']\n")
        for fresh, copy in zip(tree.iter_subtree(), tree.with_canonical_uris().iter_subtree()):
            for slot in TNode.__slots__:
                assert hasattr(copy, slot) == hasattr(fresh, slot), (fresh.tag, slot)

    def test_keeps_the_build_scheme(self):
        """Renumbering copies the digests the tree was built with; it
        never re-hashes under whatever scheme is active at the time."""
        with hash_scheme("sha256"):
            tree = parse_python("x = f(1, 'a')\n")
        with hash_scheme("blake2b"):
            canon = tree.with_canonical_uris()
            rehashed = rehashing_canonical(tree)
        assert len(canon.structure_hash) == 32  # sha256 digests
        assert canon.structure_hash == tree.structure_hash
        assert canon.literal_hash == tree.literal_hash
        assert len(rehashed.structure_hash) == 16  # blake2b digests
        assert canon.structure_hash != rehashed.structure_hash
        # the fingerprint ignores digests, so it is scheme-independent
        assert fingerprint_tree(canon) == fingerprint_tree(rehashed)


# -- apply rebuild -----------------------------------------------------------


def assert_finish_matches_chain(base: TNode, target: TNode) -> None:
    script, _ = diff(base, target)
    mtree = tnode_to_mtree(base)
    mtree.patch(script, atomic=True, sigs=base.sigs, verify=True)
    tree, source, fp = finish_patch(mtree, base.sigs)
    expected = rebuild_chain(mtree)
    assert_same_nodes(tree, expected)
    assert source == unparse_python(expected)
    assert fp == old_fingerprint(expected) == fingerprint_tree(target)


class TestFinishPatch:
    def test_bench_corpus_pairs(self, bench_trees):
        pairs = 0
        for versions in bench_trees:
            for k in range(len(versions) - 1):
                assert_finish_matches_chain(versions[k], versions[k + 1])
                pairs += 1
        assert pairs == sum(len(v) - 1 for v in bench_trees)

    def test_fixture_corpus_pairs(self):
        pairs = fixture_pairs()
        assert pairs
        for before, after in pairs:
            base = parse_python(before).with_canonical_uris()
            target = parse_python(after).with_canonical_uris()
            assert_finish_matches_chain(base, target)

    def test_validate_keeps_the_signature_checks(self):
        from repro.core import SignatureError

        from repro.core import MNode, Node

        base = parse_python("x = 1\n").with_canonical_uris()
        mtree = tnode_to_mtree(base)
        assign = next(n for n in mtree.root.iter_subtree() if n.tag == "Assign")
        assign.kids["value"] = MNode(Node("Pass", 99))  # a stmt in an expr slot
        with pytest.raises(SignatureError):
            finish_patch(mtree, base.sigs, validate=True)


# -- a data dir written by the earlier implementation ------------------------


def copy_parent_data(tmp_path: Path) -> tuple[Path, dict]:
    data = tmp_path / "data"
    shutil.copytree(PARENT_DATA / "data", data)
    expected = json.loads((PARENT_DATA / "expected.json").read_text("utf8"))
    return data, expected


def count_parses(monkeypatch) -> list[str]:
    """Record every source the store parses from here on."""
    import repro.adapters.pyast as pyast

    seen: list[str] = []
    real = pyast.parse_python

    def counting(source, *args, **kwargs):
        seen.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(pyast, "parse_python", counting)
    return seen


class TestParentDataDir:
    def test_recovers_clean_with_identical_fingerprints(self, tmp_path):
        data, expected = copy_parent_data(tmp_path)
        store = DurableTreeStore(data)
        try:
            stats = store.recovery
            assert stats.clean, stats.problems
            assert stats.snapshots_loaded == len(expected["snapshots"])
            assert stats.applies_replayed == len(expected["applies"])
            results = [a["result"] for a in expected["applies"]]
            assert sorted(e["fingerprint"] for e in store.list()) == sorted(
                expected["snapshots"] + results
            )
            for fp, source in expected["sources"].items():
                entry = store.get(fp)
                assert entry.source == source
                assert fingerprint_tree(entry.tree) == fp
                assert fingerprint_tree(parse_python(source).with_canonical_uris()) == fp
        finally:
            store.close()

    def test_recovery_fills_the_source_map(self, tmp_path, monkeypatch):
        data, expected = copy_parent_data(tmp_path)
        store = DurableTreeStore(data)
        try:
            parses = count_parses(monkeypatch)
            # recovery parsed every snapshot: their sources answer at once
            for fp in expected["snapshots"]:
                entry, cached = store.put_source(expected["sources"][fp], "again.py")
                assert cached and entry.fingerprint == fp
            assert parses == []
            # a replayed apply's source is checked by one parse, then mapped
            for apply in expected["applies"]:
                source = expected["sources"][apply["result"]]
                for _ in range(2):
                    entry, cached = store.put_source(source, "again.py")
                    assert cached and entry.fingerprint == apply["result"]
                assert parses.count(source) == 1
        finally:
            store.close()


# -- the source map ----------------------------------------------------------

A = "def f(x):\n    return x + 1\n"
B = "def g(y):\n    return y * 2\n"


class TestSourceMap:
    def test_byte_identical_reupload_does_not_parse(self, monkeypatch):
        store = TreeStore()
        entry, _ = store.put_source(A, "a.py")
        parses = count_parses(monkeypatch)
        again, cached = store.put_source(A, "b.py")
        assert cached and again is entry
        assert parses == []
        # a reformatted upload still parses, and lands on the same entry
        reform, cached = store.put_source(A + "\n\n", "c.py")
        assert cached and reform is entry
        assert parses == [A + "\n\n"]

    def test_apply_result_source_maps_after_one_parse(self, monkeypatch):
        store = TreeStore()
        base, _ = store.put_source(A)
        script, _ = diff(
            parse_python(A).with_canonical_uris(),
            parse_python(A.replace("+ 1", "+ 2")).with_canonical_uris(),
        )
        result, cached, source = store.apply(base.fingerprint, script)
        assert not cached and source not in store._sources
        parses = count_parses(monkeypatch)
        # the first re-upload proves the round trip, the next ones skip it
        for _ in range(3):
            again, cached = store.put_source(source)
            assert cached and again is result
        assert parses == [source]

    def test_apply_result_that_does_not_round_trip_is_never_mapped(self, monkeypatch):
        """An apply result whose unparsed source parses to another tree
        (a Name's ctx is fixed by its position, so editing it does not
        survive unparsing): a re-upload of that source answers with its
        parse, never with the apply result."""
        store = TreeStore()
        base, _ = store.put_source("print(y)\n")
        name = next(n for n in base.tree.iter_subtree() if n.lits == ("y", "Load"))
        script = EditScript(
            [Update(name.node, (("id", "y"), ("ctx", "Load")), (("id", "y"), ("ctx", "Store")))]
        )
        result, _, source = store.apply(base.fingerprint, script)
        assert result.fingerprint != base.fingerprint
        parses = count_parses(monkeypatch)
        for _ in range(2):
            entry, cached = store.put_source(source)
            assert cached and entry is base
        assert parses == [source, source]
        assert source not in store._sources

    def test_eviction_reparses_and_remaps(self, monkeypatch):
        store = TreeStore(max_trees=1)
        a, _ = store.put_source(A)
        store.put_source(B)  # evicts A, and its source with it
        assert a.fingerprint not in store
        parses = count_parses(monkeypatch)
        again, cached = store.put_source(A)
        assert not cached and again.fingerprint == a.fingerprint
        assert parses == [A]
        _, cached = store.put_source(A)
        assert cached and parses == [A]

    def test_durable_eviction_answers_from_disk(self, tmp_path, monkeypatch):
        store = DurableTreeStore(tmp_path / "data", max_trees=1)
        try:
            a, _ = store.put_source(A)
            store.put_source(B)
            assert a.fingerprint not in store
            entry = store.get(a.fingerprint)  # the disk fallback
            assert entry.fingerprint == a.fingerprint and entry.source == A
            # the fallback re-inserted the entry, so its source maps again
            parses = count_parses(monkeypatch)
            again, cached = store.put_source(A)
            assert cached and again is entry and parses == []
        finally:
            store.close()

    def test_unparseable_source_is_never_mapped(self, monkeypatch):
        service = ReproService(TreeStore())
        parses = count_parses(monkeypatch)
        bad = "def f(:\n"
        for _ in range(2):
            with pytest.raises(ServiceError) as info:
                service.handle("put_tree", {"source": bad})
            assert info.value.status == 400
        assert parses == [bad, bad]
        assert bad not in service.store._sources
        with pytest.raises(StoreError):
            service.store.put_source(bad)

    @pytest.mark.parametrize("durable", [False, True])
    def test_concurrent_duplicates_share_one_entry(self, durable, tmp_path, monkeypatch):
        from repro.robustness import locksan

        monkeypatch.setenv("REPRO_LOCKSAN", "1")
        store = DurableTreeStore(tmp_path / "data") if durable else TreeStore()
        try:
            assert isinstance(store._lock, locksan._SanLock)
            first, _ = store.put_source(A)
            parses = count_parses(monkeypatch)
            barrier = threading.Barrier(12)
            got: list = [None] * 12

            def upload(i: int) -> None:
                barrier.wait()
                try:
                    got[i] = store.put_source(A, f"t{i}.py")
                except Exception as exc:  # noqa: BLE001 - asserted below
                    got[i] = exc

            threads = [threading.Thread(target=upload, args=(i,)) for i in range(12)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads densely
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert all(r == (first, True) for r in got), got
            assert parses == [] and len(store) == 1
        finally:
            if durable:
                store.close()
