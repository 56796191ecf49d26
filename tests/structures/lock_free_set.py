"""Harris-style lock-free ordered set (logical deletion + CAS unlink).

The second genuinely lock-free subject (after the Chase–Lev deque): a
sorted singly-linked list where removal happens in two steps — *mark*
the node's next-pointer (logical deletion), then *unlink* it physically
with a CAS on the predecessor.  Traversals help by snipping out marked
nodes they pass.  This is the algorithm (Harris 2001) behind
ConcurrentSkipListSet-style structures and the lazy-list verification
literature the paper cites (Colvin et al.'s lazy set proof is its
cousin) — here it is *checked* instead of proved, in seconds.

Node representation: each node's link cell holds a ``(next, marked)``
pair updated atomically by CAS, the classic AtomicMarkableReference.

**Seeded bug (pre version)**: ``Remove`` skips the marking step and
unlinks directly.  An ``Insert`` that linked itself *after* the doomed
node between the victim-location and the unlink CAS is silently cut out
of the list with it — the inserted element vanishes, observable as
``Contains`` returning False right after a successful ``Insert`` (no
serial execution shows that).
"""

from __future__ import annotations

from typing import Any

from repro.runtime import Runtime, coopc

# A test subject outside repro.structures: the coop engine compiles it
# only when registered.
coopc.register_module(__name__)

__all__ = ["LockFreeSet"]


class _Node:
    __slots__ = ("key", "link")

    def __init__(self, rt: Runtime, key: Any, next_node: "Any") -> None:
        self.key = key
        # (successor, marked) updated atomically — an AtomicMarkableReference.
        self.link = rt.atomic((next_node, False), "lfset.link")


class LockFreeSet:
    """Sorted lock-free linked set with logical deletion."""

    def __init__(self, rt: Runtime, version: str = "beta"):
        if version not in ("beta", "pre"):
            raise ValueError(f"unknown version {version!r}")
        self._rt = rt
        self._pre = version == "pre"
        self._tail = _Node(rt, None, None)  # key None = +infinity sentinel
        self._head = _Node(rt, None, self._tail)  # -infinity sentinel

    def _find(self, key: Any) -> tuple[_Node, _Node]:
        """Return (pred, curr) with pred.key < key <= curr.key, snipping
        out marked nodes along the way (the helping of Harris's find)."""
        while True:
            pred = self._head
            curr, _ = pred.link.get()
            retry = False
            while curr is not self._tail:
                succ, marked = curr.link.get()
                if marked:
                    # Help: physically unlink the logically deleted node.
                    if not pred.link.compare_and_swap((curr, False), (succ, False)):
                        retry = True
                        break
                    curr = succ
                    continue
                if curr.key >= key:
                    break
                pred = curr
                curr = succ
            if not retry:
                return pred, curr

    def Insert(self, key: Any) -> bool:
        """Add *key*; False if already present."""
        while True:
            pred, curr = self._find(key)
            if curr is not self._tail and curr.key == key:
                return False
            node = _Node(self._rt, key, curr)
            if pred.link.compare_and_swap((curr, False), (node, False)):
                return True

    def Remove(self, key: Any) -> bool:
        """Delete *key*; False if absent."""
        while True:
            pred, curr = self._find(key)
            if curr is self._tail or curr.key != key:
                return False
            succ, _marked = curr.link.get()
            if self._pre:
                # BUG: unlinks without marking first.  An Insert that
                # attached itself to `curr` between our find and this CAS
                # is cut out of the list along with the victim.
                if pred.link.compare_and_swap((curr, False), (succ, False)):
                    return True
                continue
            # 1. logical deletion: mark curr's link.
            if not curr.link.compare_and_swap((succ, False), (succ, True)):
                continue  # somebody changed curr; retry from find
            # 2. physical unlink (best effort; find() helps if we lose).
            pred.link.compare_and_swap((curr, False), (succ, False))
            return True

    def Contains(self, key: Any) -> bool:
        """Wait-free membership test (skips marked nodes)."""
        curr, _ = self._head.link.get()
        while curr is not self._tail and curr.key < key:
            curr, _ = curr.link.get()
        if curr is self._tail or curr.key != key:
            return False
        _succ, marked = curr.link.get()
        return not marked

    def ToArray(self) -> tuple:
        """Iterate the unmarked keys, in order.

        Deliberately *weakly consistent*, like every lock-free-list
        iterator (java.util.concurrent documents the same): the traversal
        can observe an element inserted behind its position while missing
        one inserted ahead of it, a view no single instant of the set ever
        had.  Line-Up rediscovers this automatically — see
        ``tests/structures/test_lock_free_set.py`` — which is exactly the
        kind of finding the paper's developers turned into documentation
        (category "intentional nondeterminism").
        """
        out = []
        curr, _ = self._head.link.get()
        while curr is not self._tail:
            succ, marked = curr.link.get()
            if not marked:
                out.append(curr.key)
            curr = succ
        return tuple(out)

    def Size(self) -> int:
        return len(self.ToArray())
