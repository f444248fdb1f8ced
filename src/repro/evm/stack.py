"""The 1024-slot EVM runtime stack of 256-bit words.

The paper keeps the entire runtime stack (up to 32 KB) in the HEVM's
layer-1 cache; this class is that structure's functional model.
"""

from __future__ import annotations

from repro.evm.exceptions import StackOverflow, StackUnderflow

STACK_LIMIT = 1024
_MASK = (1 << 256) - 1


class Stack:
    """LIFO stack of 256-bit unsigned integers."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: list[int] = []

    def __len__(self) -> int:
        return len(self._items)

    def push(self, value: int) -> None:
        if len(self._items) >= STACK_LIMIT:
            raise StackOverflow("stack limit of 1024 exceeded")
        self._items.append(value & _MASK)

    def pop(self) -> int:
        if not self._items:
            raise StackUnderflow("pop from empty stack")
        return self._items.pop()

    def pop_many(self, count: int) -> list[int]:
        """Pop ``count`` items; first element is the former top of stack."""
        if len(self._items) < count:
            raise StackUnderflow(f"need {count} items, have {len(self._items)}")
        out = self._items[-count:][::-1]
        del self._items[-count:]
        return out

    def peek(self) -> int:
        """Read the top item without popping it."""
        if not self._items:
            raise StackUnderflow("peek on an empty stack")
        return self._items[-1]

    def dup(self, n: int) -> None:
        """DUPn: push a copy of the n-th item (1-based from the top)."""
        if len(self._items) < n:
            raise StackUnderflow(f"DUP{n} on stack of {len(self._items)}")
        self.push(self._items[-n])

    def swap(self, n: int) -> None:
        """SWAPn: exchange the top with the (n+1)-th item."""
        if len(self._items) < n + 1:
            raise StackUnderflow(f"SWAP{n} on stack of {len(self._items)}")
        self._items[-1], self._items[-1 - n] = self._items[-1 - n], self._items[-1]

    def snapshot(self) -> list[int]:
        """Copy of the stack contents, bottom first (for tracing)."""
        return list(self._items)
