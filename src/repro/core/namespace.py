"""The LabStack Namespace: mount-point resolution for LabStacks.

A semantic key-value store mapping mount points (e.g. ``fs::/b``) to
mounted LabStacks.  Resolution follows the Fig 3 walkthrough: an exact
match is tried first, then successively shorter parent prefixes — so
``fs::/b/hi.txt`` resolves to the stack mounted at ``fs::/b``.
"""

from __future__ import annotations

from ..errors import LabStorError
from .labstack import LabStack

__all__ = ["StackNamespace"]


class StackNamespace:
    def __init__(self) -> None:
        self._by_mount: dict[str, LabStack] = {}
        self._by_id: dict[int, LabStack] = {}

    def register(self, stack: LabStack) -> int:
        if stack.mount in self._by_mount:
            raise LabStorError(f"mount point {stack.mount!r} already in namespace")
        self._by_mount[stack.mount] = stack
        self._by_id[stack.stack_id] = stack
        return stack.stack_id

    def unregister(self, mount: str) -> None:
        stack = self._by_mount.pop(mount, None)
        if stack is not None:
            self._by_id.pop(stack.stack_id, None)

    def get_by_id(self, stack_id: int) -> LabStack:
        try:
            return self._by_id[stack_id]
        except KeyError:
            raise LabStorError(f"no stack with id {stack_id}") from None

    def resolve(self, path: str) -> tuple[LabStack, str]:
        """Longest-prefix match: returns (stack, path remainder).

        ``resolve("fs::/b/hi.txt")`` with a stack at ``fs::/b`` returns
        that stack and ``"/hi.txt"``.
        """
        candidate = path
        while candidate:
            stack = self._by_mount.get(candidate)
            if stack is not None:
                remainder = path[len(candidate):] or "/"
                return stack, remainder
            if "/" not in candidate.strip("/"):
                # peel the last component; stop at the namespace root
                head, _, _ = candidate.rpartition("/")
                candidate = head
            else:
                candidate, _, _ = candidate.rpartition("/")
        raise LabStorError(f"no LabStack mounted for path {path!r}")

    def stacks(self) -> list[LabStack]:
        return list(self._by_mount.values())

    def __len__(self) -> int:
        return len(self._by_mount)

    def __contains__(self, mount: str) -> bool:
        return mount in self._by_mount
