#!/usr/bin/env python
"""Composing, modifying, and live-upgrading a custom LabStack.

Shows the three manageability features of Section III:

1. a LabStack defined in the YAML schema and mounted;
2. ``modify_stack``: hot-inserting a Compression LabMod into the running
   stack (dynamic semantics imposition / active storage);
3. ``modify.mods``: live-upgrading the scheduler LabMod with StateUpdate,
   without stopping the application.

Run:  python examples/custom_stack.py
"""

from repro.core import NodeSpec, UpgradeRequest
from repro.mods.generic_fs import GenericFS
from repro.mods.sched_noop import NoOpSchedMod
from repro.system import LabStorSystem
from repro.units import msec

STACK_YAML = """
mount: fs::/lab
rules:
  exec_mode: async
  priority: 1
labmods:
  - mod: LabFs
    uuid: demo.labfs
    attrs:
      capacity_bytes: 1073741824
      device: nvme
    outputs: [demo.sched]
  - mod: NoOpSchedMod
    uuid: demo.sched
    attrs:
      device: nvme
    outputs: [demo.driver]
  - mod: KernelDriverMod
    uuid: demo.driver
    attrs:
      device: nvme
"""


class NoOpSchedModV2(NoOpSchedMod):
    """The 'upgraded' scheduler — same policy, new code version."""


def main() -> None:
    system = LabStorSystem(devices=("nvme",))
    # 1. mount from the human-readable schema file
    stack = system.runtime.mount_stack(STACK_YAML)
    print("mounted from YAML:", stack)

    client = system.client()
    gfs = GenericFS(client)

    def write_files(tag: str, n: int = 8):
        for i in range(n):
            fd = yield from gfs.open(f"fs::/lab/{tag}_{i}", create=True)
            yield from gfs.write(fd, (f"{tag} " * 2000).encode(), offset=0)
            yield from gfs.close(fd)

    system.run(system.process(write_files("before")))

    # 2. modify_stack: splice a Compression LabMod after LabFS, live
    stack.insert_after("demo.labfs", NodeSpec(mod_name="CompressionMod", uuid="demo.zip"))
    print("stack after insert :", " -> ".join(n.uuid for n in stack.spec.nodes))
    system.run(system.process(write_files("compressed")))
    comp = system.runtime.registry.get("demo.zip")
    print(f"compression ratio  : {comp.bytes_out}/{comp.bytes_in} bytes "
          f"({comp.bytes_out / comp.bytes_in:.2f})")

    # 3. live-upgrade the scheduler while traffic continues
    system.runtime.modify_mods(
        UpgradeRequest(mod_name="NoOpSchedMod", new_cls=NoOpSchedModV2)
    )

    def traffic_through_upgrade():
        for i in range(40):
            fd = yield from gfs.open(f"fs::/lab/during_{i}", create=True)
            yield from gfs.write(fd, b"upgrade traffic" * 100, offset=0)
            yield from gfs.close(fd)
            yield system.env.timeout(msec(0.5))

    system.run(system.process(traffic_through_upgrade()))
    sched = system.runtime.registry.get("demo.sched")
    print(f"scheduler upgraded : {type(sched).__name__} v{sched.version} "
          f"(processed {sched.processed} requests, state preserved)")

    # data written before, during, and after all survives
    def verify():
        data = yield from gfs.read_file("fs::/lab/before_0")
        return data == ("before " * 2000).encode()

    assert system.run(system.process(verify()))
    print("all data readable after insert + upgrade: OK")


if __name__ == "__main__":
    main()
