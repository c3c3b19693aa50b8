"""Differential test: LFS and the FFS baseline share one namespace.

A derandomized hypothesis state machine runs the same mkdir / create /
write / truncate / link / unlink / rename steps on an LFS (4 KB blocks)
and an FFS (8 KB blocks). After every step both must have raised the
same exception type, or neither, and both must show the same namespace:
equal :func:`~repro.torture.oracle.snapshot_namespace` views and equal
link counts. Paths come from a three-letter alphabet, at most three
components deep, so steps often collide: they hit existing names, walk
through files and move directories under themselves.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.errors import LFSError
from repro.core.filesystem import LFS
from repro.disk.device import Disk
from repro.disk.geometry import DiskGeometry
from repro.ffs.filesystem import FFS, FFSConfig
from repro.torture.oracle import DIR, snapshot_namespace

from tests.conftest import small_config

names = st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts)
)
payloads = st.binary(max_size=9000)
offsets = st.integers(min_value=0, max_value=12000)


class SameNamespace(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.lfs = LFS.format(Disk(DiskGeometry.wren4(num_blocks=4096)), small_config())
        self.ffs = FFS.format(
            Disk(DiskGeometry.wren4(block_size=8192, num_blocks=2048)),
            FFSConfig(max_inodes=1024),
        )
        self.view = snapshot_namespace(self.lfs)

    def _path(self, data) -> str:
        """A path that exists now (so steps often succeed) or any short one."""
        existing = sorted(self.view.keys() - {"/"})
        if not existing:
            return data.draw(names)
        return data.draw(st.one_of(st.sampled_from(existing), names))

    def _both(self, op: str, *args) -> None:
        raised = []
        for fs in (self.lfs, self.ffs):
            try:
                getattr(fs, op)(*args)
                raised.append(None)
            except LFSError as exc:
                raised.append(type(exc))
        assert raised[0] is raised[1], (op, args, raised)

    @rule(data=st.data())
    def mkdir(self, data):
        self._both("mkdir", self._path(data))

    @rule(data=st.data())
    def create(self, data):
        self._both("create", self._path(data))

    @rule(data=st.data(), payload=payloads, offset=offsets)
    def write(self, data, payload, offset):
        self._both("write", self._path(data), payload, offset)

    @rule(data=st.data(), size=offsets)
    def truncate(self, data, size):
        self._both("truncate", self._path(data), size)

    @rule(data=st.data())
    def link(self, data):
        self._both("link", self._path(data), self._path(data))

    @rule(data=st.data())
    def unlink(self, data):
        self._both("unlink", self._path(data))

    @rule(data=st.data())
    def rename(self, data):
        self._both("rename", self._path(data), self._path(data))

    @invariant()
    def same_namespace(self):
        self.view = snapshot_namespace(self.lfs)
        assert self.view == snapshot_namespace(self.ffs)
        for path, value in self.view.items():
            if value is not DIR:
                assert self.lfs.stat(path).nlink == self.ffs.stat(path).nlink, path


TestSameNamespace = SameNamespace.TestCase
TestSameNamespace.settings = settings(
    derandomize=True, max_examples=40, stateful_step_count=40, deadline=None
)
