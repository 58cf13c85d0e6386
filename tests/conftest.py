"""Checks run around every test."""

import os

import pytest

FD_DIR = "/proc/self/fd"


def open_descriptors() -> set[tuple[int, str]]:
    """(descriptor, target) of every descriptor this process has open."""
    found = set()
    for name in os.listdir(FD_DIR):
        try:
            found.add((int(name), os.readlink(os.path.join(FD_DIR, name))))
        except OSError:  # the listing's own descriptor, closed once listed
            pass
    return found


@pytest.fixture(autouse=True)
def no_leaked_descriptor():
    """Fail a test that leaves an OS descriptor open, naming each one's target.

    ``ResourceWarning`` covers Python file objects only; a raw descriptor,
    such as the one ``replace_file`` returns, leaks silently without this.
    """
    if not os.path.isdir(FD_DIR):
        yield
        return
    before = open_descriptors()
    yield
    leaked = sorted(open_descriptors() - before)
    assert not leaked, "descriptors left open: " + ", ".join(f"{fd} -> {target}" for fd, target in leaked)
