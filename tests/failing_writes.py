"""A full disk on demand: writes to one target fail part-way through."""

import builtins
from pathlib import Path


class FailingWrites:
    """Lets two writes through, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise OSError(28, "No space left on device")
        return self.fh.write(text)


def fail_writes_to(monkeypatch, target: Path):
    """Files opened for writing beside ``target`` under a name containing its
    name (``target`` itself or a temp file for it) fail at their third write."""
    real_open = builtins.open

    def open_failing(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        path = Path(file) if isinstance(file, (str, Path)) else None
        if ("w" in mode and path is not None and path.parent == target.parent
                and target.name in path.name):
            return FailingWrites(fh)
        return fh

    monkeypatch.setattr(builtins, "open", open_failing)


def files_under(root: Path) -> dict[Path, bytes]:
    """Every file under ``root`` with its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
