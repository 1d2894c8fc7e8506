"""CSV and JSON writers, and `staged`, the one way a command writes files."""

from __future__ import annotations

import csv
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

from .errors import UsageError


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def write_json(path: Path, obj) -> None:
    """Indented JSON; a NaN or infinity raises instead of being written."""
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


@contextmanager
def staged(out: str | Path, owns: tuple[str, ...] = ()):
    """Yield a private directory inside `out`, made if missing.  When the
    body returns, and once no entry in it would put a file where a
    directory is or a directory where a file is, its entries are published
    in two phases.  First every namesake they replace goes aside, and so
    does every entry of `out` that matches one of the glob patterns `owns`,
    the file families the caller writes, and that this run did not write;
    then each entry is moved into `out`, a directory in one rename.  So
    `out` holds the last run's families alone, and if any move fails, both
    sets are moved back and `out` is as it was; if moving them back fails
    too, the private directory stays, and the error names where they are.
    On any other error the private directory goes, and `out` too if this
    call made it.  An unusable `out`, such a clash, and an OSError from the
    body or the moves (a full disk) are a UsageError."""
    out = Path(out)
    # the topmost directory of out that does not exist yet
    created = next((p for p in (*out.parents[::-1], out) if not p.exists()),
                   None)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
            holder = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
        except OSError as exc:
            raise UsageError(f"cannot write to {out}: {exc}") from None
        try:
            yield holder
            entries = [(e, out / e.name) for e in holder.iterdir()]
            for entry, dest in entries:
                if dest.exists() and dest.is_dir() != entry.is_dir():
                    kind = "a directory" if dest.is_dir() else "a file"
                    raise UsageError(
                        f"cannot write to {out}: {dest} is {kind}")
            written = {dest for _, dest in entries}
            stale = {p for g in owns for p in out.glob(g)} - written
            aside = Path(tempfile.mkdtemp(dir=holder))
            moved, placed = [], []
            try:
                for dest in ([d for _, d in entries if os.path.lexists(d)]
                             + sorted(stale)):
                    os.replace(dest, aside / dest.name)
                    moved.append(dest)
                for entry, dest in entries:
                    os.replace(entry, dest)
                    placed.append((entry, dest))
            except BaseException as exc:  # an interrupt is undone too
                try:
                    for entry, dest in reversed(placed):
                        os.replace(dest, entry)
                    for dest in reversed(moved):
                        os.replace(aside / dest.name, dest)
                except OSError:
                    holder = None  # it holds the files not put back
                    raise UsageError(
                        f"cannot write to {out}: {exc}; the earlier files "
                        f"not put back are in {aside}") from None
                raise
        except OSError as exc:
            raise UsageError(f"cannot write to {out}: {exc}") from None
        finally:
            if holder is not None:
                shutil.rmtree(holder, ignore_errors=True)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
