"""Check that the CLI writes the same bytes as another commit does.

Usage: python3 tools/parity.py REF

Exports REF with ``git archive`` into a temporary directory.  In that copy
and in this working tree (uncommitted edits included), runs ``mbb generate``,
``pipeline``, ``solve-sdp --gram-output`` and ``round --seed 3`` (the last
two at the planted k) on every graph of GRAPHS at seed 0, with one BLAS
thread.  Each command's output file, stderr and exit code are compared
byte for byte.  Exits 1 and lists the files that differ, or 0 when none
does.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# The benchmark's six planted graphs, then a larger sparse one and a dense
# one with a small planted k.
GRAPHS = (
    (32, 8, 0.1),
    (40, 10, 0.1),
    (16, 4, 0.3),
    (20, 4, 0.4),
    (20, 5, 0.3),
    (24, 6, 0.3),
    (64, 12, 0.4),
    (24, 3, 0.5),
)


def _mbb(root: Path, cwd: Path, name: str, *argv: str) -> bool:
    """Run ``python -m mbb_sdp argv`` from root's sources in cwd; keep its
    stderr and exit code as ``name.err`` and ``name.rc``.  True on exit 0."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "mbb_sdp", *argv], cwd=cwd, env=env, capture_output=True
    )
    (cwd / f"{name}.err").write_bytes(done.stderr)
    (cwd / f"{name}.rc").write_text(f"{done.returncode}\n", encoding="utf-8")
    return done.returncode == 0


def _run_all(root: Path, out: Path) -> None:
    """Write every graph's outputs under out, one directory per graph."""
    for n, k, p in GRAPHS:
        cwd = out / f"planted-{n}-{k}-{p}"
        cwd.mkdir(parents=True)
        print(f"  {root.name}: {cwd.name}", file=sys.stderr)
        size = ("--n", str(n), "--k", str(k))
        if not _mbb(root, cwd, "generate", "generate", "--type", "planted", *size, "--p", str(p),
                    "--seed", "0", "-o", "graph.txt"):
            continue
        _mbb(root, cwd, "pipeline", "pipeline", "--input", "graph.txt", "-o", "pipeline.json")
        _mbb(root, cwd, "solve-sdp", "solve-sdp", "--input", "graph.txt", "--k", str(k),
             "--gram-output", "solution.gram", "-o", "solve-sdp.json")
        if (cwd / "solution.gram").exists():
            _mbb(root, cwd, "round", "round", "--input", "graph.txt", "--gram", "solution.gram",
                 "--k", str(k), "--seed", "3", "-o", "round.json")


def _differences(left: Path, right: Path) -> list[str]:
    """Relative paths of the files that are missing on one side or differ."""
    def files(root: Path) -> dict[str, bytes]:
        return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}

    a, b = files(left), files(right)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare this working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mbb-parity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", args.ref], capture_output=True
        )
        if archive.returncode:
            print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
            return 2
        ref_root = tmp / "ref"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(ref_root, filter="data")
        _run_all(ref_root, tmp / "out-ref")
        _run_all(REPO, tmp / "out-tree")
        differ = _differences(tmp / "out-ref", tmp / "out-tree")
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of the outputs differ between {args.ref} and the working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
