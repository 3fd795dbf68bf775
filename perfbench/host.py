"""Host and provenance block printed with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

__all__ = ["host_block"]

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> Dict[str, Any]:
    """BLAS vendor from ``np.show_config`` and its live thread count."""
    info: Dict[str, Any] = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    # numpy's wheel bundles OpenBLAS next to the package; ask the loaded
    # library itself how many threads it runs
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    info["env"] = {name: os.environ.get(name) for name in _BLAS_ENV}
    return info


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit when ``root`` is a git checkout, else ``None``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, in path order."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(root: Path, **workload: Any) -> Dict[str, Any]:
    """CPU, interpreter, NumPy/BLAS and source provenance, plus the
    workload settings (seed, WAL flush policy, ...) passed in."""
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        **workload,
    }
