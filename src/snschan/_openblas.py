"""The OpenBLAS that numpy's and SciPy's wheels bundle, opened through ctypes.

Each wheel ships its own build as libscipy_openblas in <package>.libs/, with
every symbol prefixed scipy_; numpy's 64-bit-integer build also suffixes
them 64_. Runs pin both libraries' thread counts (`threads`). The E-step
and the BCRB call zherk, zpotrf, ztrsm and ztrtrs from SciPy's build
(`function`): the routines that SciPy's f2py wrappers call, so the results
keep their bits, without importing scipy.linalg. A package whose build
bundles no such library (an MKL or distro build, or a wheel that lays its
libraries out elsewhere, as macOS wheels do) has `library` None, and every
caller falls back: the thread count stays the library's own, and the
kernels come from SciPy's f2py wrappers.
"""

from __future__ import annotations

import ctypes
from functools import cache
from pathlib import Path

# by package: the library's file pattern in <package>.libs/ and its
# symbols' suffix
BUNDLED = {"numpy": ("libscipy_openblas64_*", "64_"),
           "scipy": ("libscipy_openblas-*", "")}


@cache
def library(package: str) -> ctypes.CDLL | None:
    """The OpenBLAS bundled with package, or None when its build bundles
    none."""
    pattern, suffix = BUNDLED[package]
    site = Path(__import__(package).__file__).parent.parent
    for path in sorted((site / f"{package}.libs").glob(pattern)):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
            return lib
    return None


def function(lib: ctypes.CDLL, name: str, argtypes: list, restype):
    """The routine scipy_<name> of lib, with its argument and result types
    set: ctypes passes an argument without a declared type as a C int,
    which truncates a pointer."""
    func = getattr(lib, f"scipy_{name}")
    func.argtypes, func.restype = argtypes, restype
    return func


def threads(package: str):
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    package, or None when its build bundles none."""
    lib = library(package)
    if lib is None:
        return None
    suffix = BUNDLED[package][1]
    return (function(lib, f"openblas_get_num_threads{suffix}", [], ctypes.c_int),
            function(lib, f"openblas_set_num_threads{suffix}", [ctypes.c_int],
                     None))
