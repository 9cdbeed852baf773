"""The two cubic loops of a product in C (``native.c``), loaded through
ctypes: ``min_rects``, the block kernel behind ``basic._min_blocks`` and
``basic.dense_minplus``, and ``scan``, the candidate scan of every level
(``blocking.candidate_sets`` and ``blocking.child_sets``) and of the
sampled stage (``blocking.CandidateSets.first_candidate``). Both take one
table of rectangles (r0, r1, c0, c1, k0, k1), which ``rectangles``, also
compiled, groups from a bool mask of block pairs and their spans.

The library is compiled on first import with the C compiler Python was
built with (``sysconfig``'s ``CC``, or ``cc`` where that is unset or not
found) and ``FLAGS``, and cached next to the package's bytecode, in its
``__pycache__``, or in the user's cache directory (``minplus`` under
``$XDG_CACHE_HOME`` or ``~/.cache``) where the first is not the current
user's alone. A cache directory, and a cached library, is used only if the
current user owns it and neither group nor others can write it, so a library
another user put there is never loaded; where neither directory qualifies,
the library is compiled into a private temporary directory, loaded and
removed. The cached name holds a hash of the source, the compiler command
and the flags, so any change to one of them compiles anew, and a library is
written under a temporary name and moved into place (``os.replace``), so a
concurrent import never loads half a file. Without a working compiler the
import raises ImportError, with the command and its error output.

Each wrapper checks its arrays' types, C-contiguity and shapes with
explicit raises before it calls into C. The C code checks every rectangle's
bounds, and every masked pair's span, before it writes anything, and
refuses the call otherwise, so no table or span can make it read or write
out of bounds. The calls release the GIL (ctypes does) and run on the
calling thread.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tempfile

import numpy as np

from .matrix import INF

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "native.c")
FLAGS = ("-O3", "-shared", "-fPIC")

_SUFFIX = {np.dtype(np.int16): "i16", np.dtype(np.int32): "i32", np.dtype(np.int64): "i64"}
_CTYPE = {"i16": ctypes.c_int16, "i32": ctypes.c_int32, "i64": ctypes.c_int64}
_LIMITS = {s: (int(np.iinfo(d).min), int(np.iinfo(d).max)) for d, s in _SUFFIX.items()}
_REFUSED = -2  # native.c's REFUSED: a bad rectangle or span, nothing written


def compiler() -> list[str]:
    """The compiler command: ``sysconfig``'s ``CC``, or ``cc`` where that is
    unset or names no program on the path."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc if cc and shutil.which(cc[0]) else ["cc"]


def private(path: str, kind=stat.S_ISDIR) -> bool:
    """Whether ``path`` is a directory (or, with ``kind=stat.S_ISREG``, a
    regular file) that the current user owns and that neither group nor
    others can write; a symbolic link is not."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return kind(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def cache_dir() -> str | None:
    """The package's ``__pycache__``, or else ``minplus`` in the user's cache
    directory (made with mode 0o700): the first that can be made, is
    ``private`` and can be written; None where neither can."""
    user = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "minplus")
    for path, mode in ((os.path.join(os.path.dirname(SOURCE), "__pycache__"), 0o777), (user, 0o700)):
        if not os.path.isabs(path):
            continue
        try:
            os.makedirs(path, mode=mode, exist_ok=True)
        except OSError:
            continue
        if private(path) and os.access(path, os.W_OK):
            return path
    return None


def library_path(source: str, cc: list[str], directory: str) -> str:
    """Where the library of ``source`` compiled by ``cc`` with ``FLAGS`` is
    cached in ``directory``: a name keyed by a hash of all three."""
    with open(source, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update(repr((cc, FLAGS)).encode())
    return os.path.join(directory, f"minplus_native-{key.hexdigest()[:16]}.so")


def build(source: str, directory: str) -> str:
    """The path of the compiled library of ``source`` in ``directory``,
    compiling it unless a ``private`` library of this source, compiler and
    flags is cached there already."""
    cc = compiler()
    path = library_path(source, cc, directory)
    if private(path, stat.S_ISREG):
        return path
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    cmd = [*cc, *FLAGS, "-o", tmp, source]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as e:
            raise ImportError(f"minplus needs a C compiler; {shlex.join(cmd)} could not run: {e}") from None
        if proc.returncode:
            raise ImportError(f"compiling the minplus kernels failed: {shlex.join(cmd)}\n{proc.stderr}")
        os.chmod(tmp, 0o755)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load(source: str = SOURCE) -> ctypes.CDLL:
    """The library of ``source``, loaded from ``cache_dir()``, or, where
    there is none, from a private temporary directory that is removed once
    the library is loaded."""
    directory = cache_dir()
    if directory is not None:
        return _load(build(source, directory))
    with tempfile.TemporaryDirectory(prefix="minplus-") as tmp:
        return _load(build(source, tmp))


def _load(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    ptr, n = ctypes.c_void_p, ctypes.c_long
    lib.rectangles.argtypes = [ptr, ptr, ptr, n, ctypes.c_int64, ptr]
    lib.rectangles.restype = n
    for suffix, ctype in _CTYPE.items():
        rects = getattr(lib, f"min_rects_{suffix}")
        rects.argtypes = [ptr, ptr, ptr, n, ptr, ptr, n, n, n, ctypes.c_int64]
        rects.restype = n
        scan_fn = getattr(lib, f"scan_{suffix}")
        scan_fn.argtypes = [ptr, ptr, n, ptr, n, ctype, ctype, ctypes.c_int64, ctypes.c_int64, ptr, ptr, ptr]
        scan_fn.restype = n
    return lib


_lib = load()


def _check(x: np.ndarray, name: str, dtype, shape: tuple) -> None:
    if not isinstance(x, np.ndarray) or x.dtype != dtype:
        raise TypeError(f"{name} must be a {np.dtype(dtype)} array")
    if x.shape != shape:
        raise ValueError(f"{name} has shape {x.shape}, expected {shape}")
    if not x.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")


def _refused(code: int) -> None:
    if code == _REFUSED:
        raise ValueError("a rectangle of the table is empty or out of bounds")


def _check_shift(shift: int) -> None:
    if not -(1 << 63) <= shift < 1 << 63:
        raise ValueError(f"shift {shift} is outside int64")


def _suffix(x: np.ndarray, name: str) -> str:
    if not isinstance(x, np.ndarray) or x.dtype not in _SUFFIX:
        raise TypeError(f"{name} must be an int16, int32 or int64 array")
    return _SUFFIX[x.dtype]


def min_rects(a: np.ndarray, b: np.ndarray, table: np.ndarray, out: np.ndarray, done: np.ndarray, shift: int) -> int:
    """Reduce each rectangle (r0, r1, c0, c1, k0, k1) of ``table`` into the
    int64 product ``out``: out[i, j] = min over k0 <= k < k1 of a[i, k] +
    b[k, j], plus ``shift``, for r0 <= i < r1 and c0 <= j < c1, in order,
    marking each rectangle in the bool ledger ``done`` after checking that
    none of its entries is marked. Returns the index of the first rectangle
    that meets an entry marked before, with that rectangle and those after
    it left unwritten, or -1.

    ``a`` and ``b`` are int16, int32 or int64 of one type, whose every sum
    of an entry of ``a`` and one of ``b`` that type must hold (as
    ``blocking.kernel_operands`` makes sure); the sums are formed in it. Every
    rectangle must be non-empty and inside the arrays: otherwise ValueError
    is raised with nothing written."""
    suffix = _suffix(a, "a")
    _suffix(b, "b")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("a and b must be 2-D")
    m, k = a.shape
    n = b.shape[1]
    _check(a, "a", a.dtype, (m, k))
    _check(b, "b", a.dtype, (k, n))
    _check(out, "out", np.int64, (m, n))
    _check(done, "done", np.bool_, (m, n))
    _check(table, "table", np.int64, (len(table), 6))
    _check_shift(shift)
    fn = getattr(_lib, f"min_rects_{suffix}")
    table_ptr, out_ptr, done_ptr = table.ctypes.data, out.ctypes.data, done.ctypes.data
    first_bad = fn(a.ctypes.data, b.ctypes.data, table_ptr, len(table), out_ptr, done_ptr, m, k, n, shift)
    _refused(first_bad)
    return first_bad


def scan(
    xa: np.ndarray, xb: np.ndarray, table: np.ndarray, cap: int, largest: int, shift: int, approx: np.ndarray,
    stats: np.ndarray, drawn: np.ndarray | None = None,
) -> None:
    """The candidate scan on the square representative tables xa[bi, bk]
    and xb[bk, bj] of one type, int16, int32 or int64 (those of
    ``blocking.kernel_operands``), over each rectangle (r0, r1, c0, c1, k0,
    k1) of ``table`` (block rows bi, block columns bj, and the block
    columns bk scanned): per block pair, the least sum xa[bi, bk] + xb[bk,
    bj] plus ``shift`` into the int64 ``approx``, and, with the threshold
    largest - max(cap - least, 0), the number of block columns bk whose sum
    is at most it, the first of them and the last into the int32
    ``stats[0]``, ``stats[1]`` and ``stats[2]``. Every pair no rectangle
    holds gets approx INF, size 0, first nb and last -1. The minima come
    from the block kernel's reduction, which ``min_rects`` runs too. The
    type must hold every sum, ``cap`` and ``largest``, and every term of
    the threshold (``blocking._scan``); a later rectangle overwrites a pair
    an earlier one scanned. A rectangle that is empty or leaves the grid
    raises ValueError with nothing written.

    With ``drawn``, a uint8 mask of the nb block columns, the scan reads
    the minima from ``approx`` instead, as a scan of the same pairs wrote
    them, and writes only the first column within each pair's threshold
    among the drawn ones (nb if none is) into ``stats``, of shape (nb, nb);
    the pairs no rectangle holds are left unwritten."""
    suffix = _suffix(xa, "xa")
    nb = len(xa)
    _check(xa, "xa", xa.dtype, (nb, nb))
    _check(xb, "xb", xa.dtype, (nb, nb))
    _check(approx, "approx", np.int64, (nb, nb))
    _check(stats, "stats", np.int32, (3, nb, nb) if drawn is None else (nb, nb))
    _check(table, "table", np.int64, (len(table), 6))
    if drawn is not None:
        _check(drawn, "drawn", np.uint8, (nb,))
    least, most = _LIMITS[suffix]
    if not (least <= cap <= most and least <= largest <= most):
        raise ValueError(f"cap {cap} or largest {largest} is outside {xa.dtype}")
    _check_shift(shift)
    fn = getattr(_lib, f"scan_{suffix}")
    drawn_ptr = None if drawn is None else drawn.ctypes.data
    args = (table.ctypes.data, len(table), cap, largest, shift, INF, approx.ctypes.data, stats.ctypes.data, drawn_ptr)
    _refused(fn(xa.ctypes.data, xb.ctypes.data, nb, *args))


def rectangles(mask: np.ndarray, lo: np.ndarray, hi: np.ndarray, scale: int) -> np.ndarray | None:
    """The block pairs set in the square bool ``mask``, each over its span
    lo[bi, bj]..hi[bi, bj] of block columns (int32 tables of the mask's
    shape, read only where it is set), grouped into rectangles, as an int64
    table of rows (r0, r1, c0, c1, k0, k1) in block units times ``scale``:
    runs of consecutive block columns in one block row, over the union of
    their spans, stacked over consecutive block rows that hold the same run
    with the same union. A pair alone, or among equal spans, keeps its own
    span; others get a wider one, which is exact wherever a span needs only
    to hold every column that matters (an optimal witness block for the
    block kernel, every candidate and the argmin for the candidate scan).

    None where a masked pair's span is empty or leaves the grid's block
    columns: the C code refuses it before any rectangle is returned. A
    first call counts the rectangles, so the table holds just those."""
    if not isinstance(mask, np.ndarray) or mask.ndim != 2:
        raise ValueError("mask must be a 2-D array")
    nb = mask.shape[0]
    _check(mask, "mask", np.bool_, (nb, nb))
    _check(lo, "lo", np.int32, (nb, nb))
    _check(hi, "hi", np.int32, (nb, nb))
    if not 1 <= scale <= (1 << 62) // (nb + 1):
        raise ValueError(f"scale {scale} is outside 1..2**62 / (nb + 1)")
    args = (mask.ctypes.data, lo.ctypes.data, hi.ctypes.data, nb, scale)
    count = _lib.rectangles(*args, None)
    if count == _REFUSED:
        return None
    table = np.empty((count, 6), dtype=np.int64)
    _lib.rectangles(*args, table.ctypes.data)
    return table
