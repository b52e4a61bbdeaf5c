"""Build, cache and load the native GF(2^8) kernel (``gf256.c``).

:func:`load` is called once per process, by :mod:`repro.ec.galois` when
a region kernel (or ``KERNEL``) is first used.  It returns a cffi
``(ffi, lib)`` pair, or ``None`` after logging one warning that names
the reason — no cffi, no compiler, a failed build, a cache directory
that cannot be trusted — and the caller stays on numpy.

The shared object is cached per user under a name carrying the hash of
the C source, the compiler flags and the machine type, so a new source
never loads a stale build.  It is compiled into a temporary file and
published with ``os.replace``: processes that start together each build
their own copy and the last rename wins, byte-identical to the others.
A cached file that does not load (another toolchain on a shared home, a
truncated write) is built over once, the same way.
Before ``dlopen`` the directory and the file must belong to this uid
and be writable by nobody else — another local user must not be able to
plant code that this process will run.
"""

from __future__ import annotations

import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

_LOG = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("gf256.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")
_CDEF = """
int gf_cpu_level(void);
void gf_region(uint8_t *out, const uint8_t *in, size_t n,
               const uint8_t *tab, int add);
void gf_region_at(int level, uint8_t *out, const uint8_t *in, size_t n,
                  const uint8_t *tab, int add);
void gf_matmul(uint8_t *out, const uint8_t *matrix, const uint8_t *shards,
               size_t rows, size_t cols, size_t len, const uint8_t *tabs);
"""
_ENTRY_POINTS = ("gf_cpu_level", "gf_region", "gf_region_at", "gf_matmul")


def _require_private(path: Path, kind: int) -> None:
    """Raise unless ``path`` is ours alone: right type, uid, mode."""
    info = os.lstat(path)
    if stat.S_IFMT(info.st_mode) != kind:
        raise PermissionError(f"{path} is not a plain file or directory")
    if info.st_uid != os.getuid():
        raise PermissionError(f"{path} is owned by uid {info.st_uid}")
    if info.st_mode & 0o022:
        raise PermissionError(f"{path} is group- or world-writable")


def _cache_dir() -> Path:
    """The user's cache directory, else a 0700 per-uid one under tmp."""
    candidates = (
        Path.home() / ".cache" / "fastpr-repro",
        Path(tempfile.gettempdir()) / f"fastpr-repro-{os.getuid()}",
    )
    for path in candidates:
        try:
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            _require_private(path, stat.S_IFDIR)
            if os.access(path, os.W_OK | os.X_OK):
                return path
        except (OSError, RuntimeError):  # RuntimeError: no home directory
            continue
    raise PermissionError(
        "no private writable cache directory among "
        + ", ".join(str(path) for path in candidates)
    )


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` beside ``target``, then rename it into place."""
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *_CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source,
            capture_output=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"{compiler} exited {done.returncode}: "
                + done.stderr.decode(errors="replace").strip()[-400:]
            )
        os.chmod(tmp, 0o700)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _target(source: bytes) -> Path:
    """Where the build of ``source`` with these flags on this machine lives."""
    digest = hashlib.sha256(
        b"\0".join(
            [source, " ".join(_CFLAGS).encode(), platform.machine().encode()]
        )
    ).hexdigest()[:16]
    return _cache_dir() / f"gf256-{digest}.so"


def _open(ffi, target: Path):
    """``dlopen`` ``target`` if it is ours alone; resolve every entry point."""
    _require_private(target, stat.S_IFREG)
    lib = ffi.dlopen(str(target))
    for name in _ENTRY_POINTS:
        getattr(lib, name)
    return lib


def load():
    """``(ffi, lib)`` for the native kernel, or ``None`` (one warning)."""
    try:
        import cffi

        source = _SOURCE.read_bytes()
        target = _target(source)
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        try:
            lib = _open(ffi, target)
        except (OSError, AttributeError):
            # not built yet, or a file this host cannot trust or load:
            # cached builds are disposable, so build over it, once
            _build(source, target)
            lib = _open(ffi, target)
        return ffi, lib
    except Exception as exc:  # any failure means numpy, never a crash
        _LOG.warning(
            "native GF(256) kernel unavailable (%s: %s); "
            "using the numpy fallback",
            type(exc).__name__,
            exc,
        )
        return None
