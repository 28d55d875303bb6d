"""Compiled C: tiled schedules as one function per chain shape, and the cache.

A kernel registered with a per-element C body (``KernelRegistry.register(...,
c=...)``) can run as C.  For each chain shape, that is each loop's bodies
and, per argument, its access mode, map arity and values per element, as
``executor.check_bindings`` returns it, this module writes one C function.
The function runs a schedule's color runs, each loop in chain order over its
part of a run, element by element, with the same contract as the numpy step
(see ``looptile.executor``):

- read and write arguments of a direct access point at the element's own
  values; a mapped read gathers the targets' values into a buffer;
- an increment gets a zeroed buffer, added back in (arity, k) order after
  the body, so every target sums its contributions in element order;
- a read argument is ``const double *``, so a body that writes one does not
  compile.

Argument i of a C body is ``a<i>``, with ``k<i>`` values per element and
``m<i>`` rows: the map's arity for a mapped access, 1 for a direct one.
Row r, value c of a mapped argument is ``a<i>[r * k<i> + c]``.

``load`` compiles any C source into the cache and returns the loaded
library; besides the chain-shape sources it compiles the inspector's fixed
source (``looptile/inspector.c``).  This module only generates, compiles and
loads C; callers bind their symbols and arrays, ``looptile.executor`` each run.
``FLAGS`` keep the arithmetic IEEE: no contraction into fused multiply-adds,
no fast math and no ``-march``, so a C run equals the numpy run bit for bit.
Shared objects are cached under ``CACHE_DIR``, named by the sha256 of
(source, compiler, flags), and each process loads a chain shape once.  A
missing compiler or a failed compile raises ``CompileError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import NamedTuple

from .chain import AccessMode
from .errors import CompileError

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
CACHE_DIR = os.path.join(os.path.expanduser("~"), ".cache", "looptile")
SYMBOL = "looptile_run"

PREAMBLE = """\
#include <stdint.h>

static inline void gather(double *buf, const double *v, const int64_t *rows,
                          const int m, const int k)
{
    for (int r = 0; r < m; r++)
        for (int c = 0; c < k; c++)
            buf[r * k + c] = v[rows[r] * k + c];
}

static inline void add_back(double *v, const int64_t *rows, const double *buf,
                            const int m, const int k)
{
    for (int r = 0; r < m; r++)
        for (int c = 0; c < k; c++)
            v[rows[r] * k + c] += buf[r * k + c];
}
"""


class Arg(NamedTuple):
    """One kernel argument as the generated code sees it."""

    mode: AccessMode
    arity: int | None  # None for a direct access
    k: int  # values per element


def generate(c_bodies, shape) -> str:
    """The C source of one chain shape: a static function per loop, one runner.

    ``looptile_run(v, x, b, e, n)`` runs n color runs: in run r, each loop j
    in turn over positions ``b[j][e[r]]`` to ``b[j][e[r + 1]]`` of its tiling,
    with ``b[j]`` its bounds and ``e`` a region's ``Schedule.runs``.  ``v[g]``
    is the flat values and ``x[g]`` the index array (the tiling's elements,
    or its local map rows) of the g-th argument, counted loop by loop.
    """
    out = [PREAMBLE]
    for j, (body, args) in enumerate(zip(c_bodies, shape)):
        params = ",\n        ".join(
            f"{'const ' if a.mode is AccessMode.READ else ''}double *a{i}, "
            f"const int k{i}, const int m{i}" for i, a in enumerate(args))
        unused = " ".join(f"(void)a{i}; (void)k{i}; (void)m{i};"
                          for i in range(len(args)))
        out.append(f"static inline void loop{j}(\n        {params})\n"
                   f"{{\n    {unused}\n{body}\n}}\n")

    runs, g = [], 0
    for j, args in enumerate(shape):
        lines, after, call = [], [], []
        for i, a in enumerate(args):
            m = 1 if a.arity is None else a.arity
            rows = f"x[{g}] + p" if a.arity is None else f"x[{g}] + p * {m}"
            if a.mode is AccessMode.INC:
                lines.append(f"double a{i}[{m * a.k}] = {{0}};")
                after.append(f"add_back(v[{g}], {rows}, a{i}, {m}, {a.k});")
            elif a.arity is None:
                const = "const " if a.mode is AccessMode.READ else ""
                lines.append(f"{const}double *a{i} = v[{g}] + x[{g}][p] * {a.k};")
            else:  # a mapped read; check_bindings rejects a mapped write
                lines.append(f"double a{i}[{m * a.k}];")
                lines.append(f"gather(a{i}, v[{g}], {rows}, {m}, {a.k});")
            call.append(f"a{i}, {a.k}, {m}")
            g += 1
        lines.append(f"loop{j}({', '.join(call)});")
        inner = "\n".join("            " + s for s in lines + after)
        runs.append(f"        for (int64_t p = b[{j}][e[r]]; p < b[{j}][e[r + 1]];"
                    f" p++) {{\n{inner}\n        }}")
    out.append(
        f"void {SYMBOL}(double *const *v, const int64_t *const *x,\n"
        f"                  const int64_t *const *b, const int64_t *e,\n"
        f"                  const int64_t n)\n{{\n"
        f"    for (int64_t r = 0; r < n; r++) {{\n" + "\n".join(runs) + "\n"
        f"    }}\n}}\n")
    return "\n".join(out)


# -- compiling and loading ----------------------------------------------------


def find_compiler() -> str | None:
    """The C compiler on PATH, if any."""
    return shutil.which("cc") or shutil.which("gcc")


def _compiler_identity(cc: str) -> str:
    try:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        raise CompileError(f"C compiler {cc!r} does not run: {exc}") from None
    return f"{os.path.realpath(cc)}\n{version}"


def _private_dir(path: str) -> str:
    """Create ``path`` with mode 0700 if missing; refuse it unless it is the
    current user's and neither group nor others can write to it."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError as exc:
        raise CompileError(f"C cache directory {path!r}: {exc}") from None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise CompileError(f"C cache directory {path!r} is not private to this "
                           "user (owner or group/other write permission)")
    return path


_IDENTITIES: dict[str, str] = {}


def load(source: str) -> ctypes.CDLL:
    """The loaded library of ``source``, compiled into the cache if missing.

    Each compile writes a temporary file in the cache directory and renames
    it into place, so concurrent processes never load a partial object.
    """
    cc = find_compiler()
    if cc is None:
        raise CompileError("no C compiler: neither cc nor gcc is on PATH")
    if cc not in _IDENTITIES:
        _IDENTITIES[cc] = _compiler_identity(cc)
    digest = hashlib.sha256("\0".join(
        (source, _IDENTITIES[cc], " ".join(FLAGS))).encode()).hexdigest()
    directory = _private_dir(CACHE_DIR)
    path = os.path.join(directory, f"{digest}.so")
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f"{digest}.", suffix=".tmp")
        os.close(fd)
        try:
            proc = subprocess.run([cc, *FLAGS, "-x", "c", "-", "-o", tmp],
                                  input=source, capture_output=True, text=True)
            if proc.returncode:
                raise CompileError(f"C compile failed:\n{proc.stderr.strip()}")
            os.replace(tmp, path)
        except OSError as exc:
            raise CompileError(f"C compile failed: {exc}") from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    try:
        return ctypes.CDLL(path)
    except OSError as exc:
        raise CompileError(f"cannot load {path!r}: {exc}") from None


# -- the compiled runners -----------------------------------------------------

RUNNER_ARGTYPES = (ctypes.c_void_p,) * 4 + (ctypes.c_int64,)  # (v, x, b, e, n)

# each compiled shape's function, by (C bodies, shape); the function keeps
# its shared object loaded for the life of the process
_RUNNERS: dict[tuple, object] = {}


def runner(c_bodies, shape):
    """The compiled function of a chain shape; compiles on first use."""
    key = (tuple(c_bodies), shape)
    fn = _RUNNERS.get(key)
    if fn is None:
        fn = getattr(load(generate(c_bodies, shape)), SYMBOL)
        fn.argtypes, fn.restype = RUNNER_ARGTYPES, None
        _RUNNERS[key] = fn
    return fn
