"""The compiled loops of coopsim: built on first use, cached, optional.

``_engine.c`` holds five sets of loops.  ``coop_init`` / ``coop_step`` are
``lattice.RateTable`` and ``lattice.step`` written in C, operation for
operation, drawing through numpy's own routines on the caller's
``Generator``; so a seed gives the same bytes whichever engine ran.
``coop_replay`` is the mark loop of ``graphical.evolve_from_log`` and
``graphical.coupled_evolve`` over an event log's columns, on one process
or two: it looks each mark's result up in the transition tables that
``graphical._mark_tables`` builds from the one Python statement of the
mark law, and passes in.  ``coop_rk4`` is the RK4 loop of
``mean_field.integrate``, with the same bits.  ``coop_format`` and
``coop_parse`` write and read the mark lines of
``graphical.EventLog.to_text`` and ``from_text``.  ``coop_format``
writes each time as ``repr`` does, byte for byte: the shortest
round-trip digits, found by Schubfach (Giulietti, 2020), laid out as
CPython lays out ``repr``, with the powers of ten of :func:`pow10_table`,
which are computed here from their definition.  ``coop_parse`` reads a
time of up to 19 significant digits by Clinger's exact fast path or by
Eisel-Lemire (Lemire, 2021) over the same table, and leaves longer ones,
exponents outside the table and the rare product that does not decide
the rounding to ``strtod``; all three round correctly, as ``float``
does.  It refuses any line that ``to_text`` would not write, and the
Python loop then reads the whole text.  ``coop_lines`` counts the lines
first, so the columns are allocated at their size.  ``coop_index`` builds an
event log's per-site index by one counting pass, and ``coop_sterile`` and
``coop_dual`` read it: they are the test of ``graphical.classify_sterile``
and the walk of ``graphical.build_dual``, returning codes and rows from
which Python writes the messages and nodes.  :func:`load` builds the
module with cffi in API mode, linked against numpy's ``libnpyrandom.a``,
in a subprocess whose output is captured.  The module is kept in
``$XDG_CACHE_HOME/coopsim`` (default ``~/.cache/coopsim``) under a name
keyed by a hash of the C source, the numpy version and the Python ABI,
and moved into place with ``os.replace``, so that processes building at
once do not race.  When it cannot be built or loaded, one line on stderr
says so and :func:`load` returns ``None``: ``lattice.run``, the replay
routines, ``mean_field.integrate``, the log text routines, the site
index, ``classify_sterile`` and ``build_dual`` then run their Python
loops.

Nothing here imports cffi until :func:`load` is called.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_engine.c")
BUILD_TIMEOUT_S = 300

CDEF = """
typedef struct bitgen bitgen_t;
typedef struct {
    int32_t n, deg, block, n_blocks;
    const int32_t *nbr;
    const int32_t *near2_ptr;
    const int32_t *near2;
    int8_t *sites;
    double *rates, *block_sums;
    double *cum;
    double pair_beta, pair_coop, pair_defect;
    bitgen_t *bitgen;
} coop_table;
void coop_init(coop_table *t);
int32_t coop_select(coop_table *t, double target, int32_t *parent);
double coop_step(coop_table *t, double t_limit, int32_t *ev);
int64_t coop_replay(int8_t *s1, int8_t *s2, const int8_t *kind, const int32_t *target,
                    const int32_t *source, const int32_t *dot, int64_t lo, int64_t hi,
                    const int8_t *next1, const int8_t *next2, const int8_t *allowed);
int coop_rk4(double *xs, double *ys, int64_t n_steps, double beta, double bc, double bd,
             double dt, int until_converged, double simplex_tol, double convergence_tol,
             int64_t *last);
int64_t coop_format(char *out, int64_t cap, const double *time, const int8_t *kind,
                    const int32_t *target, const int32_t *source, const int32_t *dot, int64_t n,
                    const char *const *names, int n_names, const uint64_t *pow10);
int64_t coop_lines(const char *text, int64_t len);
int64_t coop_parse(const char *text, int64_t len, const char *const *names, int n_names,
                   double t_lo, double t_hi, int64_t n_sites, double *time, int8_t *kind,
                   int32_t *target, int32_t *source, int32_t *dot, int64_t cap,
                   const uint64_t *pow10);
typedef struct {
    int64_t n_marks;
    int32_t n_sites;
    double t_lo;
    const double *time;
    const int8_t *kind;
    const int32_t *target, *source, *dot;
    int32_t *cross_ptr, *arrow_ptr;
    double *cross_time, *arrow_time;
    int32_t *arrow_source;
    int8_t *arrow_feeds;
} coop_site_index;
void coop_index(coop_site_index *ix);
int coop_sterile(const coop_site_index *ix, int64_t i);
typedef struct {
    int64_t cap, stack_cap;
    int32_t *site;
    int64_t *parent;
    int32_t *ordinal;
    double *r_hi, *r_lo;
    int8_t *stopped;
    int32_t *stack_arrow;
    int64_t *stack_parent;
    int32_t *stack_ordinal;
    int64_t rows;
    int32_t arrow;
} coop_dual_walk;
int coop_dual(const coop_site_index *ix, coop_dual_walk *w, int32_t x, double t, double t_start,
              int64_t max_nodes);
"""

# run as ``python -c BUILD source name cdef`` in an empty directory
BUILD = """
import os, sys
import cffi, numpy
source, name, cdef = sys.argv[1:4]
ffi = cffi.FFI()
ffi.cdef(cdef)
with open(source, encoding="utf-8") as fh:
    ffi.set_source(
        name, fh.read(),
        include_dirs=[numpy.get_include()],
        library_dirs=[os.path.join(os.path.dirname(numpy.__file__), "random", "lib")],
        libraries=["npyrandom", "m"],
        extra_compile_args=["-O2", "-ffp-contract=off"],
    )
ffi.compile(tmpdir=".")
"""

_module = None
_tried = False


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "coopsim"


def module_name() -> str:
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), CDEF.encode(), BUILD.encode(), np.__version__.encode(),
                 str(sysconfig.get_config_var("SOABI")).encode()):
        key.update(part + b"\0")
    return "_coopsim_engine_" + key.hexdigest()[:16]


def _build(name: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", BUILD, str(SOURCE), name, CDEF],
            cwd=tmp, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S,
        )
        built = Path(tmp) / target.name
        if proc.returncode != 0 or not built.is_file():
            lines = (proc.stderr or proc.stdout).strip().splitlines()
            raise RuntimeError(f"build exited {proc.returncode}: {lines[-1] if lines else 'no output'}")
        os.replace(built, target)


def load():
    """The compiled module (with ``ffi`` and ``lib``), or ``None`` if it cannot be had.

    Builds it when the cache lacks it.  Tried once per process; a failure
    is reported by one stderr line.
    """
    global _module, _tried
    if not _tried:
        _tried = True
        try:
            name = module_name()
            path = cache_dir() / (name + sysconfig.get_config_var("EXT_SUFFIX"))
            if not path.is_file():
                _build(name, path)
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            _module = module
        except Exception as exc:  # any failure means the Python engine runs
            print(f"coopsim: compiled engine unavailable ({type(exc).__name__}: {exc}); "
                  "using the Python engine", file=sys.stderr)
    return _module


_capsule_pointer = ctypes.pythonapi.PyCapsule_GetPointer
_capsule_pointer.restype = ctypes.c_void_p
_capsule_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]


class Table:
    """A ``RateTable`` in C memory for one torus, bound to one ``Generator``.

    ``geometry`` holds the torus's flat int32 neighbor and distance-two
    arrays.  The table points at the bytes of ``torus.sites``, which the
    compiled step writes each event into, so the torus is the table's own
    state and nothing is copied.
    """

    __slots__ = ("torus", "rng", "c", "c_step", "ev", "_keep")

    def __init__(self, module, torus, geometry, pair_rates: tuple[float, float, float],
                 rng: np.random.Generator):
        ffi = module.ffi
        n = torus.n_sites
        block = math.isqrt(n)
        n_blocks = -(-n // block)
        c = ffi.new("coop_table *")
        c.n, c.deg, c.block, c.n_blocks = n, 2 * torus.dim, block, n_blocks
        c.nbr = ffi.from_buffer("int32_t[]", geometry.nbr)
        c.near2_ptr = ffi.from_buffer("int32_t[]", geometry.near2_ptr)
        c.near2 = ffi.from_buffer("int32_t[]", geometry.near2_flat)
        sites = ffi.from_buffer("int8_t[]", torus.sites)
        doubles = ffi.new("double[]", n + 2 * n_blocks + block)
        c.sites, c.rates, c.block_sums, c.cum = sites, doubles, doubles + n, doubles + n + n_blocks
        c.pair_beta, c.pair_coop, c.pair_defect = pair_rates
        address = _capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")
        c.bitgen = ffi.cast("bitgen_t *", address)
        module.lib.coop_init(c)
        self._keep = (geometry, sites, doubles)
        self.torus = torus
        self.rng = rng
        self.c = c
        self.c_step = module.lib.coop_step
        self.ev = ffi.new("int32_t[4]")


def replay(module, s1: bytearray, s2: bytearray | None, log, lo: int, hi: int,
           tables: tuple[np.ndarray, ...]) -> int:
    """``coop_replay`` over marks ``[lo, hi)`` of ``log``, updating the site buffers in place.

    ``s2`` is ``None`` for one process.  ``tables`` are int8 arrays: the
    transition table of each process, then for two processes the 3 x 3
    table of the pairs the coupling order keeps.
    """
    ffi = module.ffi
    processes = [ffi.from_buffer("int8_t[]", s) for s in (s1, s2) if s is not None] + [ffi.NULL]
    columns = _column_buffers(ffi, log._columns())[1:]
    views = [ffi.from_buffer("int8_t[]", t) for t in tables] + [ffi.NULL] * (3 - len(tables))
    return module.lib.coop_replay(processes[0], processes[1], *columns, lo, hi, *views)


# coop_rk4's status when it stops before its last step
RK4_CONVERGED, RK4_ESCAPED = 1, 2


def rk4(module, xs: np.ndarray, ys: np.ndarray, p, dt: float, until_converged: bool,
        simplex_tol: float, convergence_tol: float) -> tuple[int, int]:
    """``coop_rk4`` from ``(xs[0], ys[0])``, filling the float64 arrays ``xs`` and ``ys``.

    Returns the index of the last state written and the status.
    """
    ffi = module.ffi
    last = ffi.new("int64_t *")
    status = module.lib.coop_rk4(ffi.from_buffer("double[]", xs), ffi.from_buffer("double[]", ys),
                                 len(xs) - 1, p.beta, p.beta_c, p.beta_d, dt, until_converged,
                                 simplex_tol, convergence_tol, last)
    return last[0], status


def _column_buffers(ffi, columns) -> tuple:
    """C views of a log's columns (time, kind, target, source, dot)."""
    time, kind, *sites = columns
    return (ffi.from_buffer("double[]", time), ffi.from_buffer("int8_t[]", kind),
            *(ffi.from_buffer("int32_t[]", c) for c in sites))


def _c_names(ffi, names: tuple[str, ...]):
    """The names as a C array of strings, and the buffers it points into."""
    buffers = [ffi.new("char[]", name.encode("ascii")) for name in names]
    return ffi.new("char *[]", buffers), buffers


# the powers of ten 10^K, K in [POW10_MIN, POW10_MAX], that coop_format's
# shortest-digit search multiplies by, the range of _engine.c's table
POW10_MIN, POW10_MAX = -292, 324


@functools.cache
def pow10_table() -> np.ndarray:
    """``coop_format``'s powers of ten: row ``K - POW10_MIN`` holds the high and low
    64-bit words of ``g = floor(10**K / 2**r) + 1``, where ``r = floor(log2 10**K) - 127``,
    so that ``2**127 < g <= 2**128``.  ``coop_parse`` reads ``g - 1``, the
    truncated power that Eisel-Lemire multiplies by, for K up to 308."""
    rows = []
    for k in range(POW10_MIN, POW10_MAX + 1):
        if k >= 0:
            r = (10**k).bit_length() - 128
            g = (10**k >> r if r >= 0 else 10**k << -r) + 1
        else:  # floor(log2 10**k) = -ceil(log2 10**-k), and 10**-k is no power of two
            r = -(10**-k - 1).bit_length() - 127
            g = (1 << -r) // 10**-k + 1
        rows.append((g >> 64, g & (1 << 64) - 1))
    table = np.array(rows, dtype=np.uint64)
    table.flags.writeable = False  # one array for every caller
    return table


def format_marks(module, columns, names: tuple[str, ...], n_sites: int) -> str | None:
    """``coop_format``: the mark lines of a log's columns as text, or ``None`` when it
    refuses them.  ``names[k]`` names kind code k; every site is below ``n_sites``."""
    ffi = module.ffi
    n = len(columns[0])
    # repr writes a time in at most 24 bytes ("-2.2250738585072014e-308"),
    # and a line has four spaces and a newline; coop_format asks for room
    # for sites of 10 digits before each line, which the last line needs
    digits = len(str(n_sites - 1))
    out = np.empty(n * (24 + max(map(len, names)) + 3 * digits + 5) + 3 * (10 - digits), np.uint8)
    c_names, _buffers = _c_names(ffi, names)
    written = module.lib.coop_format(ffi.from_buffer("char[]", out), len(out),
                                     *_column_buffers(ffi, columns), n, c_names, len(names),
                                     ffi.from_buffer("uint64_t[]", pow10_table()))
    return None if written < 0 else str(out[:written], "ascii")


def parse_marks(module, text, names: tuple[str, ...], t_lo: float, t_hi: float,
                n_sites: int) -> tuple[np.ndarray, ...] | None:
    """``coop_parse``: the columns (time, kind, target, source, dot) of the mark lines
    in ``text`` (bytes or a memoryview of them), or ``None`` when it refuses a line."""
    ffi = module.ffi
    chars = ffi.from_buffer("char[]", text)
    n = module.lib.coop_lines(chars, len(chars))  # one mark a line, each ending in a newline
    columns = (np.empty(n, np.float64), np.empty(n, np.int8),
               *(np.empty(n, np.int32) for _ in range(3)))
    c_names, _buffers = _c_names(ffi, names)
    read = module.lib.coop_parse(chars, len(chars), c_names, len(names), t_lo, t_hi, n_sites,
                                 *_column_buffers(ffi, columns), n,
                                 ffi.from_buffer("uint64_t[]", pow10_table()))
    return None if read < 0 else tuple(c[:read] for c in columns)


_C_TYPES = {np.dtype(np.int8): "int8_t[]", np.dtype(np.int32): "int32_t[]",
            np.dtype(np.int64): "int64_t[]", np.dtype(np.float64): "double[]"}


def _buffer(ffi, a: np.ndarray):
    """A C view of a contiguous array, typed by its dtype."""
    return ffi.from_buffer(_C_TYPES[a.dtype], a)


class SiteIndex:
    """An event log's per-site index arrays, with their C view ``c`` (a
    ``coop_site_index``) over them and the log's columns.

    ``arrays`` are ``graphical._SiteIndex``'s six, in its order; ``t_lo``
    is the log's first time, ``t_start - history``.
    """

    __slots__ = ("c", "_keep")

    def __init__(self, module, columns, t_lo: float, arrays: tuple[np.ndarray, ...]):
        ffi = module.ffi
        c = ffi.new("coop_site_index *")
        c.n_marks, c.n_sites, c.t_lo = len(columns[0]), len(arrays[0]) - 1, t_lo
        keep = _column_buffers(ffi, columns)
        c.time, c.kind, c.target, c.source, c.dot = keep
        views = tuple(_buffer(ffi, a) for a in arrays)
        c.cross_ptr, c.cross_time, c.arrow_ptr, c.arrow_time, c.arrow_source, c.arrow_feeds = views
        self._keep = (keep, views)
        self.c = c


def site_index(module, columns, t_lo: float, n_sites: int,
               n_cross: int) -> tuple[tuple[np.ndarray, ...], SiteIndex]:
    """``coop_index``: the per-site index arrays of a log's columns, which
    hold ``n_cross`` crosses, and their C view."""
    n_arrow = len(columns[0]) - n_cross
    arrays = (np.empty(n_sites + 1, np.int32), np.empty(n_cross, np.float64),
              np.empty(n_sites + 1, np.int32), np.empty(n_arrow, np.float64),
              np.empty(n_arrow, np.int32), np.empty(n_arrow, np.int8))
    view = SiteIndex(module, columns, t_lo, arrays)
    module.lib.coop_index(view.c)
    return arrays, view


# coop_sterile's outcomes
(STERILE_NO, STERILE_YES, STERILE_NOT_DOT_ARROW, STERILE_NO_DOT, STERILE_CROSS_HISTORY,
 STERILE_ARROW_HISTORY) = range(6)

# coop_dual's outcomes
DUAL_DONE, DUAL_FULL, DUAL_BUDGET, DUAL_SOURCELESS = range(4)

# the rows and pending segments of coop_dual's first walk; a walk that
# runs out of room is walked again with four times as much
DUAL_ROWS, DUAL_STACK = 1 << 16, 1 << 10
INT64_MAX = 2**63 - 1


def dual(module, view: SiteIndex, x: int, t: float, t_start: float,
         max_nodes: int) -> tuple[int, tuple[np.ndarray, ...], int]:
    """``coop_dual`` from ``(x, t)``: its outcome, the rows written as columns
    (site, parent, ordinal, r_hi, r_lo, stopped), and the sourceless arrow."""
    ffi = module.ffi
    max_nodes = min(max(max_nodes, 0), INT64_MAX)  # the same walk, in an int64
    cap, stack_cap = min(max(max_nodes, 1), DUAL_ROWS), DUAL_STACK
    while True:
        rows = (np.empty(cap, np.int32), np.empty(cap, np.int64), np.empty(cap, np.int32),
                np.empty(cap, np.float64), np.empty(cap, np.float64), np.empty(cap, np.int8))
        stack = (np.empty(stack_cap, np.int32), np.empty(stack_cap, np.int64),
                 np.empty(stack_cap, np.int32))
        w = ffi.new("coop_dual_walk *")
        w.cap, w.stack_cap = cap, stack_cap
        views = tuple(_buffer(ffi, a) for a in rows + stack)
        (w.site, w.parent, w.ordinal, w.r_hi, w.r_lo, w.stopped,
         w.stack_arrow, w.stack_parent, w.stack_ordinal) = views
        status = module.lib.coop_dual(view.c, w, x, t, t_start, max_nodes)
        if status != DUAL_FULL:
            return status, tuple(a[:w.rows] for a in rows), w.arrow
        if w.rows == cap:
            cap = min(4 * cap, max_nodes)
        else:
            stack_cap *= 4
