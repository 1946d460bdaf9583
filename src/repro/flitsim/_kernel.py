"""Host side of the optional C cycle kernel, ``_kernel.c``.

The flat engine's per-cycle work (feed, arbitration, credit flow,
forwarding) is a few hundred tiny array operations; at small network
sizes the numpy dispatch overhead dominates.  ``_kernel.c`` runs the
same cycle protocol (see :mod:`repro.flitsim.engine`) as one C pass over
the very same flat arrays; this module compiles it via :mod:`cffi` — no
new dependencies, no extension to build at install time — binds its
structs and checks its draws.  The C file's head comment describes the
kernel; :mod:`repro.flitsim.kspan` and :mod:`repro.flitsim.kselect` hold
the host halves of ``kcycles`` and ``kselect``.

* The build is one translation unit: ``ffi.cdef`` reads ``_kernel.h``
  as it stands (structs and prototypes, no preprocessor line) and
  ``set_source`` includes ``_kernel.c``, so compiler, sanitizer and
  coverage reports name ``_kernel.c`` lines.
* Loading is best-effort: no cffi, no C compiler, an unreadable source
  file or any compile error yields ``None`` (with a one-line stderr
  diagnostic) and :class:`~repro.flitsim.flatcore.FlatSimulator` runs
  its numpy path (bit-identical results either way — the differential
  harness runs both).
* Bit-identity rests on ``Generator.integers``' and
  ``Generator.random``'s algorithms, so :func:`load_kernel` checks the
  C draws (``kdraws`` / ``kdoubles``) against numpy's at load (< 1 ms)
  and records the verdict as ``module.select_ok``; on a mismatch every
  simulator runs the numpy path.
* ``REPRO_FLAT_KERNEL=0`` (or ``false``/``off``/``no``) disables the
  kernel — cycle loop and route selection — explicitly; the setting
  is re-read on every :func:`load_kernel` call, so tests and benchmarks
  can toggle the cycle path per construction without reloading.
* Compiled modules are cached under ``$REPRO_KERNEL_CACHE`` (default
  ``~/.cache/repro-flitsim``) keyed by a hash of ``_kernel.c``,
  ``_kernel.h`` and the build's flags, ``$CC`` / ``$CFLAGS`` /
  ``$CPPFLAGS`` / ``$LDFLAGS`` included, so the compiler runs once per
  source revision and build environment, not once per process — test
  runs and CI import the cached ``.so`` instead of recompiling, and a
  sanitizer or coverage build never shares a name with a plain one.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import shutil
import sys
import tempfile

import numpy as np

from repro.utils.env import env_disabled

__all__ = [
    "load_kernel", "kernel_enabled", "numpy_fallback", "bitgen_of", "bind_struct",
]

_ENV = "REPRO_FLAT_KERNEL"
_CACHE_ENV = "REPRO_KERNEL_CACHE"

_cached = False
_module = None
_diagnosed: set = set()


def kernel_enabled() -> bool:
    """Whether the environment allows using the C kernel."""
    return not env_disabled(_ENV)


def _diagnose(reason: str, what: str = "cycle") -> None:
    """One-line stderr note the first time a fallback cause is hit.

    Keyed by reason so an explicit ``REPRO_FLAT_KERNEL=0`` and a missing
    compiler each announce themselves exactly once per process — the
    numpy path is bit-identical, but silently losing ~an order of
    magnitude of speed is worth a line.
    """
    if reason not in _diagnosed:
        _diagnosed.add(reason)
        print(
            f"repro.flitsim: C {what} kernel unavailable ({reason}); "
            f"using the numpy {what} path",
            file=sys.stderr,
        )


@contextlib.contextmanager
def numpy_fallback():
    """Force the numpy cycle path for simulators built inside the block.

    Sets ``REPRO_FLAT_KERNEL=0`` for the duration; :func:`load_kernel`
    re-reads the toggle on every call, so the compiled module stays
    cached and simulators built outside the block are unaffected.
    """
    old = os.environ.get(_ENV)
    os.environ[_ENV] = "0"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(_ENV, None)
        else:
            os.environ[_ENV] = old


def _cache_dir() -> str:
    return os.environ.get(_CACHE_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-flitsim"
    )


def _find_built(cache: str, name: str) -> "str | None":
    if not os.path.isdir(cache):
        return None
    for entry in os.listdir(cache):
        if entry.startswith(name) and entry.endswith((".so", ".pyd", ".dylib")):
            return os.path.join(cache, entry)
    return None


#: the directory of ``_kernel.c`` and ``_kernel.h``
_DIR = os.path.dirname(os.path.abspath(__file__))
#: the compiler flags every build uses
_COMPILE_ARGS = ("-O2",)
#: the environment's build variables, which setuptools applies to the
#: cffi build on top of :data:`_COMPILE_ARGS`
_BUILD_ENV = ("CC", "CFLAGS", "CPPFLAGS", "LDFLAGS")


def _read(name: str) -> bytes:
    with open(os.path.join(_DIR, name), "rb") as f:
        return f.read()


def _module_name() -> str:
    """The cached build's module name: a hash of everything it is built
    from — ``_kernel.c``, ``_kernel.h``, the compiler flags and the
    environment's build variables (empty when unset) — so a change to
    any of them compiles afresh instead of loading a stale ``.so``."""
    env = (os.environ.get(var, "").encode() for var in _BUILD_ENV)
    flags = (arg.encode() for arg in _COMPILE_ARGS)
    digest = hashlib.sha256()
    for part in (_read("_kernel.c"), _read("_kernel.h"), *flags, *env):
        digest.update(part + b"\0")
    return f"_repro_flit_kernel_{digest.hexdigest()[:16]}"


def _build(cache: str, name: str) -> "str | None":
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_read("_kernel.h").decode())
    ffi.set_source(
        name, '#include "_kernel.c"', include_dirs=[_DIR],
        extra_compile_args=list(_COMPILE_ARGS),
    )
    os.makedirs(cache, exist_ok=True)
    # Build in a private directory, then move into the shared cache —
    # concurrent workers may race to compile the same source hash.
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        built = ffi.compile(tmpdir=tmp)
        target = os.path.join(cache, os.path.basename(built))
        if not os.path.exists(target):
            shutil.move(built, target)
        return target


def bitgen_of(ffi, rng):
    """``bitgen_t *`` of a :class:`numpy.random.Generator`'s bit stream.

    The pointer lives as long as ``rng.bit_generator``; callers keep the
    generator referenced while C holds it.
    """
    return ffi.cast("bitgen_t *", rng.bit_generator.ctypes.bit_generator.value)


#: struct ctype -> {field: None for a scalar, else (the C array type of
#: its buffer, the numpy dtype — or record size — the buffer must have)}
_SCHEMAS: dict = {}


def _schema(ffi, struct) -> dict:
    """What each field of ``struct`` takes, read off its C declaration."""
    if struct not in _SCHEMAS:
        _SCHEMAS[struct] = schema = {}
        for name, field in struct.fields:
            item = field.type.item if field.type.kind == "pointer" else None
            if item is None:
                schema[name] = None
            elif item.kind == "struct":  # a record: any dtype of its size
                schema[name] = (f"{item.cname}[]", ffi.sizeof(item))
            else:  # _Bool is numpy's bool, intN_t numpy's intN
                want = "bool" if item.cname == "_Bool" else item.cname[:-2]
                schema[name] = (f"{item.cname}[]", np.dtype(want))
    return _SCHEMAS[struct]


def bind_struct(ffi, ptr, fields: dict) -> dict:
    """Set fields of the C struct ``*ptr``; returns the keep-alive views.

    The C declaration is the only schema.  A scalar field is assigned as
    given; a pointer field takes ``None`` (NULL) or a C-contiguous array
    whose dtype matches the pointee — ``bool`` for ``_Bool``, a record
    dtype of equal ``ffi.sizeof`` for a struct such as ``Flit`` — and
    anything else raises ``TypeError`` naming the struct and the field.
    Fields left out keep their value (``ffi.new`` zero-fills: NULL).
    The result maps each pointer field to its cffi view (``None``: NULL),
    which keeps the array alive; hold it as long as the binding stands.
    """
    struct = ffi.typeof(ptr).item
    schema = _schema(ffi, struct)
    refs = {}
    for name, value in fields.items():
        if name not in schema:
            raise TypeError(f"{struct.cname} has no field {name!r}")
        if schema[name] is None:
            setattr(ptr, name, value)
            continue
        ctype, want = schema[name]
        if value is not None:
            dtype, record = value.dtype, type(want) is int
            if record:
                fits = dtype.names is not None and dtype.itemsize == want
            else:
                fits = dtype is want or dtype == want
            if not (fits and value.flags.c_contiguous):
                what = f"{want}-byte {ctype[:-2]} records" if record else want
                raise TypeError(
                    f"{struct.cname}.{name}: kernel buffer must be "
                    f"C-contiguous {what}, got {dtype} "
                    f"(c_contiguous={value.flags.c_contiguous})"
                )
            value = ffi.from_buffer(ctype, value)
        setattr(ptr, name, ffi.NULL if value is None else value)
        refs[name] = value
    return refs


def _draws_match(module) -> bool:
    """Whether the C draws reproduce ``Generator``'s on this numpy.

    Two throw-away generators from one seed: a few hundred bounded draws
    through each, both as one array-of-bounds call (the ECMP tie draw)
    and as ``integers(bound, size=)`` calls (the Valiant intermediates,
    the uniform destinations), interleaved with ``random(size)`` blocks
    (the Bernoulli draw of ``kcycles``) the way a simulated cycle
    alternates them.  Values and the final bit-generator state must
    agree — the state covers draws that consume the stream without
    changing a value, and a 32-bit half left buffered across a double.
    """
    ffi, lib = module.ffi, module.lib
    ours = np.random.Generator(np.random.PCG64(0))
    theirs = np.random.Generator(np.random.PCG64(0))
    bounds = np.tile(
        np.array([1, 2, 3, 7, 57, 2**31 + 1], dtype=np.int64), 40
    )
    blocks = [bounds] + [np.full(15, b, dtype=np.int64) for b in bounds[:6]]
    bg = bitgen_of(ffi, ours)
    for i, block in enumerate(blocks):
        want = theirs.integers(block if i == 0 else int(block[0]), size=block.size)
        got = np.empty_like(block)
        lib.kdraws(
            bg, block.size, ffi.from_buffer("int64_t[]", block),
            ffi.from_buffer("int64_t[]", got),
        )
        uniform = np.empty(57)
        lib.kdoubles(bg, uniform.size, ffi.from_buffer("double[]", uniform))
        if not (
            np.array_equal(got, want)
            and np.array_equal(uniform, theirs.random(uniform.size))
        ):
            return False
    return ours.bit_generator.state == theirs.bit_generator.state


def _check_draws(module) -> bool:
    """Run the draw self-test; a failure costs the kernel its use.

    Simulators consult ``module.select_ok`` before offering compiled
    route selection or spans: every cycle draws, and the numpy path is
    bit-identical, so a failure only costs speed.
    """
    try:
        if _draws_match(module):
            return True
        reason = "its draws differ from numpy's Generator.integers/random"
    except Exception as exc:
        reason = f"draw self-test failed: {type(exc).__name__}: {exc}"
    _diagnose(reason, what="route-selection")
    return False


def load_kernel():
    """The compiled kernel module (``.ffi``/``.lib``), or ``None``.

    ``REPRO_FLAT_KERNEL`` is re-read on every call (so the cycle path
    can be toggled per simulator construction — see
    :func:`numpy_fallback`); the build itself is attempted once per
    process and memoized.  Failures of any kind (no cffi, no compiler)
    degrade to ``None`` with a one-line diagnostic — the numpy path is
    always available and bit-identical.
    """
    global _cached, _module
    if not kernel_enabled():
        _diagnose(f"disabled via {_ENV}={os.environ.get(_ENV)}")
        return None
    if _cached:
        return _module
    _cached = True
    try:
        name = _module_name()
        cache = _cache_dir()
        path = _find_built(cache, name)
        if path is None:
            path = _build(cache, name)
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        _module = module
        module.select_ok = _check_draws(module)
    except ImportError:
        _module = None
        _diagnose("cffi not installed")
    except Exception as exc:
        _module = None
        _diagnose(f"build failed: {type(exc).__name__}: {exc}")
    return _module
