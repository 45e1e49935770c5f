"""Process-level allocator tuning.

The optimization loop churns through tens-of-MB temporaries every step;
with glibc defaults those land in fresh mmap regions and the page-fault
cost dwarfs the arithmetic on small machines. Raising the mmap/trim
thresholds keeps large blocks on the heap where they are reused.
"""

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_THRESHOLD = 1 << 30


def tune_allocator() -> bool:
    """Raise glibc malloc thresholds. Safe no-op on non-glibc platforms.

    The package calls it once, at import. mallopt is resolved in the running
    process (dlopen of NULL), which finds the C library already loaded and
    starts no process, as a library search by name would.
    """
    try:
        libc = ctypes.CDLL(None)
        ok = libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD)
        ok &= libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD)
        return bool(ok)
    except (OSError, AttributeError):
        return False
