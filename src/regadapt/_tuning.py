"""Process-level allocator tuning.

The optimization loop churns through tens-of-MB temporaries every step;
with glibc defaults those land in fresh mmap regions and the page-fault
cost dwarfs the arithmetic on small machines. Raising the mmap/trim
thresholds keeps large blocks on the heap where they are reused.
"""

import ctypes
import ctypes.util

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_THRESHOLD = 1 << 30


def tune_allocator() -> bool:
    """Raise glibc malloc thresholds. Safe no-op on non-glibc platforms.

    The package calls it once, at import.
    """
    try:
        name = ctypes.util.find_library("c") or "libc.so.6"
        libc = ctypes.CDLL(name)
        ok = libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD)
        ok &= libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD)
        return bool(ok)
    except (OSError, AttributeError):
        return False
