"""Semi-supervised temporal action proposal generation on snippet features."""

import ctypes
import platform

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h) and the values set at import. By
# default glibc maps each block above a threshold (128 KiB at first, raised
# only to the largest such block freed so far) on its own and gives the heap
# top back past twice that, so much of what a training step frees goes back
# to the OS and the next step faults it in again: a 2 + 2 SSTAP step
# (T = 100, C = 16, float32) took 3,800-6,100 minor page faults and 9-18 ms
# of system time, 2,273 faults in conv2d's forward pass alone. With these
# thresholds it takes none, and the training peak RSS is no higher.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_memory():
    """Raise glibc's mmap and trim thresholds; on any other libc do nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_memory()
