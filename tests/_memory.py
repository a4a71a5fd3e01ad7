"""Memory measured by tracemalloc, for the bounds on the artifact codec and the oracle."""

import tracemalloc


def traced_peak(call):
    """tracemalloc's peak over one call, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
