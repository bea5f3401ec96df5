"""Thread count of the package: every computation runs in the calling thread.

``thread_budget`` reports that count, the constant 1, for run records.
"""


def thread_budget() -> int:
    """Number of worker threads the package uses: the constant 1."""
    return 1
