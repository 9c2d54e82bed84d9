"""The exception for broken internal invariants."""


class InternalError(RuntimeError):
    """An internal invariant failed: a bug in orbitkit, never bad input.

    Raised explicitly rather than by ``assert`` so that the checks also
    run under ``python -O``.
    """
