"""Test support utilities: deterministic fault injection.

Used by the crash-safety suites (``tests/test_checkpoint_resume.py``,
``tests/test_atomic_writes.py``) and usable by downstream code that
wants to prove its own recovery paths; nothing here is imported by the
library's production modules.
"""

from repro.testing.faults import (
    FaultInjector,
    InjectedFault,
    crash_on_replace,
    flip_bytes,
    truncate_file,
)

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "crash_on_replace",
    "flip_bytes",
    "truncate_file",
]
