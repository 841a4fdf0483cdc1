"""Exception hierarchy shared across the reproduction.

Every layer of the stack (DES kernel, simulated network, simulated MPI
library, MANA runtime) raises exceptions rooted at :class:`ReproError`
so callers can catch simulation failures without masking genuine Python
bugs (``TypeError`` etc. propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """A violation of the discrete-event kernel's invariants."""


class DeadlockError(SimulationError):
    """All live simulated processes are parked and no event can wake them.

    Carries a human-readable report of each parked process and the reason
    it is waiting, which is what the paper's Section III-E deadlock
    (barrier-before-Bcast) test inspects.
    """

    def __init__(self, report: str, parked: "list[tuple[str, str]]"):
        super().__init__(report)
        #: list of (process name, wait reason) pairs at the time of deadlock
        self.parked = parked


class MpiError(ReproError):
    """An error raised by the simulated MPI library (the "lower half")."""


class MpiInvalidHandle(MpiError):
    """An operation referenced a freed or never-created MPI object."""


class MpiTruncationError(MpiError):
    """A receive buffer was smaller than the matched message."""


class UnsupportedMpiFeature(MpiError):
    """The application used an MPI feature the runtime does not support.

    MANA-2.0 raises this for the ``MPI_Win_`` one-sided family, mirroring
    the paper's statement that one-sided communication is unsupported and
    that VASP 6 must be compiled with ``MPI_Win`` usage disabled.
    """


class ManaError(ReproError):
    """An error raised by the MANA checkpoint/restart runtime."""


class CheckpointError(ManaError):
    """Checkpoint could not be taken (drain failure, unsafe state, ...)."""


class RestartError(ManaError):
    """Restart could not reconstruct a consistent computation."""


class ReplayExhausted(ManaError):
    """Every recorded call has been served: time for the REEXEC
    replay-to-live transition."""


class RecoveryError(RestartError):
    """Automatic rollback-restart after a detected failure could not
    proceed (no durable checkpoint image, or the session was not run
    with ``record_replay`` so dead ranks cannot be re-executed)."""


class JobLostError(RecoveryError):
    """The job is terminally lost: automatic recovery exhausted its
    retry budget (``ManaConfig.max_incarnations``) or no committed epoch
    is recoverable on any storage tier.  This is the *graceful* end of
    the degradation ladder — the session tears every process down,
    appends a fully-accounted terminal record to
    ``rt.recovery_records``, drains the event queue to zero, and then
    raises this typed outcome from ``ManaSession.run()``.  It never
    escapes through the DES loop mid-flight.

    Subclasses :class:`RecoveryError` so callers that already treat an
    unrecoverable job as an expected negative result (availability
    campaign cells, survivability scenarios) keep working unchanged.
    """

    def __init__(self, message: str, record: "dict | None" = None):
        super().__init__(message)
        #: the terminal recovery record (also in ``rt.recovery_records``)
        self.record = record or {}


class DrainError(CheckpointError):
    """The point-to-point drain algorithm failed to settle the network."""


class HaltSignal(ReproError):
    """Raised through a rank's program to terminate it after a "halt"
    checkpoint (the job was killed after writing its image; a REEXEC
    session resumes it from the file)."""


class MigrationWarning(UserWarning):
    """A checkpoint image is being restored on a different machine than
    the one it was taken on.

    This is a supported operation — the portable upper half carries no
    machine-derived state, and the lower half is re-derived from the
    target machine — but the user should know that elapsed times, cost
    models, and the FS-register tier now reflect the *target* machine.
    A genuinely unknown source machine still raises ``ValueError``.
    """


class CampaignError(ReproError):
    """A campaign-level orchestration failure (corrupt or mismatched
    campaign directory, resuming a manifest written by a different
    spec, ...).  Individual *cell* failures never raise this — a cell
    that crashes, times out, or throws is recorded as a failed cell and
    the campaign keeps running; that isolation is the subsystem's whole
    contract."""
