"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: config/usage problems give 1, data
validation and schema mismatches give 2, numeric failures give 3.
"""


class JourneyRankError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(JourneyRankError):
    """Invalid configuration value or inconsistent config combination."""


class ShapeError(JourneyRankError):
    """Tensor or feature width does not match the expected shape."""


class ContractError(JourneyRankError):
    """An operation was called outside its documented preconditions."""


class DataValidationError(JourneyRankError):
    """A dataset record violates a structural invariant."""


class SchemaMismatchError(DataValidationError):
    """Dataset schema hash differs from the one a model was trained on."""


class NonFiniteScoreError(DataValidationError):
    """A model's weights give a score or a blend coefficient that is not
    finite."""


class UndefinedTaskWeightError(DataValidationError):
    """A task weight was requested for a task with zero positive impressions."""


class TrainingDivergenceError(JourneyRankError):
    """Training produced a non-finite loss.

    ``term`` names the first non-finite loss term (``base``, ``twiddler``,
    ``combination``, or ``total`` when only their sum overflowed) and
    ``batch`` the batch's index within the epoch.
    """

    def __init__(self, epoch: int, batch: int, term: str):
        self.epoch = epoch
        self.batch = batch
        self.term = term
        super().__init__(f"non-finite {term} loss at epoch {epoch}, "
                         f"batch {batch}")
