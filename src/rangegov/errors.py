"""Error taxonomy. The CLI maps these onto distinct exit codes."""


class DataError(ValueError):
    """Base for all rejections of caller-supplied data."""


class SchemaError(DataError):
    """Malformed file or record: bad header, bad field, bad manifest."""


class MissingSeriesError(DataError):
    """A required series or file is absent."""


class QualityError(DataError):
    """A panel breaks a rule of `model.validate_panel`."""


class InsufficientInputsError(DataError):
    """Not enough evaluated inputs to produce a result."""
