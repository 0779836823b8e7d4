"""Exception types shared across the pipeline."""


class MwpipeError(Exception):
    """Base class for all pipeline errors."""


# -- bus ---------------------------------------------------------------------

class DuplicateTopic(MwpipeError):
    pass


class InvalidName(MwpipeError):
    pass


class UnknownTopic(MwpipeError):
    pass


class TimestampRegression(MwpipeError):
    pass


class SchemaMismatch(MwpipeError):
    pass


# -- synthesis ---------------------------------------------------------------

class InvalidProfile(MwpipeError):
    pass


class EmptySeries(MwpipeError):
    pass


class OverlapTooDense(InvalidProfile):
    pass


class OverlappingEvents(InvalidProfile):
    pass


# -- simulation / session ----------------------------------------------------

class IncompleteTrace(MwpipeError):
    pass


class PlanInvalid(MwpipeError):
    pass


class ScaleOutOfRange(MwpipeError):
    pass


# -- bag i/o -----------------------------------------------------------------

class CorruptBag(MwpipeError):
    pass


class UnknownMagic(CorruptBag):
    pass


class RateTooSlow(MwpipeError):
    """A paced record is due further off than the clock can wait."""


class OutputError(MwpipeError):
    """An output file cannot be created, as in a directory that does not exist."""


# -- wire --------------------------------------------------------------------

class WireError(MwpipeError):
    pass
