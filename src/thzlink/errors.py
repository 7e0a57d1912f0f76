"""Exception types and warning categories raised by this package."""


class ThzLinkError(Exception):
    """Base class for all errors raised by thzlink."""


# --- catalog -------------------------------------------------------------

class CatalogError(ThzLinkError):
    pass


class WrongRecordLength(CatalogError):
    def __init__(self, expected: int, actual: int):
        super().__init__(f"record is {actual} characters, expected {expected}")
        self.expected = expected
        self.actual = actual


class UnparseableField(CatalogError):
    def __init__(self, field: str, start: int, stop: int, text: str):
        super().__init__(
            f"field {field!r} (columns {start + 1}-{stop}) cannot be parsed "
            f"from {text!r}"
        )
        self.field = field
        self.columns = (start, stop)
        self.text = text


class UnknownIsotopologue(CatalogError):
    def __init__(self, molecule_id: int, isotopologue_id: int):
        super().__init__(
            f"no abundance entry for molecule {molecule_id}, "
            f"isotopologue {isotopologue_id}"
        )
        self.molecule_id = molecule_id
        self.isotopologue_id = isotopologue_id


class IoFailure(ThzLinkError):
    """The catalog file cannot be read, or its data is not ASCII text."""


class EmptyCatalogWarning(UserWarning):
    """Zero lines matched the load filter."""


# --- arguments and computation -------------------------------------------

class InvalidRange(ThzLinkError, ValueError):
    """A value outside the range its quantity allows, a value of a kind
    that has no data (a species, a modulation scheme), or arguments that do
    not match each other."""


class NonFiniteAbsorption(ThzLinkError):
    """A catalog line whose absorption in a layer is not finite, or whose
    collision half-width there is not positive (it underflowed)."""


# --- geometry ------------------------------------------------------------

class GeometryError(ThzLinkError):
    pass


class DegenerateGeometry(GeometryError):
    pass


# --- configuration -------------------------------------------------------

class ConfigError(ThzLinkError):
    def __init__(self, message: str, field: str | None = None,
                 line: int | None = None):
        where = ""
        if line is not None:
            where += f"line {line}: "
        if field is not None:
            where += f"field {field!r}: "
        super().__init__(where + message)
        self.message = message
        self.field = field
        self.line = line
