"""Exception types raised across the package."""


class CoxhomError(Exception):
    """Base class for every error this package raises deliberately."""


class GraphSyntaxError(CoxhomError):
    """Malformed line in the graph file format; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
