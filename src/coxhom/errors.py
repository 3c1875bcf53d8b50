"""Exception types raised across the package."""


class CoxhomError(Exception):
    """Base class for every error this package raises deliberately."""


class GraphSyntaxError(CoxhomError):
    """Error in a graph file; carries the 1-based number of the line at fault."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
