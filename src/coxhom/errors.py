"""Exception types raised across the package, and how their messages echo input."""

# Longest user token an error message echoes whole.
ECHO_LIMIT = 40


class CoxhomError(Exception):
    """Base class for every error this package raises deliberately."""


class GraphSyntaxError(CoxhomError):
    """Error in a graph file; carries the 1-based number of the line at fault."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def echo(token: str, quote: bool = True) -> str:
    """A user token as an error message shows it: its repr (the token itself
    unless ``quote``), cut to the first ECHO_LIMIT characters and its length."""
    if len(token) <= ECHO_LIMIT:
        return repr(token) if quote else token
    head = token[:ECHO_LIMIT]
    return f"{repr(head) if quote else head}... ({len(token)} characters)"
