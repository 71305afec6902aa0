"""The two roots of every minigp error.

`InputError` is input that is not a well-formed machine, rule, program,
host graph, configuration or argument; `RunError` is a run that fails,
overruns its budget or contradicts the machine it simulates.  Being a
`ValueError` and a `RuntimeError` respectively, each is also caught
where the builtin it extends is.
"""


class InputError(ValueError):
    """Malformed text, machine, rule, configuration or argument."""


class RunError(RuntimeError):
    """A run failed, overran its budget or diverged from the machine."""


class ParseError(InputError):
    """Malformed machine, graph, rule or program text."""
