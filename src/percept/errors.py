"""Exception types shared across the engine."""


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""


class CyclicModelError(ScenarioError):
    """The part-of relation over model nodes contains a cycle."""


class UnknownIdError(KeyError):
    """A lookup referenced an id that does not exist."""

    def __str__(self):  # KeyError quotes its payload; keep messages readable
        return self.args[0] if self.args else ""


class PolytreeError(ValueError):
    """A link would break the singly connected structure of the net."""


class InconsistentEvidenceError(ValueError):
    """Attached evidence is impossible under the current net."""


class UnsupportedConfigurationError(ValueError):
    """An action cannot bear on the requested parent hypothesis."""


class UnvaluedAncestorError(ValueError):
    """Value recursion reached an ancestor with no assigned value."""
