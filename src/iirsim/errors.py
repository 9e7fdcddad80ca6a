class SimError(Exception):
    """Base class for all simulator errors."""


class InvalidScenario(SimError):
    pass


class DisconnectedTopology(SimError):
    pass


class NoRoute(SimError):
    pass


class StaleReading(SimError):
    pass


class EmptyTrainingSet(SimError):
    pass


class ScenarioParseError(SimError):
    """Base for scenario-file parse failures."""


class UnknownKey(ScenarioParseError):
    pass


class MalformedLine(ScenarioParseError):
    pass


class InvalidValue(ScenarioParseError):
    pass
