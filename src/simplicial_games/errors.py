"""Exception hierarchy shared by all modules.

Every error carries a stable ``code`` string (used by the CLI as a
machine-parseable prefix) and an ``exit_code``: 2 for parse/configuration
problems, 3 for violated mathematical preconditions.
"""


class SimplicialGamesError(Exception):
    code = "Error"
    exit_code = 3


class ParseError(SimplicialGamesError):
    code = "ParseError"
    exit_code = 2


class FileNotFound(ParseError):
    code = "FileNotFound"


class DimensionMismatch(SimplicialGamesError):
    code = "DimensionMismatch"


class VertexOutOfRange(SimplicialGamesError):
    code = "VertexOutOfRange"


class TooManyVertices(SimplicialGamesError):
    code = "TooManyVertices"


class FaceNotInComplex(SimplicialGamesError):
    code = "FaceNotInComplex"


class EmptyComplex(SimplicialGamesError):
    code = "EmptyComplex"


class VertexNotInComplex(SimplicialGamesError):
    code = "VertexNotInComplex"


class EmptyCoalitionWorth(SimplicialGamesError):
    code = "EmptyCoalitionWorth"


class EmptyCarrierNotAllowed(SimplicialGamesError):
    code = "EmptyCarrierNotAllowed"


class ComplexMismatch(SimplicialGamesError):
    code = "ComplexMismatch"


class GroundSetTooLarge(SimplicialGamesError):
    code = "GroundSetTooLarge"


class NotPureLinks(SimplicialGamesError):
    code = "NotPureLinks"


class HypothesisNotMet(SimplicialGamesError):
    code = "HypothesisNotMet"


class KeyOutsideLink(SimplicialGamesError):
    code = "KeyOutsideLink"


class TooManyPlayers(SimplicialGamesError):
    code = "TooManyPlayers"


class MissingPlayerTable(SimplicialGamesError):
    code = "MissingPlayerTable"


class GameFaceNotInComplex(SimplicialGamesError):
    code = "GameFaceNotInComplex"


class BudgetExceeded(SimplicialGamesError):
    code = "BudgetExceeded"


class ResultTooLong(SimplicialGamesError):
    code = "ResultTooLong"
