"""Exception types shared across the package."""


class CapacityError(Exception):
    """Instance exceeds a documented desk-scale capacity limit."""


class NoWitnessFound(Exception):
    """Antipodal witness search exhausted every cell without success.

    ``certified`` records whether the cell enumeration was provably exhaustive;
    only a certified failure contradicts the underlying covering argument.
    """

    def __init__(self, message: str, certified: bool):
        super().__init__(message)
        self.certified = certified
