"""A generator whose next few integers and random calls are scripted."""


class Scripted:
    """Wraps rng: the next calls of integers and of random return the
    given values in turn, whatever their arguments; every other call,
    and each one after its script runs out, goes to rng.

    An operator's choice scripted this way draws nothing from rng, so
    every later draw is the one rng would have made next.
    """

    def __init__(self, rng, integers=(), random=()):
        self._rng = rng
        self._script = {"integers": list(integers), "random": list(random)}

    def __getattr__(self, name):
        values = self._script.get(name)
        if values:
            return lambda *args, **kwargs: values.pop(0)
        return getattr(self._rng, name)
