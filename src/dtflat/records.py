"""The one initializer of the result records, written once, not generated."""


class Record:
    """A record's fields are the names in its class's ``__slots__``.  The
    initializer takes each by keyword, or from the class's ``defaults``
    when it is left out, and raises TypeError naming a field that is
    missing or unknown.  Records compare and hash by identity."""

    __slots__ = ()
    defaults: dict = {}

    def __init__(self, **fields):
        cls = type(self)
        for name in cls.__slots__:
            if name in fields:
                value = fields.pop(name)
            elif name in cls.defaults:
                value = cls.defaults[name]
            else:
                raise TypeError(f"{cls.__name__} needs the field {name!r}")
            # object's setter, so that a frozen record can be built too
            object.__setattr__(self, name, value)
        if fields:
            raise TypeError(f"{cls.__name__} has no field "
                            f"{next(iter(fields))!r}")
