"""Frozen value records without `dataclasses`.

The package's sixteen records were `@dataclass(frozen=True)` classes, and
most of a cold CLI call is the package import.  `dataclasses` pulls in
`inspect`, `ast`, `dis` and `tokenize` (about 10 ms), and each decorator
compiled its generated methods with `exec` while its module loaded.
`Record` keeps the records' behaviour with plain methods: importing the
package from source fell from 71-75 ms to 48-49 ms (medians of 15
`-X importtime` runs, Python 3.11, 2 CPUs, no bytecode cache).

A subclass's fields are the names annotated in its class body, in order.
A class attribute is a field's default.  A subclass may define its own
`__init__`, which sets the fields with `object.__setattr__`; instances
keep a `__dict__`, so `functools.cached_property` works on them.
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = fields = tuple(cls.__annotations__)
        get = attrgetter(*fields)
        # attrgetter of one name gives the value itself, not a 1-tuple
        cls._values = staticmethod(get if len(fields) != 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, not {len(args)}")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected fields {sorted(kwargs)}")
        self.__dict__.update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"
