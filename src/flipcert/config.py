"""Key=value config blocks with a stable byte form and a content hash, and
the one declaration of each config field.

Keys are sorted, one `key=value` per line, LF endings, no escaping: values
must not contain newlines or a leading/trailing space that matters.  The
hash is sha256 over the exact serialized block, so any config drift is
detectable in artifacts that embed it.

A config field is declared once, as an `Option`: default, range or
choices, flag and error label.  The config classes' checks, their flags
and a certificate's config block all read that declaration.
"""

from __future__ import annotations

import hashlib
from copy import copy
from math import inf

from .errors import MalformedEncoding, UsageError


def format_config(pairs: dict[str, object]) -> str:
    lines = []
    for key in sorted(pairs):
        value = pairs[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        text = str(value)
        if "\n" in key or "=" in key or "\n" in text:
            raise MalformedEncoding(f"unserializable config entry {key!r}")
        lines.append(f"{key}={text}")
    return "".join(line + "\n" for line in lines)


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MalformedEncoding(f"config line {lineno} has no '='")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise MalformedEncoding(f"duplicate config key {key!r}")
        out[key] = value.strip()
    return out


def config_hash(pairs: dict[str, object]) -> str:
    return hashlib.sha256(format_config(pairs).encode()).hexdigest()


def parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise MalformedEncoding(f"expected true/false, got {text!r}")


# ---------------------------------------------------------------------------
# declared config fields


class Option:
    """One config field, declared once: its default, the label its errors
    use, its flag and argparse dest (by default the flag's own), and its
    allowed values, a closed range lo..hi (hi None: no ceiling) or
    `choices`, which bind each entry of a tuple field.  A class under
    `declare` takes it as a field's default and lists it in `declared`,
    which its `_check`, `add_flags`, `given` and `from_args` read."""

    __slots__ = ("default", "label", "flag", "dest", "lo", "hi", "choices")

    def __init__(self, default, label, flag=None, dest=None, lo=None, hi=None, choices=None):
        self.default, self.label, self.flag = default, label, flag
        self.dest = dest or flag and flag.lstrip("-").replace("-", "_")
        self.lo, self.hi, self.choices = lo, hi, choices

    def replace(self, **changes) -> "Option":
        new = copy(self)
        for name, value in changes.items():
            setattr(new, name, value)
        return new

    def span(self) -> str:
        return f">= {self.lo}" if self.hi is None else f"{self.lo}..{self.hi}"

    def refuse(self, value) -> UsageError:
        if self.choices is not None:
            return UsageError(f"unknown {self.label} {value!r}")
        return UsageError(f"{self.label} must be {self.span()}, got {value}")


# an enumerated class's size measure and its bound, shared by
# pit.EnumeratedClass and obstruction.CertConfig
REGIME = Option("size", "regime", "--regime", choices=("size", "bitsize"))
BOUND = Option(3, "class bound", "--bound", lo=1)


def declare(**required: Option):
    """Class decorator, applied under @dataclass: each class attribute that
    is an Option becomes its field's default, and `required` gives the
    options of fields with no default (their declared default serves their
    flag alone).  The class lists its options by field name, in field order,
    in `declared`.  Its `_check()` tests an instance against every declared
    range and choice; each `__post_init__` calls it, then adds its
    cross-field rules."""

    def apply(cls):
        cls.declared, cls._check = {}, _first_check
        for name in cls.__annotations__:
            opt = required.get(name) or vars(cls).get(name)
            if isinstance(opt, Option):
                cls.declared[name] = opt
                if name not in required:
                    setattr(cls, name, opt.default)
        return cls

    return apply


def _first_check(obj) -> None:
    """Builds the check of obj's class on its first instance, then runs it:
    (name, lo, hi) for each range, (name, choices) for each choice, and the
    same for each tuple field whose entries the choices bind."""
    cls = type(obj)
    ranges, choices, entries = [], [], []
    for name, opt in cls.declared.items():
        if opt.lo is not None:
            ranges.append((name, opt.lo, inf if opt.hi is None else opt.hi))
        elif opt.choices:
            (entries if isinstance(opt.default, tuple) else choices).append((name, opt.choices))

    def check(obj) -> None:
        for name, lo, hi in ranges:
            if not lo <= getattr(obj, name) <= hi:
                raise cls.declared[name].refuse(getattr(obj, name))
        for name, allowed in choices:
            if getattr(obj, name) not in allowed:
                raise cls.declared[name].refuse(getattr(obj, name))
        for name, allowed in entries:
            for value in getattr(obj, name):
                if value not in allowed:
                    raise cls.declared[name].refuse(value)

    cls._check = check
    check(obj)


def add_flag(parser, opt: Option, required: bool = False) -> None:
    """An omitted flag reads None, so the declared default applies; a bool
    flag turns it over.  The help is the declared range."""
    if isinstance(opt.default, bool):
        parser.add_argument(opt.flag, action="store_true", dest=opt.dest, default=None)
    else:
        parser.add_argument(opt.flag, dest=opt.dest, required=required, choices=opt.choices,
                            type=None if opt.choices else type(opt.default),
                            help=None if opt.lo is None else opt.span())


def add_flags(parser, cls, skip=()) -> None:
    for name, opt in cls.declared.items():
        if opt.flag and name not in skip:
            add_flag(parser, opt)


def given(cls, args) -> dict[str, object]:
    """The declared fields of `cls` whose flag the parsed `args` set."""
    out = {}
    for name, opt in cls.declared.items():
        value = getattr(args, opt.dest, None) if opt.flag else None
        if value is not None:  # a bool flag reads True when set
            out[name] = (not opt.default) if value is True else value
    return out


def from_args(cls, args, **fixed):
    """`cls` from its declared defaults, the flags `args` set and `fixed`."""
    values = {name: opt.default for name, opt in cls.declared.items()}
    return cls(**{**values, **given(cls, args), **fixed})
