"""Value checks of configs, checkpoints and datasets; imports nothing from covstim."""

import json
import math
import sys


def parse_json(text: str, source) -> object:
    """``json.loads`` of text read from source; a malformed text (json's JSONDecodeError)
    and nesting too deep for the decoder (its RecursionError) raise ValueError naming source."""
    try:
        return json.loads(text)
    except (RecursionError, json.JSONDecodeError) as err:
        raise ValueError(f"{err} in {source}") from None


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max


# ``shown``'s kind for a JSON value: a list or an object is named by its type, any other shown.
JSON_SCALARS = (str, int, float, bool, type(None))


def shown(value, kind=str, most: int = 42) -> str:
    """value for a message "<setting> must be <what>, got <value>", in bounded length:
    a string quoted, cut so its quoted form (escapes included) is at most ``most`` characters,
    and followed by "..." if cut, an int of 21 digits or more by its size, and a value
    not of kind, or a bool unless kind is JSON_SCALARS, by its type's name."""
    if isinstance(value, bool) and kind is not JSON_SCALARS or not isinstance(value, kind):
        return type(value).__name__
    if isinstance(value, str):
        cut = value[:most - 2]
        while len(repr(cut)) > most:
            cut = cut[:-1]
        return repr(cut) + "..." * (cut != value)
    if isinstance(value, int) and abs(value) >= 10**20:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


def check_int(name: str, value, least: int, most=math.inf) -> None:
    """Raise ValueError naming the setting unless value is an int in least..most."""
    if not (is_int(value) and least <= value <= most):
        what = f">= {least}" if most == math.inf else f"in {least}..{most}"
        kind = "" if is_int(value) else "an integer "
        raise ValueError(f"{name} must be {kind}{what}, got {shown(value, int)}")


def check_positive(name: str, value) -> float:
    """value as a float; raise ValueError naming the setting unless it is a finite number > 0."""
    if not (is_finite_number(value) and value > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {shown(value, (int, float))}")
    return float(value)


def check_str(name: str, value, choices=()) -> None:
    """Raise ValueError naming the setting unless value is a string in choices (if any)."""
    if not (isinstance(value, str) and (not choices or value in choices)):
        what = f"one of {', '.join(map(repr, choices))}" if choices else "a string"
        raise ValueError(f"{name} must be {what}, got {shown(value)}")
