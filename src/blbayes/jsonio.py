"""Deterministic JSON output: insertion-ordered keys, floats at 17
significant digits, no dependence on interpreter hash state. JSON has no
literal for a non-finite float, so one is a :class:`NumericalError` that
names its field."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NumericalError


def _emit(value, pad: str, path: str) -> str:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for k, v in value.items():
            field = f"{path}.{k}" if path else str(k)
            items.append(f"{inner}{json.dumps(str(k))}: {_emit(v, inner, field)}")
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [f"{inner}{_emit(v, inner, f'{path}[{i}]')}" for i, v in enumerate(value)]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NumericalError(f"{path or 'output'}: {value} is not a finite number")
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Serialize with stable bytes and a two-space indent: same input, same output."""
    return _emit(obj, "", "") + "\n"
