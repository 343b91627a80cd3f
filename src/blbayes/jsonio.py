"""Deterministic JSON output: insertion-ordered keys, floats at 17
significant digits, no dependence on interpreter hash state."""

from __future__ import annotations

import json
import math

import numpy as np


def to_jsonable(value):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _emit(value, indent: int, pad: str) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + " " * indent
        items = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent, inner)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = pad + " " * indent
        items = [f"{inner}{_emit(v, indent, inner)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("refusing to serialize a non-finite float")
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize with stable bytes: same input, same output, always."""
    return _emit(to_jsonable(obj), indent, "") + "\n"
