"""The output format: one encoder from result objects to JSON-ready values.

Every document the CLI prints or writes once per run (theory report, ensemble
summary, ground-state constants, dichotomy classification) goes through
`plain`, so adding a schema field means declaring a dataclass field.  The
layouts are listed in docs/SCHEMA.md.  This module imports nothing from the
package, so every module may use it.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = ["plain"]


def plain(obj):
    """obj as dicts, lists, strings, numbers, booleans and None.

    Dataclasses become dicts of their fields in declaration order, leaving out
    fields declared with metadata={"serialize": False}; dicts are encoded value
    by value; tuples, lists and arrays become lists; numpy scalars become Python
    numbers; an infinite float becomes the string "inf".
    """
    if is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("serialize", True)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        # tolist already gives Python numbers; walk the elements only to replace inf
        return [plain(v) for v in obj.tolist()] if np.isinf(obj).any() else obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj
