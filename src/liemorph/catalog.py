"""Registry of the built-in groups and algebras the CLI can construct."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

from . import groups


@dataclass(frozen=True)
class BuiltinSpec:
    name: str
    description: str
    params: tuple            # of (param name, type name, constraint text, default or None)
    build: callable
    construction_kind: str | None = None   # first-construction kind, if any


BUILTINS = (
    BuiltinSpec(
        "N",
        "upper-triangular unipotent n x n matrices (nilpotent), trace metric",
        (("n", "int", "n >= 2", None),),
        groups.build_N,
        construction_kind="N",
    ),
    BuiltinSpec(
        "H",
        "Heisenberg group of dimension 2n+1, trace metric",
        (("n", "int", "n >= 1", None),),
        groups.build_H,
        construction_kind="H",
    ),
    BuiltinSpec(
        "K",
        "nilpotent group of dimension n+1 with a single filiform-type generator, trace metric",
        (("n", "int", "n >= 2", None),),
        groups.build_K,
        construction_kind="K",
    ),
    BuiltinSpec(
        "S",
        "upper-triangular n x n matrices with positive diagonal (solvable), trace metric",
        (("n", "int", "n >= 2", None),),
        groups.build_S,
        construction_kind="S",
    ),
    BuiltinSpec(
        "G3",
        "solvable 3-d group, generator acting on the plane by alpha*I + beta*rotation; "
        "orthonormal declared basis",
        (("alpha", "float", "(alpha, beta) != (0, 0)", None),
         ("beta", "float", "", 0.0)),
        groups.build_G3,
    ),
    BuiltinSpec(
        "G_alpha",
        "solvable 3-d group, generator acting on the plane with eigenvalues alpha and -1; "
        "orthonormal declared basis",
        (("alpha", "float", "", None),),
        groups.build_Galpha,
    ),
    BuiltinSpec(
        "damek_ricci",
        "solvable algebra v + z + a with Heisenberg-type nilradical; algebra only",
        (("dim_v", "int", "dim_v >= 1", None),
         ("dim_z", "int", "dim_z >= 1", None)),
        groups.build_damek_ricci,
    ),
)

BY_NAME = {spec.name: spec for spec in BUILTINS}


def list_builtins() -> list[dict]:
    """Catalog rows for reports and the --list flag."""
    out = []
    for spec in BUILTINS:
        out.append({
            "name": spec.name,
            "description": spec.description,
            "params": [{"name": p[0], "type": p[1], "constraint": p[2],
                        **({"default": p[3]} if p[3] is not None else {})}
                       for p in spec.params],
            "construction_kind": spec.construction_kind,
        })
    return out


def _is_int(value) -> bool:
    """A JSON integer; ``true``/``false`` are not numbers even though bool is an int."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A JSON number that is a finite float; ``true``/``false`` are not numbers."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def build(name: str, params: dict):
    """(algebra, realization or None) for a catalog entry; params of the declared types.

    A parameter left out takes its default from the params table.
    """
    if name not in BY_NAME:
        raise KeyError(f"unknown builtin {name!r}; available: {sorted(BY_NAME)}")
    spec = BY_NAME[name]
    if not isinstance(params, dict):
        raise TypeError(f"builtin {name}: params must be an object")
    unknown = set(params) - {p[0] for p in spec.params}
    if unknown:
        raise ValueError(f"builtin {name}: unknown parameters {sorted(unknown)}")
    missing = [p[0] for p in spec.params if p[3] is None and p[0] not in params]
    if missing:
        raise ValueError(f"builtin {name}: missing parameters {missing}")
    args = {}
    for param, type_name, _, default in spec.params:
        value = params.get(param, default)
        if not (_is_int if type_name == "int" else _is_finite)(value):
            raise TypeError(f"builtin {name}: parameter {param} must be "
                            f"{'an integer' if type_name == 'int' else 'a finite number'}, "
                            f"got {value!r}")
        args[param] = value if type_name == "int" else float(value)
    return spec.build(**args)
