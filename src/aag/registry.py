"""The operation registry: every analytic operation with its typed signature.

Signatures are data, not code: each row lists input slots (arity range plus
the attribute kinds accepted) and the fixed output kind set. The registry is
closed, and its rows are never mutated.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import AagError
from .types import ATTRIBUTE_LIKE, AttributeType as T, TypeSet, typeset

# Sentinel sets used by signatures. "Attribute" means any attribute-valued
# input; "AttributeCollection" additionally accepts a single attribute, which
# is treated as a one-column collection.
ATTRIBUTE = frozenset({"__attribute__"})
ATTRIBUTE_COLLECTION = frozenset({"__collection__"})


def spec_accepts(allowed: frozenset, value_types: TypeSet) -> bool:
    if allowed is ATTRIBUTE:
        return bool(value_types & ATTRIBUTE_LIKE)
    if allowed is ATTRIBUTE_COLLECTION:
        return T.ATTRIBUTE_COLLECTION in value_types or bool(
            value_types & ATTRIBUTE_LIKE
        )
    return bool(value_types & allowed)


def describe_allowed(allowed: frozenset) -> set:
    if allowed is ATTRIBUTE:
        return {"attribute"}
    if allowed is ATTRIBUTE_COLLECTION:
        return {"attribute collection"}
    return {t.value for t in allowed}


class InputSpec(NamedTuple):
    min_arity: int
    max_arity: int | None  # None = unbounded
    allowed: frozenset


class OperationSignature(NamedTuple):
    name: str
    op_type: str  # Aggregation | Boolean | Arithmetic | DataOperation | Retrieval
    inputs: tuple[InputSpec, ...]
    output: TypeSet
    nicename: str

    @property
    def is_aggregation(self) -> bool:
        return self.op_type == "Aggregation"


def _sig(name, op_type, inputs, output, nicename=None):
    return OperationSignature(
        name=name,
        op_type=op_type,
        inputs=tuple(InputSpec(*i) for i in inputs),
        output=output,
        nicename=nicename or name.replace("_", " "),
    )


_AM = typeset(T.ARITHMETIC, T.METRIC)
_AMD = typeset(T.ARITHMETIC, T.METRIC, T.DATETIME)
_GROUPING = typeset(T.GROUPING)
_FILTER = typeset(T.FILTER)
_STRING = typeset(T.STRING)

_ROWS = [
    # aggregations: one value slot plus an optional grouping
    _sig("average", "Aggregation", [(1, 1, _AM), (0, 1, _GROUPING)], _AM),
    _sig("correlation", "Aggregation", [(2, 2, _AMD), (0, 1, _GROUPING)], _AMD),
    _sig("count", "Aggregation", [(1, 1, _AM), (0, 1, _GROUPING)], _AM),
    _sig("count_unique", "Aggregation", [(1, 1, _AM), (0, 1, _GROUPING)], _AM,
         nicename="count unique"),
    _sig("get_one", "Aggregation", [(1, 1, _AMD), (0, 1, _GROUPING)], _AMD,
         nicename="one value of"),
    _sig("max", "Aggregation", [(1, 1, _AMD), (0, 1, _GROUPING)], _AMD,
         nicename="maximum"),
    _sig("median", "Aggregation", [(1, 1, _AMD), (0, 1, _GROUPING)], _AMD),
    _sig("min", "Aggregation", [(1, 1, _AMD), (0, 1, _GROUPING)], _AMD,
         nicename="minimum"),
    _sig("standard_deviation", "Aggregation", [(1, 1, _AM), (0, 1, _GROUPING)], _AM,
         nicename="standard deviation"),
    _sig("string_agg", "Aggregation", [(1, 1, _AMD), (0, 1, _GROUPING)], _AMD,
         nicename="list of"),
    _sig("sum", "Aggregation", [(1, 1, typeset(T.ARITHMETIC)), (0, 1, _GROUPING)], _AM),
    # boolean operations produce filters
    _sig("and", "Boolean", [(1, None, _FILTER)], _FILTER),
    _sig("exact", "Boolean",
         [(2, 2, typeset(T.ARITHMETIC, T.METRIC, T.CATEGORICAL, T.STRING,
                         T.DATETIME, T.IDENTIFIER))],
         _FILTER),
    _sig("greater_than", "Boolean", [(2, 2, _AMD)], _FILTER, nicename="greater than"),
    _sig("greater_than_eq", "Boolean", [(2, 2, _AMD)], _FILTER,
         nicename="greater than or equal"),
    _sig("less_than", "Boolean", [(2, 2, _AMD)], _FILTER, nicename="less than"),
    _sig("less_than_eq", "Boolean", [(2, 2, _AMD)], _FILTER,
         nicename="less than or equal"),
    _sig("not", "Boolean", [(1, 1, _FILTER)], _FILTER),
    _sig("or", "Boolean", [(1, None, _FILTER)], _FILTER),
    # arithmetic
    _sig("absolute_value", "Arithmetic", [(1, 1, _AM)], _AM, nicename="absolute value of"),
    _sig("add", "Arithmetic", [(2, None, _AM)], _AMD, nicename="sum of"),
    _sig("divide", "Arithmetic", [(2, None, _AM)], _AMD, nicename="ratio of"),
    _sig("duration", "Arithmetic",
         [(1, 1, typeset(T.DATETIME)), (1, 1, typeset(T.DATETIME))], _AM),
    _sig("multiply", "Arithmetic", [(2, None, _AM)], _AMD, nicename="product of"),
    _sig("percent_change", "Arithmetic", [(2, 2, _AM)], _AM, nicename="percent change"),
    _sig("square_root", "Arithmetic", [(1, 1, _AMD)], _AMD, nicename="square root of"),
    _sig("subtract", "Arithmetic", [(2, None, _AMD)], _AMD, nicename="difference of"),
    # data operations
    _sig("collect", "DataOperation", [(1, None, ATTRIBUTE)],
         typeset(T.ATTRIBUTE_COLLECTION)),
    _sig("groupby", "DataOperation", [(1, None, typeset(T.CATEGORICAL, T.DATETIME))],
         _GROUPING),
    _sig("limit", "DataOperation", [(1, 1, ATTRIBUTE)], typeset(T.LIMIT)),
    _sig("return", "DataOperation",
         [(1, 1, ATTRIBUTE_COLLECTION), (0, 1, _FILTER), (0, 1, typeset(T.SORT)),
          (0, 1, typeset(T.LIMIT))],
         typeset(T.ENTITY)),
    _sig("row_number", "DataOperation", [(1, 1, typeset(T.SORT))], typeset(T.ROW_NUM),
         nicename="rank"),
    _sig("sort", "DataOperation", [(1, None, ATTRIBUTE), (1, 1, _STRING)],
         typeset(T.SORT)),
    # retrieval
    _sig("retrieve_attribute", "Retrieval",
         [(1, 1, typeset(T.ENTITY)), (1, 1, _STRING)], frozenset()),
    _sig("retrieve_entity", "Retrieval", [(1, 1, _STRING)], typeset(T.ENTITY)),
]

REGISTRY: dict[str, OperationSignature] = {r.name: r for r in _ROWS}

# Aggregations applied when deriving attributes: every aggregation row except
# the ones whose result is not usable as a metric (one-value picks and string
# joins) and the binary correlation.
DERIVATION_AGGREGATIONS = (
    "average",
    "count",
    "count_unique",
    "max",
    "median",
    "min",
    "standard_deviation",
    "sum",
)

# Aggregations whose result is in the units of their input.
UNIT_KEEPING_AGGREGATIONS = frozenset({
    "average", "get_one", "max", "median", "min", "standard_deviation", "sum",
})


def get_signature(name: str) -> OperationSignature:
    return REGISTRY[name]  # plans, templates and requests admit known ops


def match_args(sig: OperationSignature, label: str,
               arg_types: list[TypeSet]) -> list[int]:
    """Assign each argument to an input slot of the signature.

    Returns the slot index for each argument, in order. Required slots consume
    arguments unconditionally and raise on a kind mismatch; optional and
    variable slots consume arguments only while they match.
    """
    def mismatch(spec: InputSpec, found: TypeSet) -> AagError:
        return AagError(f"step {label}: expected input in "
                        f"{sorted(describe_allowed(spec.allowed))}, "
                        f"found {sorted(t.value for t in found)}")

    assignment: list[int] = []
    pos = 0
    n = len(arg_types)
    specs = sig.inputs
    for si, spec in enumerate(specs):
        taken = 0
        # required portion
        while taken < spec.min_arity:
            if pos >= n:
                raise AagError(f"step {label}: operation {sig.name!r} needs "
                               f"more arguments")
            if not spec_accepts(spec.allowed, arg_types[pos]):
                raise mismatch(spec, arg_types[pos])
            assignment.append(si)
            pos += 1
            taken += 1
        # optional portion, greedy but leaving enough for later required slots
        min_rest = sum(s.min_arity for s in specs[si + 1:])
        while (pos < n
               and (spec.max_arity is None or taken < spec.max_arity)
               and (n - pos) > min_rest
               and spec_accepts(spec.allowed, arg_types[pos])):
            assignment.append(si)
            pos += 1
            taken += 1
    if pos != n:
        # if some slot still had capacity, the leftover argument failed on
        # kind, not on count
        counts = [assignment.count(i) for i in range(len(specs))]
        for si, spec in enumerate(specs):
            if spec.max_arity is None or counts[si] < spec.max_arity:
                raise mismatch(spec, arg_types[pos])
        raise AagError(f"step {label}: operation {sig.name!r} got {n - pos} "
                       f"extra argument(s)")
    return assignment
