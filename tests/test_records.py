"""The records of ``aag`` keep their semantics: which fields count for
equality, and that no function changes a record it is given
(``test_llm::test_config_validation`` pins that a generation config is
checked when it is built). The package defines them without
``dataclasses``, so that importing the CLI loads neither it nor
``inspect``.
"""

import ast
import copy
import os
import subprocess
import sys

from conftest import REPO
from aag.blueprints import parse_request
from aag.compiler import CompiledQuery
from aag.plans import Param, SlotArg, StepRef
from aag.ring import derive_attributes
from aag.types import DatetimeValue


def test_param_equality_and_hash_ignore_its_name():
    assert Param("target", 5) == Param("filter0", 5)
    assert hash(Param("target", 5)) == hash(Param("filter0", 5))
    assert Param("target", 5) != Param("target", 6)
    assert repr(Param("target", 5)) == "Param(name='target', value=5)"


def test_argument_kinds_never_compare_equal():
    kinds = [StepRef("a"), SlotArg("a"), Param("a", "a"), DatetimeValue("a"),
             "a", ("a",)]
    for i, x in enumerate(kinds):
        for j, y in enumerate(kinds):
            assert (x == y) == (i == j), (x, y)
            assert (x != y) == (i != j), (x, y)
    assert len(set(kinds)) == len(kinds)
    assert StepRef("a") == StepRef("a") and hash(StepRef("a")) == hash(
        StepRef("a"))
    assert repr(DatetimeValue("2020-01-01")) == \
        "DatetimeValue(iso='2020-01-01')"


def test_compiled_query_equality_ignores_its_shape():
    shape = CompiledQuery("SELECT ?1", [Param("target", 1)], [], [], [])
    bound = CompiledQuery("SELECT ?1", [1], [], [], [], shape=shape)
    assert bound == CompiledQuery("SELECT ?1", [1], [], [], [])
    assert repr(bound) == repr(CompiledQuery("SELECT ?1", [1], [], [], []))
    assert bound != shape


def test_mapping_a_request_leaves_it_unchanged():
    request = parse_request({
        "version": "report_request_v1", "report": "time_over_time",
        "entity": "Wildfire", "metric": "size", "aggregation": "average",
        "cohort": {"entity": "State", "key": "name"}, "target": "California",
        "filters": [{"attribute": "size", "op": "greater_than", "value": 1}],
        "period": {"attribute": "year", "start": 2019, "end": 2020}})
    before = copy.deepcopy(request)
    mapped = request.mapped(lambda name, value: name)
    assert request == before
    assert (mapped.target, mapped.filters[0]["value"]) == ("target", "filter0")
    assert mapped.filters[0]["op"] == "greater_than"


def test_deriving_attributes_leaves_the_ring_unchanged(base_ring):
    before = copy.deepcopy(base_ring)
    derived = derive_attributes(base_ring)
    assert base_ring == before
    assert derived != base_ring
    assert derive_attributes(derived) == derived
    assert not any(a.derived for e in base_ring.entities
                   for a in e.attributes)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, aag.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path)).stdout
    assert out.strip() == "[]"


def test_no_module_of_the_package_imports_dataclasses():
    importers = []
    for path in sorted((REPO / "src" / "aag").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "dataclasses" for n in names):
                importers.append(path.name)
    assert importers == []
