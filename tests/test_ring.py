import json
import re

import pytest

from aag.errors import AagError
from aag.ring import derive_attributes, load_ring, ring_from_dict, validate_ring

from conftest import RING_PATH


def test_seed_ring_is_valid(base_ring):
    assert validate_ring(base_ring) == []


def test_version_is_enforced():
    doc = json.loads(RING_PATH.read_text())
    doc["version"] = "something_else"
    with pytest.raises(AagError, match=r"^unsupported ring version: "
                       r"'something_else' \(expected 'ring_schema_v1'\)$"):
        ring_from_dict(doc)


def _mutate(change):
    doc = json.loads(RING_PATH.read_text())
    change(doc)
    return ring_from_dict(doc)


def test_unknown_table_in_join_is_flagged():
    r = _mutate(lambda d: d["joins"][0].update({"left": "nowhere.state_id"}))
    codes = {(v.code, v.path) for v in validate_ring(r)}
    assert ("UnknownTable", "joins.wildfire_state.left") in codes


def test_missing_source_is_flagged():
    def change(d):
        del d["entities"][0]["attributes"][1]["source"]

    r = _mutate(change)
    violations = validate_ring(r)
    assert any(v.code == "MissingSource"
               and v.path == "entities.Wildfire.attributes.size.source"
               for v in violations)


def test_duplicate_attribute_is_flagged():
    def change(d):
        attrs = d["entities"][0]["attributes"]
        attrs.append(dict(attrs[1]))

    r = _mutate(change)
    assert any(v.code == "DuplicateIdentifier" for v in validate_ring(r))


def _fire_year_on_state(d):
    d["entities"][1]["attributes"].append(
        {"name": "fire_year", "types": ["datetime"],
         "source": ["wildfires", "year"]})


def test_source_outside_the_primary_table_is_flagged():
    # plans read an attribute only from its entity's primary table
    assert validate_ring(_mutate(_fire_year_on_state)) == [(
        "ForeignSource", "entities.State.attributes.fire_year.source",
        "attribute 'fire_year' sources table 'wildfires', not its entity's "
        "primary table 'states'")]


def test_broken_join_path_is_flagged():
    def change(d):
        d["relationships"][0]["join_path"] = ["no_such_join"]

    r = _mutate(change)
    assert any(v.code == "BrokenJoinPath" for v in validate_ring(r))


def test_derive_attributes_numeric_gets_all_eight(base_ring):
    r = derive_attributes(base_ring)
    wildfire = r.entity("Wildfire")
    derived = {a.name for a in wildfire.attributes if a.derived}
    size_derived = {n for n in derived if n.endswith("wildfire size")}
    assert size_derived == {
        "average wildfire size", "count wildfire size",
        "count unique wildfire size", "maximum wildfire size",
        "median wildfire size", "minimum wildfire size",
        "standard deviation wildfire size", "sum wildfire size",
    }


def test_derive_attributes_datetime_gets_order_stats_only(base_ring):
    r = derive_attributes(base_ring)
    derived = {a.name for a in r.entity("Wildfire").attributes
               if a.derived and a.base_attribute == "year"}
    assert derived == {"maximum year", "median year", "minimum year"}


def test_derive_attributes_categorical_gets_none(base_ring):
    r = derive_attributes(base_ring)
    assert not any(a.derived and a.base_attribute == "name"
                   for a in r.entity("State").attributes)


def test_derive_attributes_is_idempotent(base_ring):
    once = derive_attributes(base_ring)
    twice = derive_attributes(once)
    assert once == twice


def test_derived_units_follow_the_base(base_ring):
    r = derive_attributes(base_ring)
    avg = r.attribute("Wildfire", "average wildfire size")
    cnt = r.attribute("Wildfire", "count wildfire size")
    assert avg.units == ("acre", "acres")
    assert cnt.units is None


def test_load_ring_rejects_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(AagError, match=rf"^invalid JSON in {re.escape(str(bad))}: "
                                      r"Expecting property name"):
        load_ring(bad)
