"""Semantics pinned identically for the SQL compiler and the in-memory oracle.

Both evaluators implement these rules but share no evaluation code; their
agreement on every plan is the core correctness property of the engine.

* Standard deviation is the population one (divide by n), not the sample one.
* The median of an even-length sequence is the mean of the two middle values.
* Comparisons where either side is NULL/None evaluate to filter-false.
* ``not`` negates that two-valued result: not of a NULL comparison is true.
* Aggregations skip NULL/None inputs.
* get_one returns the first value under ascending sort of the value itself.
* String aggregation sorts ascending and joins with ``STRING_AGG_SEPARATOR``.
* Explicit sorts are made total by appending the remaining output columns of
  the sorted relation, ascending, in schema order. For the shipped plan
  shapes this equals tie-breaking on the entity identifier ascending.
* Relations without an explicit sort are emitted in ascending order of all
  output columns, so results are canonical without post-hoc sorting.
* percent_change(start, end) = ``PERCENT_CHANGE_SCALE`` * (end - start) /
  start; undefined (NULL) when start is zero.
* duration(start, end) = whole seconds from start to end, rounded to nearest.
* Variadic arithmetic (add, subtract, multiply, divide) folds left over all
  its arguments; division by zero is NULL.
"""

STRING_AGG_SEPARATOR = ", "

PERCENT_CHANGE_SCALE = 100.0
