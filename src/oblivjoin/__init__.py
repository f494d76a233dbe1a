"""Data-oblivious equi-join engine.

Joins two tables in O((n1+n2) log^2(n1+n2) + m log m) public-memory
operations while keeping the access sequence a pure function of the
public sizes (n1, n2, m).  Ships with a trace-verification harness,
cost accounting, baselines, and a CLI (`oblivjoin`).
"""

from .entries import (AugEntry, null_entry, ct_select, ct_eq,
                      ct_select_entry, lex_compare, KEY_J_TID,
                      KEY_TID_J_D, KEY_F, KEY_NONNULL_F, KEY_J_II)
from .trace import (READ, WRITE, TraceEvent, TraceSink, NullSink, LogSink,
                    HashSink, PublicArray, alloc, OutOfBoundsError)
from .primitives import (compare_exchange, bitonic_sort,
                         oblivious_distribute, oblivious_expand,
                         DistributeCollisionError)
from .prp import SmallDomainPrp, prp_distribute
from .pipeline import (JoinResult, augment_tables, fill_dimensions,
                       align_table, oblivious_join)
from .baseline import nested_loop_join, sort_merge_join, sorted_pairs
from .harness import (SHAPES, InfeasibleShapeError, TestClass,
                      gen_test_class, ClassVerdict, verify_trace_class,
                      CostBreakdown, cost_report, NETWORK_PHASES,
                      BenchRow, bench, bench_csv, make_distribute_input,
                      placement_uniformity)
from .tablefile import (TableFileError, parse_table_text, parse_table_file,
                        format_table_text)

__version__ = "0.1.0"
