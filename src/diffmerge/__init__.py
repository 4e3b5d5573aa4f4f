"""Line-based diff and merge engines and a commit DAG."""

from .core import (
    Change,
    ChangedLines,
    DiffError,
    InternedSequence,
    InternTable,
    InvalidFlags,
    RangeError,
    apply_script,
    flags_to_script,
    render_unified,
)
from .engine import ALGORITHMS, diff_lines
from .graph import (
    Commit,
    CommitGraph,
    GraphError,
    MergeResult,
    MergeStats,
    MultiParent,
    RebaseResult,
    UnknownCommit,
    build_exponential_graph,
    cherry_pick,
    graph_from_jsonl,
    lowest_common_ancestors,
    merge_commits,
    rebase,
    revert,
)
from .histogram import diff_histogram
from .merge3 import (
    CONFLICT,
    LEFT,
    RIGHT,
    SAME,
    InvariantViolation,
    MergeOptions,
    MergeOutcome,
    MergeRegion,
    merge3,
)
from .myers import diff_myers
from .patience import diff_patience
from .slider import slide_changed_lines

__version__ = "0.1.0"

__all__ = [
    # core
    "Change", "ChangedLines", "DiffError", "InternedSequence", "InternTable", "InvalidFlags",
    "RangeError", "apply_script", "flags_to_script", "render_unified",
    # diff algorithms
    "ALGORITHMS", "diff_lines", "diff_histogram", "diff_myers", "diff_patience",
    # graph
    "Commit", "CommitGraph", "GraphError", "MergeResult", "MergeStats", "MultiParent", "RebaseResult",
    "UnknownCommit", "build_exponential_graph", "cherry_pick", "graph_from_jsonl", "lowest_common_ancestors",
    "merge_commits", "rebase", "revert",
    # merge3
    "CONFLICT", "LEFT", "RIGHT", "SAME", "InvariantViolation", "MergeOptions", "MergeOutcome", "MergeRegion",
    "merge3",
    # slider
    "slide_changed_lines",
]
