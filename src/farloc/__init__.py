"""Far-memory locality toolkit.

A simulated far-memory space with page-granular swapping, a collective
allocator that routes allocations to purely-local, plain-swappable, or
per-page sub-allocators, placement-aware B-tree and skip-list containers,
link-locality metrics, and a deterministic key-value swap benchmark.
Import from the submodules: ``farloc.farmem``, ``farloc.collective``,
``farloc.containers``, ``farloc.metrics``, ``farloc.workload`` and
``farloc.cli``.
"""

__version__ = "0.1.0"
