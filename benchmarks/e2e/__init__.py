"""End-to-end benchmark: four workloads, per-layer attribution from
spans recorded around the program's entry points (see README.md)."""
