"""Bit-packed bipartite digraphs, girth machinery, extremal constructions,
frontier classification, exhaustive search, and an inequality lab."""
