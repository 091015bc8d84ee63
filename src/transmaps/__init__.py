"""Exact-arithmetic toolkit for topologically transitive maps of the unit interval."""
