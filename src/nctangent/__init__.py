"""Exact computer algebra for a deformed Minkowski coordinate algebra,
its symmetry action, and locality structures (coverings, partitions of
unity, glued derivations, forms, connections) on finite star-algebras.
"""
