"""Workbench for finite quantum-logic structures.

Validates effect-algebra and orthoalgebra axioms, decides Boolean-ness,
searches exhaustively for cloning bimorphisms, enumerates state spaces over
exact rationals, and builds hidden-variable MV models.
"""

__version__ = "0.1.0"
