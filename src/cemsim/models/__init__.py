"""Concrete component models: linear battery, PV-first inverter, priced
grid, and the seeded synthetic scenario generator."""
