"""Kneser/Schrijver graph experiments: exact coloring, Gale embeddings, bounds."""
