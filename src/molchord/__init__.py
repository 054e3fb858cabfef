"""molchord: desk-scale pocket-to-molecule generation pipeline.

Subpackages:
  molgraph  -- SMILES parsing, ring perception, fingerprints
  metrics   -- evaluation suite over scored generations
  curation  -- dataset partitioning, rewards, preference pairs
  genmodel  -- small conditional autoregressive SMILES generator
  training  -- losses with exact gradients, optimizer, train loops
  scorers   -- record file schemas and the external docking adapter
  store     -- the cache directory's entries, and whole-file replacement
  cli       -- the `molchord` command
"""

__version__ = "0.1.0"
