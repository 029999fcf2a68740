"""cowordmap: co-word analysis and science mapping for small corpora.

Turns a flat file of bibliographic records into controlled-vocabulary
distribution tables, a thresholded keyword co-occurrence network, thematic
clusters, a Kamada-Kawai map, and Pajek/SVG/CSV exports.

The entry points are ``cowordmap.cli.main`` (the ``cowordmap`` command) and
``cowordmap.pipeline.run_pipeline`` (a whole run from a ``RunConfig``). The
API is the submodules themselves: import each name from the module that
defines it.
"""

__version__ = "0.1.0"

# Kept for its import time alone: pipebench/run.py reads ``layout.import_s`` as the
# ``cowordmap.layout`` line of ``python -X importtime -c "import cowordmap"``. It can
# go when that measurement does (ROADMAP item 2).
from . import layout  # noqa: F401
