"""ubimap: a desk-scale testbed for fixed-camera indoor mapping.

The pipeline: place depth-camera footprints over a gridded room, calibrate
the cameras into one global frame from shared landmarks, fuse per-camera
evidence into a live occupancy map, localize robots against it, and
broadcast the map to robot clients over a simulated lossy network.
``ubimap.pipeline`` calibrates a scenario whole and renders images;
``ubimap.cli`` parses the arguments, runs the stages and writes the files.

No output goes through BLAS or LAPACK (see ``ubimap.algebra``). Importing
the package still pins BLAS to one thread, which keeps OpenBLAS from
starting a worker thread per core; it only takes effect when no module has
imported numpy yet. Importing the package loads no layer: ``ubimap.<layer>``
imports that module on first access.
"""

import importlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in ("algebra", "calib", "cli", "coverage", "fusion", "geom", "netsim", "pipeline", "sensim", "world"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
