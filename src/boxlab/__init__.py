"""boxlab: bounding-box regression losses, proposal geometry, and detection metrics."""

# Each module's ``__all__`` is the one list of its public names; the package republishes it whole.
from .errors import *
from .geometry import *
from .losses import *
from .proposals import *
from .evaluation import *
from .augment import *
from .descent import *
from .coco_io import *
from .reports import *

__version__ = "0.1.0"
