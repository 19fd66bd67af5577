"""Exception types shared across the package.

CLI maps these onto exit codes: bad arguments, file/format problems and
physics preconditions are distinct failure classes with distinct types.
"""


class InputError(ValueError):
    """An argument outside its domain, raised before any solve."""


class GTensorError(Exception):
    """Base class for all package-specific errors."""


class MaterialParseError(GTensorError):
    """Material file is not syntactically valid (bad JSON, wrong types)."""


class MaterialValidationError(GTensorError):
    """Material file parsed but violates the schema; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class PhysicsError(GTensorError):
    """A physical precondition failed (not a bug, not a file problem)."""


class PairUndefinedError(PhysicsError):
    """The pair's g-tensor is undefined at this k-point; scans skip it."""


class PairingAmbiguityError(PairUndefinedError):
    """Requested band pair is not isolated from the remaining spectrum."""

    def __init__(self, k, band_indices, split, gap_to_rest):
        self.k = k
        self.band_indices = band_indices
        self.split = split
        self.gap_to_rest = gap_to_rest
        super().__init__(
            f"bands {band_indices} at k={tuple(k)}: intra-pair split "
            f"{split:.3e} Ha, gap to rest {gap_to_rest:.3e} Ha"
        )


class NearDegenerateIntermediateError(PairUndefinedError):
    """An intermediate band sits too close to the pair energy for the
    second-order orbital-moment sum to be trustworthy."""

    def __init__(self, k, band_index, separation, floor):
        self.k = k
        self.band_index = band_index
        self.separation = separation
        self.floor = floor
        super().__init__(
            f"band {band_index} at k={tuple(k)} lies {separation:.3e} Ha "
            f"from the pair energy (floor {floor:.3e} Ha)"
        )


class DirectionNotApplicableError(PhysicsError):
    """The spin-flip pair relation is not guaranteed by the point group
    along this direction, so its failure would not be informative."""

    def __init__(self, point_group, direction):
        self.point_group = point_group
        self.direction = tuple(direction)
        super().__init__(
            f"point group {point_group} does not protect the pair relation "
            f"along direction {self.direction}"
        )


class BracketError(PhysicsError):
    """The fitted root lies outside its admissible bracket
    (``lande.DIPOLE_BRACKET`` for the dipole fit)."""
