"""Shared tolerance and scheme constants.

Kept in one table so order-of-accuracy tests and CI thresholds are
reproducible (see the minkowski design notes: unit-norm checks at 1e-12,
finite-difference consistency probed at delta in {1e-3, 5e-4}).
"""

# geometry / algebra
UNIT_NORM_TOL = 1e-12          # |direction| == 1 check on LightVector
NULL_PAIRING_TOL = 1e-12       # <V,V>_M == 0 check

# finite-difference consistency probes (O(delta^2) checks)
FD_DELTAS = (1e-3, 5e-4)

# centered-difference step for the exterior_derivative fallback
FD_STEP_CAP = 1e-3

# FDTD
CFL_LEAPFROG = 0.45            # dt = CFL * dx / sqrt(n) for the leapfrog kernel
CFL_LIMIT = 0.9                # hard WaveState invariant: dt*sqrt(n)/dx <= 0.9
CFL_RK4 = 0.5                  # dt = CFL_RK4 * dx for the rk4 scheme
BLOWUP_FACTOR = 1e6            # norm growth guard in solve_semilinear
FDTD_CONE_MARGIN = 32          # cells the rk4 light-cone window adds on each
                               # side: discrete waves outrun speed 1

# quadrature
RAY_QUAD_ABS_TOL = 1e-9        # adaptive Simpson absolute tolerance
RAY_QUAD_MAX_DOUBLINGS = 22
RAY_QUAD_MAX_NODES = 2 ** 22   # active lines x nodes a doubling may reach;
                               # the largest call in the tests uses 1.5M

# demodulation / recovery
PPW_MIN = 16                   # samples per carrier wavelength required
CHI_FLOOR_FRACTION = 0.1       # |chi_W| >= 0.1*max|chi| for log recovery
MISSING_ANGLE_FRACTION = 0.3   # drop an angle if more samples than this missing

# tomography
FBP_MIN_ANGLES = 90
FBP_APODIZATION_NYQUIST = 0.9  # raised-cosine rolloff location
