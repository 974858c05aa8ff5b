"""Shared tolerance and scheme constants.

One table of the values the package reads; tests/test_hygiene.py fails
on a name here that no module under src/nullform reads.
"""

# geometry / algebra
UNIT_NORM_TOL = 1e-12          # |direction| == 1 check on LightVector

# FDTD
CFL_LEAPFROG = 0.45            # dt = CFL * dx / sqrt(n) for the leapfrog kernel
CFL_LIMIT = 0.9                # hard explicit-step limit: dt*sqrt(n)/dx <= 0.9
CFL_RK4 = 0.5                  # dt = CFL_RK4 * dx for the rk4 scheme
BLOWUP_FACTOR = 1e6            # norm growth guard in solve_semilinear
FDTD_CONE_MARGIN = 32          # cells the rk4 light-cone window adds on each
                               # side: discrete waves outrun speed 1

# quadrature
RAY_QUAD_ABS_TOL = 1e-9        # trapezoid/Simpson update that retires a line
RAY_QUAD_TRAP_PRIOR_MAX = 1e-6  # trapezoid update after which its next
                                # one may not retire a line
RAY_QUAD_MAX_DOUBLINGS = 22
RAY_QUAD_MAX_NODES = 2 ** 22   # active lines x nodes a doubling may reach;
                               # the largest call in Tier-1 reaches 0.26M
RAY_QUAD_BATCH_LINES = 512     # lines per quadrature call, in whole angles

# demodulation / recovery
PPW_MIN = 16                   # samples per carrier wavelength required
CHI_FLOOR_FRACTION = 0.1       # |chi_W| >= 0.1*max|chi| for log recovery
MISSING_ANGLE_FRACTION = 0.3   # drop an angle if more samples than this missing
BAND_PAD = 0.15                # slice r window: chi support radius + this

# tomography
FBP_MIN_ANGLES = 90
FBP_APODIZATION_NYQUIST = 0.9  # raised-cosine rolloff location
