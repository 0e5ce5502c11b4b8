"""Variable-reduction-ratio knee joint: takeoff simulation and design search."""

from .config import RunConfig, default_motor, load_config
from .errors import (ConfigError, DomainError, MechanismRangeError,
                     NoFeasibleDesignError, SimulationRangeError,
                     VrrJumpError)
from .leg import JacobianMode, LegModel, com_height, com_jacobian
from .mechanism import (FrrParams, RatioCurve, VrrParams, check_working_range,
                        crank_angle, crank_offset, joint_angle,
                        peak_crank_angle, ratio_curve, ratio_law,
                        reduction_ratio)
from .motor import (EnvelopePoint, MotorParams, envelope_pieces,
                    envelope_table, loss_balance_c_iron2, max_torque,
                    power_loss, torque_envelope)
from .optimize import (AngleRow, ComparisonReport, EvalRecord, OptResult,
                       SearchBox, compare_designs, optimize_frr, optimize_vrr,
                       select_best)
from .report import emit_report, write_trajectory_csv
from .sim import (SimConfig, SimState, TakeoffResult, TakeoffRule,
                  Termination, jump_height, simulate_jump, takeoff_energy)

__version__ = "0.1.0"
