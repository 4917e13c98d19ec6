"""Memristor-crossbar perceptron simulator and tolerance toolkit."""

from .device import DeviceParams, MemristorCell, ProgramLog, program_to
from .crossbar import (BiasAssignment, Crossbar, CrossbarConfig,
                       bias_assignment, layer_forward, program_cell,
                       row_summed_voltage, two_layer_forward)
from .mapping import (CompiledLayer, CompiledNet, ResistanceRange,
                      SynapseNominals, compensate_stuck, compile_network,
                      compile_weight_matrix, discrete_weight_table,
                      quantize_weights, resistances_for_weight,
                      symmetric_weight_states, w_max, weight_from_resistances)
from .netmodel import (Activation, MlpParams, TrainConfig, TrainResult,
                       classify, evaluate, forward, forward_stack, gradients,
                       init_params, mse, p_err, train_discrete)
from .dataset import (StimulusProfile, default_profile, default_splits,
                      make_split, synthesize_extraneous,
                      synthesize_stimulus_patterns, target_vector)
from .tolerance import (ExperimentPlan, MonteCarloReport, ToleranceSpec,
                        analyze_tolerances, discrete_state_sweep,
                        sample_perturbed, synthesize_tolerances,
                        tolerance_set, weight_error_bounds)
from .pipeline import RunConfig, run_pipeline
from .errors import MemxbarError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
