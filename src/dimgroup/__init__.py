"""Exact constructions and verification of equal-column-sum (ECS),
equal-row-sum (ERS), and simultaneous (ECRS) dimension group realizations."""

from .exact import (Matrix, UnimodularTransform, colsum_norm, content,
                    is_unimodular, map_content1_row, right_kernel_basis,
                    sup_norm)
from .supernatural import FactorSequence, SupernaturalNumber, decide_ecrs
from .perron import (PerronData, check_equal_sums_criterion, integer_perron,
                     is_primitive, unique_trace_diagnostic)
from .traces import is_good_row, nearly_split_witness, trace_report
from .realization import RealizationSeq
from .ecs import (BParams, ExtensionData, Stage, b_compose, choose_a_params,
                  ecs_pipeline, general_ecs_matrix, normalize_extension,
                  reduce_vector, split_ecs_matrix, telescope_extension)
from .ers import ErsStageData, build_w_sequence, ers_pipeline, verify_ers
from .ecrs import (EcrsProblem, PolyNat, commuting_family, ecrs_finisher,
                   ecrs_pipeline, normalize_to_ones, poly_for)
from .verify import structural_report

__version__ = "0.1.0"
