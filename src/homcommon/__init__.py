"""Homomorphism densities, gluing templates, and commonness certificates.

The package computes exact homomorphism counts and step-graphon densities
for small graphs, decides goodness of gluing templates by exact-rational
cone membership, and numerically verifies the density identities and
commonness inequalities the certificates rest on.
"""

from .graphs import (BudgetExceededError, Graph, automorphisms, disjoint_union,
                     girth_and_cycle_count, hom_count, make_family)
from .graphons import StepKernel, density, sample_graphon
from .gluing import ClassVector, GluingTemplate, build_j, canonical_class, x_vector
from .cone import (GoodnessCertificate, binomial_inequality_check, check_good,
                   verify_certificate)
from .commonness import (CommonPairSpec, SearchResult, appendix_convexity_verify,
                         certify_pair_via_templates, common_gap,
                         convexity_conditions, dk3k2_f, dk3k2_functions,
                         dk3k2_verify, falsify, girth_obstruction, pair_gap,
                         solve_simple_tree_p)
from .identities import (c5_goodman_residual, expansion_residual,
                         goodman_residual, strongly_common_gap)

__version__ = "0.1.0"
