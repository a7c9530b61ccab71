"""Subspace-valued assertions and Hoare-style proof checking for quantum
while-programs, with quantifiers over quantum variables evaluated as
lattice fixpoints."""

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    BvnError,
    ConfigurationError,
    DimensionMismatchError,
    FixpointError,
    InterpretationError,
    InvalidChannelError,
    InvalidStateError,
    ParseError,
    RuleError,
    WellFormednessError,
)
from .linalg import (
    Channel,
    StateDensity,
    Subspace,
    channel_apply,
    channel_equal,
    channel_image,
    channel_wlp,
    includes,
    lattice_join,
    lattice_meet,
    ortho,
    sasaki_implies,
    subspace_equal,
    support,
)
from .interp import Interpretation, build, embed, embed_subspace
from .terms import (
    BasicTerm,
    ProbSumTerm,
    SeqTerm,
    TensorTerm,
    Term,
    identity_term,
    term_apply,
    term_equiv,
    term_image,
    term_invert,
    term_vars,
    term_wf,
    term_wlp,
)
from .formulas import (
    Adjoint,
    And,
    Atom,
    Forall,
    Formula,
    MeasAtom,
    Not,
    basis_atoms,
    big_or,
    entails,
    eval_subspace,
    exists_formula,
    forall_closure,
    formula_wf,
    free_vars,
    or_formula,
    sasaki_formula,
    sat_probability,
    satisfies,
)
from .programs import (
    CaseProg,
    Configuration,
    Init,
    Program,
    SeqProg,
    Skip,
    UnitaryAssign,
    WhileProg,
    prog_image,
    prog_vars,
    prog_wf,
    prog_wlp,
    representable_probe,
    run,
    step,
    terminates_probe,
)
from .hoare import (
    HoareTriple,
    ProofScript,
    ProofStep,
    apply_rule,
    check_proof,
    triple_valid,
    triple_valid_wlp,
)
from .parser import (
    formula_to_text,
    interp_to_text,
    parse,
    parse_formula,
    parse_interp,
    parse_program,
    parse_proof,
    parse_term,
    parse_triple,
    program_to_text,
    term_to_text,
    triple_to_text,
)

__version__ = "0.1.0"
