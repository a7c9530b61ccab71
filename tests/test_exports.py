"""Every name a bvn module exports resolves, and every function the traced
benchmark wraps (``perfbench/tracer.py`` ``LAYERS``) is still bound in its
module, so deleting one fails here rather than in a benchmark run.  Every
export is used by the package, the scripts or the benchmark, or is listed
as library API with its reason.  No query takes tolerances of its own: they
come from the interpretation."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import bvn
import bvn.hoare
import bvn.linalg
import bvn.parser
import bvn.programs

MODULES = ["bvn"] + [f"bvn.{m.name}" for m in pkgutil.iter_modules(bvn.__path__)]
REPO = Path(__file__).resolve().parents[1]
TRACER = REPO / "perfbench" / "tracer.py"

# Exports that nothing in the package, the scripts or the benchmark calls.
LIBRARY_API = {
    "sasaki_implies": "the Sasaki implication as one lattice kernel; the lattice tests "
                      "check sasaki_formula and the orthomodular laws against it",
    "basis_atoms": "binds state vectors as ray predicates, the runtime-assertion encoding "
                   "for callers who build formulas from vectors",
    "triple_to_text": "printer inverse to parse_triple, pinned by the round-trip tests",
    "interp_to_text": "printer inverse to parse_interp, pinned by the round-trip tests",
    "term_image": "the checked entry of the adjoint reading that "
                  "programs.representable_probe runs unchecked",
}


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_bvn_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {layer: names for layer, names in tracer.LAYERS.items() if layer != "lapack"}


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _references(path: Path) -> set:
    """Every name and attribute the file mentions, except where a top-level
    definition mentions its own name (recursion does not count as use)."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        nodes = list(ast.walk(top))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        found |= names
    return found


def test_every_export_is_used_or_listed():
    files = [f for f in (REPO / "src" / "bvn").glob("*.py") if f.name != "__init__.py"]
    files += [*(REPO / "scripts").rglob("*.py"), *(REPO / "perfbench").rglob("*.py")]
    used = set().union(*map(_references, files), *_layers().values())
    modules = map(importlib.import_module, MODULES)
    exported = {n for module in modules for n in getattr(module, "__all__", ())}
    assert sorted(exported - used - set(LIBRARY_API)) == []
    # a listed name that is now used, or no longer exported, leaves the list
    assert sorted(set(LIBRARY_API) - (exported - used)) == []


@pytest.mark.parametrize("layer, names", sorted(_layers().items()))
def test_traced_functions_are_bound(layer, names):
    module = importlib.import_module(f"bvn.{layer}")
    assert [n for n in names if not callable(getattr(module, n, None))] == []


@pytest.mark.parametrize("name", ["bvn.terms", "bvn.formulas", "bvn.programs", "bvn.hoare"])
def test_queries_take_tolerances_from_the_interpretation(name):
    module = importlib.import_module(name)
    functions = [f for f in map(module.__getattribute__, module.__all__) if inspect.isfunction(f)]
    assert [f.__name__ for f in functions if "tol" in inspect.signature(f).parameters] == []


def test_one_builder_of_embedded_channels():
    """interp.embed is called only by terms._embedded, the memo every reading
    and the quantifier take channels from, and only interp reads the generator
    sets (``i.allowed``), apart from the printer parser.interp_to_text."""
    embeds, allowed = set(), set()
    for path in (REPO / "src" / "bvn").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if "embed" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    embeds.add(where)
                if isinstance(node, ast.Attribute) and node.attr == "allowed":
                    allowed.add(where)
    assert embeds == {"terms._embedded"}
    assert {w for w in allowed if not w.startswith("interp.")} == {"parser.interp_to_text"}


def test_no_pairwise_kraus_products():
    """A term's channel is read off its Choi state, so no package function
    composes channels by pairwise products of dense Kraus operators: only
    the dense builder interp.embed_matrix_on and linalg.channel_equal, which
    stacks the operators as the Choi factor, call global_kraus."""
    callers = set()
    for path in (REPO / "src" / "bvn").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if "global_kraus" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"interp.embed_matrix_on", "linalg.channel_equal"}
    assert not hasattr(bvn.linalg, "channel_compose")


def test_only_linalg_reads_a_state_matrix():
    """A state is its factor V: run, term_apply, support, the Born
    probability and the CLI's diagonal read V, and only linalg forms the
    dense V V^dagger (``StateDensity.matrix``).  The parser's own
    ``self.matrix`` reads a matrix literal, not a state."""
    readers = set()
    for path in (REPO / "src" / "bvn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "matrix"
                    and getattr(node.value, "id", None) != "self"):
                readers.add(path.stem)
    assert readers <= {"linalg"}


def test_no_query_splits_a_projector(monkeypatch, fixture_path):
    """Projective channels carry the split that interp.build made of their
    binding, so no query calls projector_split, however often it reads a
    measurement's channels or ranges."""
    i = bvn.parser.parse_interp(Path(fixture_path("ex1.bvn")).read_text())
    splits = []
    real = bvn.linalg.projector_split
    monkeypatch.setattr(bvn.linalg, "projector_split", lambda p: splits.append(p) or real(p))
    s = bvn.parser.parse_program("if M[q2] { 0 -> q1 := H(q1) | 1 -> skip } fi; "
                                 "while M[q1] = 1 do q1 := H(q1) od")
    t = bvn.hoare.HoareTriple(bvn.parse_formula("P0(q2)"), s, bvn.parse_formula("P0(q1)"))
    assert bvn.triple_valid(i, t)[0] == bvn.triple_valid_wlp(i, t)
    x = bvn.eval_subspace(i, bvn.parse_formula("meas M.1(q1) /\\ adj<M.0(q2)>(P0(q1))"))
    bvn.prog_image(i, s, x), bvn.prog_wlp(i, s, x), bvn.terminates_probe(i, s)
    bvn.run(i, s, bvn.StateDensity.maximally_mixed(4))
    assert splits == []


FACTORIZATIONS = {"svd", "eigh", "eigvalsh", "qr", "orthonormal_columns", "projector_split"}


def test_one_split_of_each_bound_projector():
    """Only interp.build splits a bound projector into its range, and the
    linalg.Channel constructor a hand-built projective channel, once.
    Formulas, programs and terms factor nothing themselves, and only the
    printer parser.interp_to_text reads the declared projectors, so no
    query decides an outcome's range again."""
    splits, factors, projectors = set(), set(), set()
    for path in (REPO / "src" / "bvn").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "projector_split":
                    splits.add(where)
                if name in FACTORIZATIONS and path.stem in ("formulas", "programs", "terms"):
                    factors.add(where)
                if isinstance(node, ast.Attribute) and node.attr == "projectors":
                    projectors.add(where)
    assert splits == {"interp.build", "linalg.Channel"}
    assert factors == set()
    assert projectors == {"parser.interp_to_text"}


@pytest.mark.parametrize("node_type", ["SeqProg", "CaseProg", "WhileProg"])
def test_one_walker_of_programs(node_type):
    """In programs.py only the pre-order walk _statements, the small-step
    _step and the statements of the one walker (``_Walk.statement``)
    dispatch on a program's compound nodes, besides prog_wf's checks of a
    case's and a loop's measurement: prog_vars and prog_wf are loops over
    _statements, and run, the image and the wlp, and through them the traps
    and probes, are readings of the one walker."""
    dispatch = set()
    for top in ast.parse((REPO / "src" / "bvn" / "programs.py").read_text()).body:
        methods = top.body if isinstance(top, ast.ClassDef) else [top]
        for f in (m for m in methods if isinstance(m, ast.FunctionDef)):
            for node in ast.walk(f):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                        and node_type in {n.id for n in ast.walk(node.args[1])
                                          if isinstance(n, ast.Name)}):
                    dispatch.add(f.name if f is top else f"{top.name}.{f.name}")
    checks = set() if node_type == "SeqProg" else {"prog_wf"}
    assert dispatch == {"_statements", "_step", "_Walk.statement"} | checks


def test_one_walker_of_terms():
    """Only the node walk terms._subterms, the one walker's call
    terms._Walk.__call__ and the rebuilding term_invert dispatch on a term's
    SeqTerm nodes, besides the printer: term_vars, term_wf, is_unitary_term
    and the proof rules' checks on terms are loops over _subterms."""
    dispatch = set()
    for path in (REPO / "src" / "bvn").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            methods = top.body if isinstance(top, ast.ClassDef) else [top]
            for f in (m for m in methods if isinstance(m, ast.FunctionDef)):
                for node in ast.walk(f):
                    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                            and "SeqTerm" in {n.id for n in ast.walk(node.args[1])
                                              if isinstance(n, ast.Name)}):
                        dispatch.add(f"{path.stem}.{f.name}" if f is top
                                     else f"{path.stem}.{top.name}.{f.name}")
    assert dispatch == {"terms._subterms", "terms._Walk.__call__", "terms.term_invert",
                        "parser.term_to_text", "parser._identity_names"}


def test_each_reading_of_a_basic_term_is_defined_once():
    """In src/bvn, ``leaf`` and ``mix`` are defined (as methods or class
    attributes) only on the four term readings; the program readings
    inherit theirs."""
    readings = {"terms._Apply", "terms._Image", "terms._Observe", "terms._Wlp"}
    defined = set()
    for path in (REPO / "src" / "bvn").glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {id(item): f"{path.stem}.{c.name}"
                 for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for item in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            defined |= {(name, owner.get(id(node), path.stem)) for name in names & {"leaf", "mix"}}
    assert defined == {(name, r) for name in ("leaf", "mix") for r in readings}
    for cls in (bvn.programs._Run, bvn.programs._Image, bvn.programs._Wlp):
        assert not {"leaf", "mix"} & vars(cls).keys()
