"""Multi-agent epistemic-logic engine and open-ended-evolution simulator."""

__version__ = "0.1.0"

from .formula import Atom, And, Or, Not, Implies, Know, Common, parse, render, \
    enumerate_sentences
from .universe import State, Clause, Theory, UniverseGenerator
from .epistemics import Truth3, AgentState, Partition, decide, contextual_possible, \
    local_knowledge, information_partition, adjacent_possible
from .revision import RevisionStrategy, StrategyKind, ExtensionClass, revise, \
    classify_extension, propose_revisions
from .multiagent import SharedFrame, meet, common_knowledge, \
    posterior, agreement_check, validate_s5
from .harness import Scenario, load_scenario, run, ergodicity_report, \
    bin_timeline, export
