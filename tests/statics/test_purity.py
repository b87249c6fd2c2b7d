"""The purity pass flags every planted violation, at the right place."""

import pathlib

from repro.statics.purity import run_purity_pass

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "tree"
SOURCE = (FIXTURES / "agreement" / "bad_purity.py").read_text()


def findings():
    return run_purity_pass(SOURCE, "tree/agreement/bad_purity.py")


def test_reports_every_planted_violation():
    got = {(f.rule, f.line) for f in findings()}
    assert got == {
        ("PUR003", 10),  # message(..., extras=[])
        ("PUR001", 11),  # print(state)
        ("PUR004", 12),  # self.last = state
        ("PUR002", 16),  # global CACHE
        ("PUR002", 17),  # CACHE[process_id] = ...
        ("PUR001", 21),  # open(...)
        ("PUR003", 25),  # impure_factory(..., log=[])
        ("PUR001", 26),  # print("building")
    }


def test_symbols_name_method_and_factory():
    symbols = {f.symbol for f in findings()}
    assert "ImpureAutomaton.message" in symbols
    assert "ImpureAutomaton.transition" in symbols
    assert "ImpureAutomaton.decision" in symbols
    assert "impure_factory" in symbols


def test_non_automaton_methods_are_out_of_scope():
    source = (
        "class Helper:\n"
        "    def message(self, sender, receiver, state):\n"
        "        print(state)  # not an AutomatonProtocol subclass\n"
    )
    assert run_purity_pass(source, "x.py") == []


def test_transitive_subclass_in_same_file_is_in_scope():
    source = (
        "class Base(AutomatonProtocol):\n"
        "    pass\n"
        "class Derived(Base):\n"
        "    def decision(self, process_id, state):\n"
        "        self.cache = state\n"
        "        return state\n"
    )
    findings = run_purity_pass(source, "x.py")
    assert [(f.rule, f.symbol) for f in findings] == [
        ("PUR004", "Derived.decision")
    ]


class TestBaseImportedFromAnotherModule:
    """The automaton hierarchy is resolved tree-wide, like protoflow's."""

    PATH = "tree/agreement/imported_automaton.py"
    SOURCE = (FIXTURES / "agreement" / "imported_automaton.py").read_text()

    def test_tree_run_checks_the_derived_class(self):
        from repro.statics.runner import lint_tree

        got = {
            (f.rule, f.line, f.symbol)
            for f in lint_tree(FIXTURES).findings
            if f.path == self.PATH
        }
        assert got == {
            ("PUR001", 14, "ImportedAutomaton.transition"),  # print(...)
            ("PUR004", 15, "ImportedAutomaton.transition"),  # self.seen =
        }

    def test_the_clean_base_module_reports_nothing(self):
        from repro.statics.runner import lint_tree

        assert [
            f
            for f in lint_tree(FIXTURES).findings
            if f.path == "tree/agreement/shared_base.py"
        ] == []

    def test_lone_source_string_stays_file_local(self):
        # No tree to resolve ``SharedBase`` against: nothing in this
        # file is spelled ``AutomatonProtocol``, so nothing is checked.
        assert run_purity_pass(self.SOURCE, self.PATH) == []

    def test_imported_root_under_any_module_path_is_in_scope(self):
        source = (
            "from somewhere.other import AutomatonProtocol\n"
            "class Relocated(AutomatonProtocol):\n"
            "    def decision(self, process_id, state):\n"
            "        print(state)\n"
            "        return state\n"
        )
        assert [
            (f.rule, f.symbol) for f in run_purity_pass(source, "x.py")
        ] == [("PUR001", "Relocated.decision")]


def test_pure_automaton_is_clean():
    source = (
        "class Clean(AutomatonProtocol):\n"
        "    def message(self, sender, receiver, state):\n"
        "        return state\n"
        "    def transition(self, process_id, messages):\n"
        "        return tuple(messages)\n"
        "    def decision(self, process_id, state):\n"
        "        return state[0]\n"
        "def clean_factory(default=0):\n"
        "    def factory(process_id, config, input_value):\n"
        "        return (process_id, input_value, default)\n"
        "    return factory\n"
    )
    assert run_purity_pass(source, "x.py") == []


class TestAllFunctionsMode:
    """Worker modules get every module-level function checked."""

    IMPURE_WORKER = (
        "_CONTEXT = None\n"
        "def run_chunk(cells):\n"
        "    global _CONTEXT\n"
        "    _CONTEXT = cells\n"
    )

    def test_plain_functions_skipped_by_default(self):
        assert run_purity_pass(self.IMPURE_WORKER, "x.py") == []

    def test_all_functions_flags_global_mutation(self):
        findings = run_purity_pass(
            self.IMPURE_WORKER, "x.py", all_functions=True
        )
        assert {(f.rule, f.symbol) for f in findings} == {
            ("PUR002", "run_chunk")
        }

    def test_factories_still_checked_in_all_functions_mode(self):
        source = "def thing_factory(log=[]):\n    return log\n"
        findings = run_purity_pass(source, "x.py", all_functions=True)
        assert [f.rule for f in findings] == ["PUR003"]


class TestPurityExempt:
    def test_justified_exemption_suppresses(self):
        source = (
            'PURITY_EXEMPT = {"run_chunk": "fork-pool context plumbing"}\n'
            "_CONTEXT = None\n"
            "def run_chunk(cells):\n"
            "    global _CONTEXT\n"
            "    _CONTEXT = cells\n"
        )
        assert run_purity_pass(source, "x.py", all_functions=True) == []

    def test_exemption_is_per_symbol(self):
        source = (
            'PURITY_EXEMPT = {"run_chunk": "fork-pool context plumbing"}\n'
            "_CONTEXT = None\n"
            "def run_chunk(cells):\n"
            "    global _CONTEXT\n"
            "def other(cells):\n"
            "    global _CONTEXT\n"
        )
        findings = run_purity_pass(source, "x.py", all_functions=True)
        assert [(f.rule, f.symbol) for f in findings] == [
            ("PUR002", "other")
        ]

    def test_exemption_covers_automaton_methods_by_qualified_name(self):
        source = (
            'PURITY_EXEMPT = {"Weird.decision": "test double"}\n'
            "class Weird(AutomatonProtocol):\n"
            "    def decision(self, process_id, state):\n"
            "        self.cache = state\n"
            "        return state\n"
        )
        assert run_purity_pass(source, "x.py") == []

    def test_empty_justification_is_pur005(self):
        source = (
            'PURITY_EXEMPT = {"run_chunk": ""}\n'
            "def run_chunk(cells):\n"
            "    global STATE\n"
        )
        findings = run_purity_pass(source, "x.py", all_functions=True)
        rules = sorted((f.rule, f.symbol) for f in findings)
        # The unjustified entry does NOT suppress: the PUR002 survives.
        assert rules == [
            ("PUR002", "run_chunk"), ("PUR005", "run_chunk"),
        ]

    def test_dead_entry_is_pur005(self):
        source = (
            'PURITY_EXEMPT = {"no_such_function": "stale"}\n'
            "def fine(x):\n"
            "    return x\n"
        )
        findings = run_purity_pass(source, "x.py", all_functions=True)
        assert [(f.rule, f.symbol) for f in findings] == [
            ("PUR005", "no_such_function")
        ]
        assert "dead entry" in findings[0].message

    def test_non_dict_declaration_is_pur005(self):
        source = 'PURITY_EXEMPT = ["run_chunk"]\n'
        findings = run_purity_pass(source, "x.py")
        assert [f.rule for f in findings] == ["PUR005"]
        assert "literal dict" in findings[0].message

    def test_non_string_key_is_pur005(self):
        source = 'PURITY_EXEMPT = {3: "why"}\n'
        findings = run_purity_pass(source, "x.py")
        assert [f.rule for f in findings] == ["PUR005"]

    def test_parallel_module_declaration_is_valid(self):
        """The shipped worker module's own exemptions lint clean."""
        import pathlib

        import repro.analysis.parallel as parallel_module

        path = pathlib.Path(parallel_module.__file__)
        findings = run_purity_pass(
            path.read_text(), "repro/analysis/parallel.py",
            all_functions=True,
        )
        assert findings == []
