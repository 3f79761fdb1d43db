"""Tests for the Galileo format parser and writer."""

import pytest
from hypothesis import given, strategies as st

from repro import Study, Unreliability
from repro.dft import (
    AndGate,
    BasicEvent,
    FdepGate,
    InhibitionConstraint,
    OrGate,
    PandGate,
    SeqGate,
    SpareGate,
    VotingGate,
    galileo,
)
from repro.errors import FaultTreeError, GalileoSyntaxError, ReproError
from repro.systems import cardiac_assist_system, cascaded_pand_system

CAS_TEXT = """
// Cardiac assist system (paper, Figure 7)
toplevel "system";
"system" or "CPU_unit" "Motor_unit" "Pump_unit";
"Trigger" or "CS" "SS";
"CPU_fdep" fdep "Trigger" "P" "B";
"CPU_unit" wsp "P" "B";
"Switch" pand "MS" "MA";
"Motors" csp "MA" "MB";
"Motor_unit" or "Switch" "Motors";
"Pump_A" csp "PA" "PS";
"Pump_B" csp "PB" "PS";
"Pump_unit" and "Pump_A" "Pump_B";
"CS" lambda=0.2;
"SS" lambda=0.2;
"P" lambda=0.5;
"B" lambda=0.5 dorm=0.5;
"MS" lambda=0.01;
"MA" lambda=1.0;
"MB" lambda=1.0 dorm=0.0;
"PA" lambda=1.0;
"PB" lambda=1.0;
"PS" lambda=1.0 dorm=0.0;
"""


class TestParsing:
    def test_parse_cas(self):
        tree = galileo.parse(CAS_TEXT, name="cas")
        assert tree.top == "system"
        assert isinstance(tree.element("system"), OrGate)
        assert isinstance(tree.element("CPU_unit"), SpareGate)
        assert isinstance(tree.element("Switch"), PandGate)
        assert isinstance(tree.element("CPU_fdep"), FdepGate)
        assert tree.element("B").dormancy == 0.5
        assert tree.element("MB").is_cold

    def test_parse_matches_programmatic_cas(self):
        parsed = galileo.parse(CAS_TEXT)
        built = cardiac_assist_system()
        assert set(parsed.names()) == set(built.names())
        for name in built.names():
            assert type(parsed.element(name)) is type(built.element(name))

    def test_voting_gate_syntax(self):
        text = """
        toplevel "Top";
        "Top" 2of3 "A" "B" "C";
        "A" lambda=1.0; "B" lambda=1.0; "C" lambda=1.0;
        """
        tree = galileo.parse(text)
        gate = tree.element("Top")
        assert isinstance(gate, VotingGate) and gate.threshold == 2

    def test_voting_arity_mismatch(self):
        text = 'toplevel "Top"; "Top" 2of3 "A" "B"; "A" lambda=1; "B" lambda=1;'
        with pytest.raises(GalileoSyntaxError):
            galileo.parse(text)

    def test_seq_and_inhibit_keywords(self):
        text = """
        toplevel "Top";
        "Top" and "S" "C";
        "S" seq "A" "B";
        "I" inhibit "A" "C";
        "A" lambda=1; "B" lambda=1; "C" lambda=1;
        """
        tree = galileo.parse(text)
        assert isinstance(tree.element("S"), SeqGate)
        assert isinstance(tree.element("I"), InhibitionConstraint)

    def test_repair_parameter(self):
        text = 'toplevel "Top"; "Top" and "A" "B"; "A" lambda=1 repair=2; "B" lambda=1 repair=2;'
        tree = galileo.parse(text)
        assert tree.element("A").repair_rate == 2.0
        assert tree.is_repairable

    def test_infinite_repair_rate_is_a_fault_tree_error(self):
        with pytest.raises(FaultTreeError, match="repair rate must be positive and finite"):
            galileo.parse('toplevel "A";\n"A" lambda=1 repair=1e400;\n')

    def test_unquoted_names_allowed(self):
        text = "toplevel Top; Top and A B; A lambda=1; B lambda=2;"
        tree = galileo.parse(text)
        assert isinstance(tree.element("Top"), AndGate)

    def test_comments_ignored(self):
        text = "// a comment\ntoplevel \"T\"; // trailing\n\"T\" or \"A\"; \"A\" lambda=1;"
        tree = galileo.parse(text)
        assert tree.top == "T"


class TestParseErrors:
    def test_missing_toplevel(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('"A" lambda=1;')

    def test_duplicate_toplevel(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "A"; toplevel "B"; "A" lambda=1; "B" lambda=1;')

    def test_undefined_toplevel(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "Ghost"; "A" lambda=1;')

    def test_missing_lambda(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "A"; "A" dorm=0.5;')

    def test_constant_probability_unsupported(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "A"; "A" prob=0.5;')

    def test_unknown_parameter(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "A"; "A" lambda=1 weight=3;')

    def test_unterminated_quote(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "A; "A" lambda=1;')

    def test_fdep_needs_dependents(self):
        text = 'toplevel "T"; "T" or "A"; "F" fdep "A"; "A" lambda=1;'
        with pytest.raises(GalileoSyntaxError):
            galileo.parse(text)

    def test_spare_needs_spares(self):
        text = 'toplevel "T"; "T" wsp "A"; "A" lambda=1;'
        with pytest.raises(GalileoSyntaxError):
            galileo.parse(text)

    def test_empty_text(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse("   \n  // only comments\n")

    def test_non_numeric_parameter(self):
        with pytest.raises(GalileoSyntaxError):
            galileo.parse('toplevel "A"; "A" lambda=fast;')

    def test_error_reports_line_number(self):
        try:
            galileo.parse('toplevel "A";\n"A" lambda=oops;')
        except GalileoSyntaxError as error:
            assert error.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "tree_factory", [cardiac_assist_system, cascaded_pand_system]
    )
    def test_write_then_parse_preserves_structure(self, tree_factory):
        original = tree_factory()
        text = galileo.write(original)
        parsed = galileo.parse(text)
        assert parsed.top == original.top
        assert set(parsed.names()) == set(original.names())
        for name in original.names():
            original_element = original.element(name)
            parsed_element = parsed.element(name)
            assert type(parsed_element) is type(original_element)
            if isinstance(original_element, BasicEvent):
                assert parsed_element.failure_rate == pytest.approx(
                    original_element.failure_rate
                )
                assert parsed_element.dormancy == pytest.approx(original_element.dormancy)
            else:
                assert parsed_element.inputs == original_element.inputs

    def test_file_round_trip(self, tmp_path):
        tree = cardiac_assist_system()
        path = tmp_path / "cas.dft"
        galileo.write_file(tree, str(path))
        parsed = galileo.parse_file(str(path))
        assert set(parsed.names()) == set(tree.names())


CPS_TEXT = galileo.write(cascaded_pand_system())
RATE_KEYS = ("lambda=", "dorm=", "repair=")
BAD_NUMBERS = ("nan", "inf", "-inf", "1e999", "-1e999", "-1", "-0.5", "0", "-0.0")


@st.composite
def mutated_galileo(draw) -> str:
    """The CAS or CPS text with one to four token mutations: a token
    deleted, duplicated or swapped with another, or the number of a rate
    slot replaced by a non-finite or non-positive one.  Lines are kept, so
    a comment still ends at its line."""
    text = draw(st.sampled_from([CAS_TEXT, CPS_TEXT]))
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        positions = [(row, col) for row, line in enumerate(lines) for col in range(len(line))]
        slots = [
            (row, col) for row, col in positions if lines[row][col].startswith(RATE_KEYS)
        ]
        kind = draw(st.sampled_from(["delete", "duplicate", "swap", "poison"]))
        if not positions or (kind == "poison" and not slots):
            break
        row, col = draw(st.sampled_from(slots if kind == "poison" else positions))
        token = lines[row][col]
        if kind == "delete":
            del lines[row][col]
        elif kind == "duplicate":
            lines[row].insert(col, token)
        elif kind == "swap":
            other_row, other_col = draw(st.sampled_from(positions))
            lines[row][col] = lines[other_row][other_col]
            lines[other_row][other_col] = token
        else:
            key = token.split("=", 1)[0]
            end = ";" if token.endswith(";") else ""
            lines[row][col] = f"{key}={draw(st.sampled_from(BAD_NUMBERS))}{end}"
    return "\n".join(" ".join(line) for line in lines)


@given(text=mutated_galileo())
def test_fuzzed_galileo_fails_only_with_repro_errors(text):
    # Parsing and analysing a malformed tree either succeeds or raises a
    # ReproError (the CLI's exit 2, the service's HTTP 400): never another
    # exception.
    try:
        Study(galileo.parse(text)).evaluate(Unreliability([1.0]))
    except ReproError:
        pass
