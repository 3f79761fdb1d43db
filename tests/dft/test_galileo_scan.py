"""The Galileo statement scan against the per-character tokeniser it replaced.

:func:`repro.dft.galileo._scan` feeds both :func:`~repro.dft.galileo.parse`
and :func:`~repro.dft.galileo.mask_rates`.  On any text it must give the
tokens of ``tests/galileo_reference.py``, or raise the same
:class:`~repro.errors.GalileoSyntaxError`.
"""

from hypothesis import example, given, strategies as st

from repro.dft import galileo
from repro.errors import GalileoSyntaxError
from tests import galileo_reference

#: Characters the scan treats specially, each line break ``splitlines``
#: knows, and whitespace beyond ASCII.
SPECIAL = list('"";;//= \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0  　') + [
    "param",
    "toplevel",
    "lambda=1",
    "and",
    "a",
    "0.5",
]
TEXTS = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=60
).map("".join)


def _outcome(scan, text):
    try:
        return scan(text)
    except GalileoSyntaxError as error:
        return f"error: {error}"


@given(text=TEXTS)
@example(text='"a""b" c')  # concatenated quoted segments: one token
@example(text='"" x;')  # an empty quoted name is no token
@example(text='"a b"c "d;e"')  # a quote cut by ";": unterminated
@example(text='x\n"a b')  # the error carries its line number
@example(text='"a//b"')  # a comment inside quotes still starts a comment
@example(text='"param" lam = 1; param lam = 1')
@example(text='a "" b;"c"d """"')  # runs of nothing but quotes vanish
@example(text='" a\t"  "b";"c d" e')  # whitespace at the edges of quotes
def test_token_scan_matches_reference(text):
    assert _outcome(galileo._scan, text) == _outcome(galileo_reference.scan, text)


def test_unterminated_quote_names_its_line():
    try:
        galileo.parse('toplevel "a";\n"a" and "b;\n')
    except GalileoSyntaxError as error:
        assert str(error) == "line 2: unterminated quoted name"
    else:
        raise AssertionError("an unterminated quote parsed")


def test_parameter_reference_after_a_voting_gate():
    # The voting gate's input count once overwrote the declared parameters.
    tree = galileo.parse(
        """
        param lam = 0.5;
        toplevel "v";
        "v" 2of3 "a" "b" "c";
        "a" lambda=lam; "b" lambda=1; "c" lambda=2;
        """
    )
    assert tree.element("a").failure_rate_param == "lam"
    assert tree.element("a").failure_rate == 0.5
