"""Reading and writing the Galileo textual DFT format.

The paper's tool chain "takes as input a DFT specified in the Galileo DFT
format" (Section 5.1).  The format is line oriented::

    toplevel "System";
    "System" or "CPU" "Motors" "Pumps";
    "CPU" wsp "P" "B";
    "Trigger" or "CS" "SS";
    "CPUfdep" fdep "Trigger" "P" "B";
    "P" lambda=0.5 dorm=0.5;

* the first non-comment line names the top event,
* every other line either defines a gate (``name gatetype inputs...``) or a
  basic event (``name param=value ...``),
* lines are terminated by ``;``; ``//`` starts a comment; names may be quoted.

Supported gate keywords: ``and``, ``or``, ``pand``, ``seq``, ``fdep``,
``wsp``/``csp``/``hsp``/``spare`` (all mapped to :class:`SpareGate` — the
spares' dormancy lives on the basic events), the voting pattern ``KofM``
(e.g. ``2of3``), and the extension keyword ``inhibit`` (first input inhibits
the second, Section 7.1 of the paper).

Supported basic-event parameters: ``lambda`` (failure rate), ``dorm``
(dormancy factor, default 1) and ``repair`` (repair rate, extension of
Section 7.2).

**Rate-parameter extension** (used by the rate-sweep engine,
:mod:`repro.core.sweep`): a statement ``param <name> = <value>;`` declares a
named rate parameter with its nominal value, and a basic event may bind its
failure or repair rate to it by name instead of a number::

    param lam = 0.5;
    "P" lambda=lam dorm=0.3;

The bare keyword ``param`` opens a declaration; quote the name (``"param"``)
to use it as an ordinary element, exactly as quoting escapes other keywords.
Parameter declarations may appear anywhere in the file; references are
resolved after all declarations have been read.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import GalileoSyntaxError
from .elements import (
    AndGate,
    BasicEvent,
    FdepGate,
    InhibitionConstraint,
    OrGate,
    PandGate,
    SeqGate,
    SpareGate,
    VotingGate,
)
from .tree import DynamicFaultTree

_VOTING_RE = re.compile(r"^(\d+)of(\d+)$", re.IGNORECASE)
_PARAM_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([-+0-9.eE]+)$")
_PARAM_REF_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*([A-Za-z_][A-Za-z0-9_]*)$")

_SPARE_KEYWORDS = {"wsp", "csp", "hsp", "spare"}
_GATE_KEYWORDS = {"and", "or", "pand", "seq", "fdep", "inhibit"} | _SPARE_KEYWORDS


def _scan(text: str) -> List[Tuple[int, List[str], bool]]:
    """``(line number, tokens, declaration)`` of every ``;``-separated
    statement of ``text``, comments removed.

    ``//`` starts a comment, even inside quotes.  Whitespace outside double
    quotes separates tokens and the quotes themselves are dropped, so
    ``"a b"c`` is the one token ``a bc`` and a bare ``""`` is no token at
    all.  ``declaration`` marks a bare ``param`` statement; a quoted
    ``"param"`` is an ordinary element name, as quoting escapes every other
    keyword.
    """
    numbers: List[int] = []
    statements: List[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        for statement in line.split("//", 1)[0].split(";"):
            statement = statement.strip()
            if statement:
                if statement.count('"') % 2:
                    raise GalileoSyntaxError("unterminated quoted name", number)
                numbers.append(number)
                statements.append(statement)
    # Every statement closes its quotes and holds no line break.  Joined by
    # a quoted "\r", the statements split at their quotes into pieces that
    # alternate between outside and inside quotes.  The outside pieces,
    # joined by the quote none of them holds and framed by a non-space
    # character so runs at either end count, have each whitespace run
    # turned into "\n" in one pass; inside pieces keep their whitespace.
    pieces = '"\r"'.join(statements).split('"')
    outside = "\n".join(("." + '"'.join(pieces[0::2]) + ".").split())[1:-1]
    pieces[0::2] = outside.split('"')
    scanned = []
    for number, statement, part in zip(numbers, statements, "".join(pieces).split("\r")):
        tokens = part.split("\n")
        if "" in tokens:  # from a run of nothing but quotes, such as ""
            tokens = [token for token in tokens if token]
        declaration = bool(tokens) and tokens[0].lower() == "param" and statement[0] != '"'
        scanned.append((number, tokens, declaration))
    return scanned


def _is_gate_keyword(keyword: str) -> bool:
    lowered = keyword.lower()
    return lowered in _GATE_KEYWORDS or _VOTING_RE.match(lowered) is not None


#: Basic-event keys that may reference a declared rate parameter by name.
_PARAMETRISABLE_KEYS = {"lambda", "repair"}


def _parse_parameters(
    name: str,
    tokens: Sequence[str],
    number: int,
    declared: Dict[str, float],
) -> BasicEvent:
    params: Dict[str, float] = {}
    bindings: Dict[str, str] = {}
    for token in tokens:
        match = _PARAM_RE.match(token)
        value: Optional[float] = None
        if match:
            key = match.group(1).lower()
            try:
                value = float(match.group(2))
            except ValueError:
                value = None  # e.g. `lambda=e`: fall through to reference handling
        if value is None:
            ref = _PARAM_REF_RE.match(token)
            if not ref:
                raise GalileoSyntaxError(
                    f"cannot parse basic event parameter {token!r} of {name!r}", number
                )
            key = ref.group(1).lower()
            reference = ref.group(2)
            if key not in _PARAMETRISABLE_KEYS:
                raise GalileoSyntaxError(
                    f"parameter {key!r} of {name!r} has a non-numeric value", number
                )
            if reference not in declared:
                raise GalileoSyntaxError(
                    f"basic event {name!r} references undefined parameter "
                    f"{reference!r} (declare it with 'param {reference} = <value>;')",
                    number,
                )
            bindings[key] = reference
            value = declared[reference]
        if key in params:
            raise GalileoSyntaxError(
                f"basic event {name!r} sets parameter {key!r} twice", number
            )
        params[key] = value
    if "prob" in params:
        raise GalileoSyntaxError(
            f"basic event {name!r} uses a constant failure probability (prob=); "
            "only exponential failure distributions (lambda=) are supported",
            number,
        )
    if "lambda" not in params:
        raise GalileoSyntaxError(
            f"basic event {name!r} is missing its failure rate (lambda=)", number
        )
    known = {"lambda", "dorm", "repair"}
    unknown = set(params) - known
    if unknown:
        raise GalileoSyntaxError(
            f"basic event {name!r} has unsupported parameters: " + ", ".join(sorted(unknown)),
            number,
        )
    return BasicEvent(
        name=name,
        failure_rate=params["lambda"],
        dormancy=params.get("dorm", 1.0),
        repair_rate=params.get("repair"),
        failure_rate_param=bindings.get("lambda"),
        repair_rate_param=bindings.get("repair"),
    )


def _parse_param_declaration(
    tokens: Sequence[str], number: int
) -> Tuple[str, float]:
    """Parse ``param <name> = <value>`` (the ``=`` is optional)."""
    body = [token for token in tokens[1:] if token != "="]
    if len(body) == 1 and "=" in body[0]:
        body = [part.strip() for part in body[0].split("=", 1)]
    if len(body) != 2:
        raise GalileoSyntaxError(
            "param declarations have the form 'param <name> = <value>;'", number
        )
    name, raw_value = body
    if not name.isidentifier():
        raise GalileoSyntaxError(
            f"parameter name {name!r} is not a valid identifier", number
        )
    try:
        value = float(raw_value)
    except ValueError:
        raise GalileoSyntaxError(
            f"parameter {name!r} has a non-numeric value {raw_value!r}", number
        ) from None
    if not (value > 0.0 and math.isfinite(value)):
        raise GalileoSyntaxError(
            f"parameter {name!r} needs a positive finite rate, got {raw_value}", number
        )
    return name, value


class MaskedText(NamedTuple):
    """A Galileo text with its rate literals cut out (:func:`mask_rates`)."""

    #: sha256 of the token stream with every rate literal masked.
    digest: bytes
    #: The masked literals, in text order.
    literals: Tuple[str, ...]
    #: What each literal sets: ``(event, "lambda")``, ``(event, "repair")``
    #: or ``(parameter, "param")``.
    slots: Tuple[Tuple[str, str], ...]


#: Stands for a masked literal; no token can hold a double quote.
_MASK = '"'


def mask_rates(text: str) -> MaskedText:
    """The token stream of ``text`` with its rate literals masked.

    A literal is masked where :func:`parse` reads it as a number: the value
    of a basic event's ``lambda=``/``repair=`` token matching ``_PARAM_RE``,
    and the value token of a bare ``param <name> = <value>`` declaration.
    Every other token stays in the digest, so two texts with equal digests
    that both parse give trees that differ in those rates alone.  A literal
    such as ``lambda=e`` is masked too, although :func:`parse` may read it
    as a parameter reference: the caller checks every literal with
    ``float``.  Raises :class:`GalileoSyntaxError` where :func:`parse` fails
    to tokenise.
    """
    parts: List[str] = []
    literals: List[str] = []
    slots: List[Tuple[str, str]] = []
    for _number, tokens, declaration in _scan(text):
        if declaration:
            body = [position for position in range(1, len(tokens)) if tokens[position] != "="]
            if len(body) == 2:
                literals.append(tokens[body[1]])
                slots.append((tokens[body[0]], "param"))
                tokens = tokens.copy()
                tokens[body[1]] = _MASK
            parts.append("D" + "\n".join(tokens))
            continue
        if len(tokens) >= 2 and tokens[0].lower() != "toplevel" and not _is_gate_keyword(tokens[1]):
            head = tokens[0]
            tokens = tokens.copy()
            for position in range(1, len(tokens)):
                match = _PARAM_RE.match(tokens[position])
                if match is not None:
                    key = match.group(1).lower()
                    if key in _PARAMETRISABLE_KEYS:
                        literals.append(match.group(2))
                        slots.append((head, key))
                        tokens[position] = tokens[position][: match.start(2)] + _MASK
        # Tokens hold neither a newline nor a ";", so the encoding is unique.
        parts.append("S" + "\n".join(tokens))
    encoded = ";".join(parts).encode("utf-8", "surrogatepass")
    return MaskedText(hashlib.sha256(encoded).digest(), tuple(literals), tuple(slots))


def parse(text: str, name: str = "galileo") -> DynamicFaultTree:
    """Parse a Galileo description into a :class:`DynamicFaultTree`."""
    statements = _scan(text)
    if not statements:
        raise GalileoSyntaxError("the description contains no statements")

    tree = DynamicFaultTree(name)
    toplevel: Optional[str] = None

    # Pass 1: collect rate-parameter declarations (they may appear anywhere,
    # including after the basic events that reference them).
    declared: Dict[str, float] = {}
    for number, tokens, declaration in statements:
        if not declaration:
            continue
        param_name, value = _parse_param_declaration(tokens, number)
        if param_name in declared:
            raise GalileoSyntaxError(
                f"rate parameter {param_name!r} is declared twice", number
            )
        declared[param_name] = value
    for param_name, value in declared.items():
        tree.declare_parameter(param_name, value)

    # Pass 2: elements.
    for number, tokens, declaration in statements:
        if not tokens or declaration:
            continue
        head = tokens[0]
        if head.lower() == "toplevel":
            if len(tokens) != 2:
                raise GalileoSyntaxError("toplevel expects exactly one element name", number)
            if toplevel is not None:
                raise GalileoSyntaxError("toplevel declared twice", number)
            toplevel = tokens[1]
            continue

        if len(tokens) < 2:
            raise GalileoSyntaxError(f"incomplete definition of {head!r}", number)

        keyword = tokens[1]
        lowered = keyword.lower()
        voting_match = _VOTING_RE.match(lowered)

        if lowered in _GATE_KEYWORDS or voting_match:
            inputs = tokens[2:]
            if voting_match:
                threshold = int(voting_match.group(1))
                listed = int(voting_match.group(2))
                if listed != len(inputs):
                    raise GalileoSyntaxError(
                        f"voting gate {head!r} declares {listed} inputs but lists "
                        f"{len(inputs)}",
                        number,
                    )
                tree.add(VotingGate(name=head, inputs=tuple(inputs), threshold=threshold))
            elif lowered == "and":
                tree.add(AndGate(name=head, inputs=tuple(inputs)))
            elif lowered == "or":
                tree.add(OrGate(name=head, inputs=tuple(inputs)))
            elif lowered == "pand":
                tree.add(PandGate(name=head, inputs=tuple(inputs)))
            elif lowered == "seq":
                tree.add(SeqGate(name=head, inputs=tuple(inputs)))
            elif lowered == "fdep":
                if len(inputs) < 2:
                    raise GalileoSyntaxError(
                        f"FDEP gate {head!r} needs a trigger and at least one dependent",
                        number,
                    )
                tree.add(
                    FdepGate(name=head, trigger=inputs[0], dependents=tuple(inputs[1:]))
                )
            elif lowered == "inhibit":
                if len(inputs) != 2:
                    raise GalileoSyntaxError(
                        f"inhibit {head!r} needs exactly an inhibitor and a target", number
                    )
                tree.add(
                    InhibitionConstraint(name=head, inhibitor=inputs[0], target=inputs[1])
                )
            elif lowered in _SPARE_KEYWORDS:
                if len(inputs) < 2:
                    raise GalileoSyntaxError(
                        f"spare gate {head!r} needs a primary and at least one spare", number
                    )
                tree.add(
                    SpareGate(name=head, primary=inputs[0], spares=tuple(inputs[1:]))
                )
            continue

        # Otherwise it must be a basic event definition.
        tree.add(_parse_parameters(head, tokens[1:], number, declared))

    if toplevel is None:
        raise GalileoSyntaxError("missing toplevel declaration")
    if toplevel not in tree:
        raise GalileoSyntaxError(f"toplevel element {toplevel!r} is never defined")
    tree.set_top(toplevel)
    tree.validate()
    return tree


def parse_file(path: str, name: Optional[str] = None) -> DynamicFaultTree:
    """Parse a Galileo file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse(text, name=name if name is not None else path)


def _format_float(value: float) -> str:
    return f"{value:.10g}"


def write(tree: DynamicFaultTree) -> str:
    """Serialise ``tree`` in Galileo syntax (inverse of :func:`parse`)."""
    lines = [f'toplevel "{tree.top}";']
    for param_name, value in tree.parameters.items():
        lines.append(f"param {param_name} = {_format_float(value)};")
    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, BasicEvent):
            if element.failure_rate_param is not None:
                failure = element.failure_rate_param
            else:
                failure = _format_float(element.failure_rate)
            parts = [f'"{name}"', f"lambda={failure}"]
            if element.dormancy != 1.0:
                parts.append(f"dorm={_format_float(element.dormancy)}")
            if element.repair_rate is not None:
                if element.repair_rate_param is not None:
                    parts.append(f"repair={element.repair_rate_param}")
                else:
                    parts.append(f"repair={_format_float(element.repair_rate)}")
            lines.append(" ".join(parts) + ";")
            continue
        if isinstance(element, AndGate):
            keyword = "and"
        elif isinstance(element, OrGate):
            keyword = "or"
        elif isinstance(element, VotingGate):
            keyword = f"{element.threshold}of{len(element.inputs)}"
        elif isinstance(element, PandGate):
            keyword = "pand"
        elif isinstance(element, SeqGate):
            keyword = "seq"
        elif isinstance(element, SpareGate):
            keyword = "wsp"
        elif isinstance(element, FdepGate):
            keyword = "fdep"
        elif isinstance(element, InhibitionConstraint):
            keyword = "inhibit"
        else:  # pragma: no cover - defensive
            raise GalileoSyntaxError(f"cannot serialise element {name!r}")
        inputs = " ".join(f'"{child}"' for child in element.inputs)
        lines.append(f'"{name}" {keyword} {inputs};')
    return "\n".join(lines) + "\n"


def write_file(tree: DynamicFaultTree, path: str) -> None:
    """Write ``tree`` to ``path`` in Galileo syntax."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(write(tree))
