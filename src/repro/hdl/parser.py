"""Recursive-descent parser for the Verilog subset.

Supports both ANSI (``module m(input clk, output reg [3:0] q);``) and
non-ANSI (``module m(clk, q); input clk; output [3:0] q; reg [3:0] q;``)
port declaration styles, parameters, continuous assignments, and always
blocks with if/else, case, and blocking/non-blocking assignments.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "<<<": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
    "**": 11,
}

_UNARY_OPS = ("~", "!", "-", "+", "&", "|", "^")


class Parser:
    """Parse a token stream into a :class:`repro.hdl.ast.SourceFile`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._current
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._current
        return ParseError(f"{message}, got {tok.value!r}", tok.line, tok.column)

    def _expect_punct(self, text: str) -> Token:
        if not self._current.is_punct(text):
            raise self._error(f"expected {text!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        if not self._current.is_keyword(word):
            raise self._error(f"expected keyword {word!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        if self._current.kind is not TokenKind.IDENT:
            raise self._error("expected identifier")
        return self._advance().value

    def _accept_punct(self, text: str) -> bool:
        if self._current.is_punct(text):
            self._advance()
            return True
        return False

    def _accept_keyword(self, word: str) -> bool:
        if self._current.is_keyword(word):
            self._advance()
            return True
        return False

    # -- top level ---------------------------------------------------------

    def parse_source(self) -> ast.SourceFile:
        """Parse zero or more modules until end of input."""
        modules = []
        while not self._current.kind is TokenKind.EOF:
            if self._current.is_keyword("module"):
                modules.append(self.parse_module())
            else:
                raise self._error("expected 'module'")
        return ast.SourceFile(modules=modules)

    def parse_module(self) -> ast.Module:
        """Parse a single ``module ... endmodule`` definition."""
        self._expect_keyword("module")
        name = self._expect_ident()
        module = ast.Module(name=name)
        if self._accept_punct("#"):
            self._parse_param_header(module)
        if self._accept_punct("("):
            self._parse_port_list(module)
        self._expect_punct(";")
        while not self._current.is_keyword("endmodule"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unexpected end of input inside module")
            item = self._parse_module_item()
            if isinstance(item, list):
                module.items.extend(item)
            elif item is not None:
                module.items.append(item)
        self._expect_keyword("endmodule")
        return module

    def _parse_param_header(self, module: ast.Module) -> None:
        self._expect_punct("(")
        while True:
            self._accept_keyword("parameter")
            # optional range on parameter, ignored for value semantics
            if self._current.is_punct("["):
                self._parse_range()
            pname = self._expect_ident()
            self._expect_punct("=")
            value = self.parse_expression()
            module.header_params.append(ast.ParamDecl(name=pname, value=value))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        if self._accept_punct(")"):
            return
        while True:
            if self._current.kind is TokenKind.IDENT:
                # Non-ANSI style: just names.
                module.port_order.append(self._advance().value)
            elif self._current.is_keyword("input") or self._current.is_keyword(
                "output"
            ) or self._current.is_keyword("inout"):
                decls = self._parse_ansi_port()
                module.items.extend(decls)
                module.port_order.extend(
                    name for decl in decls if isinstance(decl, ast.PortDecl) for name in decl.names
                )
            else:
                raise self._error("expected port name or direction")
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_ansi_port(self) -> List[ast.ModuleItem]:
        direction = self._advance().value
        kind = None
        if self._current.is_keyword("wire") or self._current.is_keyword("reg"):
            kind = self._advance().value
        signed = self._accept_keyword("signed")
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        name = self._expect_ident()
        items: List[ast.ModuleItem] = [ast.PortDecl(direction=direction, names=[name], range=rng)]
        if kind == "reg" or (kind is None and direction == "output" and False):
            items.append(ast.NetDecl(kind="reg", names=[name], range=rng, signed=signed))
        elif kind == "wire":
            items.append(ast.NetDecl(kind="wire", names=[name], range=rng, signed=signed))
        return items

    # -- module items ------------------------------------------------------

    def _parse_module_item(self):
        tok = self._current
        if tok.is_keyword("input") or tok.is_keyword("output") or tok.is_keyword("inout"):
            return self._parse_port_decl()
        if tok.is_keyword("wire") or tok.is_keyword("reg") or tok.is_keyword("integer"):
            return self._parse_net_decl()
        if tok.is_keyword("parameter") or tok.is_keyword("localparam"):
            return self._parse_param_decl()
        if tok.is_keyword("assign"):
            return self._parse_continuous_assign()
        if tok.is_keyword("always"):
            return self._parse_always()
        if tok.is_keyword("initial"):
            return self._parse_initial()
        raise self._error("unsupported module item")

    def _parse_range(self) -> ast.Range:
        self._expect_punct("[")
        msb = self.parse_expression()
        self._expect_punct(":")
        lsb = self.parse_expression()
        self._expect_punct("]")
        return ast.Range(msb=msb, lsb=lsb)

    def _parse_name_list(self) -> List[str]:
        names = [self._expect_ident()]
        while self._accept_punct(","):
            names.append(self._expect_ident())
        return names

    def _parse_port_decl(self) -> ast.PortDecl:
        direction = self._advance().value
        extra_reg = False
        if self._current.is_keyword("reg"):
            self._advance()
            extra_reg = True
        elif self._current.is_keyword("wire"):
            self._advance()
        signed = self._accept_keyword("signed")
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        names = self._parse_name_list()
        self._expect_punct(";")
        decl = ast.PortDecl(direction=direction, names=names, range=rng)
        if extra_reg:
            return [decl, ast.NetDecl(kind="reg", names=list(names), range=rng, signed=signed)]
        return decl

    def _parse_net_decl(self) -> ast.ModuleItem:
        kind = self._advance().value
        signed = self._accept_keyword("signed")
        rng = None
        if self._current.is_punct("["):
            rng = self._parse_range()
        names = []
        items = []
        while True:
            name = self._expect_ident()
            names.append(name)
            if self._accept_punct("="):
                # net declaration with initialiser: treat as continuous assign
                value = self.parse_expression()
                items.append(ast.ContinuousAssign(target=ast.Identifier(name), value=value))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        decl = ast.NetDecl(kind=kind, names=names, range=rng, signed=signed)
        if items:
            return [decl] + items
        return decl

    def _parse_param_decl(self) -> List[ast.ParamDecl]:
        local = self._advance().value == "localparam"
        if self._current.is_punct("["):
            self._parse_range()
        decls = []
        while True:
            name = self._expect_ident()
            self._expect_punct("=")
            value = self.parse_expression()
            decls.append(ast.ParamDecl(name=name, value=value, local=local))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return decls

    def _parse_continuous_assign(self) -> List[ast.ContinuousAssign]:
        self._expect_keyword("assign")
        assigns = []
        while True:
            target = self._parse_lvalue()
            self._expect_punct("=")
            value = self.parse_expression()
            assigns.append(ast.ContinuousAssign(target=target, value=value))
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return assigns

    def _parse_always(self) -> ast.AlwaysBlock:
        self._expect_keyword("always")
        self._expect_punct("@")
        sensitivity = self._parse_sensitivity()
        body = self.parse_statement()
        return ast.AlwaysBlock(sensitivity=sensitivity, body=body)

    def _parse_sensitivity(self) -> ast.Sensitivity:
        sens = ast.Sensitivity()
        if self._accept_punct("*"):
            sens.star = True
            return sens
        self._expect_punct("(")
        if self._accept_punct("*"):
            sens.star = True
            self._expect_punct(")")
            return sens
        while True:
            if self._current.is_keyword("posedge") or self._current.is_keyword("negedge"):
                edge = self._advance().value
                signal = self._expect_ident()
                sens.edges.append(ast.EdgeEvent(edge=edge, signal=signal))
            else:
                sens.levels.append(self._expect_ident())
            if self._accept_punct(",") or self._accept_keyword("or"):
                continue
            break
        self._expect_punct(")")
        return sens

    def _parse_initial(self) -> ast.InitialBlock:
        self._expect_keyword("initial")
        body = self.parse_statement()
        return ast.InitialBlock(body=body)

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        """Parse a procedural statement."""
        if self._current.is_keyword("begin"):
            return self._parse_block()
        if self._current.is_keyword("if"):
            return self._parse_if()
        if (
            self._current.is_keyword("case")
            or self._current.is_keyword("casez")
            or self._current.is_keyword("casex")
        ):
            return self._parse_case()
        if self._current.is_punct(";"):
            self._advance()
            return ast.Block()
        return self._parse_assignment_stmt()

    def _parse_block(self) -> ast.Block:
        self._expect_keyword("begin")
        if self._accept_punct(":"):
            self._expect_ident()
        statements = []
        while not self._current.is_keyword("end"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unexpected end of input inside begin/end")
            statements.append(self.parse_statement())
        self._expect_keyword("end")
        return ast.Block(statements=statements)

    def _parse_if(self) -> ast.If:
        self._expect_keyword("if")
        self._expect_punct("(")
        condition = self.parse_expression()
        self._expect_punct(")")
        then_body = self.parse_statement()
        else_body = None
        if self._accept_keyword("else"):
            else_body = self.parse_statement()
        return ast.If(condition=condition, then_body=then_body, else_body=else_body)

    def _parse_case(self) -> ast.Case:
        keyword = self._advance().value
        self._expect_punct("(")
        subject = self.parse_expression()
        self._expect_punct(")")
        case = ast.Case(subject=subject, wildcard=keyword in ("casez", "casex"))
        while not self._current.is_keyword("endcase"):
            if self._current.kind is TokenKind.EOF:
                raise self._error("unexpected end of input inside case")
            if self._accept_keyword("default"):
                self._accept_punct(":")
                case.default = self.parse_statement()
                continue
            labels = [self.parse_expression()]
            while self._accept_punct(","):
                labels.append(self.parse_expression())
            self._expect_punct(":")
            body = self.parse_statement()
            case.items.append(ast.CaseItem(labels=labels, body=body))
        self._expect_keyword("endcase")
        return case

    def _parse_assignment_stmt(self) -> ast.Assignment:
        target = self._parse_lvalue()
        if self._accept_punct("<="):
            blocking = False
        elif self._accept_punct("="):
            blocking = True
        else:
            raise self._error("expected '=' or '<=' in assignment")
        value = self.parse_expression()
        self._expect_punct(";")
        return ast.Assignment(target=target, value=value, blocking=blocking)

    def _parse_lvalue(self) -> ast.Expr:
        if self._current.is_punct("{"):
            return self._parse_concat()
        name = self._expect_ident()
        expr: ast.Expr = ast.Identifier(name)
        while self._current.is_punct("["):
            self._advance()
            first = self.parse_expression()
            if self._accept_punct(":"):
                second = self.parse_expression()
                self._expect_punct("]")
                expr = ast.PartSelect(base=expr, msb=first, lsb=second)
            else:
                self._expect_punct("]")
                expr = ast.BitSelect(base=expr, index=first)
        return expr

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        """Parse an expression (ternary is the lowest-precedence level)."""
        condition = self._parse_binary(0)
        if self._accept_punct("?"):
            then = self.parse_expression()
            self._expect_punct(":")
            otherwise = self.parse_expression()
            return ast.Ternary(cond=condition, then=then, otherwise=otherwise)
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self._current
            if tok.kind is not TokenKind.PUNCT or tok.value not in _BINARY_PRECEDENCE:
                return left
            precedence = _BINARY_PRECEDENCE[tok.value]
            if precedence < min_precedence:
                return left
            op = self._advance().value
            right = self._parse_binary(precedence + 1)
            left = ast.Binary(op=op, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        tok = self._current
        if tok.kind is TokenKind.PUNCT and tok.value in _UNARY_OPS:
            op = self._advance().value
            operand = self._parse_unary()
            if op == "+":
                return operand
            return ast.Unary(op=op, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self._current
        if tok.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Number(value=int(tok.value.replace("_", "")))
        if tok.kind is TokenKind.BASED_NUMBER:
            self._advance()
            return _parse_based_number(tok.value)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            expr: ast.Expr = ast.Identifier(tok.value)
            while self._current.is_punct("["):
                self._advance()
                first = self.parse_expression()
                if self._accept_punct(":"):
                    second = self.parse_expression()
                    self._expect_punct("]")
                    expr = ast.PartSelect(base=expr, msb=first, lsb=second)
                else:
                    self._expect_punct("]")
                    expr = ast.BitSelect(base=expr, index=first)
            return expr
        if tok.is_punct("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if tok.is_punct("{"):
            return self._parse_concat()
        raise self._error("expected expression")

    def _parse_concat(self) -> ast.Expr:
        self._expect_punct("{")
        first = self.parse_expression()
        if self._current.is_punct("{"):
            # Replication: {N{expr}}
            self._advance()
            value = self.parse_expression()
            self._expect_punct("}")
            self._expect_punct("}")
            return ast.Replicate(count=first, value=value)
        parts = [first]
        while self._accept_punct(","):
            parts.append(self.parse_expression())
        self._expect_punct("}")
        if len(parts) == 1:
            return parts[0]
        return ast.Concat(parts=tuple(parts))


def _parse_based_number(text: str) -> ast.Number:
    """Convert a based literal such as ``8'hFF`` or ``1'b0`` to a Number node."""
    size_text, _, rest = text.partition("'")
    rest = rest.lstrip("sS")
    base_char = rest[0].lower()
    digits = rest[1:].replace("_", "").replace("?", "0")
    digits = digits.replace("x", "0").replace("X", "0").replace("z", "0").replace("Z", "0")
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_char]
    value = int(digits, base) if digits else 0
    width = int(size_text) if size_text else None
    return ast.Number(value=value, width=width)


def parse_source(text: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`SourceFile`."""
    return Parser(tokenize(text)).parse_source()


def parse_module(text: str, name: Optional[str] = None) -> ast.Module:
    """Parse Verilog source text and return one module from it."""
    return parse_source(text).module(name)


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone Verilog expression (used by the SVA boolean layer)."""
    parser = Parser(tokenize(text))
    expr = parser.parse_expression()
    if parser._current.kind is not TokenKind.EOF:
        raise ParseError(
            f"trailing input after expression: {parser._current.value!r}",
            parser._current.line,
            parser._current.column,
        )
    return expr
