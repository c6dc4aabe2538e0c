"""TQL lexer, parser, unparser, and function registry."""

import re

import numpy as np
import pytest

from repro.exceptions import TQLNameError, TQLSyntaxError, TQLTypeError, \
    TQLUnsupportedError
from repro.tql import parse, unparse
from repro.tql.ast_nodes import (
    ArrayLiteral,
    Binary,
    Column,
    FuncCall,
    Literal,
    Subscript,
)
from repro.tql.functions import get_row_function
from repro.tql.lexer import SYMBOLS, tokenize

FIG5 = """
SELECT
    images[100:500, 100:500, 0:2] as crop,
    NORMALIZE(
        boxes,
        [100, 100, 400, 400]) as box
FROM
    dataset
WHERE IOU(boxes, "training/boxes") > 0.95
ORDER BY IOU(boxes, "training/boxes")
ARRANGE BY labels
"""


class TestLexer:
    def test_keywords_case_insensitive(self):
        toks = tokenize("select Images From ds")
        assert toks[0].value == "SELECT"
        assert toks[1].kind == "IDENT" and toks[1].value == "Images"
        assert toks[2].value == "FROM"

    def test_numbers(self):
        toks = tokenize("1 2.5 1e3 .5 3.1e-2")
        assert [t.value for t in toks[:-1]] == ["1", "2.5", "1e3", ".5",
                                                "3.1e-2"]

    def test_strings_with_escapes(self):
        toks = tokenize(r'"a\"b" ' + r"'c\'d'")
        assert toks[0].value == 'a"b'
        assert toks[1].value == "c'd"

    def test_unterminated_string(self):
        with pytest.raises(TQLSyntaxError):
            tokenize('"oops')

    def test_comments_skipped(self):
        toks = tokenize("SELECT x -- a comment\nFROM ds")
        assert [t.value for t in toks[:-1]] == ["SELECT", "x", "FROM", "ds"]

    def test_two_char_symbols(self):
        toks = tokenize("a <= b >= c != d <> e == f")
        symbols = [t.value for t in toks if t.kind == "SYMBOL"]
        assert symbols == ["<=", ">=", "!=", "<>", "=="]

    def test_unexpected_char(self):
        with pytest.raises(TQLSyntaxError):
            tokenize("SELECT @")


#: (text, exact tokens) pinned on the tokenizer: comments, both quote
#: kinds and backslash escapes, number forms, every symbol longest match
#: first, keywords of any case and identifiers that keep theirs
TOKEN_CORPUS = [
    ('SELECT x -- a comment\nFROM ds', [
        ('KEYWORD', 'SELECT', 0), ('IDENT', 'x', 7), ('KEYWORD', 'FROM', 22),
        ('IDENT', 'ds', 27), ('EOF', '', 29),
    ]),
    ('a--trailing comment, no newline', [
        ('IDENT', 'a', 0), ('EOF', '', 31),
    ]),
    ('-- only a comment\n', [
        ('EOF', '', 18),
    ]),
    ('"say \\"hi\\"" \'it\\\'s\' "back\\\\slash" \'mixed "quotes"\' "it\'s"', [
        ('STRING', 'say "hi"', 0), ('STRING', "it's", 13),
        ('STRING', 'back\\slash', 21), ('STRING', 'mixed "quotes"', 35),
        ('STRING', "it's", 52), ('EOF', '', 58),
    ]),
    ('"line\\\nbreak" \'\'', [
        ('STRING', 'line\nbreak', 0), ('STRING', '', 14), ('EOF', '', 16),
    ]),
    ('.5 1. 1e-3 1.5E+2 42 0.25e3 1.2.3 1e5e3 7.e2 3E', [
        ('NUMBER', '.5', 0), ('NUMBER', '1.', 3), ('NUMBER', '1e-3', 6),
        ('NUMBER', '1.5E+2', 11), ('NUMBER', '42', 18),
        ('NUMBER', '0.25e3', 21), ('NUMBER', '1.2', 28), ('NUMBER', '.3', 31),
        ('NUMBER', '1e5', 34), ('IDENT', 'e3', 37), ('NUMBER', '7.e2', 40),
        ('NUMBER', '3E', 45), ('EOF', '', 47),
    ]),
    ('<= >= != <> == = < > ( ) [ ] , : + - * / % .', [
        ('SYMBOL', '<=', 0), ('SYMBOL', '>=', 3), ('SYMBOL', '!=', 6),
        ('SYMBOL', '<>', 9), ('SYMBOL', '==', 12), ('SYMBOL', '=', 15),
        ('SYMBOL', '<', 17), ('SYMBOL', '>', 19), ('SYMBOL', '(', 21),
        ('SYMBOL', ')', 23), ('SYMBOL', '[', 25), ('SYMBOL', ']', 27),
        ('SYMBOL', ',', 29), ('SYMBOL', ':', 31), ('SYMBOL', '+', 33),
        ('SYMBOL', '-', 35), ('SYMBOL', '*', 37), ('SYMBOL', '/', 39),
        ('SYMBOL', '%', 41), ('SYMBOL', '.', 43), ('EOF', '', 44),
    ]),
    ('a<=b>=c!=d<>e==f=g<h>i', [
        ('IDENT', 'a', 0), ('SYMBOL', '<=', 1), ('IDENT', 'b', 3),
        ('SYMBOL', '>=', 4), ('IDENT', 'c', 6), ('SYMBOL', '!=', 7),
        ('IDENT', 'd', 9), ('SYMBOL', '<>', 10), ('IDENT', 'e', 12),
        ('SYMBOL', '==', 13), ('IDENT', 'f', 15), ('SYMBOL', '=', 16),
        ('IDENT', 'g', 17), ('SYMBOL', '<', 18), ('IDENT', 'h', 19),
        ('SYMBOL', '>', 20), ('IDENT', 'i', 21), ('EOF', '', 22),
    ]),
    ('<<= >== !== <>> === .. -+', [
        ('SYMBOL', '<', 0), ('SYMBOL', '<=', 1), ('SYMBOL', '>=', 4),
        ('SYMBOL', '=', 6), ('SYMBOL', '!=', 8), ('SYMBOL', '=', 10),
        ('SYMBOL', '<>', 12), ('SYMBOL', '>', 14), ('SYMBOL', '==', 16),
        ('SYMBOL', '=', 18), ('SYMBOL', '.', 20), ('SYMBOL', '.', 21),
        ('SYMBOL', '-', 23), ('SYMBOL', '+', 24), ('EOF', '', 25),
    ]),
    ('x[1:2, ::3].y(z)*2/3%4', [
        ('IDENT', 'x', 0), ('SYMBOL', '[', 1), ('NUMBER', '1', 2),
        ('SYMBOL', ':', 3), ('NUMBER', '2', 4), ('SYMBOL', ',', 5),
        ('SYMBOL', ':', 7), ('SYMBOL', ':', 8), ('NUMBER', '3', 9),
        ('SYMBOL', ']', 10), ('SYMBOL', '.', 11), ('IDENT', 'y', 12),
        ('SYMBOL', '(', 13), ('IDENT', 'z', 14), ('SYMBOL', ')', 15),
        ('SYMBOL', '*', 16), ('NUMBER', '2', 17), ('SYMBOL', '/', 18),
        ('NUMBER', '3', 19), ('SYMBOL', '%', 20), ('NUMBER', '4', 21),
        ('EOF', '', 22),
    ]),
    ('SeLeCt Images, _private1, x2 FrOm Ds '
     'wHeRe Label In (1) oRdEr bY s DESC', [
        ('KEYWORD', 'SELECT', 0), ('IDENT', 'Images', 7), ('SYMBOL', ',', 13),
        ('IDENT', '_private1', 15), ('SYMBOL', ',', 24), ('IDENT', 'x2', 26),
        ('KEYWORD', 'FROM', 29), ('IDENT', 'Ds', 34),
        ('KEYWORD', 'WHERE', 37), ('IDENT', 'Label', 43),
        ('KEYWORD', 'IN', 49), ('SYMBOL', '(', 52), ('NUMBER', '1', 53),
        ('SYMBOL', ')', 54), ('KEYWORD', 'ORDER', 56), ('KEYWORD', 'BY', 62),
        ('IDENT', 's', 65), ('KEYWORD', 'DESC', 67), ('EOF', '', 71),
    ]),
    ('select TRUE, false, Null, notes, order_id, selected', [
        ('KEYWORD', 'SELECT', 0), ('KEYWORD', 'TRUE', 7), ('SYMBOL', ',', 11),
        ('KEYWORD', 'FALSE', 13), ('SYMBOL', ',', 18),
        ('KEYWORD', 'NULL', 20), ('SYMBOL', ',', 24), ('IDENT', 'notes', 26),
        ('SYMBOL', ',', 31), ('IDENT', 'order_id', 33), ('SYMBOL', ',', 41),
        ('IDENT', 'selected', 43), ('EOF', '', 51),
    ]),
    ('\tSELECT\n  x\r\n', [
        ('KEYWORD', 'SELECT', 1), ('IDENT', 'x', 10), ('EOF', '', 13),
    ]),
    ('', [
        ('EOF', '', 0),
    ]),
]

#: (text, error offset, message) of input the tokenizer refuses
TOKEN_ERRORS = [
    ('"oops', 0, 'unterminated string literal'),
    ("SELECT 'ok' , 'open", 14, 'unterminated string literal'),
    ('x = "ends in \\', 4, 'unterminated string literal'),
    ('SELECT @', 7, "unexpected character '@'"),
    ('a + b # c', 6, "unexpected character '#'"),
    ('where x ! y', 8, "unexpected character '!'"),
]


class TestTokenizerCorpus:
    @pytest.mark.parametrize("text, want", TOKEN_CORPUS)
    def test_exact_tokens(self, text, want):
        assert [(t.kind, t.value, t.pos) for t in tokenize(text)] == want

    def test_corpus_covers_every_symbol(self):
        seen = {value for _text, want in TOKEN_CORPUS
                for kind, value, _pos in want if kind == "SYMBOL"}
        assert seen == set(SYMBOLS)

    @pytest.mark.parametrize("text, pos, message", TOKEN_ERRORS)
    def test_refused_input(self, text, pos, message):
        with pytest.raises(TQLSyntaxError, match=re.escape(message)) as err:
            tokenize(text)
        assert err.value.position == pos


class TestParser:
    def test_fig5_full_structure(self):
        q = parse(FIG5)
        assert len(q.projections) == 2
        crop = q.projections[0]
        assert crop.alias == "crop"
        assert isinstance(crop.expr, Subscript)
        assert isinstance(crop.expr.base, Column)
        assert crop.expr.base.name == "images"
        assert len(crop.expr.parts) == 3
        box = q.projections[1]
        assert isinstance(box.expr, FuncCall)
        assert box.expr.name == "NORMALIZE"
        assert isinstance(box.expr.args[1], ArrayLiteral)
        assert q.source == "dataset"
        assert isinstance(q.where, Binary) and q.where.op == ">"
        assert len(q.order_by) == 1 and q.order_by[0].ascending
        assert len(q.arrange_by) == 1

    def test_select_star(self):
        q = parse("SELECT *")
        assert q.select_star and not q.projections

    def test_precedence(self):
        q = parse("SELECT * WHERE a + b * c == d AND NOT e OR f")
        # OR at top
        assert q.where.op == "OR"
        left = q.where.left
        assert left.op == "AND"
        cmp_node = left.left
        assert cmp_node.op == "=="
        assert cmp_node.left.op == "+"
        assert cmp_node.left.right.op == "*"

    def test_slice_variants(self):
        q = parse("SELECT x[1:], x[:5], x[::2], x[3], x[1:5:2, 7]")
        parts = q.projections[4].expr.parts
        assert parts[0].is_slice and not parts[1].is_slice

    def test_order_desc_and_limit_offset(self):
        q = parse("SELECT * ORDER BY a DESC, b ASC LIMIT 10 OFFSET 5")
        assert [o.ascending for o in q.order_by] == [False, True]
        assert q.limit == 10 and q.offset == 5

    def test_sample_by(self):
        q = parse("SELECT * SAMPLE BY w REPLACE FALSE LIMIT 7")
        assert q.sample_by.replace is False
        assert q.sample_by.limit == 7
        assert q.limit is None

    def test_group_by(self):
        q = parse("SELECT labels, COUNT() as n GROUP BY labels")
        assert len(q.group_by) == 1

    def test_version_clause(self):
        q = parse('SELECT * VERSION "abc123" WHERE x > 0')
        assert q.version == "abc123"

    def test_join_unsupported(self):
        with pytest.raises(TQLUnsupportedError):
            parse("SELECT * FROM a JOIN b")

    def test_dotted_group_paths(self):
        q = parse("SELECT cams.left WHERE cams.left > 0")
        assert q.projections[0].expr.name == "cams/left"

    def test_contains_and_in(self):
        q = parse("SELECT * WHERE t CONTAINS 'cat' AND x IN [1, 2, 3]")
        assert q.where.left.op == "CONTAINS"
        assert q.where.right.op == "IN"

    def test_bare_alias(self):
        q = parse("SELECT MEAN(x) avg_x")
        assert q.projections[0].alias == "avg_x"

    def test_trailing_garbage(self):
        with pytest.raises(TQLSyntaxError):
            parse("SELECT * WHERE x > 0 banana phone")

    def test_missing_select(self):
        with pytest.raises(TQLSyntaxError):
            parse("WHERE x > 0")

    @pytest.mark.parametrize(
        "query",
        [
            FIG5,
            "SELECT *",
            "SELECT a, b AS bee WHERE (a + 1) * 2 >= b LIMIT 3",
            "SELECT x[0:5, 2] ORDER BY MEAN(x) DESC",
            "SELECT labels, COUNT() AS n GROUP BY labels",
            "SELECT * SAMPLE BY w REPLACE FALSE LIMIT 4 OFFSET 2",
            'SELECT * VERSION "c0ffee" WHERE NOT (a == 1 OR b != 2)',
            "SELECT t WHERE t CONTAINS 'cat' AND x IN [1, 2]",
        ],
    )
    def test_parse_unparse_fixpoint(self, query):
        once = unparse(parse(query))
        twice = unparse(parse(once))
        assert once == twice


class TestFunctions:
    def test_iou_identical_boxes(self):
        iou = get_row_function("IOU")
        box = np.array([10, 10, 20, 20], dtype=np.float64)
        assert iou(box, box) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        iou = get_row_function("IOU")
        assert iou(np.array([0, 0, 5, 5]), np.array([100, 100, 5, 5])) == 0.0

    def test_iou_known_overlap(self):
        iou = get_row_function("IOU")
        a = np.array([0, 0, 10, 10])
        b = np.array([5, 0, 10, 10])
        # intersection 50, union 150
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_iou_multi_box_mean(self):
        iou = get_row_function("IOU")
        a = np.array([[0, 0, 10, 10], [0, 0, 10, 10]])
        b = np.array([[0, 0, 10, 10], [100, 100, 1, 1]])
        assert iou(a, b) == pytest.approx(0.5)

    def test_normalize(self):
        norm = get_row_function("NORMALIZE")
        out = norm(np.array([150.0, 200.0, 100.0, 80.0]),
                   np.array([100, 100, 400, 400]))
        assert out == pytest.approx([0.125, 0.25, 0.25, 0.2])

    def test_normalize_bad_ref(self):
        with pytest.raises(TQLTypeError):
            get_row_function("NORMALIZE")(np.zeros(4), np.zeros(3))

    def test_reductions(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert get_row_function("MEAN")(x) == 2.5
        assert get_row_function("SUM")(x) == 10
        assert get_row_function("MAX")(x, 0).tolist() == [3.0, 4.0]
        assert get_row_function("ALL")(x > 0)
        assert not get_row_function("ANY")(x > 10)

    def test_softmax(self):
        out = get_row_function("SOFTMAX")(np.array([0.0, 0.0]))
        assert out.tolist() == [0.5, 0.5]

    def test_text_functions(self):
        assert get_row_function("LOWER")("AbC") == "abc"
        assert get_row_function("UPPER")("abc") == "ABC"
        assert get_row_function("LENGTH")("abcd") == 4
        with pytest.raises(TQLTypeError):
            get_row_function("LOWER")(np.zeros(3))

    def test_cosine(self):
        fn = get_row_function("COSINE_SIMILARITY")
        assert fn(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert fn(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_unknown_function(self):
        with pytest.raises(TQLNameError):
            get_row_function("FROBNICATE")
