import copy
import pickle

import pytest

from quiddity.matrices import (
    IDENTITY, S, T, TARGETS, Mat2, WordParseError,
    elem, equal_up_to_sign, m_n, parse_target, word_to_matrix,
)


def test_generator_constants():
    assert S.entries() == (0, -1, 1, 0)
    assert T.entries() == (1, 1, 0, 1)
    assert IDENTITY.entries() == (1, 0, 0, 1)


def test_generator_relations():
    assert S * S == -IDENTITY
    assert S * S * S * S == IDENTITY
    ts = T * S
    assert ts * ts * ts == -IDENTITY
    st = S * T
    assert st * st * st == -IDENTITY
    # a product is of two matrices: Mat2 * 2 is refused, not scaled
    with pytest.raises(TypeError):
        S * 2


def test_named_targets():
    assert TARGETS["TS"].entries() == (1, -1, 1, 0)
    assert TARGETS["ST"].entries() == (0, -1, 1, 1)
    assert TARGETS["TSTS"].entries() == (0, -1, 1, -1)
    assert TARGETS["STST"].entries() == (-1, -1, 1, 0)
    assert TARGETS["T^-1"].entries() == (1, -1, 0, 1)
    assert len(TARGETS) == 8
    for mat in TARGETS.values():
        assert mat.det() == 1


def test_mat2_is_immutable_and_hashable():
    mat = Mat2(1, 2, 3, 4)
    with pytest.raises(AttributeError):
        mat.a = 9
    with pytest.raises(AttributeError):
        mat.e = 9
    assert hash(Mat2(1, 2, 3, 4)) == hash(mat)
    assert hash(S * S * S * S) == hash(IDENTITY)
    assert Mat2(1, 0, 0, 1) != (1, 0, 0, 1)
    assert len({IDENTITY, Mat2(1, 0, 0, 1), -IDENTITY}) == 2
    assert repr(mat) == "[[1,2],[3,4]]"


def test_mat2_pickles_and_copies():
    mat = Mat2(1, 2, 3, 4)
    for twin in (pickle.loads(pickle.dumps(mat)), copy.copy(mat), copy.deepcopy(mat)):
        assert type(twin) is Mat2 and twin == mat and hash(twin) == hash(mat)
    assert copy.deepcopy({"target": S}) == {"target": S}


def test_inverse():
    mat = Mat2(2, 3, 1, 2)
    assert mat.det() == 1
    assert mat * mat.inverse() == IDENTITY
    with pytest.raises(ValueError):
        Mat2(2, 0, 0, 2).inverse()


def test_elem_is_one_step_product():
    assert elem(3).entries() == (3, -1, 1, 0)
    assert elem(0) == S
    assert m_n([3]) == elem(3)
    with pytest.raises(ValueError):
        elem(-1)


def test_m_n_orders_last_component_leftmost():
    a, b, c = 2, 3, 4
    assert m_n([a, b, c]) == elem(c) * elem(b) * elem(a)


def test_m_n_concatenation_law():
    left = (1, 3, 2)
    right = (2, 2, 1, 4)
    assert m_n(left + right) == m_n(right) * m_n(left)


def test_m_n_zero_component_reduction():
    # a middle zero merges its neighbours into one component, up to sign
    for a in range(1, 5):
        for b in range(1, 5):
            assert m_n([a, 0, b]) == -m_n([a + b])


def test_m_n_requires_components():
    with pytest.raises(ValueError):
        m_n([])
    with pytest.raises(ValueError):
        m_n([1, -2])


def test_equal_up_to_sign():
    mat = Mat2(1, -2, 3, 4)
    assert equal_up_to_sign(mat, mat)
    assert equal_up_to_sign(mat, -mat)
    assert not equal_up_to_sign(mat, Mat2(1, -2, 3, 5))
    assert not equal_up_to_sign(mat, Mat2(-1, -2, 3, 4))


def test_parse_word_tokens():
    # tokens T^3, S, T^-1, S^-1, multiplied left to right
    mat = word_to_matrix("T^3ST^-1S^-1")
    assert mat == T * T * T * S * T.inverse() * S.inverse()
    assert mat == Mat2(4, 3, 1, 1)
    assert word_to_matrix(" T^3 S T^-1 S^-1 ") == mat


def test_parse_word_rejects_garbage():
    with pytest.raises(WordParseError, match="^empty generator word$"):
        word_to_matrix("")
    with pytest.raises(WordParseError,
                       match=r"^cannot read generator word 'TX' at position 1$"):
        word_to_matrix("TX")
    with pytest.raises(WordParseError, match="^exponent of S must be 1 or -1, got 2$"):
        word_to_matrix("S^2")


def test_word_to_matrix_reads_left_to_right():
    assert word_to_matrix("TS") == T * S
    assert word_to_matrix("ST") == S * T
    assert word_to_matrix("T^2") == Mat2(1, 2, 0, 1)
    assert word_to_matrix("S^-1") == S * S * S


def test_parse_target_names_words_and_literals():
    assert parse_target("TSTS") is TARGETS["TSTS"]
    assert parse_target("T^-1S") == TARGETS["T^-1"] * S
    assert parse_target("[[0,-1],[1,1]]") == TARGETS["ST"]
    assert parse_target(" Id ") is TARGETS["Id"]


def test_parse_target_rejects_bad_literals():
    with pytest.raises(WordParseError):
        parse_target("[[1,2],[3]]")
    with pytest.raises(WordParseError):
        parse_target("[[1,2],[3,oops]]")
    with pytest.raises(ValueError):
        parse_target("[[1,0],[0,2]]")  # determinant 2
    with pytest.raises(WordParseError):
        parse_target("QQ")
