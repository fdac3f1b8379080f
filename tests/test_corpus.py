import json
import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revkit.corpus import (
    SPECIAL_MARKERS,
    ArticleGroup,
    DocVersion,
    RawGroup,
    Sentence,
    SentenceId,
    _analyse,
    _english_fraction,
    _tokenize_chunk,
    build_group,
    paragraph_skip_filter,
    parse_arxivedits_corpus,
    parse_corpus,
    sentence_skip_filter,
    tokenize,
)
from revkit.errors import CorpusFormatError

from helpers import doc, sent, serialize_corpus
from oracles import (
    oracle_english_fraction,
    oracle_paragraph_skip,
    oracle_sentence_skip,
    oracle_special_count,
    oracle_tokenize,
)


# ---------------------------------------------------------------------------
# tokenizer

def test_tokenize_simple():
    assert tokenize("Note that .") == ("Note", "that", ".")


def test_each_marker_is_one_counted_token():
    for marker in ("[REF]", "[CIT]", "[MATH]", "[EQN]"):
        tokens, special, _ = _analyse(f"see {marker} .")
        assert tokens == ("see", marker, ".")
        assert special == oracle_special_count(tokens) == 1


def test_tokenize_peels_trailing_punctuation():
    assert tokenize("Fig. [REF] , the") == ("Fig", ".", "[REF]", ",", "the")


def test_tokenize_marker_inside_chunk():
    assert tokenize("a[MATH]b") == ("a", "[MATH]", "b")


def test_tokenize_all_markers():
    toks = tokenize("[REF] [CIT] [MATH] [EQN]")
    assert toks == ("[REF]", "[CIT]", "[MATH]", "[EQN]")
    assert SPECIAL_MARKERS == frozenset(toks)
    assert _analyse("[REF] [CIT] [MATH] [EQN]")[1] == oracle_special_count(toks) == 4


def test_tokenize_incomplete_marker_is_plain():
    assert tokenize("[REF") == ("[", "REF")
    assert _analyse("[REF")[1] == 0


@given(st.text())
def test_tokenize_idempotent(text):
    toks = tokenize(text)
    assert all(toks)  # no empty token
    assert tokenize(" ".join(toks)) == toks


# ---------------------------------------------------------------------------
# skip filters

@pytest.mark.parametrize(
    "raw,skipped",
    [
        ("the cat sat on the mat today", False),
        ("too few", True),                      # 2 tokens
        ("three tokens here", True),            # 3 tokens, still too few
        ("four real tokens here", False),
        ("ends with a comma ,", True),
        ("ends with a colon :", True),
        ("x" * 1001, True),                     # raw too long
        ("12 34 56 78 90 ab", True),            # letters under 70 percent
    ],
)
def test_sentence_skip_filter(raw, skipped):
    assert sent(raw).skipped is skipped


def test_sentence_skip_mostly_markers():
    # 7 of 10 tokens special: fraction 0.7 > 0.6
    raw = "[MATH] [MATH] [MATH] [MATH] [MATH] [MATH] [MATH] one two three"
    assert sent(raw).skipped is True
    # exactly 0.6 stays in
    raw = "[MATH] [MATH] [MATH] [MATH] [MATH] [MATH] one two three four"
    assert sent(raw).skipped is False


def test_sentence_skip_boundary_token_count():
    assert sent("one two three four").skipped is False
    assert len(sent("one two three four").tokens) == 4


def test_paragraph_skip_too_short():
    d = doc([["only eight tokens live in this one sentence"]])
    assert d.paragraphs[0].skipped is True  # 8 < 10
    d = doc([["exactly ten tokens are found in this very sentence here"]])
    assert d.paragraphs[0].skipped is False


def test_paragraph_skip_special_fraction():
    words = ["w%d" % i for i in range(90)]
    ten_special = " ".join(words[:45]) + " [MATH]" * 10 + " " + " ".join(words[45:])
    assert doc([[ten_special]]).paragraphs[0].skipped is False  # 10/100
    mostly = " ".join(f"x{i}" for i in range(69)) + " [MATH]" * 31
    assert doc([[mostly]]).paragraphs[0].skipped is True  # 31/100 > 0.3


def test_alignable_sentences_excludes_skipped_paragraph():
    d = doc([["short one"], ["this paragraph is long enough to stay alignable in full"]])
    ids = [s.id.paragraph for s in d.alignable_sentences()]
    assert ids == [1]


def test_alignable_skipped_sentence_inside_good_paragraph():
    d = doc([["this paragraph is long enough to stay alignable in full", "way short"]])
    assert d.paragraphs[0].skipped is False
    assert [s.id.sentence for s in d.alignable_sentences()] == [0]


# ---------------------------------------------------------------------------
# tokenizer and filters against the first-written versions in oracles.py

_texts = st.lists(
    st.sampled_from(["the", "Model", "we", "x", "2021", "3.5", "'s", "--", "(e.g.,", "x).", "\"a\"!"])
    | st.sampled_from(string.ascii_letters + string.digits + string.punctuation)
    | st.sampled_from(["[REF]", "[CIT]", "[MATH]", "[EQN]", "[REF", "CIT]", "[MAT", "[[EQN]]"])
    | st.sampled_from(["caf\u00e9", "na\u00efve", "\u03a9mega", "\u00df", "\u65e5\u672c"])
    | st.sampled_from([" ", " ", " ", "\t", "\n", "\xa0", "\u2028", "\x1c", "\u3000"])
    | st.characters(),
    max_size=40,
).map("".join)


@example("(see Fig. 3a).")
@given(_texts)
def test_tokenize_matches_oracle_on_cold_and_warm_cache(text):
    _tokenize_chunk.cache_clear()
    cold = tokenize(text)
    warm = tokenize(text)
    assert cold == warm == oracle_tokenize(text)


@example("abcdefg 123")  # exactly 0.7
@given(_texts)
def test_english_fraction_matches_oracle(text):
    visible = sum(map(len, tokenize(text)))
    assert visible == len("".join(text.split()))
    assert _english_fraction(text, visible) == oracle_english_fraction(text)


def _oracle_sentence(raw: str, n: int = 0) -> Sentence:
    return Sentence(SentenceId(1, 0, n), raw, oracle_tokenize(raw))


@example("[REF] [CIT] [MATH] these words")  # special fraction exactly 0.6
@example("[REF] [CIT] [MATH] [EQN] words")
@example("abcdefg 1 2 3")  # letter fraction exactly 0.7
@example("abcdef 1 2 3 4")
@example("one two three four ,\xa0")
@given(_texts)
def test_sentence_skip_filter_matches_oracle(text):
    s = Sentence.build(text, SentenceId(1, 0, 0))
    expected = oracle_sentence_skip(_oracle_sentence(text))
    special = _analyse(text)[1]
    assert special == oracle_special_count(s.tokens)
    assert sentence_skip_filter(s.raw, s.tokens, special) is expected
    assert s.skipped is expected


@example(["one two three four five", "six seven eight nine ten"])  # exactly 10 tokens
@example(["one two three four five", "six seven eight nine"])
@example(["[REF] [CIT] [MATH] four five", "six seven eight nine ten"])  # special exactly 0.3
@example(["[REF] [CIT] [MATH] [EQN] five", "six seven eight nine ten"])
@given(st.lists(_texts, max_size=4))
def test_paragraph_skip_filter_matches_oracle(raws):
    (p,) = DocVersion.build(1, 0, [raws]).paragraphs
    expected = oracle_paragraph_skip([_oracle_sentence(r, n) for n, r in enumerate(raws)])
    tokens = sum(len(s.tokens) for s in p.sentences)
    assert paragraph_skip_filter(tokens, sum(_analyse(s.raw)[1] for s in p.sentences)) is expected
    assert p.skipped is expected


@st.composite
def _repeating_versions(draw):
    """Versions drawn from a small pool of texts, so that texts repeat
    within a paragraph, across paragraphs and across versions."""
    pool = draw(st.lists(
        _texts | st.sampled_from([
            "the model we train here is small",
            "The Model we train here is small",
            "[REF] [CIT] [MATH] these words",
            "one two three four ,",
            "abcdefg 1 2 3",
        ]),
        min_size=1, max_size=6,
    ))
    paragraphs = st.lists(st.lists(st.sampled_from(pool), max_size=5), max_size=4)
    versions = draw(st.lists(paragraphs, min_size=1, max_size=3))
    return tuple((v, 1000 * v, paras) for v, paras in enumerate(versions, 1))


@given(_repeating_versions())
def test_group_build_matches_sentence_by_sentence_oracle(versions):
    group = RawGroup("2101.00001", "cs", versions).build()
    first_tokens: dict[str, tuple] = {}
    for (index, _, raws), version in zip(versions, group.versions):
        assert len(version.paragraphs) == len(raws)
        for p, (para_raws, para) in enumerate(zip(raws, version.paragraphs)):
            expected = [Sentence(SentenceId(index, p, n), raw, oracle_tokenize(raw))
                        for n, raw in enumerate(para_raws)]
            assert len(para.sentences) == len(expected)
            for s, e in zip(para.sentences, expected):
                assert (s.id, s.raw, s.tokens) == (e.id, e.raw, e.tokens)
                assert s.skipped is oracle_sentence_skip(e)
                assert _analyse(s.raw)[1] == oracle_special_count(e.tokens)
                # equal texts in one group share one tokens tuple
                assert s.tokens is first_tokens.setdefault(s.raw, s.tokens)
            assert para.skipped is oracle_paragraph_skip(expected)


# Chunks shaped for Sentence.build's plain-chunk shortcut: punctuation at
# either edge or none, "[" inside a word, marker fragments, non-ASCII
# punctuation, and every whitespace separator str.split() knows,
# \x1c-\x1f included.
_edges = st.sampled_from(["", "", "", "(", ")", ".", ",", "\"", "'", "[", "]", "--", ".)", "\u00ab", "\u2014", "\u3002"])
_cores = st.sampled_from([
    "word", "Word", "WORD", "x", "2021", "3.5", "e.g", "wo[rd", "a[b]c", "a[REF]b", "[REF]", "[CIT", "REF]",
    "[MATH]x", "x[EQN]", "[[CIT]]", "caf\u00e9", "\u00bfqu\u00e9", "\u201cquote\u201d", "na\u00efve\u2026",
]) | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
_separators = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\u2028", "\u3000"])
_chunky_texts = st.lists(st.tuples(_edges, _cores, _edges, _separators), max_size=12).map(
    lambda parts: "".join(a + b + c + sep for a, b, c, sep in parts)
)


@example([["(see [REF].", "a[b REF] [CIT \u00abword\u00bb\x1fend ,"]])
@example([["one two three four ,\x1f", "one two three four ,\x1f", "w[CIT]s and more words here"]])
@example([["[REF] [CIT] [MATH] [EQN] five", "six seven eight nine ten"]])  # special share 0.4
@given(st.lists(st.lists(_chunky_texts, max_size=4), min_size=1, max_size=3).flatmap(
    lambda paras: st.lists(st.sampled_from(paras), min_size=1, max_size=4)
))
def test_one_pass_build_matches_oracles(paragraphs):
    # paragraphs are drawn from a pool, so texts repeat within a version
    versions = ((1, 1000, paragraphs), (2, 2000, paragraphs[::-1]))
    group = RawGroup("2101.00001", "cs", versions).build()
    for (_, _, raws), version in zip(versions, group.versions):
        for para_raws, para in zip(raws, version.paragraphs):
            expected = [Sentence(s.id, s.raw, oracle_tokenize(s.raw)) for s in para.sentences]
            assert [s.raw for s in para.sentences] == para_raws
            for s, e in zip(para.sentences, expected):
                assert s.tokens == e.tokens
                assert sum(map(len, s.tokens)) == len("".join(s.raw.split()))
                assert _analyse(s.raw)[1] == oracle_special_count(e.tokens)
                assert s.skipped is oracle_sentence_skip(e)
            assert para.skipped is oracle_paragraph_skip(expected)


# ---------------------------------------------------------------------------
# model accessors

def test_sentence_surfaces_and_sets():
    s = sent("The cat saw the CAT")
    assert s.tokens == ("The", "cat", "saw", "the", "CAT")


def test_normalized_raw_collapses_whitespace():
    assert sent("a  b\tc ").normalized_raw() == "a b c"


def test_doc_version_lookup():
    d = doc([["the first paragraph sentence is long enough to be kept here"]])
    assert d.paragraph(0).index == 0
    sid = SentenceId(1, 0, 0)
    assert d.sentence(sid).id == sid
    with pytest.raises(ValueError):
        d.paragraph(3)
    with pytest.raises(ValueError):
        d.sentence(SentenceId(1, 0, 9))


def test_doc_version_rejects_bad_index():
    with pytest.raises(ValueError):
        DocVersion.build(0, 10, [])


def test_group_version_lookup_and_pairs():
    g = build_group("1234.5678", "cs.CL", [doc([], 3, 30), doc([], 1, 10), doc([], 2, 20)])
    assert g.version(2).timestamp == 20
    pairs = [(a.version_index, b.version_index) for a, b in zip(g.versions, g.versions[1:])]
    assert pairs == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        g.version(9)


def test_build_group_sorts_versions():
    g = build_group("x", "math.AG", [doc([], 2, 20), doc([], 1, 10)])
    assert [v.version_index for v in g.versions] == [1, 2]


def test_build_group_rejects_nonmonotone_timestamps():
    with pytest.raises(CorpusFormatError, match="strictly increase"):
        build_group("x", "cs", [doc([], 1, 20), doc([], 2, 20)])


def test_build_group_rejects_duplicate_versions():
    with pytest.raises(CorpusFormatError, match="duplicate"):
        build_group("x", "cs", [doc([], 1, 10), doc([], 1, 20)])


def test_article_group_requires_versions():
    with pytest.raises(ValueError):
        ArticleGroup("x", "cs", ())


@pytest.mark.parametrize(
    "subject", ["cs.CL", "math.AG", "hep-th", "cond-mat.str-el", "q-bio.BM", "stat", "underwater-basketry"]
)
def test_subject_is_kept_as_given(subject):
    group = {"arxiv_id": "x", "subject": subject, "versions": [{"version": 1, "timestamp": 1, "paragraphs": []}]}
    assert parse_corpus(json.dumps([group]))[0].subject == subject
    released = {"id": "x", "primary_category": subject, "versions": [{"version": "v1", "paragraphs": []}]}
    assert parse_arxivedits_corpus(json.dumps([released]))[0].subject == subject


# ---------------------------------------------------------------------------
# corpus JSON

CORPUS = """
[
  {
    "arxiv_id": "1707.00001",
    "subject": "cs.CL",
    "versions": [
      {"version": 2, "timestamp": 200, "paragraphs": [
        {"sentences": ["the updated opening paragraph sentence is quite long now indeed"]}
      ]},
      {"version": 1, "timestamp": 100, "paragraphs": [
        {"sentences": ["the original opening paragraph sentence is quite long here indeed"]}
      ]}
    ]
  }
]
"""


def test_parse_corpus_sorts_versions():
    groups = parse_corpus(CORPUS)
    assert len(groups) == 1
    assert [v.version_index for v in groups[0].versions] == [1, 2]
    assert groups[0].subject == "cs.CL"


def test_parse_serialize_round_trip():
    groups = parse_corpus(CORPUS)
    text = serialize_corpus(groups)
    assert parse_corpus(text) == groups
    assert serialize_corpus(parse_corpus(text)) == text


def test_parse_corpus_error_paths():
    with pytest.raises(CorpusFormatError, match="invalid JSON"):
        parse_corpus("{nope")
    with pytest.raises(CorpusFormatError, match=r"\$"):
        parse_corpus("{}")
    with pytest.raises(CorpusFormatError, match=r"\$\[0\]\.arxiv_id"):
        parse_corpus('[{"subject": "cs", "versions": []}]')
    with pytest.raises(CorpusFormatError, match=r"\$\[0\]\.versions\[0\]\.version"):
        parse_corpus(
            '[{"arxiv_id": "x", "subject": "cs", "versions": [{"timestamp": 1, "paragraphs": []}]}]'
        )
    with pytest.raises(CorpusFormatError, match=r"paragraphs\[0\]\.sentences\[1\]"):
        parse_corpus(
            '[{"arxiv_id": "x", "subject": "cs", "versions": '
            '[{"version": 1, "timestamp": 1, "paragraphs": [{"sentences": ["ok", 3]}]}]}]'
        )


@pytest.mark.parametrize("arxiv_id", ["a\ud800b", "\udc80"])
def test_readers_reject_an_id_with_a_lone_surrogate(arxiv_id):
    group = {"arxiv_id": arxiv_id, "subject": "cs", "versions": [{"version": 1, "timestamp": 1, "paragraphs": []}]}
    for read in (parse_corpus, parse_arxivedits_corpus):
        with pytest.raises(CorpusFormatError, match=r"\$\[0\]\.arxiv_id: cannot hold a lone surrogate"):
            read(json.dumps([group]))


def test_parse_corpus_rejects_bool_version():
    with pytest.raises(CorpusFormatError, match="version"):
        parse_corpus(
            '[{"arxiv_id": "x", "subject": "cs", "versions": '
            '[{"version": true, "timestamp": 1, "paragraphs": []}]}]'
        )


# ---------------------------------------------------------------------------
# compatibility reader

def test_compat_reader_maps_field_spellings():
    data = """
    {"papers": [
      {"paper_id": "2004.00042", "primary_category": "math.CO", "versions": [
        {"version": "v1", "created": 50, "paragraphs": [
          ["first sentence of the only paragraph which is long enough to keep"]
        ]},
        {"version": "v2", "created": 70, "paragraphs": [
          {"sentences": ["second sentence of the only paragraph which is long enough to keep"]}
        ]}
      ]}
    ]}
    """
    groups = parse_arxivedits_corpus(data)
    assert len(groups) == 1
    g = groups[0]
    assert g.arxiv_id == "2004.00042"
    assert g.subject == "math.CO"
    assert [v.version_index for v in g.versions] == [1, 2]
    assert [v.timestamp for v in g.versions] == [50, 70]


def test_compat_reader_synthesises_timestamps():
    data = """
    [{"id": "x", "versions": [
      {"version": 1, "paragraphs": []},
      {"version": 2, "paragraphs": []}
    ]}]
    """
    g = parse_arxivedits_corpus(data)[0]
    assert g.subject == "other"
    assert [v.timestamp for v in g.versions] == [1, 2]


def test_compat_reader_versions_as_mapping():
    data = """
    [{"id": "y", "versions": {
      "v2": {"paragraphs": []},
      "v1": {"paragraphs": []}
    }}]
    """
    g = parse_arxivedits_corpus(data)[0]
    assert [v.version_index for v in g.versions] == [1, 2]


def test_compat_reader_rejects_unusable_version():
    with pytest.raises(CorpusFormatError, match="version index"):
        parse_arxivedits_corpus('[{"id": "z", "versions": [{"version": "vx", "paragraphs": []}]}]')


@pytest.mark.parametrize("version", ["0", "-1", '"v0"', '"v\u00b2"'])
def test_compat_reader_rejects_unusable_version_values(version):
    # superscript two passes str.isdigit but not int(); indices must be >= 1
    with pytest.raises(CorpusFormatError, match="version"):
        parse_arxivedits_corpus(
            '[{"id": "z", "versions": [{"version": %s, "paragraphs": []}]}]' % version
        )


# ---------------------------------------------------------------------------
# both readers: one validator, and nothing but CorpusFormatError

_LONG = "the only sentence of this paragraph is long enough to keep"
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(allow_nan=False),
    st.sampled_from(["v1", "V2", "vv3", "v0", "v\u00b2", "x", "", "cs.CL", _LONG]),
    st.text(max_size=8),
)
_paragraphs = st.lists(
    _scalars
    | st.lists(_scalars, max_size=3)
    | st.fixed_dictionaries({}, optional={"sentences": st.lists(_scalars, max_size=3) | _scalars}),
    max_size=3,
)
_version = st.fixed_dictionaries({}, optional={
    **dict.fromkeys(("version", "version_index", "timestamp", "time", "created"), _scalars),
    "paragraphs": _paragraphs | _scalars,
})
_group = st.fixed_dictionaries({}, optional={
    **dict.fromkeys(
        ("arxiv_id", "paper_id", "doc_id", "id", "subject", "primary_category", "category"),
        _scalars,
    ),
    "versions": st.lists(_version | _scalars, max_size=3)
    | st.dictionaries(st.sampled_from(["v1", "v2", "3", "x"]), _version | _scalars, max_size=3)
    | _scalars,
})
_groups = st.lists(_group | _scalars, max_size=3)
_corpora = (
    _groups
    | _group
    | st.fixed_dictionaries({}, optional=dict.fromkeys(("groups", "papers", "data"), _groups | _scalars))
    | _scalars
)


@example(b"[" * 100_000)
@example(b"[" + b"9" * 5000 + b"]")
@given(st.binary(max_size=64) | _corpora.map(lambda obj: json.dumps(obj).encode()))
def test_readers_return_groups_or_raise_corpus_format_error(data):
    for parse in (parse_corpus, parse_arxivedits_corpus):
        try:
            groups = parse(data)
        except CorpusFormatError:
            continue
        assert all(isinstance(g, ArticleGroup) for g in groups)


_sentences = st.sampled_from([_LONG, "too short", "[CIT] [MATH] [EQN] [REF]"]) | st.text(max_size=20)


@st.composite
def _native_corpora(draw):
    groups = []
    for n in range(draw(st.integers(1, 3))):
        indices = sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=4)))
        stamps = sorted(draw(st.sets(st.integers(-10, 10**9), min_size=len(indices),
                                     max_size=len(indices))))
        versions = []
        for index, stamp in zip(indices, stamps):
            raws = draw(st.lists(st.lists(_sentences, max_size=3), max_size=3))
            versions.append({"version": index, "timestamp": stamp,
                             "paragraphs": [{"sentences": r} for r in raws]})
        groups.append({
            "arxiv_id": f"{2001 + n}.{draw(st.integers(0, 99999)):05d}",
            "subject": draw(st.sampled_from(["cs.CL", "math.CO", "hep-th", "q-bio", "zz", ""])),
            "versions": versions,
        })
    return groups


def _released_spelling(native, draw):
    """The same corpus in the released distribution's shapes."""
    def pick(*options):
        return draw(st.sampled_from(options))

    groups = []
    for g in native:
        versions = []
        for v in draw(st.permutations(g["versions"])):
            versions.append((v["version"], {
                pick("time", "created", "timestamp"): v["timestamp"],
                "paragraphs": [pick(p["sentences"], p) for p in v["paragraphs"]],
            }))
        if draw(st.booleans()):
            spelled = {f"v{index}": body for index, body in versions}
        else:
            spelled = [
                dict(body, **{pick("version", "version_index"): pick(f"v{index}", index)})
                for index, body in versions
            ]
        groups.append({
            pick("paper_id", "doc_id", "id"): g["arxiv_id"],
            pick("primary_category", "category"): g["subject"],
            "versions": spelled,
        })
    return pick(groups, {"papers": groups}, {"data": groups})


@given(st.data())
def test_compat_reader_on_released_spelling_equals_native_reader(data):
    native = data.draw(_native_corpora())
    released = _released_spelling(native, data.draw)
    assert parse_arxivedits_corpus(json.dumps(released)) == parse_corpus(json.dumps(native))


def test_sentence_ids_follow_structure():
    d = doc(
        [
            ["the first of two kept sentences in paragraph zero right here",
             "the second of two kept sentences in paragraph zero right here"],
            ["the lone kept sentence of paragraph one sits right here too"],
        ],
        version_index=3,
    )
    ids = [s.id for p in d.paragraphs for s in p.sentences]
    assert ids == [
        SentenceId(3, 0, 0),
        SentenceId(3, 0, 1),
        SentenceId(3, 1, 0),
    ]
