"""Composable token-filter chains (functions/tokenfilters.py) vs the
reference's miscellaneous-filter test vectors
(``analysis/common/src/test/.../miscellaneous/Test*.java``)."""

import numpy as np
import pytest

from lucene_solr_old_ray.functions.analysis import analyze_batch, analyze_text
from lucene_solr_old_ray.functions.tokenfilters import (
    capitalize_token,
    run_chain,
    scandinavian_fold,
    scandinavian_normalize,
)


def _stream(text, spec):
    """(terms, positions, inject, keyword) of one doc through a chain."""
    st = run_chain([text], spec)
    return (list(st.terms()), list(st.positions), list(st.inject),
            list(st.keyword))


def _terms_positions(text, spec):
    t, p, _, _ = _stream(text, spec)
    return t, p


# ------------------------------------------------- Scandinavian filters

# TestScandinavianNormalizationFilter.java vectors
NORM_VECTORS = [
    ("aeäaeeea", "æææeea"),
    ("aeäaeeeae", "æææeeæ"),
    ("aeaeeeae", "ææeeæ"),
    ("bøen", "bøen"),
    ("bOEen", "bØen"),
    ("åene", "åene"),
    ("blåbærsyltetøj", "blåbærsyltetøj"),
    ("blaabaersyltetöj", "blåbærsyltetøj"),
    ("räksmörgås", "ræksmørgås"),
    ("raeksmörgaos", "ræksmørgås"),
    ("raeksmörgaas", "ræksmørgås"),
    ("raeksmoergås", "ræksmørgås"),
    ("ab", "ab"),
    ("ob", "ob"),
    ("Ab", "Ab"),
    ("Ob", "Ob"),
    ("å", "å"),
    ("aa", "å"),
    ("aA", "å"),
    ("ao", "å"),
    ("aO", "å"),
    ("AA", "Å"),
    ("Aa", "Å"),
    ("Ao", "Å"),
    ("AO", "Å"),
    ("æ", "æ"),
    ("ä", "æ"),
    ("Æ", "Æ"),
    ("Ä", "Æ"),
    ("ae", "æ"),
    ("aE", "æ"),
    ("Ae", "Æ"),
    ("AE", "Æ"),
    ("ö", "ø"),
    ("ø", "ø"),
    ("Ö", "Ø"),
    ("Ø", "Ø"),
    ("oo", "ø"),
    ("oe", "ø"),
    ("oO", "ø"),
    ("oE", "ø"),
]


@pytest.mark.parametrize("raw,expected", NORM_VECTORS)
def test_scandinavian_normalization(raw, expected):
    assert scandinavian_normalize(raw) == expected


# TestScandinavianFoldingFilter.java core vectors
FOLD_VECTORS = [
    ("aeäaeeea", "aaaeea"),
    ("aeäaeeeae", "aaaeea"),
    ("aeaeeeae", "aaeea"),
    ("bøen", "boen"),
    ("åene", "aene"),
    ("blåbærsyltetøj", "blabarsyltetoj"),
    ("blaabaersyltetöj", "blabarsyltetoj"),
    ("räksmörgås", "raksmorgas"),
    ("raeksmörgaos", "raksmorgas"),
    ("raeksmörgaas", "raksmorgas"),
    ("raeksmoergås", "raksmorgas"),
    ("aa", "a"),
    ("aA", "a"),
    ("ao", "a"),
    ("AA", "A"),
    ("ae", "a"),
    ("Ae", "A"),
    ("æ", "a"),
    ("ä", "a"),
    ("ö", "o"),
    ("ø", "o"),
    ("oo", "o"),
    ("oe", "o"),
]


@pytest.mark.parametrize("raw,expected", FOLD_VECTORS)
def test_scandinavian_folding(raw, expected):
    assert scandinavian_fold(raw) == expected


# ------------------------------------------------- CapitalizationFilter

KEEP = frozenset(["and", "the", "it", "BIG"])


def test_capitalization_reference_vectors():
    # TestCapitalizationFilter.java:43-95 (keep matching is case-sensitive,
    # like the test's CharArraySet(…, ignoreCase=false))
    kw = dict(keep=KEEP)
    assert capitalize_token("kiTTEN", **kw) == "Kitten"
    assert capitalize_token("and", **kw) == "And"
    assert capitalize_token("AnD", **kw) == "And"
    assert capitalize_token("AnD", force_first_letter=False, **kw) == "And"
    assert capitalize_token("big", **kw) == "Big"
    assert capitalize_token("BIG", **kw) == "BIG"
    # keyword-tokenizer multi-word token
    assert (capitalize_token("Hello thEre my Name is Ryan", **kw)
            == "Hello there my name is ryan")
    # each word capitalized
    assert (capitalize_token("Hello thEre my Name is Ryan",
                             only_first_word=False, **kw)
            == "Hello There My Name Is Ryan")
    # only long words
    assert (capitalize_token("Hello thEre my Name is Ryan",
                             only_first_word=False, min_word_length=3, **kw)
            == "Hello There my Name is Ryan")
    assert capitalize_token("McKinley", **kw) == "Mckinley"
    assert (capitalize_token("McKinley", ok_prefix=("McK",), **kw)
            == "McKinley")
    assert (capitalize_token("1st 2nd third", only_first_word=False,
                             force_first_letter=False, **kw)
            == "1st 2nd Third")
    assert (capitalize_token("the The the", only_first_word=False, **kw)
            == "The The the")


def test_capitalization_chain():
    terms, _ = _terms_positions("kiTTEN carTWHEEL",
                                "chain:whitespace|capitalization")
    assert terms == ["Kitten", "Cartwheel"]


# ------------------------------------------------- basic term filters


def test_lowercase_uppercase_trim_length():
    terms, _ = _terms_positions("QuIcK brown", "chain:whitespace|lowercase")
    assert terms == ["quick", "brown"]
    terms, _ = _terms_positions("ab abc abcd abcde",
                                "chain:whitespace|length:3:4")
    assert terms == ["abc", "abcd"]
    # length drop preserves position holes (enablePositionIncrements)
    _, pos = _terms_positions("ab abc abcd abcde",
                              "chain:whitespace|length:3:4")
    assert pos == [1, 2]
    terms, _ = _terms_positions("  padded  ", "chain:keyword|trim")
    assert terms == ["padded"]


def test_stop_keep_and_position_holes():
    terms, pos = _terms_positions(
        "the quick fox", "chain:whitespace|lowercase|stop")
    assert terms == ["quick", "fox"]
    assert pos == [1, 2]
    terms, pos = _terms_positions(
        "red green blue", "chain:whitespace|keep:green")
    assert terms == ["green"]
    assert pos == [1]


def test_keep_word_filter_reference_case():
    # TestKeepWordFilter.java: keep {aaa, bbb}
    terms, pos = _terms_positions(
        "aaa BBB ccc ddd EEE", "chain:whitespace|lowercase|keep:aaa,bbb")
    assert terms == ["aaa", "bbb"]
    assert pos == [0, 1]


def test_elision():
    # TestElision.java: "l'avion" -> "avion"
    terms, _ = _terms_positions(
        "plop, juste pour voir l'embrouille avec O'brian. m'enfin.",
        "chain:standard|elision|lowercase")
    assert "embrouille" in terms and "enfin" in terms
    assert "l'embrouille" not in terms and "m'enfin" not in terms
    # non-article prefix untouched
    assert "o'brian" in terms


def test_ascii_folding_chain():
    terms, _ = _terms_positions("Des mêlées", "chain:whitespace|ascii_folding|lowercase")
    assert terms == ["des", "melees"]


# ------------------------------------------------- keyword marks + stemming


def test_keyword_marker_protects_stem():
    # TestKeywordMarkerFilter analogue: protected term not stemmed
    terms, _ = _terms_positions(
        "running jumping", "chain:whitespace|lowercase|"
        "keyword_marker:running|stem:english")
    assert terms == ["running", "jump"]


def test_pattern_keyword_marker():
    terms, _ = _terms_positions(
        "running jumping", "chain:whitespace|lowercase|"
        "pattern_keyword_marker:run.*|stem:english")
    assert terms == ["running", "jump"]


def test_stemmer_override():
    # TestStemmerOverrideFilter.java: "booked" -> "books" override beats
    # the Porter stem "book"
    terms, _ = _terms_positions(
        "booked cooked", "chain:whitespace|lowercase|"
        "stemmer_override:booked=books|stem:english")
    assert terms == ["books", "cook"]


def test_keyword_repeat_remove_duplicates():
    # KeywordRepeatFilter + stem + RemoveDuplicates: differing stems emit
    # original + stem at the same position; identical stems collapse
    terms, pos, inject, kw = _stream(
        "running run", "chain:whitespace|lowercase|keyword_repeat|"
        "stem:english|remove_duplicates")
    assert terms == ["running", "run", "run"]
    assert pos == [0, 0, 1]
    assert inject == [False, True, False]
    # the duplicate stemmed copy of "run" was removed
    assert kw == [True, False, True]


def test_keyword_repeat_field_length_counts_parents_only():
    ab = analyze_batch(
        ["running jumping"], with_positions=True,
        analyzer="chain:whitespace|lowercase|keyword_repeat|stem:english")
    assert list(ab.field_lengths) == [2]
    assert len(ab.doc_ids) == 4


# ------------------------------------------------- stream-level filters


def test_limit_token_count():
    terms, _ = _terms_positions(
        "a b c d e", "chain:whitespace|limit:3")
    assert terms == ["a", "b", "c"]


def test_limit_token_position():
    # LimitTokenPositionFilter(2): keep tokens at 1-based positions <= 2
    terms, pos = _terms_positions(
        "one two three four", "chain:whitespace|limit_pos:2")
    assert terms == ["one", "two"]
    assert pos == [0, 1]


def test_remove_duplicates_only_drops_overlaps():
    # same term at DIFFERENT positions is kept (posIncr > 0 resets the set)
    terms, pos = _terms_positions(
        "foo foo", "chain:whitespace|remove_duplicates")
    assert terms == ["foo", "foo"]
    assert pos == [0, 1]


# ------------------------------------------------- HyphenatedWordsFilter


def test_hyphenated_words_reference_vectors():
    # TestHyphenatedWordsFilter.java:33-44
    terms, pos = _terms_positions(
        "ecologi- cal devel- opment of scientific agricultural analysis",
        "chain:whitespace|hyphenated_words")
    assert terms == ["ecological", "development", "of", "scientific",
                     "agricultural", "analysis"]
    assert pos == [0, 1, 2, 3, 4, 5]


def test_hyphenated_words_trailing_hyphen():
    # TestHyphenatedWordsFilter.java testHyphenAtEnd: trailing unclosed run
    # keeps the '-' back
    terms, _ = _terms_positions(
        "clean up gamma- ray", "chain:whitespace|hyphenated_words")
    assert terms == ["clean", "up", "gammaray"]
    terms, _ = _terms_positions(
        "up gamma-", "chain:whitespace|hyphenated_words")
    assert terms == ["up", "gamma-"]


def test_hyphenated_multi_run():
    # a run of several hyphen-ended tokens joins into one
    terms, pos = _terms_positions(
        "elec- tro- magnetic field", "chain:whitespace|hyphenated_words")
    assert terms == ["electromagnetic", "field"]
    assert pos == [0, 1]


# ------------------------------------------------- batch/end-to-end


def test_chain_batch_matches_per_doc():
    docs = ["The quick-  brown Fox", "l'avion RAPIDE", "", "running runs"]
    spec = ("chain:whitespace|hyphenated_words|elision|lowercase|stop|"
            "stem:english")
    ab = analyze_batch(docs, with_positions=True, analyzer=spec)
    # per-doc equivalence with the query-side path
    for d, text in enumerate(docs):
        got = [str(ab.uniques[c])
               for c in ab.term_codes[ab.doc_ids == d]]
        assert got == analyze_text(text, spec), text
    assert list(ab.field_lengths) == [
        len(analyze_text(t, spec)) for t in docs]


def test_chain_standard_tokenizer_cased():
    terms, _ = _terms_positions("Foo.Bar baz", "chain:standard")
    # standard tokenizer keeps case until a lowercase step
    assert terms == ["Foo.Bar", "baz"]


def test_chain_letter_keyword_tokenizers():
    terms, _ = _terms_positions("ab3cd ef", "chain:letter|lowercase")
    assert terms == ["ab", "cd", "ef"]
    terms, _ = _terms_positions("One Two", "chain:keyword|lowercase")
    assert terms == ["one two"]


def test_chain_overlong_dropped():
    long = "x" * 300
    terms, pos = _terms_positions(f"a {long} b", "chain:whitespace")
    assert terms == ["a", "b"]
    assert pos == [0, 2]


def test_chain_unknown_filter_raises():
    with pytest.raises(ValueError):
        run_chain(["x"], "chain:whitespace|nonsense")


def test_chain_empty_batch():
    ab = analyze_batch([], with_positions=True, analyzer="chain:whitespace")
    assert len(ab.doc_ids) == 0
    assert len(ab.field_lengths) == 0


def test_chain_end_to_end_index_search(ray_session, tmp_path):
    """Index through a chain analyzer (hyphenation + keyword_repeat +
    stemming) and verify search finds both the surface form and the stem."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_old_ray.pipelines.build_index import build_index
    from lucene_solr_old_ray.pipelines.merge import merge_index
    from lucene_solr_old_ray.pipelines.search import search
    from lucene_solr_old_ray.queries import TermQuery
    from lucene_solr_old_ray.sources.corpus import CorpusSpec

    spec_str = ("chain:whitespace|hyphenated_words|lowercase|stop|"
                "keyword_repeat|stem:english|remove_duplicates")
    docs = [
        "the running engine restarts",
        "ecologi- cal development runs",
        "unrelated text entirely",
    ]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
    }), path)
    idx = str(tmp_path / "idx")
    spec = CorpusSpec(files=(path,), content_col="text",
                      meta_cols=("doc_id",), analyzer=spec_str)
    build_index(spec, idx, target_docs_per_partition=2)
    merge_index(idx, fan_in=8, strategy="local")

    def hits(term):
        return sorted(
            search(idx, [TermQuery(term)], k=10)["docid"].to_pylist())

    assert hits("running") == [0]     # surface form (keyword copy)
    assert hits("run") == [0, 1]      # stems of running / runs
    assert hits("ecological") == [1]  # de-hyphenated merge
    assert hits("the") == []          # stopped


# ------------------------------------------------- dictionary decompounding

SE_DICT = ("Bil,Dörr,Motor,Tak,Borr,Slag,Hammar,Pelar,Glas,Ögon,Fodral,Bas,"
           "Fiol,Makare,Gesäll,Sko,Vind,Rute,Torkare,Blad")


def test_dictionary_compound_reference_se():
    # TestCompoundWordTokenFilter.java testDumbCompoundWordsSE
    text = ("Bildörr Bilmotor Biltak Slagborr Hammarborr Pelarborr "
            "Glasögonfodral Basfiolsfodral Basfiolsfodralmakaregesäll "
            "Skomakare Vindrutetorkare Vindrutetorkarblad abba")
    terms, pos, inject, _ = _stream(
        text, f"chain:whitespace|dictionary_compound:{SE_DICT}")
    assert terms == [
        "Bildörr", "Bil", "dörr", "Bilmotor", "Bil", "motor",
        "Biltak", "Bil", "tak", "Slagborr", "Slag", "borr",
        "Hammarborr", "Hammar", "borr", "Pelarborr", "Pelar", "borr",
        "Glasögonfodral", "Glas", "ögon", "fodral",
        "Basfiolsfodral", "Bas", "fiol", "fodral",
        "Basfiolsfodralmakaregesäll", "Bas", "fiol", "fodral", "makare",
        "gesäll", "Skomakare", "Sko", "makare",
        "Vindrutetorkare", "Vind", "rute", "torkare",
        "Vindrutetorkarblad", "Vind", "rute", "blad", "abba"]
    # posIncr lane: original consumes the position, subwords overlap
    want_inject = [t != t_orig for t, t_orig in zip(
        terms, ["Bildörr"] * 3 + ["Bilmotor"] * 3 + ["Biltak"] * 3
        + ["Slagborr"] * 3 + ["Hammarborr"] * 3 + ["Pelarborr"] * 3
        + ["Glasögonfodral"] * 4 + ["Basfiolsfodral"] * 4
        + ["Basfiolsfodralmakaregesäll"] * 6 + ["Skomakare"] * 3
        + ["Vindrutetorkare"] * 4 + ["Vindrutetorkarblad"] * 4 + ["abba"])]
    assert inject == want_inject
    # subwords share the parent's position
    assert pos[:6] == [0, 0, 0, 1, 1, 1]


def test_dictionary_compound_longest_match():
    # testDumbCompoundWordsSELongestMatch
    dic = SE_DICT.replace("Fiol,", "Fiols,") + ",Fiolsfodral"
    terms, _, _, _ = _stream(
        "Basfiolsfodralmakaregesäll",
        f"chain:whitespace|dictionary_compound:{dic}:5:2:15:longest")
    assert terms == ["Basfiolsfodralmakaregesäll", "Bas", "fiolsfodral",
                     "fodral", "makare", "gesäll"]


def test_dictionary_compound_min_word_size():
    # tokens below minWordSize are not decomposed
    terms, _, _, _ = _stream(
        "abba", "chain:whitespace|dictionary_compound:ab,ba")
    assert terms == ["abba"]


def test_dictionary_compound_wordfile(tmp_path):
    p = tmp_path / "dict.txt"
    p.write_text("# comment\nbil\nmotor\n")
    terms, _, _, _ = _stream(
        "Bilmotor", f"chain:whitespace|dictionary_compound:@{p}")
    assert terms == ["Bilmotor", "Bil", "motor"]


def test_query_auto_stop_words(ray_session, tmp_path):
    """QueryAutoStopWordAnalyzer analogue: terms with df above the cap
    become stop words; composed chain drops them at query analysis."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_solr_old_ray.pipelines.analytics import (
        auto_stop_words,
        stop_chain_spec,
    )
    from lucene_solr_old_ray.pipelines.build_index import build_index
    from lucene_solr_old_ray.sources.corpus import CorpusSpec

    docs = ["common word alpha", "common word beta", "common gamma",
            "common delta", "epsilon common"]
    path = str(tmp_path / "documents.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
    }), path)
    idx = str(tmp_path / "idx")
    build_index(CorpusSpec(files=(path,), content_col="text",
                           meta_cols=("doc_id",)), idx,
                target_docs_per_partition=2)

    # df: common=5, word=2, others=1; 40% of 5 docs -> maxDocFreq 2
    stops = auto_stop_words(idx, max_percent=0.4)
    assert stops == {"common"}
    assert auto_stop_words(idx, max_doc_freq=1) == {"common", "word"}

    spec = stop_chain_spec(auto_stop_words(idx, max_doc_freq=1))
    assert analyze_text("Common word alpha runs", spec) == ["alpha", "runs"]

    # numDocs counts live docs: 4 of 5 after the delete -> maxDocFreq 1
    # (docFreq still counts the deleted doc, as in the reference)
    from lucene_solr_old_ray.pipelines.deletes import delete_by_query
    from lucene_solr_old_ray.queries import TermQuery

    delete_by_query(idx, TermQuery("gamma"))
    assert auto_stop_words(idx, max_percent=0.4) == {"common", "word"}


# --------------------------------------------- hyphenation decompounding

import os as _os

DA_XML = ("/root/reference/lucene/analysis/common/src/test/org/apache/"
          "lucene/analysis/compound/da_UTF8.xml")
needs_da = pytest.mark.skipif(not _os.path.exists(DA_XML),
                              reason="reference grammar absent")


@needs_da
def test_hyphenation_points_da():
    from lucene_solr_old_ray.functions.hyphenation import (
        load_hyphenation_tree,
    )
    t = load_hyphenation_tree(DA_XML)
    # derived from TestCompoundWordTokenFilter.testHyphenationOnly parts
    assert t.hyphenation_points("basketballkurv") == [0, 2, 6, 9, 10, 14]
    assert t.hyphenation_points("min") is None


@needs_da
def test_hyphenation_compound_with_dictionary():
    # testHyphenationCompoundWordsDA: dict {læse, hest}
    terms, pos, inject, _ = _stream(
        "min veninde som er lidt af en læsehest",
        f"chain:whitespace|hyphenation_compound:{DA_XML}:læse,hest")
    assert terms == ["min", "veninde", "som", "er", "lidt", "af", "en",
                     "læsehest", "læse", "hest"]
    assert inject == [False] * 8 + [True, True]
    assert pos[-3:] == [7, 7, 7]


@needs_da
def test_hyphenation_compound_longest_match():
    # testHyphenationCompoundWordsDELongestMatch: "basket" suppressed
    terms, _, _, _ = _stream(
        "basketballkurv",
        f"chain:whitespace|hyphenation_compound:{DA_XML}:"
        f"basketball,basket,ball,kurv:5:2:40:longest")
    assert terms == ["basketballkurv", "basketball", "ball", "kurv"]


@needs_da
def test_hyphenation_only_no_dictionary():
    # testHyphenationOnly: size windows, no dictionary
    for min_s, max_s, want in [
        (2, 4, ["basketballkurv", "ba", "sket", "bal", "ball", "kurv"]),
        (4, 6, ["basketballkurv", "basket", "sket", "ball", "lkurv",
                "kurv"]),
        (4, 10, ["basketballkurv", "basket", "basketbal", "basketball",
                 "sket", "sketbal", "sketball", "ball", "ballkurv",
                 "lkurv", "kurv"]),
    ]:
        terms, _, _, _ = _stream(
            "basketballkurv",
            f"chain:whitespace|hyphenation_compound:{DA_XML}:-:5:"
            f"{min_s}:{max_s}")
        assert terms == want, (min_s, max_s)


# ------------------------------------------------- CJK width + katakana stem


def test_cjk_width_reference_vectors():
    from lucene_solr_old_ray.functions.tokenfilters import cjk_width_fold

    # TestCJKWidthFilter.java: fullwidth ASCII folds to halfwidth
    assert cjk_width_fold("Ｔｅｓｔ") == "Test"
    assert cjk_width_fold("１２３４") == "1234"
    # halfwidth katakana folds to fullwidth, sound marks combine
    assert cjk_width_fold("ｶﾀｶﾅ") == "カタカナ"
    assert cjk_width_fold("ｳﾞｨｯﾂ") == "ヴィッツ"
    assert cjk_width_fold("ﾊﾟﾅｿﾆｯｸ") == "パナソニック"


def test_katakana_stem_reference_vectors():
    from lucene_solr_old_ray.functions.tokenfilters import katakana_stem

    # TestJapaneseKatakanaStemFilter.testStemVariants
    vec = [("コピー", "コピー"), ("コーヒー", "コーヒ"),
           ("タクシー", "タクシ"), ("パーティー", "パーティ"),
           ("パーティ", "パーティ"), ("センター", "センタ")]
    for raw, want in vec:
        assert katakana_stem(raw) == want, raw
    # half-width not in the KATAKANA block: unchanged
    assert katakana_stem("ﾀｸｼｰ") == "ﾀｸｼｰ"
    # min-length 4 override honored
    assert katakana_stem("コーヒー", minimum_length=6) == "コーヒー"


def test_cjk_width_and_katakana_chain():
    terms, _ = _terms_positions(
        "ﾀｸｼｰ Ｔｅｓｔ", "chain:whitespace|cjk_width|katakana_stem|lowercase")
    assert terms == ["タクシ", "test"]
    # keyword marks protect from katakana stemming
    terms, _ = _terms_positions(
        "タクシー", "chain:whitespace|keyword_marker:タクシー|katakana_stem")
    assert terms == ["タクシー"]


# --------------------------------------- Japanese iteration mark char filter


def test_iteration_mark_reference_vectors():
    from lucene_solr_old_ray.functions.charfilter import (
        iteration_mark_normalize as norm,
    )

    # TestJapaneseIterationMarkCharFilter.java (keywordAnalyzer cases =
    # the raw char-filter output)
    assert norm("時々") == "時時"
    assert norm("馬鹿々々しい") == "馬鹿馬鹿しい"
    assert norm("ミスヾ") == "ミスズ"
    assert norm("おゝの") == "おおの"
    assert norm("みすゞ") == "みすず"
    assert norm("じゞ") == "じじ"
    assert norm("じゝ") == "じし"
    assert norm("ところゞゝゝ") == "ところどころ"
    # malformed
    assert norm("abcところゝゝゝゝ") == "abcところcところ"
    assert norm("abcところゞゝゝゝ") == "abcところcところ"
    assert norm("ところゞゝゝゞゝゞ") == "ところどころゞゝゞ"
    assert norm("々") == "々"
    assert norm("ゞ") == "ゞ"
    assert norm("ゞゝ") == "ゞゝ"
    assert norm("。ゝ") == "。ゝ"
    assert norm("。。ゝゝ") == "。。ゝゝ"
    assert norm("？ゝ") == "？？"
    assert norm("ねやぽゞつむぴ") == "ねやぽぽつむぴ"
    assert norm("ねやぽゝつむぴ") == "ねやぽぽつむぴ"
    assert norm("") == ""
    assert norm("。。。") == "。。。"
    assert norm("時々、おゝのさんと一緒にお寿司を食べに行きます。") == \
        "時時、おおのさんと一緒にお寿司を食べに行きます。"


def test_iteration_mark_full_coverage():
    from lucene_solr_old_ray.functions.charfilter import (
        iteration_mark_normalize as norm,
    )

    # full hiragana plain/dakuten coverage (testHiraganaCoverage vectors)
    src = ("かゝがゝきゝぎゝくゝぐゝけゝげゝこゝごゝさゝざゝしゝじゝすゝずゝ"
           "せゝぜゝそゝぞゝたゝだゝちゝぢゝつゝづゝてゝでゝとゝどゝはゝばゝ"
           "ひゝびゝふゝぶゝへゝべゝほゝぼゝ")
    want = ("かかがかききぎきくくぐくけけげけここごこささざさししじしすすずす"
            "せせぜせそそぞそたただたちちぢちつつづつててでてととどとははばは"
            "ひひびひふふぶふへへべへほほぼほ")
    assert norm(src) == want
    src = ("かゞがゞきゞぎゞくゞぐゞけゞげゞこゞごゞさゞざゞしゞじゞすゞずゞ"
           "せゞぜゞそゞぞゞたゞだゞちゞぢゞつゞづゞてゞでゞとゞどゞはゞばゞ"
           "ひゞびゞふゞぶゞへゞべゞほゞぼゞ")
    want = ("かがががきぎぎぎくぐぐぐけげげげこごごごさざざざしじじじすずずず"
            "せぜぜぜそぞぞぞただだだちぢぢぢつづづづてでででとどどどはばばば"
            "ひびびびふぶぶぶへべべべほぼぼぼ")
    assert norm(src) == want


def test_iteration_mark_flags_and_analyzer():
    from lucene_solr_old_ray.functions.charfilter import (
        iteration_mark_normalize as norm,
    )

    assert norm("時々", normalize_kanji=False) == "時々"
    assert norm("おゝの", normalize_kana=False) == "おゝの"

    # analyzer dispatch: char filter in front of the CJK bigram chain
    ab = analyze_batch(["時々"], with_positions=True,
                       analyzer="iteration_mark")
    assert [str(ab.uniques[c]) for c in ab.term_codes] == ["時時"]


# -------------------------------------------------------- pattern filters


def test_pattern_replace_filter():
    # TestPatternReplaceFilter.java testReplaceAll / testReplaceFirst
    text = "aabfooaabfooabfoob ab caaaaaaaaab"
    terms, _ = _terms_positions(
        text, "chain:whitespace|pattern_replace:a*b:-")
    assert terms == ["-foo-foo-foo-", "-", "c-"]
    terms, _ = _terms_positions(
        text, "chain:whitespace|pattern_replace:a*b:-:first")
    assert terms == ["-fooaabfooabfoob", "-", "c-"]
    # strip (empty replacement) — empty result terms stay in the stream
    terms, _ = _terms_positions(
        text, "chain:whitespace|pattern_replace:a*b:")
    assert terms == ["foofoofoo", "", "c"]
    # $n group reference
    terms, _ = _terms_positions(
        "foobar", "chain:whitespace|pattern_replace:foo(.*):$1$1")
    assert terms == ["barbar"]


def test_pattern_capture_group_filter():
    # TestPatternCaptureGroupTokenFilter.java vectors
    def caps(text, rx, preserve):
        pres = "1" if preserve else "0"
        return _stream(text, f"chain:whitespace|pattern_capture:{pres}:{rx}")

    # no match / no capture group: token unchanged
    assert caps("foobarbaz", "xx", False)[0] == ["foobarbaz"]
    assert caps("foobarbaz", "..", False)[0] == ["foobarbaz"]
    # empty capture skipped
    assert caps("foobarbaz", ".(y*)", False)[0] == ["foobarbaz"]
    # whole-token capture: replaces when not preserving, skipped when
    # preserving
    assert caps("foobarbaz", "(.+)", False)[0] == ["foobarbaz"]
    assert caps("foobarbaz", "(.+)", True)[0] == ["foobarbaz"]
    # captureStart
    assert caps("foobarbaz", "^(.)", False)[0] == ["f"]
    t, p, inj, _ = caps("foobarbaz", "^(.)", True)
    assert t == ["foobarbaz", "f"] and inj == [False, True] and p == [0, 0]
    # multiple groups across repeated matches, camel-case style
    # '|' alternation inside a chain-step regex rides as the '\|' escape
    t, _, inj, _ = caps("letsPartyLikeIts1999", "([A-Za-z]+\\|[0-9]+)", True)
    assert t == ["letsPartyLikeIts1999", "letsPartyLikeIts", "1999"]
    t, _, _, _ = caps("foobarbaz", "(o+)", True)
    assert t == ["foobarbaz", "oo"]


def test_pattern_replace_char_filter_offsets():
    from lucene_solr_old_ray.functions.charfilter import (
        correct_offsets,
        pattern_replace_char_filter,
    )

    # TestPatternReplaceCharFilter-style: replacement shrinks the text;
    # offsets of later tokens corrected back onto the original
    out, op, df = pattern_replace_char_filter("aa bb cc", "aa", "a")
    assert out == "a bb cc"
    assert correct_offsets(np.array([2, 5]), op, df).tolist() == [3, 6]
    # group refs
    # "(\w+)(ing)" needs a \w before "ing", so "see-ing" survives
    out, _, _ = pattern_replace_char_filter("see-ing looking", "(\\w+)(ing)",
                                            "$1")
    assert out == "see-ing look"

    # analyzer prefix end to end with offsets
    ab = analyze_batch(["numbers 123 456"], with_positions=True,
                       analyzer="pattern_replace_char:[0-9]+:#",
                       with_offsets=True)
    terms = [str(ab.uniques[c]) for c in ab.term_codes]
    assert terms == ["numbers"]


def test_run_chain_tee():
    """TeeSinkTokenFilter analogue: one tokenize, several filter tails;
    tails see independent streams."""
    from lucene_solr_old_ray.functions.tokenfilters import run_chain_tee

    stemmed, exact, capped = run_chain_tee(
        ["Running FAST tests"], "whitespace",
        ["lowercase|stem:english", "lowercase", "capitalization"])
    assert list(stemmed.terms()) == ["run", "fast", "test"]
    assert list(exact.terms()) == ["running", "fast", "tests"]
    assert list(capped.terms()) == ["Running", "Fast", "Tests"]
    # parity with a from-scratch chain per tail
    from lucene_solr_old_ray.functions.tokenfilters import run_chain

    solo = run_chain(["Running FAST tests"],
                     "chain:whitespace|lowercase|stem:english")
    assert list(solo.terms()) == list(stemmed.terms())
