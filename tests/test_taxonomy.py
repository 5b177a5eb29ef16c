"""Topic tree parsing, keyword derivation, child insertion, serialization."""

import gc
import json
import weakref

import numpy as np
import pytest

from taxoforge.corpus import corpus_from_lines
from taxoforge.taxonomy import (
    Taxonomy,
    insert_children,
    normalize_name,
    parse_hierarchy,
    serialize,
    subtree_keywords,
)


@pytest.fixture
def corpus():
    return corpus_from_lines([
        "politics gun_control sports soccer baseball hockey\n",
        "a b c extra\n",
    ])


def test_parse_two_level_outline(corpus):
    # [PAPER-style fixture] politics/gun_control + sports/{soccer,baseball}
    tax = parse_hierarchy(
        "politics\n\tgun_control\nsports\n\tsoccer\n\tbaseball", corpus)
    root = tax.nodes[tax.root]
    assert root.center_term is None
    names = [corpus.vocab[tax.nodes[c].center_term] for c in root.children]
    assert names == ["politics", "sports"]
    sports = tax.nodes[root.children[1]]
    kids = [corpus.vocab[tax.nodes[c].center_term] for c in sports.children]
    assert kids == ["soccer", "baseball"]
    assert all(not n.is_novel for n in tax.nodes.values())


def test_parse_empty_text_gives_lone_root(corpus):
    tax = parse_hierarchy("", corpus)
    assert tax.nodes[tax.root].children == []


def test_parse_normalizes_names(corpus):
    assert normalize_name(" Gun Control ") == "gun_control"
    tax = parse_hierarchy("Gun Control", corpus)
    child = tax.nodes[tax.nodes[tax.root].children[0]]
    assert corpus.vocab[child.center_term] == "gun_control"


def _top_names(tax, corpus):
    return [corpus.vocab[tax.nodes[c].center_term]
            for c in tax.nodes[tax.root].children]


def test_parse_finds_a_name_as_written_in_a_cased_corpus():
    # the corpus loader keeps a token's case: a name is first looked up as
    # written, so an upper-case term can be a topic
    cased = corpus_from_lines(["NLP Vision machine_learning x y\n"])
    tax = parse_hierarchy("NLP\nMachine Learning", cased)
    assert _top_names(tax, cased) == ["NLP", "machine_learning"]


def test_parse_prefers_the_name_as_written_over_its_lower_case():
    both = corpus_from_lines(["nlp NLP x\n"])
    assert _top_names(parse_hierarchy("NLP", both), both) == ["NLP"]
    assert _top_names(parse_hierarchy("nlp", both), both) == ["nlp"]


def test_parse_unknown_name_lists_offenders(corpus):
    with pytest.raises(ValueError, match="not in vocabulary: nope, also_nope"):
        parse_hierarchy("politics\nnope\nalso_nope", corpus)


@pytest.mark.parametrize("outline", [
    "zz\n\tsoccer",
    "politics\n\tzz\n\t\tsoccer",
    # a known name below an unknown one, then a sibling of the unknown one
    "sports\n\tzz\n\t\tsoccer\n\t\t\thockey\n\tbaseball",
])
def test_parse_unknown_name_keeps_its_depth(corpus, outline):
    # an unknown topic's sub-topics sit one level below it, not two
    with pytest.raises(ValueError, match=r"^topic names not in vocabulary: zz$"):
        parse_hierarchy(outline, corpus)


def test_parse_indent_jump_below_an_unknown_name(corpus):
    with pytest.raises(ValueError,
                       match="line 3: indentation jumps more than one level"):
        parse_hierarchy("zz\n\tsoccer\n\t\t\thockey", corpus)


def test_parse_indent_jump_error(corpus):
    with pytest.raises(ValueError,
                       match="line 2: indentation jumps more than one level"):
        parse_hierarchy("politics\n\t\tsoccer", corpus)


@pytest.mark.parametrize("line", ["    soccer", " \tsoccer", "\t soccer"])
def test_parse_space_indent_error(corpus, line):
    # normalize_name strips spaces, so a space-indented child would
    # silently land at the wrong depth
    with pytest.raises(ValueError, match="line 2: indent with tabs only"):
        parse_hierarchy(f"sports\n{line}\npolitics", corpus)


def test_parse_repeated_name_under_two_parents_error(corpus):
    # cousins: one name under two level-1 topics
    with pytest.raises(ValueError,
                       match="line 4: topic 'soccer' repeats the topic of line 2"):
        parse_hierarchy("politics\n\tsoccer\nsports\n\tsoccer", corpus)


def test_parse_repeated_name_under_itself_error(corpus):
    # a topic repeated below itself, after normalization
    with pytest.raises(ValueError,
                       match="line 3: topic 'soccer' repeats the topic of line 2"):
        parse_hierarchy("sports\n\tsoccer\n\t\tSoccer", corpus)


# --- subtree keywords ---


def test_leaf_child_keywords_singleton(corpus):
    tax = parse_hierarchy("politics\n\tgun_control", corpus)
    pol = tax.nodes[tax.root].children[0]
    kws = subtree_keywords(tax, pol)
    (child_id,) = tax.nodes[pol].children
    assert kws == {child_id: {corpus.index["gun_control"]}}


def test_root_keywords_cover_subtrees(corpus):
    tax = parse_hierarchy("politics\n\tgun_control\nsports\n\tsoccer\n\tbaseball",
                          corpus)
    kws = subtree_keywords(tax, tax.root)
    by_name = {corpus.vocab[tax.nodes[c].center_term]:
               {corpus.vocab[t] for t in v} for c, v in kws.items()}
    assert by_name == {
        "politics": {"politics", "gun_control"},
        "sports": {"sports", "soccer", "baseball"},
    }


def test_chain_keywords_depth_first(corpus):
    # [DERIVED] 3-level chain a -> b -> c queried at root
    tax = parse_hierarchy("a\n\tb\n\t\tc", corpus)
    kws = subtree_keywords(tax, tax.root)
    (a_id,) = tax.nodes[tax.root].children
    assert kws == {a_id: {corpus.index[n] for n in "abc"}}


def test_duplicate_keyword_across_siblings_error(corpus):
    tax = Taxonomy()
    root = tax.add_node(center_term=None)
    a = tax.add_node(corpus.index["a"], parent=root.id)
    b = tax.add_node(corpus.index["b"], parent=root.id)
    tax.add_node(corpus.index["c"], parent=a.id)
    tax.add_node(corpus.index["c"], parent=b.id)
    with pytest.raises(ValueError, match="appears under two sibling sub-trees"):
        subtree_keywords(tax, root.id)


# --- insert_children ---


def test_update_known_child_in_place(corpus):
    tax = parse_hierarchy("sports\n\tsoccer", corpus)
    sports = tax.nodes[tax.root].children[0]
    soccer_id = tax.nodes[sports].children[0]
    terms, docs = np.arange(5), np.array([0])
    insert_children(tax, sports, [(soccer_id, terms, docs, 3.5)], [])
    assert tax.nodes[sports].children == [soccer_id]
    # stored as given, not copied
    assert tax.nodes[soccer_id].terms is terms
    assert tax.nodes[soccer_id].docs is docs
    assert tax.nodes[soccer_id].kappa == 3.5


def test_insert_novel_child(corpus):
    # [PAPER-style fixture] novel "hockey" under sports
    tax = parse_hierarchy("sports\n\tsoccer", corpus)
    sports = tax.nodes[tax.root].children[0]
    insert_children(
        tax, sports, [], [(corpus.index["hockey"], [1, 2], [0, 1], None)])
    assert len(tax.nodes[sports].children) == 2
    node = tax.nodes[tax.nodes[sports].children[1]]
    assert node.is_novel and node.children == []
    assert corpus.vocab[node.center_term] == "hockey"


def test_novel_center_collision_error(corpus):
    tax = parse_hierarchy("sports\n\tsoccer", corpus)
    sports = tax.nodes[tax.root].children[0]
    hockey = corpus.index["hockey"]
    insert_children(tax, sports, [], [(hockey, [1], [], None)])
    with pytest.raises(ValueError, match="collides with an existing child"):
        insert_children(tax, sports, [], [(hockey, [2], [], None)])
    with pytest.raises(ValueError, match="collides with an existing child"):
        insert_children(tax, sports, [], [(corpus.index["soccer"], [2], [], None)])


def test_tree_invariant_after_inserts(corpus):
    tax = parse_hierarchy("politics\nsports\n\tsoccer", corpus)
    sports = tax.nodes[tax.root].children[1]
    insert_children(tax, sports, [], [(corpus.index["hockey"], [1], [], None)])
    insert_children(tax, tax.root, [], [(corpus.index["extra"], [2], [], None)])
    edges = sum(len(n.children) for n in tax.nodes.values())
    assert edges == len(tax.nodes) - 1
    assert sorted(tax.subtree_ids(tax.root)) == sorted(tax.nodes)


# --- serialization ---


def _populate(tax, corpus):
    for node in tax.nodes.values():
        if node.center_term is not None and not len(node.terms):
            node.terms = [node.center_term]


def test_serialize_single_root(corpus):
    tax = parse_hierarchy("", corpus)
    # the pipeline stores the whole vocabulary on the root as its
    # training set; that is no ranking to print
    tax.nodes[tax.root].terms = range(corpus.num_terms)
    out = json.loads(serialize(tax, corpus, 10))
    assert out["name"] == "root" and out["children"] == []
    assert out["terms"] == []


def test_serialize_round_trip_shape(corpus):
    # [DERIVED] serialize -> re-parse gives an identical tree shape
    text = "politics\n\tgun_control\nsports\n\tsoccer\n\tbaseball"
    tax = parse_hierarchy(text, corpus)
    _populate(tax, corpus)
    out = json.loads(serialize(tax, corpus, 10))

    def shape(obj):
        return (obj["name"], [shape(c) for c in obj["children"]])

    lines = []

    def outline(obj, depth):
        for c in obj["children"]:
            lines.append("\t" * depth + c["name"])
            outline(c, depth + 1)

    outline(out, 0)
    tax2 = parse_hierarchy("\n".join(lines), corpus)
    _populate(tax2, corpus)
    assert shape(json.loads(serialize(tax2, corpus, 10))) == shape(out)


def test_serialize_truncates_to_top_k(corpus):
    tax = parse_hierarchy("politics", corpus)
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    node.terms = np.arange(8)[::-1]
    out = json.loads(serialize(tax, corpus, 3))
    child = out["children"][0]
    # center first, then the stored order
    assert child["terms"] == [corpus.vocab[t] for t in (corpus.index["politics"], 7, 6)]


def test_serialize_keeps_stored_order_center_first(corpus):
    # the clustering ranks a child's terms; serialize only moves the center
    # to the front
    tax = parse_hierarchy("a", corpus)
    node = tax.nodes[tax.nodes[tax.root].children[0]]
    a, b, c = (corpus.index[x] for x in "abc")
    node.terms = np.array([c, a, b])
    node.docs = np.array([1, 0])
    out = json.loads(serialize(tax, corpus, 10))
    assert out["children"][0]["terms"] == ["a", "c", "b"]
    assert out["children"][0]["doc_ids"] == [1, 0]


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), float("-inf")])
def test_serialize_rejects_non_finite_kappa(corpus, kappa):
    # json.dumps would write NaN or Infinity, which strict JSON readers reject
    tax = parse_hierarchy("politics\n\tgun_control", corpus)
    politics = tax.nodes[tax.root].children[0]
    tax.nodes[politics].kappa = 2.5
    tax.nodes[tax.nodes[politics].children[0]].kappa = kappa
    with pytest.raises(ValueError, match=f"node 'gun_control' has a non-finite "
                                         f"kappa {kappa}"):
        serialize(tax, corpus, 10)
    tax.nodes[tax.nodes[politics].children[0]].kappa = 0.0
    assert json.loads(serialize(tax, corpus, 10))["children"][0]["kappa"] == 2.5


def test_loading_and_serializing_leave_no_cycle_through_the_corpus():
    # a corpus held by a reference cycle is freed only when the garbage
    # collector runs, so a process that loads and completes many times
    # (the benchmark's worker) would hold several at once
    gc.collect()
    gc.disable()
    try:
        corpus = corpus_from_lines(["a b a\n", "b c\n"])
        assert gc.collect() == 0   # the loader's term index is no cycle
        tax = parse_hierarchy("a\n\tb\nc", corpus)
        serialize(tax, corpus, 5)
        ref = weakref.ref(corpus)
        del corpus, tax
        assert ref() is None
    finally:
        gc.enable()
