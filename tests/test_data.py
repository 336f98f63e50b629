"""Loaders, the sparse rating store, splits, and snapshots."""

import tracemalloc
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdae import (BiasTable, DataError, IdMaps, RatingMatrix, RatingScale,
                   SplitSpec, TagMatrix, fit_bias, infer_scale, load_ratings,
                   load_snapshot, load_tag_snapshot, load_tags, save_snapshot,
                   save_tag_snapshot, split)
from cfdae.data import atomic_write


# ------------------------------------------------------------- RatingScale

def test_scale_validation():
    with pytest.raises(ValueError):
        RatingScale(5.0, 1.0)
    with pytest.raises(ValueError):
        RatingScale(1.0, 5.0, is_discrete=True, step=0.0)
    with pytest.raises(ValueError):
        RatingScale(1.0, 5.0, is_discrete=True, step=0.3)
    RatingScale(0.5, 5.0, is_discrete=True, step=0.5)


def test_scale_clamp():
    scale = RatingScale(1.0, 5.0)
    np.testing.assert_array_equal(scale.clamp(np.array([-3.0, 2.5, 9.0])),
                                  [1.0, 2.5, 5.0])


def test_infer_scale_discrete_half_steps():
    values = np.array([0.5, 1.0, 3.5, 5.0, 2.0])
    scale = infer_scale(values)
    assert scale == RatingScale(0.5, 5.0, True, 0.5)


def test_infer_scale_single_value_widens():
    scale = infer_scale(np.array([4.0, 4.0]))
    assert scale.min_rating < 4.0 < scale.max_rating


def test_infer_scale_irregular_is_continuous():
    scale = infer_scale(np.array([1.0, 2.0, 2.7]))
    assert not scale.is_discrete


# ------------------------------------------------------------ RatingMatrix

def test_matrix_rejects_bad_input():
    with pytest.raises(DataError):
        RatingMatrix(2, 2, [0, 0], [0, 0], [1.0, 2.0])  # duplicate pair
    with pytest.raises(DataError):
        RatingMatrix(2, 2, [0, 2], [0, 0], [1.0, 2.0])  # user out of range
    with pytest.raises(DataError):
        RatingMatrix(2, 2, [0, 1], [0, 0], [1.0, np.nan])
    # unsorted, with two duplicated cells: the first in (user, item) order
    with pytest.raises(DataError, match="duplicate rating for user 0, item 2"):
        RatingMatrix(2, 3, [1, 0, 1, 0], [1, 2, 1, 2], [1.0, 2.0, 3.0, 4.0])


def test_matrix_rejects_shapes_whose_cell_keys_overflow_int64():
    with pytest.raises(DataError, match="overflow"):
        RatingMatrix(2**32, 2**31, [], [], [])


def _cumsum_ptr(entities, n):
    return np.concatenate([[0], np.cumsum(np.bincount(entities, minlength=n))])


@settings(deadline=None, max_examples=60)
@given(n_users=st.integers(0, 7), n_items=st.integers(0, 7),
       share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_matrix_entry_order_against_lexsort_oracles(n_users, n_items, share,
                                                     seed):
    rng = np.random.default_rng(seed)
    cells = n_users * n_items
    flat = rng.permutation(cells)[:round(share * cells)]  # any order
    users, items = flat // max(n_items, 1), flat % max(n_items, 1)
    ratings = rng.uniform(1, 5, flat.size)
    m = RatingMatrix(n_users, n_items, users, items, ratings)

    by_user = np.lexsort((items, users))
    np.testing.assert_array_equal(m.users, users[by_user])
    np.testing.assert_array_equal(m.items, items[by_user])
    np.testing.assert_array_equal(m.ratings, ratings[by_user])
    by_item = np.lexsort((users, items))
    ptr, idx, vals = m.vectors("item")
    np.testing.assert_array_equal(ptr, _cumsum_ptr(items, n_items))
    np.testing.assert_array_equal(idx, users[by_item])
    np.testing.assert_array_equal(vals, ratings[by_item])
    np.testing.assert_array_equal(m.vectors("user")[0],
                                  _cumsum_ptr(users, n_users))

    arrays = (*m.vectors("user"), *m.vectors("item"), m.users)
    for arr in arrays:
        assert not arr.flags.writeable
    assert [arr.dtype for arr in arrays] == [np.int32, np.int32, np.float64,
                                             np.int32, np.int32, np.float64,
                                             np.int32]
    presorted = RatingMatrix(n_users, n_items, users[by_user],
                             items[by_user], ratings[by_user])
    assert presorted.fingerprint() == m.fingerprint()


def test_matrix_from_sorted_arrays_owns_its_copies(toy_ratings):
    users = np.array(toy_ratings.users)
    items = np.array(toy_ratings.items)
    ratings = np.array(toy_ratings.ratings)
    m = RatingMatrix(4, 5, users, items, ratings)
    fingerprint = m.fingerprint()
    stored = [m.users, m.items, m.ratings, *m.vectors("user"),
              *m.vectors("item")]
    for given_arr in (users, items, ratings):
        assert given_arr.flags.writeable
        assert not any(np.shares_memory(given_arr, arr) for arr in stored)
    before = [arr.copy() for arr in stored]
    users[:] = 0
    items[::-1].sort()
    ratings[:] = -1.0
    for arr, want in zip(stored, before):
        np.testing.assert_array_equal(arr, want)
    assert m.fingerprint() == fingerprint


def test_matrix_row_col_consistency(toy_ratings):
    by_row = {(u, i): r for u in range(toy_ratings.n_users)
              for i, r in zip(*toy_ratings.row(u))}
    by_col = {(u, i): r for i in range(toy_ratings.n_items)
              for u, r in zip(*toy_ratings.col(i))}
    entries = dict(zip(zip(toy_ratings.users, toy_ratings.items),
                       toy_ratings.ratings))
    assert by_row == entries
    assert by_col == entries


@pytest.mark.parametrize("by", ["user", "item"])
def test_matrix_vectors_are_the_stored_csr_arrays(toy_ratings, by):
    ptr, idx, ratings = toy_ratings.vectors(by)
    pull = toy_ratings.row if by == "user" else toy_ratings.col
    n = toy_ratings.n_users if by == "user" else toy_ratings.n_items
    assert ptr.size == n + 1 and ptr[-1] == toy_ratings.n_entries
    for e in range(n):
        want_idx, want = pull(e)
        got_idx, got = idx[ptr[e]:ptr[e + 1]], ratings[ptr[e]:ptr[e + 1]]
        np.testing.assert_array_equal(got_idx, want_idx)
        np.testing.assert_array_equal(got, want)
        assert np.shares_memory(got, want)  # views, not copies
    for arr in (ptr, idx, ratings):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="orientation"):
        toy_ratings.vectors("rows")


def test_matrix_builds_each_table_on_first_use(toy_ratings):
    # a matrix that no one slices (a full snapshot, a test half) pays for
    # no table; a second call returns the arrays the first one built
    m = RatingMatrix(toy_ratings.n_users, toy_ratings.n_items,
                     toy_ratings.users, toy_ratings.items, toy_ratings.ratings)
    assert m._tables == {}
    first = m.vectors("item")
    assert list(m._tables) == ["item"]
    assert all(a is b for a, b in zip(m.vectors("item"), first))
    m.vectors("user")
    assert sorted(m._tables) == ["item", "user"]


def test_matrix_counts_and_accessor_bounds(toy_ratings):
    np.testing.assert_array_equal(toy_ratings.row_counts(), [3, 2, 3, 1])
    np.testing.assert_array_equal(toy_ratings.col_counts(), [3, 2, 1, 2, 1])
    with pytest.raises(IndexError, match="^user index 4 out of range$"):
        toy_ratings.row(4)
    with pytest.raises(IndexError, match="^item index -1 out of range$"):
        toy_ratings.col(-1)
    with pytest.raises(IndexError, match="^item index 5 out of range$"):
        toy_ratings.col(5)


def test_matrix_arrays_immutable(toy_ratings):
    with pytest.raises(ValueError):
        toy_ratings.ratings[0] = 9.0


def test_fingerprint_tracks_content(toy_ratings):
    same = RatingMatrix(4, 5, toy_ratings.users, toy_ratings.items,
                        toy_ratings.ratings)
    assert same.fingerprint() == toy_ratings.fingerprint()
    changed = RatingMatrix(4, 5, toy_ratings.users, toy_ratings.items,
                           toy_ratings.ratings + 1.0)
    assert changed.fingerprint() != toy_ratings.fingerprint()


def test_fingerprint_hashes_int64_indices_without_copies():
    # snapshots and checkpoints hold these digests, which hash the indices
    # as int64; the second matrix's indices take several chunks, and the
    # third has more than 2**31 cells
    flat = np.arange(150_000) * 7 % 200_000
    big = RatingMatrix(500, 400, flat // 400, flat % 400, 1.0 + flat % 9 / 2)
    cases = [
        (RatingMatrix(3, 4, [2, 0, 0], [0, 3, 1], [1.0, 2.5, 4.0]),
         "c6aa6cfb80cefc02aef9c313861603aa1894754da72d7042f0ff07fb116adecb"),
        (big,
         "e8aee2637ef5ce0bbb98ec07bee4dcc0ec47bbe2a9b81dc44f6fe47ba774c81a"),
        (RatingMatrix(70_000, 40_000, [69_999, 0, 35_000, 0],
                      [39_999, 0, 20_000, 39_999], [5.0, 1.0, 3.5, 2.0]),
         "479b440b0d585aaf4419a5efa2e946249469982e5043aba29711996112336c80"),
    ]
    for matrix, want in cases:
        assert matrix.fingerprint() == want
    tracemalloc.start()
    try:
        big.fingerprint()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < big.ratings.nbytes / 2  # 1.2 MB of ratings, no copy


def test_matrix_with_2_31_users_or_items_raises_before_allocating():
    tracemalloc.start()
    try:
        for shape in ((2**31, 1), (1, 2**31)):
            with pytest.raises(DataError, match="overflows int32 indices"):
                RatingMatrix(*shape, [], [], [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    edge = RatingMatrix(2**31 - 1, 2**31 - 1, [2**31 - 2], [0], [3.0])
    assert (edge.users.dtype, edge.users[0]) == (np.int32, 2**31 - 2)


# ----------------------------------------------------------- load_ratings

def test_load_csv_three_lines(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n1,10,4.0\n1,20,2.0\n2,10,5.0\n")
    ratings, scale, ids = load_ratings(path, "csv")
    assert (ratings.n_users, ratings.n_items, ratings.n_entries) == (2, 2, 3)
    assert ids.user_ids == ("1", "2") and ids.item_ids == ("10", "20")
    assert scale.min_rating == 2.0 and scale.max_rating == 5.0


def test_load_csv_bad_header(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b,c\n1,1,3\n")
    with pytest.raises(DataError, match="header"):
        load_ratings(path, "csv")


def test_load_csv_malformed_line_number(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n1,10,4.0\n1,20\n")
    with pytest.raises(DataError, match="line 3"):
        load_ratings(path, "csv")


def test_load_empty_file_errors(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n")
    with pytest.raises(DataError, match="no ratings"):
        load_ratings(path, "csv")


def test_load_movielens_dat(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::1193::5::978300760\n1::661::3::978302109\n"
                    "2::1193::4::978298413\n")
    ratings, scale, ids = load_ratings(path, "movielens_dat")
    assert ratings.n_users == 2 and ratings.n_items == 2
    assert scale.is_discrete and scale.step == 1.0
    assert ids.item_ids == ("1193", "661")


def test_load_movielens_dat_malformed(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::2::5::0\n1::junk\n")
    with pytest.raises(DataError, match="line 2"):
        load_ratings(path, "movielens_dat")


def test_duplicates_keep_last(tmp_path, caplog):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n1,10,4.0\n2,10,3.0\n1,10,1.0\n")
    with caplog.at_level("WARNING"):
        ratings, _scale, ids = load_ratings(path, "csv")
    assert ratings.n_entries == 2
    u = ids.user_index["1"]
    i = ids.item_index["10"]
    items, values = ratings.row(u)
    assert values[list(items).index(i)] == 1.0
    assert any("duplicate" in r.message for r in caplog.records)


def test_file_order_does_not_change_the_matrix(tmp_path):
    # both files meet the ids in the same order and (1, 10) last as 5.0
    loaded = []
    for lines in (["1,10,3", "2,20,4", "1,20,2", "2,10,1", "1,10,5"],
                  ["1,10,3", "2,20,4", "1,10,5", "2,10,1", "1,20,2"]):
        path = tmp_path / "r.csv"
        path.write_text("user,item,rating\n" + "\n".join(lines) + "\n")
        loaded.append(load_ratings(path, "csv"))
    (first, scale, ids), (second, scale2, ids2) = loaded
    assert first == second and scale == scale2 and ids == ids2
    np.testing.assert_array_equal(first.users, [0, 0, 1, 1])
    np.testing.assert_array_equal(first.items, [0, 1, 0, 1])
    np.testing.assert_array_equal(first.ratings, [5.0, 2.0, 1.0, 4.0])


# -------------------------------------------------------------- load_tags

def _ids(users, items):
    return IdMaps(tuple(users), tuple(items))


def test_genre_flags_two_ones(tmp_path):
    path = tmp_path / "movies.dat"
    path.write_text("1::Toy Story (1995)::Animation|Children\n"
                    "2::Heat (1995)::Action\n")
    tags = load_tags(path, "genre_flags", _ids(["9"], ["1", "2"]))
    assert tags.n_entities == 2
    assert tags.tag_names == ("Action", "Animation", "Children")
    dense = tags.toarray()
    np.testing.assert_array_equal(dense[0], [0, 1, 1])
    np.testing.assert_array_equal(dense[1], [1, 0, 0])


def test_tag_occurrences_sum(tmp_path):
    path = tmp_path / "tags.dat"
    lines = "".join(f"{u}::5::funny::0\n" for u in (1, 2, 3))
    path.write_text(lines + "1::5::scary::0\n")
    tags = load_tags(path, "movielens_tags", _ids(["1", "2", "3"], ["5"]))
    assert tags.toarray()[0, tags.tag_names.index("funny")] == 3.0


def test_tag_matrix_binary_clips_counts():
    tags = TagMatrix(sp.csr_matrix([[3.0, 0.0], [1.0, 2.0]]), ("a", "b"))
    flags = tags.binary()
    np.testing.assert_array_equal(flags.toarray(), [[1, 0], [1, 1]])
    assert flags.tag_names == ("a", "b")
    assert tags.toarray()[0, 0] == 3.0


def test_adjacency_symmetric(tmp_path):
    path = tmp_path / "friends.csv"
    path.write_text("a,b\n")
    tags = load_tags(path, "adjacency_csv", _ids(["a", "b", "c"], ["x"]))
    dense = tags.toarray()
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert dense.sum() == 2.0


def test_unknown_entity_dropped_with_warning(tmp_path, caplog):
    path = tmp_path / "movies.dat"
    path.write_text("1::A::Action\n99::B::Drama\n")
    with caplog.at_level("WARNING"):
        tags = load_tags(path, "genre_flags", _ids(["9"], ["1"]))
    assert tags.toarray().sum() == 1.0
    assert any("dropped 1" in r.getMessage() for r in caplog.records)


# ------------------------------------------- parser edge cases, pinned

def _load(path, format):
    if format in ("movielens_dat", "csv"):
        return load_ratings(path, format)
    return load_tags(path, format, _ids(["1", "a"], ["1", "5"]))


@pytest.mark.parametrize("format,text,message", [
    ("movielens_dat", "1::10::4::0\n1::junk\n",
     "line 2: expected 'user::item::rating[::timestamp]'"),
    ("csv", "user,item,rating\n1,10,4\n1,20\n", "line 3: expected 3 fields"),
    ("movielens_tags", "1::5::funny::0\n1::5::0\n",
     "line 2: expected 'user::item::tag::timestamp'"),
    ("genre_flags", "1::A::Drama\n1::A\n",
     "line 2: expected 'item::title::genres'"),
    ("adjacency_csv", "a,1\n\na\n", "line 3: expected 'a,b' pair"),
])
def test_short_lines_name_their_line_and_shape(tmp_path, format, text,
                                               message):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        _load(path, format)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("format,text,message", [
    ("movielens_dat", "1::10::4::0\n2::20:: x \n", "line 2: bad rating ' x'"),
    ("csv", "user,item,rating\n\n1,10, x ,0\n", "line 3: bad rating ' x '"),
])
def test_bad_rating_names_its_line(tmp_path, format, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_ratings(path, format)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("format", ["movielens_dat", "csv", "movielens_tags",
                                    "genre_flags", "adjacency_csv"])
def test_missing_input_file(tmp_path, format):
    path = tmp_path / "nope"
    with pytest.raises(DataError) as err:
        _load(path, format)
    assert str(err.value) == f"{path}: no such file"


def test_dat_ratings_read_crlf_and_blank_crlf_lines(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_bytes(b"1::10::4::0\r\n\r\n2::20::2::0\r\n")
    ratings, _scale, ids = load_ratings(path, "movielens_dat")
    assert ids.user_ids == ("1", "2") and ids.item_ids == ("10", "20")
    np.testing.assert_array_equal(ratings.ratings, [4.0, 2.0])


def test_dat_ratings_strip_the_line_but_not_its_fields(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("  1::10::4::0  \n1 :: 20::2\n")
    ratings, _scale, ids = load_ratings(path, "movielens_dat")
    assert ids.user_ids == ("1", "1 ") and ids.item_ids == ("10", " 20")
    np.testing.assert_array_equal(ratings.ratings, [4.0, 2.0])


def test_dat_ratings_separator_only_line_is_short(tmp_path):
    path = tmp_path / "ratings.dat"
    path.write_text("1::10::4::0\n :: \n")
    with pytest.raises(DataError) as err:
        load_ratings(path, "movielens_dat")
    assert str(err.value) == (
        f"{path}: line 2: expected 'user::item::rating[::timestamp]'")


def test_csv_ratings_quoted_ids(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text('user,item,rating\n"a,b"," c ",3\n')
    _ratings, _scale, ids = load_ratings(path, "csv")
    assert ids.user_ids == ("a,b",) and ids.item_ids == ("c",)


@pytest.mark.parametrize("header", ["\nuser,item,rating\n", "user,item\n"],
                         ids=["blank-first-line", "two-fields"])
def test_csv_ratings_header_is_the_first_line(tmp_path, header):
    path = tmp_path / "r.csv"
    path.write_text(header + "1,10,4\n")
    with pytest.raises(DataError) as err:
        load_ratings(path, "csv")
    assert str(err.value) == (
        f"{path}: line 1: expected 'user,item,rating' header")


def test_csv_ratings_skip_rows_of_blank_fields(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("user,item,rating\n1,10,4\n, ,\n2,10,3\n")
    ratings, _scale, ids = load_ratings(path, "csv")
    assert ids.user_ids == ("1", "2") and ratings.n_entries == 2


def test_genre_flags_title_separator_trailing_bar_and_crlf(tmp_path):
    path = tmp_path / "movies.dat"
    path.write_bytes(b"1::Face::Off (1997)::Comedy|Drama|\r\n")
    tags = load_tags(path, "genre_flags", _ids(["u"], ["1"]))
    assert tags.tag_names == ("Comedy", "Drama")
    np.testing.assert_array_equal(tags.toarray(), [[1, 1]])


def test_genre_flags_ids_are_not_stripped(tmp_path, caplog):
    path = tmp_path / "movies.dat"
    path.write_text("1::A::Drama\n 2::X::Action\n")
    with caplog.at_level("WARNING"):
        tags = load_tags(path, "genre_flags", _ids(["u"], ["1", "2"]))
    assert tags.tag_names == ("Drama",)
    np.testing.assert_array_equal(tags.toarray(), [[1], [0]])
    assert any("dropped 1" in r.getMessage() for r in caplog.records)


def test_movielens_tags_keep_inner_separators_and_fold_case(tmp_path):
    path = tmp_path / "tags.dat"
    path.write_text("1::5::sci :: fi::0\n2::5:: Funny ::0\n3::5:: ::0\n")
    tags = load_tags(path, "movielens_tags", _ids(["1", "2"], ["5"]))
    # a blank tag is a tag of its own, unlike a blank genre
    assert tags.tag_names == ("", "funny", "sci :: fi")
    np.testing.assert_array_equal(tags.toarray(), [[1, 1, 1]])


def test_adjacency_strips_ids_and_skips_blank_lines(tmp_path):
    path = tmp_path / "friends.csv"
    path.write_text(" a , b \n\n  \nb,c\n")
    tags = load_tags(path, "adjacency_csv", _ids(["a", "b", "c"], ["x"]))
    np.testing.assert_array_equal(tags.toarray(),
                                  [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


# ------------------------------------------------------------------ split

def test_split_sizes(toy_ratings):
    train, test = split(toy_ratings, SplitSpec(0.9, 0))
    assert train.n_entries == round(0.9 * 9) and test.n_entries == 1


def test_split_fraction_grid(synthetic):
    ratings, _scale = synthetic
    for fraction in np.arange(0.1, 1.0, 0.1):
        train, test = split(ratings, SplitSpec(float(fraction), 7))
        assert train.n_entries == round(fraction * ratings.n_entries)
        assert train.n_entries + test.n_entries == ratings.n_entries


def test_split_deterministic(synthetic):
    ratings, _scale = synthetic
    a = split(ratings, SplitSpec(0.8, 3))
    b = split(ratings, SplitSpec(0.8, 3))
    assert a[0] == b[0] and a[1] == b[1]
    c = split(ratings, SplitSpec(0.8, 4))
    assert a[0] != c[0]


def _entry_set(m):
    return set(zip(m.users, m.items, m.ratings))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.05, 0.95),
       n=st.integers(1, 60))
def test_split_is_exact_partition(seed, fraction, n):
    rng = np.random.default_rng(seed)
    flat = rng.choice(9 * 11, size=n, replace=False)
    ratings = RatingMatrix(9, 11, flat // 11, flat % 11,
                           rng.uniform(1, 5, n).round(1))
    train, test = split(ratings, SplitSpec(fraction, seed))
    assert _entry_set(train) | _entry_set(test) == _entry_set(ratings)
    assert not (_entry_set(train) & _entry_set(test))
    assert train.n_users == ratings.n_users and test.n_items == ratings.n_items


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_split_takes_the_sorted_halves_of_one_permutation(synthetic, seed,
                                                          fraction):
    # checkpoints record only (fraction, seed), so this formula is the format
    ratings, _scale = synthetic
    n = ratings.n_entries
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fraction * n))
    for half, idx in zip(split(ratings, SplitSpec(fraction, seed)),
                         (np.sort(perm[:n_train]), np.sort(perm[n_train:]))):
        np.testing.assert_array_equal(half.users, ratings.users[idx])
        np.testing.assert_array_equal(half.items, ratings.items[idx])
        np.testing.assert_array_equal(half.ratings, ratings.ratings[idx])


def test_split_halves_are_private_read_only_copies(synthetic):
    # each half adopts the arrays its one fancy-indexing copy made; the
    # digests are those the halves had when the constructor copied again
    ratings, _scale = synthetic
    halves = split(ratings, SplitSpec(0.7, 5))
    assert [half.fingerprint() for half in halves] == [
        "f609ee56e001f6d71f90315994b1d59668a14f397b38c553459aed46db79f299",
        "d6511bae32b2bde58461e61bcaec04b32797dd4a73a447dc3f761a89d32c095c"]
    parent = [ratings.users, ratings.items, ratings.ratings,
              *ratings.vectors("user"), *ratings.vectors("item")]
    for half in halves:
        stored = [half.users, half.items, half.ratings,
                  *half.vectors("user"), *half.vectors("item")]
        assert not any(arr.flags.writeable for arr in stored)
        assert not any(np.shares_memory(a, b) for a in stored for b in parent)
    assert not any(np.shares_memory(a, b) for a in (halves[0].users,
                                                    halves[0].ratings)
                   for b in (halves[1].users, halves[1].ratings))


def test_split_spec_validation():
    # a bad split is a usage error, as a bad TrainConfig is, not a data error
    for fraction, seed in [(0.0, 1), (1.0, 1), (0.5, -1), (0.9, 2**53 + 1)]:
        with pytest.raises(ValueError) as err:
            SplitSpec(fraction, seed)
        assert not isinstance(err.value, DataError)
    assert SplitSpec(0.9, 2**53).seed == 2**53


# -------------------------------------------------------------- snapshots

def test_snapshot_round_trip(tmp_path, toy_ratings):
    scale = RatingScale(1.0, 5.0, True, 1.0)
    ids = IdMaps(("a", "b", "c", "d"), ("v", "w", "x", "y", "z"))
    path = tmp_path / "snap.npz"
    save_snapshot(path, toy_ratings, scale, ids)
    back, scale2, ids2 = load_snapshot(path)
    assert back == toy_ratings and scale2 == scale and ids2 == ids


def test_load_snapshot_narrows_one_index_array_at_a_time(tmp_path):
    # the file's int64 indices are narrowed to int32 one array at a time,
    # and the sort key is gone before the ratings load: about 17 bytes an
    # entry at the peak and 16 kept, where holding the three loaded arrays
    # while copying them took 40
    n = 500_000
    rng = np.random.default_rng(0)
    cells = np.sort(rng.choice(2000 * 1000, n, replace=False))
    matrix = RatingMatrix(2000, 1000, cells // 1000, cells % 1000,
                          rng.integers(1, 6, n).astype(float))
    ids = IdMaps(tuple(map(str, range(2000))), tuple(map(str, range(1000))))
    path = tmp_path / "snap.npz"
    save_snapshot(path, matrix, RatingScale(1.0, 5.0, True, 1.0), ids)
    tracemalloc.start()
    try:
        loaded, _, loaded_ids = load_snapshot(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == matrix and loaded_ids == ids
    assert loaded.fingerprint() == matrix.fingerprint()
    assert peak < 20 * n


def test_tag_snapshot_round_trip(tmp_path):
    src = tmp_path / "movies.dat"
    src.write_text("1::A::Action|Drama\n2::B::Drama\n")
    tags = load_tags(src, "genre_flags", _ids(["u"], ["1", "2"]))
    path = tmp_path / "tags.npz"
    save_tag_snapshot(path, tags, "item")
    back, entity = load_tag_snapshot(path)
    assert entity == "item"
    assert back.tag_names == tags.tag_names
    np.testing.assert_array_equal(back.toarray(), tags.toarray())


@pytest.mark.parametrize("call", [
    pytest.param(lambda tmp_path, ratings: load_tags(
        tmp_path / "movies.dat", "genre_flags", _ids(["u"], ["1"]), "movie"),
        id="load_tags"),
    pytest.param(lambda tmp_path, ratings: save_tag_snapshot(
        tmp_path / "tags.npz", TagMatrix(sp.csr_matrix(np.eye(2))), "movie"),
        id="save_tag_snapshot"),
    pytest.param(lambda tmp_path, ratings: fit_bias(ratings, "movie"),
                 id="fit_bias"),
    pytest.param(lambda tmp_path, ratings: BiasTable("movie", np.zeros(2), 3.0),
                 id="BiasTable"),
])
def test_entity_kind_is_user_or_item(tmp_path, toy_ratings, call):
    (tmp_path / "movies.dat").write_text("1::A::Action\n")
    with pytest.raises(ValueError) as err:
        call(tmp_path, toy_ratings)
    assert str(err.value) == ("unknown orientation 'movie': the entity kind "
                              "is 'user' or 'item'")
    assert not (tmp_path / "tags.npz").exists()


def test_snapshot_version_check(tmp_path, toy_ratings):
    path = tmp_path / "snap.npz"
    save_snapshot(path, toy_ratings, RatingScale(1.0, 5.0), IdMaps(
        ("a", "b", "c", "d"), ("v", "w", "x", "y", "z")))
    with np.load(path) as z:
        arrays = dict(z)
    arrays["format_version"] = np.int64(99)
    np.savez(path, **arrays)
    with pytest.raises(DataError, match="version"):
        load_snapshot(path)


def test_damaged_snapshots_raise_data_error(tmp_path, toy_ratings):
    ids = IdMaps(("a", "b", "c", "d"), ("v", "w", "x", "y", "z"))
    ratings = tmp_path / "ratings.npz"
    tags = tmp_path / "tags.npz"

    def truncate(path):
        whole = path.read_bytes()
        path.write_bytes(whole[:len(whole) // 2])

    def resave(**changes):
        def damage(path):
            with np.load(path) as z:
                arrays = dict(z)
            np.savez(path, **{**arrays, **changes})
        return damage

    cases = [
        (ratings, load_snapshot, truncate, "bad snapshot file"),
        (ratings, load_snapshot,
         resave(user_ids=np.asarray(ids.user_ids + ("e",))),
         "5 user and 5 item ids for a 4 x 5 matrix"),
        (ratings, load_snapshot,
         resave(item_ids=np.asarray(ids.item_ids[:-1])),
         "4 user and 4 item ids for a 4 x 5 matrix"),
        (tags, load_tag_snapshot, truncate, "bad tag snapshot file"),
        (tags, load_tag_snapshot, resave(entity="movie"),
         "unknown orientation 'movie': the entity kind is 'user' or 'item'"),
    ]
    for path, load, damage, message in cases:
        save_snapshot(ratings, toy_ratings, RatingScale(1.0, 5.0), ids)
        save_tag_snapshot(tags, TagMatrix(sp.csr_matrix(np.eye(2))), "item")
        damage(path)
        with pytest.raises(DataError, match="bad .*snapshot file") as err:
            load(path)
        assert str(path) in str(err.value) and message in str(err.value)


@pytest.mark.parametrize("kind", ["snapshot", "tag snapshot"])
def test_snapshots_are_stored_and_compressed_ones_still_load(
        tmp_path, toy_ratings, kind):
    path = tmp_path / "snap.npz"
    if kind == "snapshot":
        save_snapshot(path, toy_ratings, RatingScale(1.0, 5.0, True, 1.0),
                      IdMaps(("a", "b", "c", "d"), ("v", "w", "x", "y", "z")))
        load = load_snapshot
    else:
        counts = sp.csr_matrix([[2.0, 0.0, 1.0], [0.0, 0.5, 0.0]])
        save_tag_snapshot(path, TagMatrix(counts, ("p", "q", "r")), "user")
        load = load_tag_snapshot

    def loaded():
        # every array and scalar the loader returns, as bytes or values
        out = []
        for part in load(path):
            if isinstance(part, RatingMatrix):
                part = (part.n_users, part.n_items, part.users.tobytes(),
                        part.items.tobytes(), part.ratings.tobytes())
            elif isinstance(part, TagMatrix):
                c = part.counts
                part = (c.shape, c.indptr.tobytes(), c.indices.tobytes(),
                        c.data.tobytes(), part.tag_names)
            out.append(part)
        return out

    with zipfile.ZipFile(path) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}
    stored = loaded()
    # the compressed layout that earlier versions wrote
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        assert zipfile.ZIP_DEFLATED in {i.compress_type for i in zf.infolist()}
    assert loaded() == stored


def test_atomic_write_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("half of the new")
            raise RuntimeError("killed part-way")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
