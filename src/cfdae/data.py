"""Sparse rating data: loaders, index structures, splits, and snapshots."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import os
import secrets
import zipfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

ENTITIES = ("user", "item")  # a model reads user rows or item columns
RATING_FORMATS = ("movielens_dat", "csv")
# tag format -> the entity kind its rows describe unless told otherwise
TAG_FORMATS = {"movielens_tags": "item", "genre_flags": "item",
               "adjacency_csv": "user"}

SNAPSHOT_VERSION = 1


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def by_entity(kind: str, user_side=None, item_side=None):
    """user_side for kind "user", item_side for "item"; any other kind
    raises ValueError.  by_entity(kind) alone is the entity-kind check."""
    if kind not in ENTITIES:
        raise ValueError(f"unknown orientation {kind!r}: the entity kind is "
                         "'user' or 'item'")
    return user_side if kind == "user" else item_side


def aligned_query(users, items):
    """users and items as int64 arrays; they must be aligned and 1-D."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if users.shape != items.shape or users.ndim != 1:
        raise ValueError("users and items must be aligned 1-D arrays")
    return users, items


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a new temporary file beside path and move it onto path when the
    block ends, so that path holds either its old content or the whole new
    one.  If the block raises, the temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(6)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj):
    """obj as indented JSON with a trailing newline, written atomically."""
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_csv(path, rows: list[dict]):
    """The rows as UTF-8 CSV under a header of the first row's keys, with
    \\n line ends, written atomically; None is an empty field and a float
    its repr.  Returns path."""
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_versioned_npz(path, version: int, **arrays):
    """Write arrays and their format_version atomically to path as a stored
    (uncompressed) .npz, the one format open_versioned_npz reads."""
    with atomic_write(path, "wb") as fh:
        np.savez(fh, format_version=version, **arrays)


@contextlib.contextmanager
def open_versioned_npz(path, version: int, kind: str):
    """np.load of a .npz of this format_version; a damaged file, another
    version or a missing or invalid member raise DataError naming path."""
    try:
        # np.load leaks a file it opened itself if the archive is damaged
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            found = int(z["format_version"])
            if found != version:
                raise DataError(f"unsupported {kind} version {found}")
            yield z
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError,
            ValueError) as exc:
        raise DataError(f"{path}: bad {kind} file: {exc}") from None


@dataclass(frozen=True)
class RatingScale:
    """Inclusive rating range, optionally restricted to a uniform grid."""

    min_rating: float
    max_rating: float
    is_discrete: bool = False
    step: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.min_rating) and np.isfinite(self.max_rating)):
            raise DataError("rating scale bounds must be finite")
        if not self.min_rating < self.max_rating:
            raise DataError("min_rating must be strictly below max_rating")
        if self.is_discrete:
            if self.step <= 0:
                raise DataError("a discrete scale needs a positive step")
            n_steps = (self.max_rating - self.min_rating) / self.step
            if round(n_steps) < 1 or abs(n_steps - round(n_steps)) > 1e-9:
                raise DataError("(max - min) / step must be a positive integer")

    def clamp(self, values):
        return np.clip(values, self.min_rating, self.max_rating)

    def to_array(self) -> np.ndarray:
        """The stored form, ``[min, max, is_discrete, step]``."""
        return np.array([self.min_rating, self.max_rating,
                         float(self.is_discrete), self.step])

    @classmethod
    def from_array(cls, stored) -> "RatingScale":
        """Inverse of to_array."""
        smin, smax, sdisc, sstep = stored
        return cls(float(smin), float(smax), bool(sdisc), float(sstep))


def infer_scale(values) -> RatingScale:
    """Infer a RatingScale from observed rating values.

    Values sitting on a uniform grid (integers, half stars, ...) give a
    discrete scale whose step is the smallest gap between distinct values.
    A single distinct value is widened by one unit on each side so the
    scale stays invertible.
    """
    distinct = np.unique(np.asarray(values, dtype=np.float64))
    if distinct.size == 0:
        raise DataError("cannot infer a scale from no ratings")
    vmin, vmax = float(distinct[0]), float(distinct[-1])
    if distinct.size == 1:
        return RatingScale(vmin - 1.0, vmax + 1.0)
    step = float(np.diff(distinct).min())
    offsets = (distinct - vmin) / step
    if step > 0 and np.all(np.abs(offsets - np.round(offsets)) < 1e-6):
        return RatingScale(vmin, vmax, is_discrete=True, step=step)
    return RatingScale(vmin, vmax)


class RatingMatrix:
    """Immutable sparse user x item rating store.

    Entries are kept sorted by (user, item), with one CSR-style table per
    entity kind so a user's or an item's ratings can be sliced out directly.
    """

    __slots__ = ("n_users", "n_items", "users", "items", "ratings", "_tables")

    def __init__(self, n_users, n_items, users, items, ratings):
        users = np.ascontiguousarray(users, dtype=np.int64)
        items = np.ascontiguousarray(items, dtype=np.int64)
        ratings = np.ascontiguousarray(ratings, dtype=np.float64)
        if not (users.ndim == items.ndim == ratings.ndim == 1):
            raise DataError("entry arrays must be one-dimensional")
        if not (users.size == items.size == ratings.size):
            raise DataError("entry arrays must have equal length")
        if n_users < 0 or n_items < 0:
            raise DataError("matrix dimensions must be nonnegative")
        if users.size:
            if users.min() < 0 or users.max() >= n_users:
                raise DataError("user index out of range")
            if items.min() < 0 or items.max() >= n_items:
                raise DataError("item index out of range")
        if not np.all(np.isfinite(ratings)):
            raise DataError("ratings must be finite")

        if int(n_users) * int(n_items) > np.iinfo(np.int64).max:
            raise DataError(f"{n_users} x {n_items} cells overflow int64 keys")

        # One key per cell in (user, item) order.  Strictly increasing keys
        # prove the entries sorted and distinct, so only unsorted input is
        # sorted; sorted input is copied to keep the stored arrays private.
        key = users * np.int64(n_items) + items
        if np.all(key[1:] > key[:-1]):
            users, items, ratings = users.copy(), items.copy(), ratings.copy()
        else:
            order = np.argsort(key)
            key = key[order]
            users, items, ratings = users[order], items[order], ratings[order]
            dup = np.flatnonzero(key[1:] == key[:-1])
            if dup.size:
                k = int(dup[0]) + 1
                raise DataError(
                    f"duplicate rating for user {users[k]}, item {items[k]}")
        self._own(n_users, n_items, users, items, ratings)

    @classmethod
    def _adopt(cls, n_users, n_items, users, items, ratings) -> "RatingMatrix":
        """A matrix that takes over entry arrays already checked, sorted,
        distinct and referenced nowhere else, without copying them."""
        matrix = cls.__new__(cls)
        matrix._own(n_users, n_items, users, items, ratings)
        return matrix

    def _own(self, n_users, n_items, users, items, ratings):
        """Store the sorted entry arrays, build the user and item tables,
        and make every stored array read-only."""
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.users = users
        self.items = items
        self.ratings = ratings

        row_ptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(users, minlength=self.n_users), out=row_ptr[1:])
        # CSR -> CSC is a counting sort that keeps users ascending per item
        cols = sp.csr_array((ratings, items, row_ptr),
                            shape=(self.n_users, self.n_items)).tocsc()
        self._tables = ((row_ptr, items, ratings),
                        (cols.indptr.astype(np.int64, copy=False),
                         cols.indices.astype(np.int64, copy=False), cols.data))
        for arr in (users, *self._tables[0], *self._tables[1]):
            arr.setflags(write=False)

    @property
    def n_entries(self) -> int:
        return self.ratings.size

    @property
    def density(self) -> float:
        cells = self.n_users * self.n_items
        return self.n_entries / cells if cells else 0.0

    def vectors(self, by: str):
        """The stored, read-only CSR arrays (ptr, idx, ratings) of every
        user's row (by="user") or item's column (by="item"): entity e's
        sorted counterparts are idx[ptr[e]:ptr[e + 1]]."""
        return by_entity(by, *self._tables)

    def _vector(self, by: str, e: int):
        """Entity e's slice of vectors(by): (counterparts, ratings)."""
        ptr, idx, values = self.vectors(by)
        if not 0 <= e < ptr.size - 1:
            raise IndexError(f"{by} index {e} out of range")
        return idx[ptr[e]:ptr[e + 1]], values[ptr[e]:ptr[e + 1]]

    # The per-entity oracles for vectors() in tests and in benchmarks: one
    # user's items or one item's users with the ratings, and every length.
    def row(self, user: int):
        return self._vector("user", user)

    def col(self, item: int):
        return self._vector("item", item)

    def row_counts(self) -> np.ndarray:
        return np.diff(self.vectors("user")[0])

    def col_counts(self) -> np.ndarray:
        return np.diff(self.vectors("item")[0])

    def fingerprint(self) -> str:
        """Content hash of dimensions and all entries."""
        h = hashlib.sha256()
        h.update(np.int64([self.n_users, self.n_items]).tobytes())
        h.update(self.users.tobytes())
        h.update(self.items.tobytes())
        h.update(self.ratings.tobytes())
        return h.hexdigest()

    def __eq__(self, other):
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (self.n_users == other.n_users
                and self.n_items == other.n_items
                and np.array_equal(self.users, other.users)
                and np.array_equal(self.items, other.items)
                and np.array_equal(self.ratings, other.ratings))

    def __repr__(self):
        return (f"RatingMatrix({self.n_users} users x {self.n_items} items, "
                f"{self.n_entries} entries)")


@dataclass(frozen=True)
class IdMaps:
    """Raw <-> internal id mapping; position in the tuple is the internal index."""

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {raw: k for k, raw in enumerate(self.user_ids)}

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {raw: k for k, raw in enumerate(self.item_ids)}


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic per-entry train/test partition."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # a checkpoint stores the seed as a float64, exact up to 2**53
        if self.seed > 2**53:
            raise ValueError("split seed must be at most 2**53 "
                             f"({2**53}), got {self.seed}")


@dataclass(frozen=True)
class TagMatrix:
    """Sparse nonnegative entity x tag occurrence counts."""

    counts: sp.csr_matrix
    tag_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.counts.nnz and (not np.all(np.isfinite(self.counts.data))
                                or self.counts.data.min() < 0):
            raise DataError("tag counts must be finite and nonnegative")
        if self.tag_names is not None and len(self.tag_names) != self.n_tags:
            raise DataError("tag_names length must match the tag dimension")

    @property
    def n_entities(self) -> int:
        return self.counts.shape[0]

    @property
    def n_tags(self) -> int:
        return self.counts.shape[1]

    def toarray(self) -> np.ndarray:
        return self.counts.toarray()

    def binary(self) -> "TagMatrix":
        """The same tags as 0/1 presence flags (counts clipped at 1)."""
        clipped = self.counts.copy()
        clipped.data = np.minimum(clipped.data, 1.0)
        return TagMatrix(clipped, self.tag_names)


def _records(path: Path, format: str):
    """(line number, fields) of each non-blank line of a file in one of
    RATING_FORMATS or TAG_FORMATS; a line with too few fields raises
    DataError.  CSV is UTF-8, a row of blank fields is blank, and a ratings
    file starts with a header line.  The ``::`` formats are latin-1; a
    ratings line is stripped whole, a tag line keeps its leading spaces."""
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    min_fields, shape = {
        "movielens_dat": (3, "'user::item::rating[::timestamp]'"),
        "csv": (3, "3 fields"),
        "movielens_tags": (4, "'user::item::tag::timestamp'"),
        "genre_flags": (3, "'item::title::genres'"),
        "adjacency_csv": (2, "'a,b' pair"),
    }[format]
    is_csv = format.endswith("csv")
    try:
        with open(path, newline="" if is_csv else None,
                  encoding="utf-8" if is_csv else "latin-1") as fh:
            if is_csv:
                reader = csv.reader(fh)
                # an empty ratings file passes here and has no ratings
                header = ["user", "item", "rating"]
                if format == "csv" and [c.strip().lower() for c in
                                        next(reader, header)[:3]] != header:
                    raise DataError(
                        f"{path}: line 1: expected 'user,item,rating' header")
                lines = ((reader.line_num, row) for row in reader
                         if any(field.strip() for field in row))
            else:
                strip = (str.strip if format == "movielens_dat"
                         else str.rstrip)
                lines = ((lineno, line.split("::"))
                         for lineno, line in enumerate(map(strip, fh), 1)
                         if line)
            for lineno, fields in lines:
                if len(fields) < min_fields:
                    raise DataError(
                        f"{path}: line {lineno}: expected {shape}")
                yield lineno, fields
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not from the file start
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} "
                        f"0x{exc.object[exc.start]:02x}") from None


def load_ratings(path, format="csv"):
    """Parse a ratings file into a zero-indexed sparse matrix.

    ``movielens_dat`` lines look like ``UserID::MovieID::Rating::Timestamp``;
    ``csv`` needs a ``user,item,rating`` header.  Raw ids are remapped to
    contiguous internal indices in order of first appearance.  Duplicate
    (user, item) pairs keep the last occurrence; a warning reports how many
    were merged.

    Returns ``(RatingMatrix, RatingScale, IdMaps)``.
    """
    path = Path(path)
    if format not in RATING_FORMATS:
        raise DataError(f"unknown ratings format {format!r}")

    # raw id -> internal index, in order of first appearance
    uindex: dict[str, int] = {}
    iindex: dict[str, int] = {}
    uu: list[int] = []
    ii: list[int] = []
    vv: list[float] = []
    for lineno, fields in _records(path, format):
        try:
            vv.append(float(fields[2]))
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: bad rating {fields[2]!r}") from None
        raw_u, raw_i = fields[:2]
        if format == "csv":
            raw_u, raw_i = raw_u.strip(), raw_i.strip()
        uu.append(uindex.setdefault(raw_u, len(uindex)))
        ii.append(iindex.setdefault(raw_i, len(iindex)))

    if not vv:
        raise DataError(f"{path}: no ratings")

    users = np.asarray(uu, dtype=np.int64)
    items = np.asarray(ii, dtype=np.int64)
    values = np.asarray(vv, dtype=np.float64)

    # Keep the last occurrence of each (user, item) pair: the first hit in
    # the reversed stream is the last in file order.  np.unique returns the
    # pairs in (user, item) order, which RatingMatrix takes without a sort.
    key = users * np.int64(len(iindex)) + items
    _, first_rev = np.unique(key[::-1], return_index=True)
    keep = key.size - 1 - first_rev
    n_dup = key.size - keep.size
    if n_dup:
        log.warning("%s: %d duplicate (user, item) pairs, keeping the last "
                    "occurrence of each", path, n_dup)

    matrix = RatingMatrix(len(uindex), len(iindex), users[keep], items[keep],
                          values[keep])
    scale = infer_scale(matrix.ratings)
    return matrix, scale, IdMaps(tuple(uindex), tuple(iindex))


def load_tags(path, format, ids: IdMaps, entity: str | None = None) -> TagMatrix:
    """Parse side-information files into a TagMatrix.

    Formats:
      movielens_tags  ``UserID::MovieID::Tag::Timestamp`` -> per-movie tag
                      occurrence counts; tag vocabulary is lowercased and
                      sorted.
      genre_flags     ``MovieID::Title::G1|G2|...`` -> 0/1 genre columns,
                      sorted genre vocabulary.
      adjacency_csv   ``a,b`` id pairs -> symmetric 0/1 entity x entity
                      matrix.

    ``entity`` selects which id map resolves the rows ("user" or "item");
    it defaults to the format's entry in TAG_FORMATS.  Rows whose entity
    id is unknown are dropped and counted in a warning.
    """
    path = Path(path)
    if format not in TAG_FORMATS:
        raise DataError(f"unknown tag format {format!r}")
    if entity is None:
        entity = TAG_FORMATS[format]
    index = getattr(ids, by_entity(entity, "user_index", "item_index"))
    n_entities = len(index)

    rows: list[int] = []
    cols: list = []  # the other entity's index, or the tag's name
    dropped = 0
    for _, fields in _records(path, format):
        if format == "adjacency_csv":
            a, b = index.get(fields[0].strip()), index.get(fields[1].strip())
            if a is None or b is None:
                dropped += 1
                continue
            rows.extend((a, b))
            cols.extend((b, a))
            continue
        if format == "movielens_tags":
            key, tags = fields[1], ["::".join(fields[2:-1]).strip().lower()]
        else:
            key, tags = fields[0], [g for g in map(str.strip,
                                                   fields[-1].split("|")) if g]
        ent = index.get(key)
        if ent is None:
            dropped += 1
            continue
        for tag in tags:
            rows.append(ent)
            cols.append(tag)

    if dropped:
        log.warning("%s: dropped %d rows referencing unknown entities",
                    path, dropped)

    tag_names = None
    n_tags = n_entities
    if format != "adjacency_csv":
        names, cols = np.unique(np.asarray(cols, dtype=str),
                                return_inverse=True)
        tag_names = tuple(names.tolist())
        n_tags = len(tag_names)
    data = np.ones(len(rows), dtype=np.float64)
    counts = sp.coo_matrix(
        (data, (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n_entities, n_tags)).tocsr()
    tags = TagMatrix(counts, tag_names)
    return tags if format == "movielens_tags" else tags.binary()


def split(ratings: RatingMatrix, spec: SplitSpec):
    """Partition entries into train/test by a seeded uniform shuffle.

    The train side gets ``round(train_fraction * n_entries)`` entries; the
    two sides are disjoint and cover everything.  Both keep the parent's
    dimensions, so entities that end up without training ratings stay
    addressable.
    """
    n = ratings.n_entries
    if n == 0:
        raise DataError("cannot split an empty rating matrix")
    perm = np.random.default_rng(spec.seed).permutation(n)
    n_train = int(round(spec.train_fraction * n))
    # a mask yields each side's indices in ascending order without sorting,
    # so both halves stay in (user, item) order
    in_train = np.zeros(n, dtype=bool)
    in_train[perm[:n_train]] = True
    return (_take(ratings, np.flatnonzero(in_train)),
            _take(ratings, np.flatnonzero(~in_train)))


def _take(ratings: RatingMatrix, idx: np.ndarray) -> RatingMatrix:
    """The entries at ascending positions idx, a subset of a valid matrix
    and so valid and sorted; fancy indexing already copied them."""
    return RatingMatrix._adopt(ratings.n_users, ratings.n_items,
                               ratings.users[idx], ratings.items[idx],
                               ratings.ratings[idx])


def save_snapshot(path, ratings: RatingMatrix, scale: RatingScale, ids: IdMaps):
    """Write a lossless .npz snapshot of a loaded dataset."""
    write_versioned_npz(path, SNAPSHOT_VERSION,
                        n_users=ratings.n_users,
                        n_items=ratings.n_items,
                        users=ratings.users,
                        items=ratings.items,
                        values=ratings.ratings,
                        scale=scale.to_array(),
                        user_ids=np.asarray(ids.user_ids),
                        item_ids=np.asarray(ids.item_ids))


def load_snapshot(path):
    """Inverse of save_snapshot; round-trips bit-exactly."""
    with open_versioned_npz(path, SNAPSHOT_VERSION, "snapshot") as z:
        matrix = RatingMatrix(int(z["n_users"]), int(z["n_items"]),
                              z["users"], z["items"], z["values"])
        scale = RatingScale.from_array(z["scale"])
        ids = IdMaps(tuple(str(s) for s in z["user_ids"]),
                     tuple(str(s) for s in z["item_ids"]))
        if (len(ids.user_ids), len(ids.item_ids)) != (matrix.n_users,
                                                      matrix.n_items):
            raise DataError(
                f"{len(ids.user_ids)} user and {len(ids.item_ids)} item ids "
                f"for a {matrix.n_users} x {matrix.n_items} matrix")
    return matrix, scale, ids


def save_tag_snapshot(path, tags: TagMatrix, entity: str = "item"):
    """Snapshot a tag matrix plus which entity kind its rows describe."""
    by_entity(entity)
    coo = tags.counts.tocoo()
    write_versioned_npz(path, SNAPSHOT_VERSION,
                        shape=np.int64(tags.counts.shape),
                        row=coo.row.astype(np.int64),
                        col=coo.col.astype(np.int64),
                        data=coo.data.astype(np.float64),
                        tag_names=np.asarray(tags.tag_names or ()),
                        has_names=tags.tag_names is not None,
                        entity=entity)


def load_tag_snapshot(path):
    """Inverse of save_tag_snapshot; returns (TagMatrix, entity kind)."""
    with open_versioned_npz(path, SNAPSHOT_VERSION, "tag snapshot") as z:
        shape = tuple(int(v) for v in z["shape"])
        counts = sp.coo_matrix((z["data"], (z["row"], z["col"])),
                               shape=shape).tocsr()
        names = tuple(str(s) for s in z["tag_names"]) if bool(z["has_names"]) else None
        entity = str(z["entity"])
        by_entity(entity)
    return TagMatrix(counts, names), entity
