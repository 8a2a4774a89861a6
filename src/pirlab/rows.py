"""Rows of a deterministic scheme as flat integer columns.

A `Rows` block holds one server's rows: the `file`, `subfile` and `sign`
of every term, row after row, and the `ends` of the rows in those
columns, the layout of a `pirlab/build/v2` document.  A scheme holds one
block per server, and the library reads the columns, so it makes no
object per row or term.  Iterating a block makes each row as a
`Summation` on access.

`checked_rows` is the one place a block's terms are checked, with bulk
passes over the columns; only a row whose terms are out of order is
sorted.  `Summation` checks its terms with the same checker, so a bad term
gets the same text wherever it comes from.
"""

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count
from operator import ge, le

from .errors import ParameterError, check_int


def _terms_valid(file, subfile, sign):
    """Whether every term is (file >= 0, subfile >= 1, sign +1 or -1), all
    ints: one pass over each column for its type and one for its rule."""
    return {*map(type, file), *map(type, subfile), *map(type, sign)} <= {int} \
        and (not file or min(file) >= 0 and min(subfile) >= 1
             and set(sign) <= {1, -1})


def _refuse_first_term(terms):
    """Raise the ParameterError of the first bad term, in order."""
    for term in terms:
        if len(term) != 3:
            raise ParameterError(f"term {list(term)} is not "
                                 f"[file, subfile, sign]")
        f, s, sign = term
        if not (type(f) is int and f >= 0):
            raise ParameterError(f"bad file id in term {term}")
        if not (type(s) is int and s >= 1):
            raise ParameterError(f"bad subfile index in term {term}")
        if not (type(sign) is int and sign in (1, -1)):
            raise ParameterError(f"bad sign in term {term}")


@dataclass(frozen=True, slots=True)
class Summation:
    terms: tuple

    def __post_init__(self):
        """Check the terms as a block's columns are, and sort them."""
        terms = tuple(self.terms)
        if not (set(map(len, terms)) <= {3}
                and _terms_valid(*(tuple(zip(*terms)) or ((), (), ())))):
            _refuse_first_term(terms)
        object.__setattr__(self, "terms", tuple(sorted(map(tuple, terms))))

    @property
    def files(self):
        return tuple(f for f, _, _ in self.terms)


def _summation(terms):
    """A Summation of terms read from a checked block, not checked again.
    It is made through `Summation.__new__`, as `Summation(...)` makes one."""
    row = Summation.__new__(Summation)
    object.__setattr__(row, "terms", terms)
    return row


@dataclass(frozen=True, slots=True)
class Rows:
    """One server's rows as flat columns: the `file`, `subfile` and `sign`
    of every term, row after row, and the `ends` of the rows in them, the
    layout of a v2 document.  Iterating gives each row as a Summation, made
    on access; equality compares the columns.

    A block is checked when a DeterministicScheme is made from it
    (`checked_rows`), which also gives every row its terms in order."""
    file: tuple
    subfile: tuple
    sign: tuple
    ends: tuple

    @property
    def starts(self):
        return (0, *self.ends[:-1])

    def __len__(self):
        return len(self.ends)

    def __iter__(self):
        terms = tuple(zip(self.file, self.subfile, self.sign))
        return map(_summation, map(terms.__getitem__,
                                   map(slice, self.starts, self.ends)))


NO_ROWS = Rows((), (), (), ())


def row_shapes(rows):
    """How many rows of a block have each shape: the sorted tuple of the
    files a row sums (a file twice in a row is there twice)."""
    return Counter(map(rows.file.__getitem__,
                       map(slice, rows.starts, rows.ends)))


def checked_rows(rows, server):
    """A server's rows as a checked block.  A sequence of Summations, each
    checked as it was made, is put into columns; a block is checked whole:
    its column lengths, its row ends and its terms, and rows whose terms
    are out of order are sorted."""
    if type(rows) is not Rows:
        rows = tuple(rows)
        if not set(map(type, rows)) <= {Summation}:
            raise ParameterError("queries must contain Summation rows")
        terms = [row.terms for row in rows]
        columns = tuple(zip(*chain.from_iterable(terms))) or ((), (), ())
        return Rows(*columns, tuple(accumulate(map(len, terms))))
    file, ends = rows.file, rows.ends
    for name in ("subfile", "sign"):
        same_length(f"the {name} column of server {server}",
                    getattr(rows, name), file)
    if not set(map(type, ends)) <= {int}:
        for end in ends:
            check_int(end, "row end")
    cuts = (0, *ends)
    if not all(map(le, cuts, cuts[1:])) or cuts[-1] != len(file):
        raise ParameterError(f"row ends of server {server} must rise from 0 "
                             f"to {len(file)}, the length of its columns")
    columns = tuple(file), tuple(rows.subfile), tuple(rows.sign)
    if not _terms_valid(*columns):
        _refuse_first_term(zip(*columns))
    ends = tuple(ends)
    return Rows(*_rows_in_order(*columns, ends), ends)


def in_row(op, file, ends):
    """op(file[i], file[i + 1]) for each term i of a block, given its file
    column and row ends, with inf for the file after a row's last term
    (so eq and ge give False there)."""
    following = [*file[1:], math.inf]
    for end in ends:
        following[end - 1] = math.inf
    return map(op, file, following)


def _rows_in_order(file, subfile, sign, ends):
    """The columns with every row's terms sorted.  Only a row that holds a
    term after a greater one is sorted; that term's file is not below the
    one before it."""
    late = [i for i in compress(count(), in_row(ge, file, ends))
            if (file[i], subfile[i], sign[i])
            > (file[i + 1], subfile[i + 1], sign[i + 1])]
    if not late:
        return file, subfile, sign
    terms = list(zip(file, subfile, sign))
    for row in {bisect_right(ends, i) for i in late}:
        start = ends[row - 1] if row else 0
        terms[start:ends[row]] = sorted(terms[start:ends[row]])
    return tuple(zip(*terms))


def same_length(name, column, first):
    if len(column) != len(first):
        raise ParameterError(f"{name} has {len(column)} entries, "
                             f"not {len(first)}")
