"""Boolean relational calculus on bit-packed matrices.

A relation between two finite indexed sets is stored dense, one Python int
per row, so composition, residuals and the arrow constructions reduce to
word-parallel mask loops.  Every value is immutable; operations return fresh
objects and never touch their arguments.
"""

from __future__ import annotations

__all__ = [
    "BoolVec",
    "BoolRel",
    "Partition",
    "compose",
    "vec_rel",
    "rel_vec",
    "scalar",
    "inverse",
    "union",
    "intersect",
    "subset_of",
    "arrow_right",
    "arrow_left",
    "residual_right",
    "residual_left",
    "kernel",
    "cokernel",
    "is_complete",
    "is_surjective",
    "is_partial_uniform",
    "is_uniform",
    "induced_bijection",
]


def _bit_indices(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BoolVec:
    """Subset of {0, ..., n-1} stored as a bit mask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 1:
            raise ValueError("vector length must be positive")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask does not fit in {n} positions")
        self.n = n
        self.mask = mask

    @classmethod
    def from_bits(cls, bits) -> "BoolVec":
        bits = list(bits)
        mask = 0
        for i, bit in enumerate(bits):
            if bit:
                mask |= 1 << i
        return cls(len(bits), mask)

    @classmethod
    def from_indices(cls, n: int, indices) -> "BoolVec":
        mask = 0
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def zeros(cls, n: int) -> "BoolVec":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BoolVec":
        return cls(n, (1 << n) - 1)

    def __len__(self):
        return self.n

    def __getitem__(self, i: int) -> bool:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return bool(self.mask >> i & 1)

    def __eq__(self, other):
        return (
            isinstance(other, BoolVec)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.n, self.mask))

    def __repr__(self):
        return f"BoolVec.from_bits({list(self.bits())})"

    def __str__(self):
        return self.to_text()

    def bits(self) -> tuple:
        return tuple(self.mask >> i & 1 for i in range(self.n))

    def indices(self) -> tuple:
        return tuple(_bit_indices(self.mask))

    def count(self) -> int:
        return bin(self.mask).count("1")

    def is_empty(self) -> bool:
        return self.mask == 0

    def issubset(self, other: "BoolVec") -> bool:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: length {self.n} vs {other.n}")
        return self.mask & ~other.mask == 0

    def to_text(self) -> str:
        return format(self.mask, f"0{self.n}b")[::-1]


class BoolRel:
    """Relation between two indexed sets, one bit mask per row."""

    __slots__ = ("rows", "cols", "row_masks")

    def __init__(self, rows: int, cols: int, row_masks):
        if rows < 1 or cols < 1:
            raise ValueError("relation dimensions must be positive")
        row_masks = tuple(row_masks)
        if len(row_masks) != rows:
            raise ValueError(f"expected {rows} row masks, got {len(row_masks)}")
        if min(row_masks) < 0 or max(row_masks) >> cols:
            raise ValueError(f"row mask does not fit in {cols} columns")
        self.rows = rows
        self.cols = cols
        self.row_masks = row_masks

    @classmethod
    def from_bits(cls, bits) -> "BoolRel":
        bits = [list(row) for row in bits]
        if not bits:
            raise ValueError("relation dimensions must be positive")
        cols = len(bits[0])
        masks = []
        for row in bits:
            if len(row) != cols:
                raise ValueError("rows have unequal lengths")
            mask = 0
            for j, bit in enumerate(row):
                if bit:
                    mask |= 1 << j
            masks.append(mask)
        return cls(len(bits), cols, masks)

    @classmethod
    def from_pairs(cls, rows: int, cols: int, pairs) -> "BoolRel":
        masks = [0] * rows
        for a, b in pairs:
            if not (0 <= a < rows and 0 <= b < cols):
                raise ValueError(f"pair ({a}, {b}) out of range for {rows}x{cols}")
            masks[a] |= 1 << b
        return cls(rows, cols, masks)

    @classmethod
    def identity(cls, n: int) -> "BoolRel":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def full(cls, rows: int, cols: int) -> "BoolRel":
        return cls(rows, cols, [(1 << cols) - 1] * rows)

    @classmethod
    def empty(cls, rows: int, cols: int) -> "BoolRel":
        return cls(rows, cols, [0] * rows)

    def __eq__(self, other):
        return (
            isinstance(other, BoolRel)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_masks == other.row_masks
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.row_masks))

    def __getitem__(self, pair) -> bool:
        a, b = pair
        if not (0 <= a < self.rows and 0 <= b < self.cols):
            raise IndexError(pair)
        return bool(self.row_masks[a] >> b & 1)

    def __repr__(self):
        return f"BoolRel.from_bits({[list(row) for row in self.bits()]})"

    def __str__(self):
        return self.to_text()

    def row(self, a: int) -> BoolVec:
        return BoolVec(self.cols, self.row_masks[a])

    def bits(self) -> tuple:
        return tuple(
            tuple(m >> j & 1 for j in range(self.cols)) for m in self.row_masks
        )

    def pairs(self) -> tuple:
        return tuple(
            (a, b) for a, m in enumerate(self.row_masks) for b in _bit_indices(m)
        )

    def count(self) -> int:
        return sum(map(int.bit_count, self.row_masks))

    def is_empty(self) -> bool:
        return not any(self.row_masks)

    def to_text(self) -> str:
        """Rows of 0/1 characters, one matrix row per line."""
        width = f"0{self.cols}b"
        return "\n".join(format(m, width)[::-1] for m in self.row_masks)


def _require_square(r: BoolRel, what: str) -> None:
    if r.rows != r.cols:
        raise ValueError(f"{what} must be square, got {r.rows}x{r.cols}")


def _require_same_shape(r: BoolRel, s: BoolRel) -> None:
    if r.rows != s.rows or r.cols != s.cols:
        raise ValueError(
            f"dimension mismatch: {r.rows}x{r.cols} vs {s.rows}x{s.cols}"
        )


def compose(r: BoolRel, s: BoolRel) -> BoolRel:
    """Relational composition: (a, c) related iff some b links a to c."""
    if r.cols != s.rows:
        raise ValueError(
            f"dimension mismatch: cannot compose {r.rows}x{r.cols} "
            f"with {s.rows}x{s.cols}"
        )
    out = []
    for m in r.row_masks:
        acc = 0
        for b in _bit_indices(m):
            acc |= s.row_masks[b]
        out.append(acc)
    return BoolRel(r.rows, s.cols, out)


def vec_rel(alpha: BoolVec, r: BoolRel) -> BoolVec:
    """Image of a subset under a relation (alpha composed with r)."""
    if alpha.n != r.rows:
        raise ValueError(f"dimension mismatch: vector {alpha.n} vs {r.rows} rows")
    acc = 0
    for a in _bit_indices(alpha.mask):
        acc |= r.row_masks[a]
    return BoolVec(r.cols, acc)


def rel_vec(r: BoolRel, beta: BoolVec) -> BoolVec:
    """Preimage of a subset under a relation (r composed with beta)."""
    if beta.n != r.cols:
        raise ValueError(f"dimension mismatch: vector {beta.n} vs {r.cols} columns")
    acc = 0
    for a, m in enumerate(r.row_masks):
        if m & beta.mask:
            acc |= 1 << a
    return BoolVec(r.rows, acc)


def _unions(masks):
    """Union function of a mask list: a selector mask in, the union of
    masks[i] over the bits i set in it out; over a relation's row masks an
    image (``vec_rel``), over its column masks a preimage (``rel_vec``).

    Each call takes the cheaper loop: one step per set bit, or one lookup per
    4 selector positions in 16-entry tables of unions (the method of Four
    Russians, 1970), built by the first call that needs them.  A bit step
    costs about 1.5 lookups, so bits win up to two thirds of the lookups.
    """
    tables = []

    def union_of(sel: int) -> int:
        count = sel.bit_count()
        if count == 1:
            return masks[sel.bit_length() - 1]
        acc = 0
        if 3 * count <= 2 * (sel.bit_length() + 3 >> 2):
            while sel:
                low = sel & -sel
                acc |= masks[low.bit_length() - 1]
                sel ^= low
            return acc
        if not tables:
            for c in range(0, len(masks), 4):
                table = [0]
                for m in masks[c:c + 4]:
                    table += [t | m for t in table]
                tables.append(table)
        for table in tables:
            if not sel:
                break
            acc |= table[sel & 15]
            sel >>= 4
        return acc

    return union_of


def scalar(alpha: BoolVec, beta: BoolVec) -> bool:
    """Truth value of "the two subsets intersect"."""
    if alpha.n != beta.n:
        raise ValueError(f"dimension mismatch: length {alpha.n} vs {beta.n}")
    return bool(alpha.mask & beta.mask)


def inverse(r: BoolRel) -> BoolRel:
    out = [0] * r.cols
    for a, m in enumerate(r.row_masks):
        for b in _bit_indices(m):
            out[b] |= 1 << a
    return BoolRel(r.cols, r.rows, out)


def _columns(row_masks, cols: int) -> list:
    """Column masks of a matrix given by its row masks, equal to
    ``inverse(r).row_masks``.  One string transpose, which beats the bit
    loop of ``inverse`` once the rows are dense."""
    width = f"0{cols}b"
    rows = [format(m, width)[::-1] for m in reversed(row_masks)]
    return [int("".join(col), 2) for col in zip(*rows)]


def union(r: BoolRel, s: BoolRel) -> BoolRel:
    _require_same_shape(r, s)
    return BoolRel(r.rows, r.cols, [m | k for m, k in zip(r.row_masks, s.row_masks)])


def intersect(r: BoolRel, s: BoolRel) -> BoolRel:
    _require_same_shape(r, s)
    return BoolRel(r.rows, r.cols, [m & k for m, k in zip(r.row_masks, s.row_masks)])


def subset_of(r: BoolRel, s: BoolRel) -> bool:
    _require_same_shape(r, s)
    return all(m & ~k == 0 for m, k in zip(r.row_masks, s.row_masks))


def arrow_right(eta: BoolVec, xi: BoolVec) -> BoolRel:
    """(a, b) related iff membership of a in eta implies b in xi."""
    full = (1 << xi.n) - 1
    return BoolRel(
        eta.n,
        xi.n,
        [xi.mask if eta.mask >> a & 1 else full for a in range(eta.n)],
    )


def arrow_left(eta: BoolVec, xi: BoolVec) -> BoolRel:
    """(a, b) related iff membership of b in xi implies a in eta."""
    full = (1 << xi.n) - 1
    not_xi = ~xi.mask & full
    return BoolRel(
        eta.n,
        xi.n,
        [full if eta.mask >> a & 1 else not_xi for a in range(eta.n)],
    )


# No command calls the two residuals or their complement helper; they stay
# while BENCHMARK.json's per-layer metrics name the residuals.
def _complement(r: BoolRel) -> BoolRel:
    top = (1 << r.cols) - 1
    return BoolRel(r.rows, r.cols, [~m & top for m in r.row_masks])


def residual_right(phi: BoolRel, alpha: BoolRel) -> BoolRel:
    """Greatest psi with alpha o psi contained in phi.

    alpha must be square over phi's rows.
    """
    _require_square(alpha, "right-residual divisor")
    if alpha.rows != phi.rows:
        raise ValueError(
            f"dimension mismatch: divisor {alpha.rows}x{alpha.cols} "
            f"vs relation {phi.rows}x{phi.cols}"
        )
    return _complement(compose(inverse(alpha), _complement(phi)))


def residual_left(phi: BoolRel, beta: BoolRel) -> BoolRel:
    """Greatest psi with psi o beta contained in phi.

    beta must be square over phi's columns.
    """
    _require_square(beta, "left-residual divisor")
    if beta.rows != phi.cols:
        raise ValueError(
            f"dimension mismatch: divisor {beta.rows}x{beta.cols} "
            f"vs relation {phi.rows}x{phi.cols}"
        )
    return _complement(compose(_complement(phi), inverse(beta)))


class Partition:
    """Equivalence relation on {0, ..., n-1} as a class-id array plus class lists.

    Class ids are assigned in order of first occurrence, so two partitions with
    the same blocks compare equal regardless of how they were labelled.
    """

    __slots__ = ("n", "class_of", "classes")

    def __init__(self, labels):
        labels = list(labels)
        if not labels:
            raise ValueError("partition must cover at least one element")
        renumber = {}
        class_of = []
        for lab in labels:
            class_of.append(renumber.setdefault(lab, len(renumber)))
        classes = [[] for _ in range(len(renumber))]
        for e, c in enumerate(class_of):
            classes[c].append(e)
        self.n = len(labels)
        self.class_of = tuple(class_of)
        self.classes = tuple(tuple(c) for c in classes)

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(range(n))

    @classmethod
    def single_class(cls, n: int) -> "Partition":
        return cls([0] * n)

    @classmethod
    def from_classes(cls, n: int, classes) -> "Partition":
        labels = [None] * n
        for c, members in enumerate(classes):
            if not members:
                raise ValueError("classes must be nonempty")
            for e in members:
                if not 0 <= e < n:
                    raise ValueError(f"element {e} out of range for size {n}")
                if labels[e] is not None:
                    raise ValueError(f"element {e} appears in two classes")
                labels[e] = c
        if any(lab is None for lab in labels):
            missing = [e for e, lab in enumerate(labels) if lab is None]
            raise ValueError(f"elements not covered by any class: {missing}")
        return cls(labels)

    @classmethod
    def from_relation(cls, rel: BoolRel) -> "Partition":
        """Convert an equivalence relation; rejects non-equivalences."""
        _require_square(rel, "equivalence relation")
        for a in range(rel.rows):
            if not rel.row_masks[a] >> a & 1:
                raise ValueError(f"relation is not reflexive at {a}")
        if inverse(rel) != rel:
            raise ValueError("relation is not symmetric")
        if not subset_of(compose(rel, rel), rel):
            raise ValueError("relation is not transitive")
        return cls(rel.row_masks)

    def to_relation(self) -> BoolRel:
        class_mask = [0] * len(self.classes)
        for e, c in enumerate(self.class_of):
            class_mask[c] |= 1 << e
        return BoolRel(self.n, self.n, [class_mask[c] for c in self.class_of])

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def refines(self, other: "Partition") -> bool:
        """True when every class of self lies inside a class of other."""
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: size {self.n} vs {other.n}")
        return all(
            len({other.class_of[e] for e in members}) == 1 for members in self.classes
        )

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.class_of == other.class_of
        )

    def __hash__(self):
        return hash((self.n, self.class_of))

    def __repr__(self):
        return f"Partition.from_classes({self.n}, {[list(c) for c in self.classes]})"


def kernel(phi: BoolRel) -> Partition:
    """Partition of the rows of phi grouping identical row patterns."""
    return Partition(phi.row_masks)


def cokernel(phi: BoolRel) -> Partition:
    """Partition of the columns of phi grouping identical column patterns."""
    return Partition(inverse(phi).row_masks)


def is_complete(phi: BoolRel) -> bool:
    return all(m != 0 for m in phi.row_masks)


def is_surjective(phi: BoolRel) -> bool:
    covered = 0
    for m in phi.row_masks:
        covered |= m
    return covered == (1 << phi.cols) - 1


def is_partial_uniform(phi: BoolRel) -> bool:
    """True when phi composed with its inverse and itself stays inside phi."""
    return subset_of(compose(compose(phi, inverse(phi)), phi), phi)


def is_uniform(phi: BoolRel) -> bool:
    return is_complete(phi) and is_surjective(phi) and is_partial_uniform(phi)


def _uniformity_problems(phi: BoolRel) -> list:
    problems = []
    if not is_complete(phi):
        problems.append("incomplete")
    if not is_surjective(phi):
        problems.append("non-surjective")
    if not is_partial_uniform(phi):
        problems.append("not partial-uniform")
    return problems


def induced_bijection(phi: BoolRel) -> tuple:
    """Map kernel classes of a uniform relation onto its cokernel classes.

    Entry c of the result is the cokernel class paired with kernel class c.
    The mapping is computed from the canonical choice function and re-derived
    from a second one (when any row allows a choice) to confirm it does not
    depend on the choice.
    """
    problems = _uniformity_problems(phi)
    if problems:
        raise ValueError("relation is not uniform: " + ", ".join(problems))
    ker = kernel(phi)
    coker = cokernel(phi)

    def class_map(choice):
        out = [None] * ker.num_classes
        for a, col in enumerate(choice):
            c = ker.class_of[a]
            t = coker.class_of[col]
            if out[c] is None:
                out[c] = t
            elif out[c] != t:
                return None
        return tuple(out)

    lowest = tuple((m & -m).bit_length() - 1 for m in phi.row_masks)
    highest = tuple(m.bit_length() - 1 for m in phi.row_masks)
    mapping = class_map(lowest)
    check = class_map(highest)
    if (
        mapping is None
        or mapping != check
        or sorted(mapping) != list(range(coker.num_classes))
    ):
        raise AssertionError("induced mapping depends on the choice function")
    return mapping
