"""Reduced ordered binary decision diagrams with hash consing.

A :class:`BddStore` owns a global variable order organised into named
blocks (e.g. current/next state bits, per-agent action bits).  Functions
are canonical: two handles in the same store are equal iff they denote
the same Boolean function.  The store is single-threaded; handles must
not be mixed across stores.

Conjunction, disjunction and difference have dedicated node-level
kernels (``_and``, ``_or``, ``_diff``) that recurse on two operands.
They share the one computed table with ``_ite``: each result is keyed
by the ite triple it equals, commutative operands ordered, following
Brace, Rudell & Bryant, "Efficient implementation of a BDD package"
(DAC 1990).  The handle operators ``&``, ``|``, ``^`` and ``~`` call
these kernels directly; quantification (``exists``, ``and_exists``)
and renaming (``rename``) are the store's other operations.

Explicit data (model rows, automaton edges, state sets) enters through
one bulk constructor, ``from_points``, which builds the BDD of a point
set bottom-up, one variable level at a time, after the ``Reduce`` of
Bryant, "Graph-based algorithms for Boolean function manipulation"
(IEEE Transactions on Computers, 1986).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import and_, or_, rshift

from .errors import ResourceError


class BddError(Exception):
    pass


class BudgetExceeded(BddError, ResourceError):
    """Raised when the node table outgrows the configured byte budget."""


def _over_budget(max_nodes):
    return BudgetExceeded(f"BDD node budget exceeded ({max_nodes} nodes)")


class _OrderBroken(Exception):
    """A relabelling would put a variable below one of its children."""


# approximate cost of one node (table entry + unique-table slot)
_BYTES_PER_NODE = 96

FALSE = 0
TRUE = 1

# variables at the bottom of a from_points BDD that are built from one
# truth table.  Of 4, 6, 8 and 10, 6 was fastest on the model and
# automaton encodings of three benchmark workloads; 8 and 10 won on the
# fourth by under a tenth.  A narrower chunk leaves more levels to the
# fold; a wider one splits more and larger truth tables.
_CHUNK = 6


@dataclass(frozen=True)
class VarBlock:
    """A named, ordered group of variables in one store."""

    name: str
    vars: tuple  # global variable indices, ascending

    def __len__(self):
        return len(self.vars)


class Bdd:
    """Handle to a canonical Boolean function in a store."""

    __slots__ = ("store", "node")

    def __init__(self, store, node):
        self.store = store
        self.node = node

    def __eq__(self, other):
        return (
            isinstance(other, Bdd)
            and self.store is other.store
            and self.node == other.node
        )

    def __hash__(self):
        return hash((id(self.store), self.node))

    def __and__(self, other):
        st = self.store
        a, b = st._check(self, other)
        return Bdd(st, st._and(a, b))

    def __or__(self, other):
        st = self.store
        a, b = st._check(self, other)
        return Bdd(st, st._or(a, b))

    def __xor__(self, other):
        st = self.store
        a, b = st._check(self, other)
        return Bdd(st, st._ite(a, st._not(b), b))

    def __invert__(self):
        return Bdd(self.store, self.store._not(self.node))

    def is_false(self):
        return self.node == FALSE

    def __repr__(self):
        return f"Bdd(node={self.node})"


class BddStore:
    """Shared node table with an operation cache.

    ``blocks`` is a list of ``(name, width)`` pairs.  A block whose name is
    a previous block's name plus a trailing apostrophe (e.g. ``q`` and
    ``q'``) is its primed partner; partner blocks of equal width are
    interleaved bitwise in the variable order, which keeps transition
    relations small.
    """

    def __init__(self, blocks, byte_budget=256 * 1024 * 1024):
        if not blocks:
            raise BddError("a store needs at least one variable block")
        names = [name for name, _ in blocks]
        if len(set(names)) != len(names):
            raise BddError("duplicate block names: %s" % names)
        for name, width in blocks:
            if width < 1:
                raise BddError(f"block {name!r} must have width >= 1")

        self.max_nodes = max(1024, byte_budget // _BYTES_PER_NODE)
        self.blocks = {}
        order = []  # list of (block name, bit index) in variable order
        i = 0
        while i < len(blocks):
            name, width = blocks[i]
            partner = None
            if i + 1 < len(blocks):
                nname, nwidth = blocks[i + 1]
                if nname == name + "'" and nwidth == width:
                    partner = nname
            if partner is not None:
                for b in range(width):
                    order.append((name, b))
                    order.append((partner, b))
                i += 2
            else:
                for b in range(width):
                    order.append((name, b))
                i += 1

        per_block = {}
        self.var_names = []
        for pos, (name, b) in enumerate(order):
            per_block.setdefault(name, []).append(pos)
            self.var_names.append(f"{name}{b}")
        for name, _ in blocks:
            self.blocks[name] = VarBlock(name, tuple(per_block[name]))
        self.nvars = len(order)

        # node 0 = false, node 1 = true; terminals get an out-of-range level
        self._var = [self.nvars, self.nvars]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique = {}
        # the computed table: ite results keyed by their operands (the
        # binary kernels' results under their ite triples), and a memo
        # per quantified variable set and per renaming, keyed by
        # operand nodes; entries outlive the call that made them
        self._ite_cache = {}
        self._memos = {}
        # swaps of rename, by block lists; they name variables, not
        # nodes, so they outlive release and trim_cache
        self._renamings = {}

    # -- node layer -------------------------------------------------------

    def _mk(self, var, lo, hi):
        if lo == hi:
            return lo
        key = (var, lo, hi)
        n = self._unique.get(key)
        if n is None:
            n = len(self._var)
            if n >= self.max_nodes:
                raise _over_budget(self.max_nodes)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = n
        return n

    def _ite(self, f, g, h):
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        # the triples of the binary kernels go to the kernels, so each
        # such result has one normalised key
        if h == FALSE:
            return self._and(f, g)
        if g == TRUE:
            return self._or(f, h)
        if g == FALSE:
            return self._diff(h, f)
        key = (f, g, h)
        r = self._ite_cache.get(key)
        if r is not None:
            return r
        var_, lo_, hi_ = self._var, self._lo, self._hi
        v = min(var_[f], var_[g], var_[h])
        f1, f0 = (hi_[f], lo_[f]) if var_[f] == v else (f, f)
        g1, g0 = (hi_[g], lo_[g]) if var_[g] == v else (g, g)
        h1, h0 = (hi_[h], lo_[h]) if var_[h] == v else (h, h)
        r = self._mk(v, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._ite_cache[key] = r
        return r

    def _and(self, f, g):
        """f & g, cached as ite(min, max, FALSE)."""
        if f == FALSE or g == FALSE:
            return FALSE
        if f == TRUE or f == g:
            return g
        if g == TRUE:
            return f
        if f > g:
            f, g = g, f
        key = (f, g, FALSE)
        r = self._ite_cache.get(key)
        if r is not None:
            return r
        var_, lo_, hi_ = self._var, self._lo, self._hi
        vf, vg = var_[f], var_[g]
        if vf == vg:
            r = self._mk(vf, self._and(lo_[f], lo_[g]),
                         self._and(hi_[f], hi_[g]))
        elif vf < vg:
            r = self._mk(vf, self._and(lo_[f], g), self._and(hi_[f], g))
        else:
            r = self._mk(vg, self._and(f, lo_[g]), self._and(f, hi_[g]))
        self._ite_cache[key] = r
        return r

    def _or(self, f, g):
        """f | g, cached as ite(min, TRUE, max)."""
        if f == TRUE or g == TRUE:
            return TRUE
        if f == FALSE or f == g:
            return g
        if g == FALSE:
            return f
        if f > g:
            f, g = g, f
        key = (f, TRUE, g)
        r = self._ite_cache.get(key)
        if r is not None:
            return r
        var_, lo_, hi_ = self._var, self._lo, self._hi
        vf, vg = var_[f], var_[g]
        if vf == vg:
            r = self._mk(vf, self._or(lo_[f], lo_[g]),
                         self._or(hi_[f], hi_[g]))
        elif vf < vg:
            r = self._mk(vf, self._or(lo_[f], g), self._or(hi_[f], g))
        else:
            r = self._mk(vg, self._or(f, lo_[g]), self._or(f, hi_[g]))
        self._ite_cache[key] = r
        return r

    def _diff(self, f, g):
        """f & ~g without building ~g, cached as ite(g, FALSE, f)."""
        if f == FALSE or g == TRUE or f == g:
            return FALSE
        if g == FALSE:
            return f
        key = (g, FALSE, f)
        r = self._ite_cache.get(key)
        if r is not None:
            return r
        var_, lo_, hi_ = self._var, self._lo, self._hi
        vf, vg = var_[f], var_[g]
        if vf == vg:
            r = self._mk(vf, self._diff(lo_[f], lo_[g]),
                         self._diff(hi_[f], hi_[g]))
        elif vf < vg:
            r = self._mk(vf, self._diff(lo_[f], g), self._diff(hi_[f], g))
        else:
            r = self._mk(vg, self._diff(f, lo_[g]), self._diff(f, hi_[g]))
        self._ite_cache[key] = r
        return r

    def _not(self, f):
        return self._diff(TRUE, f)

    # -- public constructors ---------------------------------------------

    @property
    def true(self):
        return Bdd(self, TRUE)

    @property
    def false(self):
        return Bdd(self, FALSE)

    def block(self, name):
        return self.blocks[name]

    def var(self, index):
        """Function of the single variable at global order position ``index``."""
        if not 0 <= index < self.nvars:
            raise BddError(f"variable index {index} out of range")
        return Bdd(self, self._mk(index, FALSE, TRUE))

    def _check(self, *fs):
        for f in fs:
            if not isinstance(f, Bdd):
                raise BddError(f"expected a Bdd, got {type(f).__name__}")
            if f.store is not self:
                raise BddError("operands belong to different stores")
        return [f.node for f in fs]

    # -- boolean operations ----------------------------------------------

    def big_or(self, fs):
        """Balanced disjunction; much flatter than a left fold for cube lists."""
        return Bdd(self, self._fold(self._or, FALSE, fs))

    def big_and(self, fs):
        """Balanced conjunction."""
        return Bdd(self, self._fold(self._and, TRUE, fs))

    def _fold(self, kernel, unit, fs):
        """The handles ``fs`` combined by ``kernel`` in a balanced tree:
        neighbours pair up, an odd last one moves up alone."""
        nodes = self._check(*fs)
        if not nodes:
            return unit
        while len(nodes) > 1:
            paired = list(map(kernel, nodes[0::2], nodes[1::2]))
            if len(nodes) % 2:
                paired.append(nodes[-1])
            nodes = paired
        return nodes[0]

    # -- quantification ---------------------------------------------------

    def _vars_of(self, vars_):
        if isinstance(vars_, VarBlock):
            return frozenset(vars_.vars)
        out = set()
        for v in vars_:
            if isinstance(v, VarBlock):
                out.update(v.vars)
            else:
                out.add(v)
        return frozenset(out)

    def exists(self, vars_, f):
        (a,) = self._check(f)
        vs = self._vars_of(vars_)
        for v in vs:
            if not 0 <= v < self.nvars:
                raise BddError(f"variable {v} not in store")
        return Bdd(self, self._exists(a, vs, max(vs, default=-1),
                                      self._quant_memo(vs)))

    def _quant_memo(self, vs):
        """The computed table's memo for quantifying ``vs``: it holds
        quantifications keyed by node ids and relational products keyed
        by node pairs."""
        return self._memos.setdefault(("exists", vs), {})

    def _exists(self, n, vs, last, memo):
        """exists vs. n, where ``last`` is the deepest variable of vs."""
        if n <= 1:
            return n
        v = self._var[n]
        if v > last:
            return n
        r = memo.get(n)
        if r is not None:
            return r
        lo = self._exists(self._lo[n], vs, last, memo)
        hi = self._exists(self._hi[n], vs, last, memo)
        if v in vs:
            r = self._or(lo, hi)
        else:
            r = self._mk(v, lo, hi)
        memo[n] = r
        return r

    def and_exists(self, f, g, vars_):
        """exists vars_. (f & g) without building the full conjunction."""
        a, b = self._check(f, g)
        vs = self._vars_of(vars_)
        return Bdd(self, self._and_exists(a, b, vs, max(vs, default=-1),
                                          self._quant_memo(vs)))

    def _and_exists(self, a, b, vs, last, memo):
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return self._exists(b, vs, last, memo)
        if b == TRUE:
            return self._exists(a, vs, last, memo)
        var_ = self._var
        va, vb = var_[a], var_[b]
        if va > last and vb > last:
            # nothing left to quantify: a plain conjunction
            return self._and(a, b)
        key = (a, b) if a <= b else (b, a)
        r = memo.get(key)
        if r is not None:
            return r
        lo_, hi_ = self._lo, self._hi
        v = va if va < vb else vb
        a1, a0 = (hi_[a], lo_[a]) if va == v else (a, a)
        b1, b0 = (hi_[b], lo_[b]) if vb == v else (b, b)
        lo = self._and_exists(a0, b0, vs, last, memo)
        if v in vs:
            if lo == TRUE:
                r = TRUE
            else:
                r = self._or(lo, self._and_exists(a1, b1, vs, last, memo))
        else:
            r = self._mk(v, lo, self._and_exists(a1, b1, vs, last, memo))
        memo[key] = r
        return r

    # -- substitution -----------------------------------------------------

    def _compose(self, n, sub, memo):
        """Node n with each variable v in ``sub`` replaced by the node
        sub[v], all at once."""
        if n <= 1:
            return n
        r = memo.get(n)
        if r is not None:
            return r
        v = self._var[n]
        lo = self._compose(self._lo[n], sub, memo)
        hi = self._compose(self._hi[n], sub, memo)
        g = sub.get(v)
        if g is None:
            g = self._mk(v, FALSE, TRUE)
        r = self._ite(g, hi, lo)
        memo[n] = r
        return r

    def rename(self, f, from_block, to_block):
        """Swap the paired variables of two equal-width blocks.

        ``from_block`` and ``to_block`` may also be equal-length lists of
        blocks, swapped pairwise in one pass.  Both directions are
        exchanged, so a double rename is the identity.  The nodes are
        relabelled directly while the swap keeps every relabelled node
        above its children (it does whenever f reads only one block of
        each interleaved pair); a node where it does not makes the whole
        swap composed instead.
        """
        (a,) = self._check(f)
        return Bdd(self, self._rename(a, self.renaming(from_block, to_block)))

    def renaming(self, from_block, to_block):
        """The swap of ``rename(f, from_block, to_block)`` and the key of
        its memo, built once per store and pair of block lists."""
        if isinstance(from_block, VarBlock):
            from_block, to_block = [from_block], [to_block]
        key = (tuple(from_block), tuple(to_block))
        r = self._renamings.get(key)
        if r is not None:
            return r
        if len(from_block) != len(to_block):
            raise BddError("rename needs as many target blocks as sources")
        swap = {}
        for fb, tb in zip(from_block, to_block):
            if len(fb.vars) != len(tb.vars):
                raise BddError(
                    f"block length mismatch: {fb.name} has "
                    f"{len(fb.vars)} vars, {tb.name} has {len(tb.vars)}"
                )
            for x, y in zip(fb.vars, tb.vars):
                swap[x] = y
                swap[y] = x
        # a swap and its inverse are the same map, so priming and
        # unpriming share one memo
        r = self._renamings[key] = (swap, ("rename", frozenset(swap.items())))
        return r

    def _rename(self, a, renaming):
        """Node a under a swap that :meth:`renaming` prepared."""
        swap, key = renaming
        memo = self._memos.get(key)
        if memo is None:
            memo = self._memos[key] = {}
        try:
            return self._relabel(a, swap, memo)
        except _OrderBroken:
            sub = {x: self._mk(y, FALSE, TRUE) for x, y in swap.items()}
            return self._compose(a, sub, {})

    def _relabel(self, n, swap, memo):
        """Node n with each variable v renamed to swap.get(v, v).  Raises
        _OrderBroken, before making the node, where a renamed variable
        would not lie above its relabelled children; the memo then keeps
        only the nodes relabelled in order."""
        if n <= 1:
            return n
        r = memo.get(n)
        if r is None:
            v = self._var[n]
            v = swap.get(v, v)
            lo = self._relabel(self._lo[n], swap, memo)
            hi = self._relabel(self._hi[n], swap, memo)
            if v >= self._var[lo] or v >= self._var[hi]:
                raise _OrderBroken
            r = memo[n] = self._mk(v, lo, hi)
        return r

    # -- evaluation / counting -------------------------------------------

    def _support(self, a):
        out = set()
        seen = set()
        stack = [a]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            out.add(self._var[n])
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return out

    def evaluate(self, f, assignment):
        """Evaluate under a total assignment: dict var index -> bool."""
        (n,) = self._check(f)
        while n > 1:
            n = self._hi[n] if assignment.get(self._var[n], False) else self._lo[n]
        return n == TRUE

    def sat_count(self, f, over):
        (root,) = self._check(f)
        vs = sorted(self._vars_of(over))
        extra = self._support(root) - set(vs)
        if extra:
            names = [self.var_names[v] for v in sorted(extra)]
            raise BddError(f"free variables outside counting block: {names}")
        idx = {v: i for i, v in enumerate(vs)}
        nvs = len(vs)
        memo = {}

        def go(n):
            # assignments to block vars at positions >= idx of n's var
            if n == TRUE:
                return 1, nvs
            if n == FALSE:
                return 0, nvs
            r = memo.get(n)
            if r is not None:
                return r
            i = idx[self._var[n]]
            clo, ilo = go(self._lo[n])
            chi, ihi = go(self._hi[n])
            c = clo * (1 << (ilo - i - 1)) + chi * (1 << (ihi - i - 1))
            memo[n] = (c, i)
            return c, i

        c, i = go(root)
        return c * (1 << i)

    def from_points(self, blocks, columns, product=()):
        """Disjunction of the cubes of a point set over ``blocks``.

        The points run over the leading blocks as a product and over
        the rest as columns.  ``product`` holds one sequence of values
        for each of the first ``len(product)`` blocks, and the points
        take every combination of them in ``itertools.product`` order,
        the first block's value varying slowest.  ``columns`` holds one
        sequence per remaining block, one value per combination: the
        i-th point takes the i-th value of each.  Without ``product``
        the columns give the whole points.  A product block may be
        None: its values multiply the points but set no bits, so the
        result is the projection of the point set that leaves it out
        (only product blocks may be None).  Values are bit vectors (bit
        0 = LSB), and variables outside ``blocks`` stay free.  The BDD
        is built in bulk, bottom-up, after Bryant's ``Reduce``:

        - each point is packed into one integer key whose bits follow
          the global variable order, topmost variable most significant,
          through one value-to-bits table per block: one comprehension
          packs the product, then one ``map`` per column adds its bits;
          when a None block made points alike, one ``set`` merges their
          keys;
        - the keys are grouped by all but their lowest ``_CHUNK`` bits,
          each group's suffixes become one ``2**_CHUNK``-bit truth
          table, and each distinct table is split into its sub-BDD once;
        - above the chunk, one pass per variable walks the sorted
          prefixes, pairs each two that differ only in their last bit,
          and makes their parent node inline: a unique-table lookup and
          the budget check.

        Every node created is a node of the result, so the store holds
        no intermediate garbage.  Raises ``BddError`` when blocks share
        variables, a column's block is None, the product and columns do
        not match the blocks or a value does not fit its block, and
        ``BudgetExceeded`` when the store is full.
        """
        if None in blocks[len(product):]:
            raise BddError("from_points: only a product block may be None")
        order = sorted(v for blk in blocks if blk is not None
                       for v in blk.vars)
        if len(set(order)) != len(order):
            raise BddError("from_points: blocks share variables")
        lengths = [len(c) for c in columns]
        if product:
            points = math.prod(map(len, product))
        else:
            points = lengths[0] if lengths else 0
        if (len(product) + len(columns) != len(blocks)
                or any(n != points for n in lengths)):
            raise BddError(
                f"from_points: {len(blocks)} blocks need as many columns "
                f"of one length, got lengths {lengths}"
                + (f" after a product of {points}" if product else ""))
        if not points:
            return self.false
        # bit position of each block bit in the packed key
        shift = {v: len(order) - 1 - i for i, v in enumerate(order)}
        # the product's keys, from its last block up, so that only the
        # first block's pass runs over every combination
        keys = [0]
        for blk, values in reversed(list(zip(blocks, product))):
            if blk is None:
                keys *= len(values)
                continue
            bits = _key_bits(blk, values, shift)
            keys = [b | k for b in map(bits.__getitem__, values)
                    for k in keys]
        if not product:
            keys = repeat(0)
        for blk, column in zip(blocks[len(product):], columns):
            bits = _key_bits(blk, column, shift)
            keys = map(or_, keys, map(bits.__getitem__, column))
        if None in blocks:
            keys = set(keys)
        chunk = min(_CHUNK, len(order))
        low = (1 << chunk) - 1
        tables = {}                      # key >> chunk -> truth table
        for key in keys:
            prefix = key >> chunk
            tables[prefix] = tables.get(prefix, 0) | 1 << (key & low)
        prefixes = sorted(tables)
        column = list(map(tables.__getitem__, prefixes))
        # each distinct table is split once, in order of first appearance
        made = {}
        split = {t: self._table_node(t, chunk, order, made)
                 for t in dict.fromkeys(column)}
        nodes = list(map(split.__getitem__, column))
        # the fold, one level per variable above the chunk
        var_, lo_, hi_, unique = self._var, self._lo, self._hi, self._unique
        for v in reversed(order[:len(order) - chunk]):
            up_prefixes, up_nodes = [], []
            i, count = 0, len(prefixes)
            while i < count:
                p = prefixes[i]
                if p & 1:               # a lone high child
                    lo, hi = FALSE, nodes[i]
                    i += 1
                elif i + 1 < count and prefixes[i + 1] == p + 1:
                    lo, hi = nodes[i], nodes[i + 1]
                    i += 2
                else:                   # a lone low child
                    lo, hi = nodes[i], FALSE
                    i += 1
                if lo == hi:
                    n = lo
                else:
                    key = (v, lo, hi)
                    n = unique.get(key)
                    if n is None:
                        n = len(var_)
                        if n >= self.max_nodes:
                            raise _over_budget(self.max_nodes)
                        var_.append(v)
                        lo_.append(lo)
                        hi_.append(hi)
                        unique[key] = n
                up_prefixes.append(p >> 1)
                up_nodes.append(n)
            prefixes, nodes = up_prefixes, up_nodes
        return Bdd(self, nodes[0])

    def _table_node(self, table, depth, order, made):
        """The node of a truth table over the deepest ``depth`` variables
        of ``order``: bit i of ``table`` is the value where the deepest
        variable is bit 0 of i, the next deepest bit 1, and so on.
        ``made`` memoises the nodes by (table, depth)."""
        if table == 0:
            return FALSE
        if table == (1 << (1 << depth)) - 1:
            return TRUE
        r = made.get((table, depth))
        if r is None:
            half = 1 << (depth - 1)
            r = made[(table, depth)] = self._mk(
                order[len(order) - depth],
                self._table_node(table & ((1 << half) - 1), depth - 1,
                                 order, made),
                self._table_node(table >> half, depth - 1, order, made))
        return r


    def minterms(self, f, block):
        """Yield the integer values over ``block`` satisfying f (ascending)."""
        (root,) = self._check(f)
        extra = self._support(root) - set(block.vars)
        if extra:
            raise BddError("minterms: function depends on vars outside block")
        out = []
        # block vars must be visited in global order for descent to work
        order = sorted(range(len(block.vars)), key=lambda i: block.vars[i])

        def go2(n, oi, acc):
            if n == FALSE:
                return
            if oi == len(order):
                out.append(acc)
                return
            i = order[oi]
            v = block.vars[i]
            if n > 1 and self._var[n] == v:
                go2(self._lo[n], oi + 1, acc)
                go2(self._hi[n], oi + 1, acc | (1 << i))
            else:
                go2(n, oi + 1, acc)
                go2(n, oi + 1, acc | (1 << i))

        go2(root, 0, 0)
        out.sort()
        return out

    # -- store management -------------------------------------------------

    def node_count(self):
        return len(self._var)

    def release(self, mark):
        """Drop every node made since :meth:`node_count` returned ``mark``.

        Node ids grow with creation and a node's children are older than
        the node, so the nodes below ``mark`` stay a closed, reduced
        table.  The caller must hold no handle to a released node: such
        a handle would silently denote whatever node later takes its id.
        Each released node's unique-table entry is popped, read from its
        own (var, lo, hi), so a release costs in proportion to the nodes
        made since the mark, not to the nodes kept.  The computed table,
        ite results and memos alike, is cleared, since it may name
        released nodes.
        """
        n = len(self._var)
        if not 2 <= mark <= n:
            raise BddError(f"release mark {mark} outside 2..{n}")
        if mark == n:
            return
        var_, lo_, hi_ = self._var, self._lo, self._hi
        unique = self._unique
        for key in zip(var_[mark:], lo_[mark:], hi_[mark:]):
            del unique[key]
        del var_[mark:], lo_[mark:], hi_[mark:]
        self._ite_cache.clear()
        self._memos.clear()

    def trim_cache(self):
        """Clear the ite results once they are more than four per node,
        and the quantification and renaming memos once their entries
        together are.  The entries only save recomputation, so a caller
        may do this whenever no operation is in flight."""
        limit = 4 * len(self._var)
        if len(self._ite_cache) > limit:
            self._ite_cache.clear()
        if sum(map(len, self._memos.values())) > limit:
            self._memos.clear()


def _key_bits(blk, values, shift):
    """The packed key bits of each distinct value of ``values`` in block
    ``blk``, as a dict: one table of every bit combination per byte of
    the block, read in bulk.  Raises ``BddError``, naming the block,
    for a value that does not fit it."""
    values = set(values)
    least, most = min(values), max(values)
    if least < 0 or most >> len(blk.vars):
        raise BddError(f"value {least if least < 0 else most} does "
                       f"not fit in block {blk.name}")
    values = list(values)
    vars_ = blk.vars
    packed = repeat(0)
    for low in range(0, len(vars_), 8):
        table = [0]
        for v in vars_[low:low + 8]:
            bit = 1 << shift[v]
            table += [x | bit for x in table]
        packed = map(or_, packed, map(table.__getitem__, map(
            and_, map(rshift, values, repeat(low)), repeat(255))))
    return dict(zip(values, packed))
