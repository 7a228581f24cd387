"""Static pruning analysis over MiniC bytecode.

One pass over a :class:`~repro.vm.program.Program` produces a
:class:`ProgramFacts`: which bug types can possibly manifest, which
allocation/deallocation call-sites can possibly flow into a heap read,
and whether the program is statically deterministic (no reachable RAND).
The diagnostic engine uses the facts three ways, each with its own
soundness argument (DESIGN.md §13):

* **Determinism gate.**  Probe outcomes depend on the entropy salt only
  through the RAND opcode; with no RAND reachable from ``main``, every
  re-execution is a pure function of (checkpoint, policy), so probes
  whose outcome is statically forced can be skipped outright.
* **Group feasibility masks.**  A phase-2 group probe differs from the
  all-preventive probe (which already passed) only by its exposing
  changes; if no reachable instruction can *observe* the difference --
  no FREE means no dangling/double-free evidence, no heap write means
  no canary-padding corruption -- the probe's outcome is forced and the
  group is skipped.  Masks are presence-level on purpose: an
  out-of-bounds write corrupts objects the writer never aliased, so
  per-site attribution is not sound for the direct manifestation types.
* **Call-site arm pruning.**  Exposure of a call-site is observable
  only if some read may touch that site's objects (canary fill at
  allocation for uninitialized reads, canary fill at deallocation for
  dangling reads).  The provenance analysis tracks which allocation
  sites each read can alias; a read is attributed per-site only when it
  is *provably in-bounds* -- any possibly-out-of-bounds or
  integer-derived address degrades to "may read everything".

The analysis is a flow-sensitive intraprocedural abstract
interpretation (per-local provenance: allocation-site set + offset
interval + may-be-plain-integer flag) under a flow-insensitive
interprocedural fixpoint (function summaries, global-slot values, one
heap blob).  Everything is conservative: *any* imprecision degrades
toward "feasible / may be read", never toward pruning a live arm.
Programs are small (hundreds of instructions), so the fixpoint costs
far less than a single diagnostic re-execution.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.bugtypes import BugType
from repro.util.callsite import CallSite
from repro.vm import isa
from repro.vm.program import Function, Program

#: Interval saturation bound.  Saturating (not wrapping) keeps interval
#: arithmetic sound under the VM's 64-bit wrap: a wrapped concrete value
#: is congruent to the unbounded integer mod 2**64, and the boundedness
#: check only ever accepts intervals well inside [0, 2**62), where the
#: two agree exactly.
_INF = 1 << 62

#: ``sites`` sentinel: may alias *every* allocation site.
ANY = None

_WIDEN_VISITS = 64     # intra-procedural joins per pc before widening
_WIDEN_JOINS = 8       # summary/global/blob joins before widening


class _AVal:
    """Abstract value: allocation-site provenance + offset interval.

    ``sites`` is a frozenset of allocation-site ids (``ANY`` = may point
    at any site); ``raw`` means the value may be a plain integer not
    derived from any tracked pointer (using it as an address may reach
    anything).  For pure integers the interval is the value range; for
    pointers it is the offset range relative to the site base.
    """

    __slots__ = ("sites", "raw", "lo", "hi")

    def __init__(self, sites, raw: bool, lo: int, hi: int):
        self.sites = sites
        self.raw = raw
        self.lo = max(-_INF, min(_INF, lo))
        self.hi = max(-_INF, min(_INF, hi))

    def key(self) -> Tuple:
        return (self.sites, self.raw, self.lo, self.hi)

    @property
    def is_pointer(self) -> bool:
        return self.sites is ANY or bool(self.sites)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = "ANY" if self.sites is ANY else sorted(self.sites)
        return f"AVal(sites={s}, raw={self.raw}, [{self.lo},{self.hi}])"


def _pure(lo: int, hi: int) -> _AVal:
    return _AVal(frozenset(), True, lo, hi)


def _pure_top() -> _AVal:
    return _pure(-_INF, _INF)


def _any_val() -> _AVal:
    return _AVal(ANY, True, -_INF, _INF)


def _join(a: Optional[_AVal], b: Optional[_AVal]) -> Optional[_AVal]:
    if a is None:
        return b
    if b is None:
        return a
    sites = ANY if (a.sites is ANY or b.sites is ANY) \
        else a.sites | b.sites
    return _AVal(sites, a.raw or b.raw, min(a.lo, b.lo), max(a.hi, b.hi))


def _widened(v: _AVal) -> _AVal:
    return _AVal(v.sites, v.raw, -_INF, _INF)


class _JoinCell:
    """A join-only slot (summary param/ret, global, heap blob) that
    widens its interval after too many refinements, bounding the
    interprocedural fixpoint."""

    __slots__ = ("val", "joins")

    def __init__(self):
        self.val: Optional[_AVal] = None
        self.joins = 0

    def absorb(self, v: Optional[_AVal]) -> bool:
        if v is None:
            return False
        new = _join(self.val, v)
        if self.val is not None and new.key() == self.val.key():
            return False
        self.joins += 1
        if self.joins > _WIDEN_JOINS:
            new = _widened(new)
            if self.val is not None and new.key() == self.val.key():
                return False
        self.val = new
        return True


class _FreeFact:
    """One reachable FREE instruction's operand facts."""

    __slots__ = ("fn", "pc", "sites", "valid_single", "multi_exec")

    def __init__(self, fn: str, pc: int, sites, valid_single: bool,
                 multi_exec: bool):
        self.fn = fn
        self.pc = pc
        self.sites = sites          # frozenset of site ids, or ANY
        self.valid_single = valid_single
        self.multi_exec = multi_exec


class ProgramFacts:
    """What the static pass proved about one program.  Every query is
    conservative: "True"/"may" answers are always safe to act on as
    "cannot rule out"."""

    def __init__(self, deterministic: bool, has_malloc: bool,
                 has_free: bool, has_heap_read: bool,
                 has_heap_write: bool, read_any: bool,
                 read_sites: FrozenSet[int],
                 double_free_possible: bool,
                 site_by_addr: Dict[Tuple[str, int], int],
                 free_by_addr: Dict[Tuple[str, int], _FreeFact],
                 n_sites: int):
        #: no RAND opcode reachable from main
        self.deterministic = deterministic
        self.has_malloc = has_malloc
        self.has_free = has_free
        self.has_heap_read = has_heap_read
        self.has_heap_write = has_heap_write
        #: some read's target set could not be bounded -- every
        #: allocation site must be assumed readable
        self.read_any = read_any
        #: allocation sites provably-bounded reads may alias
        self.read_sites = read_sites
        self.double_free_possible = double_free_possible
        self._site_by_addr = site_by_addr
        self._free_by_addr = free_by_addr
        self.n_sites = n_sites

    # -- feasibility masks (presence-level; see module docstring) ------

    def feasible(self, bug_type: BugType) -> bool:
        if bug_type is BugType.BUFFER_OVERFLOW:
            return self.has_malloc and self.has_heap_write
        if bug_type is BugType.DANGLING_WRITE:
            return self.has_free and self.has_heap_write
        if bug_type is BugType.DANGLING_READ:
            return self.has_free and self.has_heap_read
        if bug_type is BugType.UNINIT_READ:
            return self.has_malloc and self.has_heap_read
        if bug_type is BugType.DOUBLE_FREE:
            return self.double_free_possible
        return True

    def group_feasible(self, group: Sequence[BugType]) -> bool:
        return any(self.feasible(b) for b in group)

    # -- call-site arm relevance ---------------------------------------

    def may_read_alloc_site(self, addr: Tuple[str, int]) -> bool:
        """Can any read observe the contents of objects allocated at
        this MALLOC instruction?"""
        if self.read_any:
            return True
        sid = self._site_by_addr.get(addr)
        if sid is None:
            return True     # not a site we analyzed: keep the arm
        return sid in self.read_sites

    def may_read_freed(self, addr: Tuple[str, int]) -> bool:
        """Can any read observe the contents of objects freed at this
        FREE instruction?"""
        if self.read_any:
            return True
        fact = self._free_by_addr.get(addr)
        if fact is None:
            return True
        if fact.sites is ANY:
            return True
        return bool(fact.sites & self.read_sites)

    def site_relevant(self, bug_type: BugType, site: CallSite) -> bool:
        """Is this call-site a live arm for ``bug_type``'s binary
        search?  The innermost frame of a call-site is the address of
        the MALLOC/FREE instruction itself."""
        if bug_type is BugType.UNINIT_READ:
            return self.may_read_alloc_site(site.innermost)
        return self.may_read_freed(site.innermost)

    def describe(self) -> str:
        reads = "ANY" if self.read_any else str(len(self.read_sites))
        return (f"deterministic={self.deterministic} "
                f"sites={self.n_sites} readable_sites={reads} "
                f"malloc={self.has_malloc} free={self.has_free} "
                f"read={self.has_heap_read} write={self.has_heap_write} "
                f"double_free={self.double_free_possible}")


# ---------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------

class _Analyzer:
    def __init__(self, program: Program):
        self.program = program
        self.reachable = self._reachable_functions()
        #: (fn, pc) of each reachable MALLOC -> dense site id
        self.site_ids: Dict[Tuple[str, int], int] = {}
        for fname in sorted(self.reachable):
            fn = program.functions[fname]
            for pc, instr in enumerate(fn.code):
                if instr[0] == isa.MALLOC:
                    self.site_ids[(fname, pc)] = len(self.site_ids)
        self.summaries: Dict[str, Dict] = {
            f: {"params": [_JoinCell() for _ in
                           range(program.functions[f].n_params)],
                "ret": _JoinCell()}
            for f in self.reachable}
        # Globals start at 0 in the VM, so the initial pure [0,0] is a
        # real value, not bottom.
        self.globals_env = [_JoinCell() for _ in range(program.n_globals)]
        for cell in self.globals_env:
            cell.absorb(_pure(0, 0))
        #: single heap blob: join of every value ever stored
        self.mem = _JoinCell()
        #: site id -> joined size-operand interval (lo is the provable
        #: minimum allocation size)
        self.site_size: Dict[int, Tuple[int, int]] = {}
        #: fn -> per-pc joined entry state (tuple of Optional[_AVal])
        self.states: Dict[str, List[Optional[Tuple]]] = {}
        self._visits: Dict[str, List[int]] = {}
        self._dirty = True
        self.in_cycle: Dict[str, Set[int]] = {
            f: self._cycle_pcs(program.functions[f])
            for f in self.reachable}
        self.multiplicity = self._call_multiplicity()

    # -- structure -----------------------------------------------------

    def _reachable_functions(self) -> Set[str]:
        seen = {Program.ENTRY}
        work = [Program.ENTRY]
        while work:
            fn = self.program.functions.get(work.pop())
            if fn is None:
                continue
            for instr in fn.code:
                if instr[0] == isa.CALL and instr[2] not in seen:
                    seen.add(instr[2])
                    work.append(instr[2])
        return {f for f in seen if f in self.program.functions}

    @staticmethod
    def _successor_pcs(fn: Function, pc: int) -> List[int]:
        instr = fn.code[pc]
        op = instr[0]
        if op == isa.JMP:
            return [instr[1]]
        if op in (isa.JZ, isa.JNZ):
            return [instr[2], pc + 1]
        if op in (isa.RET, isa.HALT):
            return []
        return [pc + 1] if pc + 1 < len(fn.code) else []

    def _cycle_pcs(self, fn: Function) -> Set[int]:
        """pcs that lie on an intra-procedural CFG cycle (can reach
        themselves), i.e. may execute more than once per activation."""
        n = len(fn.code)
        succs = [self._successor_pcs(fn, pc) for pc in range(n)]
        on_cycle: Set[int] = set()
        for start in range(n):
            seen = [False] * n
            work = list(succs[start])
            hit = False
            while work and not hit:
                pc = work.pop()
                if pc == start:
                    hit = True
                    break
                if seen[pc]:
                    continue
                seen[pc] = True
                work.extend(succs[pc])
            if hit:
                on_cycle.add(start)
        return on_cycle

    def _call_multiplicity(self) -> Dict[str, int]:
        """Saturating (at 2) count of possible dynamic activations per
        reachable function; recursion and in-loop calls saturate."""
        mult = {f: 0 for f in self.reachable}
        mult[Program.ENTRY] = 1
        for _ in range(len(self.reachable) + 2):
            new = {f: 0 for f in self.reachable}
            new[Program.ENTRY] = 1
            for fname in self.reachable:
                m = mult[fname]
                if m == 0:
                    continue
                fn = self.program.functions[fname]
                cycles = self.in_cycle[fname]
                for pc, instr in enumerate(fn.code):
                    if instr[0] != isa.CALL:
                        continue
                    callee = instr[2]
                    if callee not in new:
                        continue
                    contrib = 2 if (m >= 2 or pc in cycles) else 1
                    new[callee] = min(2, new[callee] + contrib)
            if new == mult:
                break
            mult = new
        return mult

    # -- interprocedural fixpoint --------------------------------------

    def run(self) -> None:
        # Bounded by the widened lattice height; the cap is a backstop.
        for _ in range(64):
            self._dirty = False
            for fname in sorted(self.reachable):
                self._run_function(fname)
            if not self._dirty:
                break

    def _entry_state(self, fname: str) -> Tuple:
        fn = self.program.functions[fname]
        summary = self.summaries[fname]
        state: List[Optional[_AVal]] = [None] * fn.n_locals
        for i in range(fn.n_params):
            state[i] = summary["params"][i].val
        for i in range(fn.n_params, fn.n_locals):
            state[i] = _pure(0, 0)    # the VM zero-initializes locals
        return tuple(state)

    def _run_function(self, fname: str) -> None:
        fn = self.program.functions[fname]
        n = len(fn.code)
        states = self.states.setdefault(fname, [None] * n)
        visits = self._visits.setdefault(fname, [0] * n)
        work: List[int] = []
        if self._join_pc(states, visits, 0, self._entry_state(fname)):
            work.append(0)
        elif states[0] is not None:
            # Entry state unchanged, but upstream summaries/globals may
            # have moved: re-walk anyway (cheap; joins are monotone and
            # stop the walk as soon as nothing changes).
            work.append(0)
        while work:
            pc = work.pop()
            st = states[pc]
            if st is None:
                continue
            out, succs = self._transfer(fname, fn, pc, st)
            for s in succs:
                if self._join_pc(states, visits, s, out):
                    work.append(s)

    @staticmethod
    def _join_pc(states, visits, pc: int, incoming: Tuple) -> bool:
        cur = states[pc]
        if cur is None:
            states[pc] = incoming
            visits[pc] += 1
            return True
        changed = False
        merged = list(cur)
        for i, (a, b) in enumerate(zip(cur, incoming)):
            j = _join(a, b)
            if (j is None) != (a is None) or \
                    (j is not None and a is not None
                     and j.key() != a.key()):
                merged[i] = j
                changed = True
        if not changed:
            return False
        visits[pc] += 1
        if visits[pc] > _WIDEN_VISITS:
            merged = [_widened(v) if v is not None else None
                      for v in merged]
        states[pc] = tuple(merged)
        return True

    # -- transfer function ---------------------------------------------

    def _transfer(self, fname: str, fn: Function, pc: int,
                  st: Tuple) -> Tuple[Tuple, List[int]]:
        instr = fn.code[pc]
        op = instr[0]
        out = list(st)
        succs = self._successor_pcs(fn, pc)

        def get(slot) -> Optional[_AVal]:
            return st[slot]

        if op == isa.CONST:
            out[instr[1]] = _pure(instr[2], instr[2])
        elif op == isa.MOV:
            out[instr[1]] = get(instr[2])
        elif op in (isa.ADD, isa.ADDI):
            a = get(instr[2])
            b = (_pure(instr[3], instr[3]) if op == isa.ADDI
                 else get(instr[3]))
            out[instr[1]] = self._add(a, b)
        elif op == isa.SUB:
            out[instr[1]] = self._sub(get(instr[2]), get(instr[3]))
        elif op in (isa.MUL, isa.DIV, isa.MOD, isa.AND, isa.OR,
                    isa.XOR, isa.SHL, isa.SHR):
            out[instr[1]] = self._mix(get(instr[2]), get(instr[3]))
        elif op in (isa.LT, isa.LE, isa.GT, isa.GE, isa.EQ, isa.NE,
                    isa.NOT):
            a = get(instr[2])
            out[instr[1]] = None if a is None else _pure(0, 1)
        elif op == isa.NEG:
            a = get(instr[2])
            if a is None:
                out[instr[1]] = None
            elif a.is_pointer:
                out[instr[1]] = _any_val()
            else:
                out[instr[1]] = _pure_top()
        elif op == isa.MALLOC:
            sid = self.site_ids[(fname, pc)]
            size = get(instr[2])
            if size is not None:
                if size.is_pointer or size.raw is False:
                    interval = (-_INF, _INF)
                else:
                    interval = (size.lo, size.hi)
                old = self.site_size.get(sid)
                if old is None:
                    self.site_size[sid] = interval
                else:
                    self.site_size[sid] = (min(old[0], interval[0]),
                                           max(old[1], interval[1]))
            out[instr[1]] = _AVal(frozenset({sid}), False, 0, 0)
        elif op == isa.LOAD:
            # Loaded values may be anything ever stored (single heap
            # blob), possibly partially (size-mangled) -- so they stay
            # flagged raw and their interval is unknown.
            blob = self.mem.val
            sites = frozenset() if blob is None else blob.sites
            out[instr[1]] = _AVal(sites, True, -_INF, _INF)
        elif op == isa.STORE:
            if self.mem.absorb(get(instr[4])):
                self._dirty = True
        elif op in (isa.IN, isa.RAND):
            out[instr[1]] = _pure_top()
        elif op == isa.GLOAD:
            out[instr[1]] = self.globals_env[instr[2]].val
        elif op == isa.GSTORE:
            if self.globals_env[instr[1]].absorb(get(instr[2])):
                self._dirty = True
        elif op == isa.CALL:
            callee = instr[2]
            summary = self.summaries.get(callee)
            if summary is None:
                return tuple(out), []
            for i, slot in enumerate(instr[3]):
                if summary["params"][i].absorb(get(slot)):
                    self._dirty = True
            ret = summary["ret"].val
            if ret is None:
                # Callee not known to return yet: the fall-through is
                # unreachable until its summary produces a value.
                return tuple(out), []
            if instr[1] is not None:
                out[instr[1]] = ret
        elif op == isa.RET:
            val = _pure(0, 0) if instr[1] is None else get(instr[1])
            if self.summaries[fname]["ret"].absorb(val):
                self._dirty = True
        # FREE/MEMSET/MEMCPY/OUT/ASSERT/NOP/HALT/JMP/JZ/JNZ: no value
        # effects tracked beyond control flow (MEMCPY copies blob to
        # blob, a no-op on the single-blob summary).
        return tuple(out), succs

    @staticmethod
    def _add(a: Optional[_AVal], b: Optional[_AVal]) -> Optional[_AVal]:
        if a is None or b is None:
            return None
        if a.is_pointer and b.is_pointer:
            return _any_val()
        if b.is_pointer:
            a, b = b, a
        lo, hi = a.lo + b.lo, a.hi + b.hi
        if a.is_pointer:
            return _AVal(a.sites, a.raw, lo, hi)
        return _pure(lo, hi)

    @staticmethod
    def _sub(a: Optional[_AVal], b: Optional[_AVal]) -> Optional[_AVal]:
        if a is None or b is None:
            return None
        if b.is_pointer:
            # ptr - ptr is a plain distance; int - ptr is laundering.
            return _pure_top() if a.is_pointer else _any_val()
        lo, hi = a.lo - b.hi, a.hi - b.lo
        if a.is_pointer:
            return _AVal(a.sites, a.raw, lo, hi)
        return _pure(lo, hi)

    @staticmethod
    def _mix(a: Optional[_AVal], b: Optional[_AVal]) -> Optional[_AVal]:
        if a is None or b is None:
            return None
        if a.is_pointer or b.is_pointer:
            return _any_val()
        return _pure_top()

    # -- fact collection (post-fixpoint) -------------------------------

    def collect(self) -> ProgramFacts:
        uses_rand = has_malloc = has_free = False
        has_read = has_write = False
        for fname in self.reachable:
            for instr in self.program.functions[fname].code:
                op = instr[0]
                if op == isa.RAND:
                    uses_rand = True
                elif op == isa.MALLOC:
                    has_malloc = True
                elif op == isa.FREE:
                    has_free = True
                elif op in (isa.LOAD,):
                    has_read = True
                elif op in (isa.STORE, isa.MEMSET):
                    has_write = True
                elif op == isa.MEMCPY:
                    has_read = has_write = True

        read_any = False
        read_sites: Set[int] = set()
        free_facts: List[_FreeFact] = []
        for fname in sorted(self.reachable):
            fn = self.program.functions[fname]
            states = self.states.get(fname, [None] * len(fn.code))
            cycles = self.in_cycle[fname]
            multi_fn = self.multiplicity.get(fname, 0) >= 2
            for pc, instr in enumerate(fn.code):
                st = states[pc] if pc < len(states) else None
                if st is None:
                    continue    # abstractly unreachable: never executes
                op = instr[0]
                if op == isa.LOAD:
                    addr = st[instr[2]]
                    sites = self._access_sites(addr, instr[3], instr[4])
                    if sites is ANY:
                        read_any = True
                    else:
                        read_sites |= sites
                elif op == isa.MEMCPY:
                    addr = st[instr[2]]
                    length = st[instr[3]]
                    len_hi = (_INF if length is None or length.is_pointer
                              else length.hi)
                    sites = self._access_sites(addr, 0, len_hi)
                    if sites is ANY:
                        read_any = True
                    else:
                        read_sites |= sites
                elif op == isa.FREE:
                    val = st[instr[1]]
                    if val is None:
                        continue
                    if val.raw or val.sites is ANY:
                        sites = ANY
                        valid = False
                    else:
                        sites = val.sites
                        valid = bool(val.sites) and val.lo == 0 \
                            and val.hi == 0
                    free_facts.append(_FreeFact(
                        fname, pc, sites, valid,
                        pc in cycles or multi_fn))

        double_free = self._double_free_possible(free_facts)
        site_by_addr = dict(self.site_ids)
        free_by_addr = {(f.fn, f.pc): f for f in free_facts}
        return ProgramFacts(
            deterministic=not uses_rand,
            has_malloc=has_malloc, has_free=has_free,
            has_heap_read=has_read, has_heap_write=has_write,
            read_any=read_any, read_sites=frozenset(read_sites),
            double_free_possible=double_free,
            site_by_addr=site_by_addr, free_by_addr=free_by_addr,
            n_sites=len(self.site_ids))

    def _access_sites(self, addr: Optional[_AVal], offset: int,
                      length_hi: int):
        """Allocation sites a memory access may observe: its provenance
        set when provably in-bounds, else ANY (an out-of-bounds or
        integer-derived access may reach any object)."""
        if addr is None:
            return frozenset()   # unreachable operand state
        if addr.raw or addr.sites is ANY or not addr.sites:
            return ANY
        if length_hi >= _INF or addr.lo + offset < 0:
            return ANY
        for sid in addr.sites:
            size = self.site_size.get(sid)
            if size is None or size[0] <= 0:
                return ANY
            if addr.hi + offset + length_hi > size[0]:
                return ANY
        return addr.sites

    @staticmethod
    def _double_free_possible(free_facts: List[_FreeFact]) -> bool:
        """A double/invalid free needs either a possibly-invalid free
        operand (non-pointer, unknown provenance, or nonzero offset --
        the extension flags frees of non-live pointers), a free that
        can execute twice, or two distinct frees that may release the
        same site's objects."""
        for fact in free_facts:
            if not fact.valid_single or fact.multi_exec:
                return True
        for i, a in enumerate(free_facts):
            for b in free_facts[i + 1:]:
                if a.sites is ANY or b.sites is ANY \
                        or (a.sites & b.sites):
                    return True
        return False


#: Process-wide facts cache, keyed by code identity, with the shape and
#: bound of the compiled-program cache in :mod:`repro.vm.compile`.
_CACHE: "OrderedDict[object, ProgramFacts]" = OrderedDict()
_CACHE_MAX = 64


def analyze_program(program: Program) -> ProgramFacts:
    """The static facts of ``program``.  Deterministic and pure: the
    same :meth:`Program.code_key` always produces the same facts, so
    the pass runs once per code key and process, however many runtimes
    and sessions diagnose that program."""
    key = program.code_key()
    facts = _CACHE.get(key)
    if facts is None:
        analyzer = _Analyzer(program)
        analyzer.run()
        facts = analyzer.collect()
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.popitem(last=False)
        _CACHE[key] = facts
    else:
        _CACHE.move_to_end(key)
    return facts


def clear_cache() -> None:
    """Testing hook."""
    _CACHE.clear()
