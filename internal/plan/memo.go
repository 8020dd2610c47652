package plan

import "repro/internal/values"

// memoTable holds the values of memoized blocks for one evaluation, keyed by
// (memo slot, pre(cn)): the §3.1 context-value table for Relev = {cn},
// stored sparsely. An entry exists only for a node whose block actually ran,
// so the table's memory grows with the block entries the evaluation paid
// for, never with the slot count times |D|.
//
// Entries carry the generation of the evaluation that stored them; reset
// starts a new generation, so entries of earlier evaluations read as empty
// without clearing the table. The machine drops the whole table on a
// document switch, because stored strings may point into the old document.
type memoTable struct {
	entries []memoEntry // open addressing, linear probing; len is 0 or a power of two
	n       int         // entries of the current generation
	gen     uint32      // current generation; 0 marks a never-used entry
}

type memoEntry struct {
	key uint64 // slot<<32 | pre
	gen uint32
	v   values.Value
}

// reset starts a new evaluation: every stored entry becomes stale.
func (t *memoTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 { // wrapped: stale entries could read as current
		clear(t.entries)
		t.gen = 1
	}
}

func memoKey(slot, pre int) uint64 { return uint64(slot)<<32 | uint64(pre) }

// home returns the first probe index of key.
func (t *memoTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> 32 & uint64(len(t.entries)-1))
}

// get returns the value stored for key in this evaluation. A probe run ends
// at the first entry that is not current: entries are never deleted within
// a generation, so every current key lies before it.
//
//xpathlint:noalloc
func (t *memoTable) get(key uint64) (values.Value, bool) {
	if len(t.entries) == 0 {
		return values.Value{}, false
	}
	mask := len(t.entries) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.gen != t.gen {
			return values.Value{}, false
		}
		if e.key == key {
			return e.v, true
		}
	}
}

// put stores v for key, which get has just reported absent. The table
// doubles at 3/4 load, keeping only the current generation's entries.
func (t *memoTable) put(key uint64, v values.Value) {
	if 4*(t.n+1) > 3*len(t.entries) {
		old := t.entries
		t.entries = make([]memoEntry, max(64, 2*len(old)))
		t.n = 0
		for i := range old {
			if old[i].gen == t.gen {
				t.insert(old[i].key, old[i].v)
			}
		}
	}
	t.insert(key, v)
}

func (t *memoTable) insert(key uint64, v values.Value) {
	mask := len(t.entries) - 1
	i := t.home(key)
	for t.entries[i].gen == t.gen {
		i = (i + 1) & mask
	}
	t.entries[i] = memoEntry{key: key, gen: t.gen, v: v}
	t.n++
}
