package core

import (
	"fmt"
	"sync"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// DimHashTable is the hash table built for one dimension of a star join
// (§4.2): key = dimension primary key, value = the auxiliary columns the
// query references. Rows failing the dimension predicate are not inserted,
// so probing performs the semi-join filter and the projection at once.
//
// The layout is an open-addressing table (power-of-two capacity, linear
// probing) over flat arrays: keys and arena offsets live in parallel slices
// and the aux values of all entries share one arena, auxWidth values per
// entry. Compared to a Go map[int64][]Value this removes the per-entry
// slice allocation, keeps probes on contiguous memory, and makes the
// resident size directly measurable. After the build completes the table is
// read-only and safe for concurrent probes by all of a node's threads.
type DimHashTable struct {
	Table string

	slots []dimSlot // power-of-two sized
	// tags mirrors slots: 0 = empty, else 0x80 | top bits of the key hash.
	// Probes scan tags first, so misses resolve on dense byte reads and
	// slot cache lines are touched only on a tag match.
	tags []uint8
	// arena holds every entry's aux values back to back, auxWidth per
	// entry. Probe returns a subslice, so entries are never copied out.
	arena    []records.Value
	auxWidth int
	mask     uint64
	n        int
	growAt   int

	// MemBytes is the table's resident size for node memory accounting,
	// computed from the actual slot array and arena by finalize.
	MemBytes int64

	// sideTables caches code→arena-offset translations per fact-column
	// dictionary (keyed by dictionary fingerprint). They are the one
	// mutation after finalize, guarded by sideMu; the table proper stays
	// read-only, so concurrent probes remain safe. Not charged to MemBytes:
	// a side table is at most 4 entries/KB of the probe loop's working set
	// and exists only while the query runs.
	sideMu     sync.Mutex
	sideTables map[uint64]*sideTable
}

// sideTable is one cached translation: offs[code] is the arena offset of
// the dimension entry whose key is the dictionary's code-th value, or -1
// when that key misses the table. dict is retained to verify entries on a
// fingerprint collision.
type sideTable struct {
	dict *records.ColumnDict
	offs []int32
}

// dimSlot interleaves key and arena offset so a probe step touches one
// cache line, not two parallel arrays.
type dimSlot struct {
	key int64
	off int32
}

// Tag values: an occupied slot's tag always has the high bit set, so 0
// unambiguously means empty (keys may legitimately be zero or negative,
// which is why the sentinel lives outside the key array).
const (
	tagEmpty    = uint8(0)
	tagOccupied = uint8(0x80)
)

// newDimHashTable returns an empty table sized to hold sizeHint entries
// without growing.
func newDimHashTable(table string, auxWidth, sizeHint int) *DimHashTable {
	h := &DimHashTable{Table: table, auxWidth: auxWidth}
	h.alloc(int(dimTableCapacity(int64(sizeHint))))
	if auxWidth > 0 {
		h.arena = make([]records.Value, 0, sizeHint*auxWidth)
	}
	return h
}

func (h *DimHashTable) alloc(capacity int) {
	h.slots = make([]dimSlot, capacity)
	h.tags = make([]uint8, capacity)
	h.mask = uint64(capacity - 1)
	h.growAt = capacity * 7 / 10
}

// mix64 is a splitmix64-style finalizer: full-avalanche, so sequential
// dimension keys spread across the slot array instead of clustering.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of qualifying dimension rows.
func (h *DimHashTable) Len() int { return h.n }

// Probe looks up a foreign key; aux is nil for dimensions with no
// auxiliary columns. The returned slice aliases the table's arena and must
// not be modified.
func (h *DimHashTable) Probe(fk int64) (aux []records.Value, ok bool) {
	tags := h.tags
	// mask recomputed from len(tags) so the compiler can prove i&mask is
	// in bounds and drop the bounds check in the loop.
	mask := uint64(len(tags) - 1)
	hv := mix64(uint64(fk))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & mask; ; i = (i + 1) & mask {
		t := tags[i]
		if t == tagEmpty {
			return nil, false
		}
		if t != tag {
			continue
		}
		if s := h.slots[i]; s.key == fk {
			if h.auxWidth == 0 {
				return nil, true
			}
			end := s.off + int32(h.auxWidth)
			return h.arena[s.off:end:end], true
		}
	}
}

// ProbeOffset looks up a foreign key and returns its arena offset (0 for
// tables with no aux columns) instead of the aux slice — the form side
// tables store.
func (h *DimHashTable) ProbeOffset(fk int64) (int32, bool) {
	tags := h.tags
	mask := uint64(len(tags) - 1)
	hv := mix64(uint64(fk))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & mask; ; i = (i + 1) & mask {
		t := tags[i]
		if t == tagEmpty {
			return 0, false
		}
		if t != tag {
			continue
		}
		if s := h.slots[i]; s.key == fk {
			return s.off, true
		}
	}
}

// AuxAt returns the aux slice at an arena offset previously obtained from
// ProbeOffset or a side table; nil for tables with no aux columns. The
// slice aliases the arena and must not be modified.
func (h *DimHashTable) AuxAt(off int32) []records.Value {
	if h.auxWidth == 0 {
		return nil
	}
	end := off + int32(h.auxWidth)
	return h.arena[off:end:end]
}

// CodeSideTable returns the code→arena-offset translation for a
// dictionary-encoded fact FK column: offs[code] replaces the hash probe for
// every row carrying that code with one array read. It is built once per
// (table, dictionary) — at most dictionary-size hash probes, amortized over
// every block and partition sharing the dictionary — and cached by the
// dictionary fingerprint; built reports whether this call did the build
// (for counters). Returns nil for non-integer dictionaries.
func (h *DimHashTable) CodeSideTable(dict *records.ColumnDict) (offs []int32, built bool) {
	if dict == nil || dict.Ints == nil {
		return nil, false
	}
	h.sideMu.Lock()
	st, ok := h.sideTables[dict.ID]
	h.sideMu.Unlock()
	if ok && (st.dict == dict || sameIntDict(st.dict.Ints, dict.Ints)) {
		return st.offs, false
	}
	offs = make([]int32, len(dict.Ints))
	for c, k := range dict.Ints {
		if off, hit := h.ProbeOffset(k); hit {
			offs[c] = off
		} else {
			offs[c] = -1
		}
	}
	h.sideMu.Lock()
	if h.sideTables == nil {
		h.sideTables = make(map[uint64]*sideTable)
	}
	h.sideTables[dict.ID] = &sideTable{dict: dict, offs: offs}
	h.sideMu.Unlock()
	return offs, true
}

func sameIntDict(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insert adds one entry during the build. A duplicate key overwrites the
// earlier aux values in place (last write wins, matching map semantics).
func (h *DimHashTable) insert(k int64, aux []records.Value) {
	if h.n >= h.growAt {
		h.grow()
	}
	hv := mix64(uint64(k))
	tag := uint8(hv>>56) | tagOccupied
	for i := hv & h.mask; ; i = (i + 1) & h.mask {
		if h.tags[i] == tagEmpty {
			h.tags[i] = tag
			s := &h.slots[i]
			s.key = k
			if h.auxWidth > 0 {
				s.off = int32(len(h.arena))
				h.arena = append(h.arena, aux...)
			}
			h.n++
			return
		}
		if s := &h.slots[i]; h.tags[i] == tag && s.key == k {
			if h.auxWidth > 0 {
				copy(h.arena[s.off:s.off+int32(h.auxWidth)], aux)
			}
			return
		}
	}
}

// grow doubles the slot array and rehashes. Arena offsets are untouched —
// only the key→slot mapping moves.
func (h *DimHashTable) grow() {
	oldSlots, oldTags := h.slots, h.tags
	h.alloc(len(oldSlots) * 2)
	for j, t := range oldTags {
		if t == tagEmpty {
			continue
		}
		i := mix64(uint64(oldSlots[j].key)) & h.mask
		for h.tags[i] != tagEmpty {
			i = (i + 1) & h.mask
		}
		h.tags[i] = t
		h.slots[i] = oldSlots[j]
	}
}

// finalize computes MemBytes from the actual backing arrays: the slot and
// tag arrays plus the arena values, including string payloads.
func (h *DimHashTable) finalize() {
	h.MemBytes = int64(len(h.slots))*16 + int64(len(h.tags))
	for i := range h.arena {
		h.MemBytes += h.arena[i].MemSize()
	}
}

// BuildDimHashTable builds the hash table for one join edge from the
// node-local copy of its table — the §6.3 "build" phase that runs once per
// node, single-threaded as in the paper. It decodes only the edge's
// columns of the column-major copy and charges the local read as those
// column chunks' bytes. The table is sized up front for the selected rows,
// at the capacity growth would have reached.
func BuildDimHashTable(fs *hdfs.FileSystem, node *cluster.Node, dimDir string, edge *plan.JoinEdge) (*DimHashTable, error) {
	data, err := localDimBytes(fs, node, dimDir)
	if err != nil {
		return nil, err
	}
	c, err := colstore.OpenDimCopy(data)
	if err != nil {
		return nil, fmt.Errorf("core: cached dim %s: %w", edge.Table, err)
	}
	rows, err := c.Select(edge.PK, edge.Pred, edge.Aux)
	if err != nil {
		return nil, fmt.Errorf("core: cached dim %s: %w", edge.Table, err)
	}
	// The local dimension copy reads at nominal device speed: at the
	// paper's scale it is page-cache-resident between tasks.
	if err := node.ChargeDiskReadNominal(rows.BytesRead); err != nil {
		return nil, err
	}
	h := newDimHashTable(edge.Table, rows.Width, len(rows.Keys))
	for i, k := range rows.Keys {
		h.insert(k, rows.AuxAt(i))
	}
	h.finalize()
	return h, nil
}

// dimTableCapacity returns the slot-array capacity the open-addressing
// table ends up with after inserting n entries: the smallest power of two
// (at least 16) whose 0.7 load threshold admits n. newDimHashTable sizes
// from it and grow doubles from there, so size estimates match what builds
// actually reserve.
func dimTableCapacity(n int64) int64 {
	c := int64(16)
	for c*7/10 < n {
		c *= 2
	}
	return c
}

// dimStatsOf is the one dimension-statistics estimator: the row count,
// the filtered row count, and the two hash-table footprints the planners
// and budgets use, from an edge's selection. HashBytes mirrors the
// open-addressing layout exactly — slot and tag arrays at the capacity the
// build ends with, plus the aux-value arena — so it equals the MemBytes a
// real build reserves; a Clydesdale node holds the *sum* over the query's
// edges (§6.4). MapJoinBytes charges plan.MapJoinEntryBytes per entry, the
// boxed map a Hive mapjoin task or a cascade side table loads; a mapjoin
// task holds one edge at a time, so its constraint is the maximum.
func dimStatsOf(rows *colstore.DimRows) plan.TableStats {
	ts := plan.TableStats{Rows: rows.Total, FilteredRows: int64(len(rows.Keys))}
	var arenaBytes int64
	for i := range rows.Keys {
		aux := rows.AuxAt(i)
		for _, v := range aux {
			arenaBytes += v.MemSize()
		}
		ts.MapJoinBytes += plan.MapJoinEntryBytes(aux)
	}
	// 16 bytes per slot + 1 tag byte, plus the arena.
	ts.HashBytes = dimTableCapacity(ts.FilteredRows)*17 + arenaBytes
	return ts
}

// EstimateDimStats returns dimStatsOf for each join edge (in order) over
// rows supplied by each(table) — the generator, in the planner's golden
// tests and the bench harness's budget calibration. The rows go through
// the same column-major copy and selection a build reads, so the estimate
// is exact; no I/O is charged. Engine.DimStats is the form over a
// cluster's stored tables.
func EstimateDimStats(edges []plan.JoinEdge, each func(table string, fn func(records.Record) error) error) ([]plan.TableStats, error) {
	copies := make(map[string]*colstore.DimCopy)
	out := make([]plan.TableStats, len(edges))
	for i := range edges {
		edge := &edges[i]
		c, ok := copies[edge.Table]
		if !ok {
			w := colstore.NewDimCopyWriter(edge.Schema, 0)
			if err := each(edge.Table, w.Append); err != nil {
				return nil, err
			}
			var err error
			if c, err = colstore.OpenDimCopy(w.Bytes()); err != nil {
				return nil, err
			}
			copies[edge.Table] = c
		}
		rows, err := c.Select(edge.PK, edge.Pred, edge.Aux)
		if err != nil {
			return nil, err
		}
		out[i] = dimStatsOf(rows)
	}
	return out, nil
}
