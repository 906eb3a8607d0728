package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"clydesdale/internal/records"
)

// Typed column encodings for the v2 ("CCF2") column-file format. The writer
// buffers a whole partition, so it can inspect each column and pick the
// cheapest encoding by actually computing the candidate sizes:
//
//	EncPlain — the v1 payload: a tagged records.AppendValue stream. Always
//	           valid, always the fallback.
//	EncDict  — low-cardinality strings: a uvarint entry count, the distinct
//	           strings (uvarint length + bytes) in first-seen order, then one
//	           uvarint index per row.
//	EncDelta — integers: one zig-zag varint per row holding the delta from
//	           the previous row (the first row's delta is from zero). Near-
//	           monotone columns (sequence keys, arrival-ordered dates)
//	           collapse to one or two bytes per row.
//	EncDictI64 — low-cardinality integers, same layout as EncDict with
//	           varint entries. Chosen only when it beats both plain and
//	           delta by size; its real payoff is execution-time: raw codes
//	           feed code-space predicates and probe side tables.
//
// Decoding is per-column-kind and unboxed: bulk decoders fill ColumnVector
// slices directly, and the filtered decoder skips materialization (string
// allocation, value boxing) at unselected positions — the decode half of
// late materialization.

// Encoding identifies a column payload's physical layout.
type Encoding uint8

const (
	// EncPlain is a tagged AppendValue stream (any kind; the v1 payload).
	EncPlain Encoding = 0
	// EncDict is dictionary-coded strings.
	EncDict Encoding = 1
	// EncDelta is delta-varint integers.
	EncDelta Encoding = 2
	// EncDictI64 is dictionary-coded int64: a uvarint entry count, the
	// distinct values (one varint each) in first-seen order, then one
	// uvarint code per row. Low-cardinality key and flag columns (FKs into
	// small dimensions, quantities, discounts) compress well and — more
	// importantly — expose raw codes to the code-space execution path.
	EncDictI64 Encoding = 3
)

func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncDict:
		return "dict"
	case EncDelta:
		return "delta"
	case EncDictI64:
		return "dict-i64"
	default:
		return fmt.Sprintf("enc(%d)", uint8(e))
	}
}

// maxDictEntries bounds the dictionary: beyond this the column is not
// low-cardinality and the size comparison would rarely pay anyway.
const maxDictEntries = 4096

// dictEntries carries a dict-encoded column's dictionary (in first-seen
// order) out of encodeColumn, so zone-map stats can range over the distinct
// values instead of re-scanning every row. Exactly one of strs/ints is set.
type dictEntries struct {
	strs []string
	ints []int64
}

// encodeColumn picks the cheapest encoding for one buffered column and
// returns the chosen encoding, its payload, and — when a dictionary
// encoding won — the dictionary entries (nil otherwise).
func encodeColumn(cv *records.ColumnVector) (Encoding, []byte, *dictEntries) {
	plain := encodePlain(cv)
	switch cv.Kind {
	case records.KindInt64:
		// Dictionary coding is preferred whenever it beats plain, even if
		// delta would be a few bytes smaller: a dictionary unlocks compressed
		// execution (code-space predicates, bloom tests per distinct value,
		// O(1) dictionary-probe side tables), which is worth far more than
		// the marginal size difference. Delta remains the choice for
		// high-cardinality ordered data, where dictionaries don't apply or
		// lose to plain.
		if d, entries, ok := encodeDictI64(cv.Ints); ok && len(d) < len(plain) {
			return EncDictI64, d, &dictEntries{ints: entries}
		}
		if d := encodeDelta(cv.Ints); len(d) < len(plain) {
			return EncDelta, d, nil
		}
		return EncPlain, plain, nil
	case records.KindString:
		if d, entries, ok := encodeDict(cv.Strs); ok && len(d) < len(plain) {
			return EncDict, d, &dictEntries{strs: entries}
		}
	}
	return EncPlain, plain, nil
}

func encodePlain(cv *records.ColumnVector) []byte {
	var buf []byte
	for i := 0; i < cv.Len(); i++ {
		buf = records.AppendValue(buf, cv.Value(i))
	}
	return buf
}

func encodeDelta(vals []int64) []byte {
	buf := make([]byte, 0, len(vals)*2)
	prev := int64(0)
	for _, v := range vals {
		buf = binary.AppendVarint(buf, v-prev)
		prev = v
	}
	return buf
}

func encodeDict(vals []string) ([]byte, []string, bool) {
	idx := make(map[string]uint64, 64)
	var entries []string
	for _, v := range vals {
		if _, ok := idx[v]; !ok {
			if len(entries) >= maxDictEntries {
				return nil, nil, false
			}
			idx[v] = uint64(len(entries))
			entries = append(entries, v)
		}
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e)))
		buf = append(buf, e...)
	}
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, idx[v])
	}
	return buf, entries, true
}

func encodeDictI64(vals []int64) ([]byte, []int64, bool) {
	idx := make(map[int64]uint64, 64)
	var entries []int64
	for _, v := range vals {
		if _, ok := idx[v]; !ok {
			if len(entries) >= maxDictEntries {
				return nil, nil, false
			}
			idx[v] = uint64(len(entries))
			entries = append(entries, v)
		}
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendVarint(buf, e)
	}
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, idx[v])
	}
	return buf, entries, true
}

// colDecoder streams one column payload. It supports three access styles:
// boxed next() for the row-at-a-time path, bulk decodeInto for block
// iteration, and decodeFiltered for late materialization (unselected
// positions are parsed past but never materialized).
type colDecoder struct {
	kind    records.Kind
	enc     Encoding
	buf     []byte
	dict    []string // EncDict only
	intDict []int64  // EncDictI64 only
	prev    int64    // EncDelta running value

	desc *records.ColumnDict // lazily-built dictionary descriptor
}

func newColDecoder(kind records.Kind, enc Encoding, payload []byte) (*colDecoder, error) {
	d := &colDecoder{kind: kind, enc: enc, buf: payload}
	switch enc {
	case EncPlain:
	case EncDelta:
		if kind != records.KindInt64 {
			return nil, fmt.Errorf("colstore: delta encoding on %s column", kind)
		}
	case EncDictI64:
		if kind != records.KindInt64 {
			return nil, fmt.Errorf("colstore: dict-i64 encoding on %s column", kind)
		}
		n, used := binary.Uvarint(d.buf)
		if used <= 0 || n > maxDictEntries {
			return nil, fmt.Errorf("colstore: bad dictionary size")
		}
		d.buf = d.buf[used:]
		d.intDict = make([]int64, n)
		for i := range d.intDict {
			v, used := binary.Varint(d.buf)
			if used <= 0 {
				return nil, fmt.Errorf("colstore: bad dictionary entry")
			}
			d.intDict[i] = v
			d.buf = d.buf[used:]
		}
	case EncDict:
		if kind != records.KindString {
			return nil, fmt.Errorf("colstore: dict encoding on %s column", kind)
		}
		n, used := binary.Uvarint(d.buf)
		if used <= 0 || n > maxDictEntries {
			return nil, fmt.Errorf("colstore: bad dictionary size")
		}
		d.buf = d.buf[used:]
		d.dict = make([]string, n)
		for i := range d.dict {
			l, used := binary.Uvarint(d.buf)
			if used <= 0 || uint64(len(d.buf)-used) < l {
				return nil, fmt.Errorf("colstore: bad dictionary entry")
			}
			d.dict[i] = string(d.buf[used : used+int(l)])
			d.buf = d.buf[used+int(l):]
		}
	default:
		return nil, fmt.Errorf("colstore: unknown column encoding %d", uint8(enc))
	}
	return d, nil
}

// dictSize returns the dictionary entry count, or 0 when the payload is not
// dictionary-encoded.
func (d *colDecoder) dictSize() int {
	if d.enc == EncDict {
		return len(d.dict)
	}
	if d.enc == EncDictI64 {
		return len(d.intDict)
	}
	return 0
}

// dictValue boxes dictionary entry c (valid for dictionary encodings only).
func (d *colDecoder) dictValue(c int) records.Value {
	if d.enc == EncDict {
		return records.Str(d.dict[c])
	}
	return records.Int(d.intDict[c])
}

// dictDescriptor returns this partition's dictionary descriptor, built on
// first use. The ID fingerprints the entries (values and order), so equal
// dictionaries in different partitions hash alike and can share downstream
// caches such as probe side tables; consumers that key caches on the ID
// still verify the entries on a pointer mismatch.
func (d *colDecoder) dictDescriptor() *records.ColumnDict {
	if d.desc != nil {
		return d.desc
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mixInt := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	switch d.enc {
	case EncDict:
		mixInt(uint64(len(d.dict)))
		for _, s := range d.dict {
			mixInt(uint64(len(s)))
			for i := 0; i < len(s); i++ {
				mix(s[i])
			}
		}
		d.desc = &records.ColumnDict{ID: h, Strs: d.dict}
	case EncDictI64:
		mixInt(uint64(len(d.intDict)))
		for _, v := range d.intDict {
			mixInt(uint64(v))
		}
		d.desc = &records.ColumnDict{ID: h, Ints: d.intDict}
	}
	return d.desc
}

// next decodes one value boxed (the row-at-a-time path).
func (d *colDecoder) next() (records.Value, error) {
	switch d.enc {
	case EncDict:
		i, used := binary.Uvarint(d.buf)
		if used <= 0 || i >= uint64(len(d.dict)) {
			return records.Null, fmt.Errorf("colstore: bad dictionary index")
		}
		d.buf = d.buf[used:]
		return records.Str(d.dict[i]), nil
	case EncDictI64:
		i, used := binary.Uvarint(d.buf)
		if used <= 0 || i >= uint64(len(d.intDict)) {
			return records.Null, fmt.Errorf("colstore: bad dictionary index")
		}
		d.buf = d.buf[used:]
		return records.Int(d.intDict[i]), nil
	case EncDelta:
		delta, used := binary.Varint(d.buf)
		if used <= 0 {
			return records.Null, fmt.Errorf("colstore: bad delta varint")
		}
		d.buf = d.buf[used:]
		d.prev += delta
		return records.Int(d.prev), nil
	default:
		v, used, err := records.DecodeValue(d.buf)
		if err != nil {
			return records.Null, err
		}
		d.buf = d.buf[used:]
		return v, nil
	}
}

// decodeInto appends n decoded values to cv using the typed bulk path.
func (d *colDecoder) decodeInto(cv *records.ColumnVector, n int) error {
	switch d.enc {
	case EncDict:
		for i := 0; i < n; i++ {
			idx, used := binary.Uvarint(d.buf)
			if used <= 0 || idx >= uint64(len(d.dict)) {
				return fmt.Errorf("colstore: bad dictionary index")
			}
			d.buf = d.buf[used:]
			cv.Strs = append(cv.Strs, d.dict[idx])
		}
		return nil
	case EncDictI64:
		for i := 0; i < n; i++ {
			idx, used := binary.Uvarint(d.buf)
			if used <= 0 || idx >= uint64(len(d.intDict)) {
				return fmt.Errorf("colstore: bad dictionary index")
			}
			d.buf = d.buf[used:]
			cv.Ints = append(cv.Ints, d.intDict[idx])
		}
		return nil
	case EncDelta:
		prev := d.prev
		for i := 0; i < n; i++ {
			delta, used := binary.Varint(d.buf)
			if used <= 0 {
				return fmt.Errorf("colstore: bad delta varint")
			}
			d.buf = d.buf[used:]
			prev += delta
			cv.Ints = append(cv.Ints, prev)
		}
		d.prev = prev
		return nil
	default:
		return d.decodePlainInto(cv, n, nil)
	}
}

// decodeFiltered consumes len(sel) values, appending to cv only at positions
// where sel is true. Unselected values are parsed past without
// materialization (no string allocation, no boxing).
func (d *colDecoder) decodeFiltered(cv *records.ColumnVector, sel []bool) error {
	switch d.enc {
	case EncDict:
		for _, keep := range sel {
			idx, used := binary.Uvarint(d.buf)
			if used <= 0 || idx >= uint64(len(d.dict)) {
				return fmt.Errorf("colstore: bad dictionary index")
			}
			d.buf = d.buf[used:]
			if keep {
				cv.Strs = append(cv.Strs, d.dict[idx])
			}
		}
		return nil
	case EncDictI64:
		for _, keep := range sel {
			idx, used := binary.Uvarint(d.buf)
			if used <= 0 || idx >= uint64(len(d.intDict)) {
				return fmt.Errorf("colstore: bad dictionary index")
			}
			d.buf = d.buf[used:]
			if keep {
				cv.Ints = append(cv.Ints, d.intDict[idx])
			}
		}
		return nil
	case EncDelta:
		prev := d.prev
		for _, keep := range sel {
			delta, used := binary.Varint(d.buf)
			if used <= 0 {
				return fmt.Errorf("colstore: bad delta varint")
			}
			d.buf = d.buf[used:]
			prev += delta
			if keep {
				cv.Ints = append(cv.Ints, prev)
			}
		}
		d.prev = prev
		return nil
	default:
		return d.decodePlainInto(cv, len(sel), sel)
	}
}

// decodeCodes appends n raw dictionary codes to dst without touching the
// dictionary — no value is materialized. This is the scan's code-space fast
// path: predicates and semi-join filters translated to code bitmaps test
// these codes directly, and only surviving rows ever see a value.
func (d *colDecoder) decodeCodes(dst []uint32, n int) ([]uint32, error) {
	size := uint64(d.dictSize())
	for i := 0; i < n; i++ {
		c, used := binary.Uvarint(d.buf)
		if used <= 0 || c >= size {
			return dst, fmt.Errorf("colstore: bad dictionary index")
		}
		d.buf = d.buf[used:]
		dst = append(dst, uint32(c))
	}
	return dst, nil
}

// appendFromCodes materializes dictionary values into cv at positions where
// sel is true (nil sel keeps everything), recording the code alongside each
// value so consumers can keep operating in code space downstream.
func (d *colDecoder) appendFromCodes(cv *records.ColumnVector, codes []uint32, sel []bool) {
	switch d.enc {
	case EncDict:
		for i, c := range codes {
			if sel == nil || sel[i] {
				cv.Strs = append(cv.Strs, d.dict[c])
				cv.Codes = append(cv.Codes, c)
			}
		}
	case EncDictI64:
		for i, c := range codes {
			if sel == nil || sel[i] {
				cv.Ints = append(cv.Ints, d.intDict[c])
				cv.Codes = append(cv.Codes, c)
			}
		}
	}
}

// decodeDeltaRangeSel bulk-decodes len(sel) delta values into cv while
// ANDing "lo <= v <= hi" into sel. Delta streams encode runs of equal
// values as zero deltas, so the comparison from the previous row is reused
// across a run — range predicates on run-heavy columns (arrival-clustered
// dates) cost roughly one comparison per run instead of one per row.
func (d *colDecoder) decodeDeltaRangeSel(cv *records.ColumnVector, sel []bool, lo, hi int64) error {
	prev := d.prev
	in := false
	for i := range sel {
		delta, used := binary.Varint(d.buf)
		if used <= 0 {
			return fmt.Errorf("colstore: bad delta varint")
		}
		d.buf = d.buf[used:]
		prev += delta
		cv.Ints = append(cv.Ints, prev)
		if i == 0 || delta != 0 {
			in = lo <= prev && prev <= hi
		}
		if !in {
			sel[i] = false
		}
	}
	d.prev = prev
	return nil
}

// appendCoerced appends a boxed value to a typed vector, mapping nulls
// (which the block representation cannot carry — there is no null mask) to
// the column kind's zero value. The CIF writer never emits nulls, but plain
// payloads from v1 or foreign writers may; a null run must degrade to zero
// values, not crash the scan task.
func appendCoerced(cv *records.ColumnVector, v records.Value) {
	if v.IsNull() {
		switch cv.Kind {
		case records.KindInt64:
			cv.Ints = append(cv.Ints, 0)
		case records.KindFloat64:
			cv.Floats = append(cv.Floats, 0)
		case records.KindString:
			cv.Strs = append(cv.Strs, "")
		case records.KindBool:
			cv.Bools = append(cv.Bools, false)
		}
		return
	}
	cv.Append(v)
}

// decodePlainInto is the typed decoder of the tagged AppendValue stream.
// With sel non-nil it appends only selected positions; skipped strings are
// never allocated. Tag bytes not matching the column's kind fall back to the
// boxed path (preserving v1 semantics for null or mixed-kind streams).
func (d *colDecoder) decodePlainInto(cv *records.ColumnVector, n int, sel []bool) error {
	buf := d.buf
	for i := 0; i < n; i++ {
		keep := sel == nil || sel[i]
		if len(buf) == 0 {
			return fmt.Errorf("colstore: short column payload")
		}
		if records.Kind(buf[0]) != d.kind {
			// Rare path: boxed decode keeps exact v1 behavior.
			v, used, err := records.DecodeValue(buf)
			if err != nil {
				return err
			}
			buf = buf[used:]
			if keep {
				appendCoerced(cv, v)
			}
			continue
		}
		rest := buf[1:]
		switch d.kind {
		case records.KindInt64:
			v, used := binary.Varint(rest)
			if used <= 0 {
				return fmt.Errorf("colstore: bad int varint")
			}
			buf = rest[used:]
			if keep {
				cv.Ints = append(cv.Ints, v)
			}
		case records.KindBool:
			v, used := binary.Varint(rest)
			if used <= 0 {
				return fmt.Errorf("colstore: bad bool varint")
			}
			buf = rest[used:]
			if keep {
				cv.Bools = append(cv.Bools, v != 0)
			}
		case records.KindFloat64:
			if len(rest) < 8 {
				return fmt.Errorf("colstore: short float")
			}
			if keep {
				cv.Floats = append(cv.Floats, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
			}
			buf = rest[8:]
		case records.KindString:
			l, used := binary.Uvarint(rest)
			if used <= 0 || uint64(len(rest)-used) < l {
				return fmt.Errorf("colstore: bad string")
			}
			if keep {
				cv.Strs = append(cv.Strs, string(rest[used:used+int(l)]))
			}
			buf = rest[used+int(l):]
		default:
			return fmt.Errorf("colstore: cannot bulk-decode kind %s", d.kind)
		}
	}
	d.buf = buf
	return nil
}
