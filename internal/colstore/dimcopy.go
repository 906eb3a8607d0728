package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"

	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// Column-major dimension copies ("CDC1"). A hash-table build reads two or
// three columns of a dimension — the primary key, the predicate columns
// and the aux columns — so the copy a node keeps on its local disk (§4)
// stores each column as its own CCF2 chunk (dict for strings, dict-i64 /
// delta / plain for integers, picked by encodeColumn). A reader decodes
// only the chunks an edge names, evaluates single-column predicates on
// dictionary columns once per distinct value (the scan's code-bitmap idea)
// and takes aux strings from the dictionary, so no per-row string is ever
// allocated for a dictionary column.
//
// Layout:
//
//	"CDC1"
//	generation  uint64 LE  (RowTableGeneration of the files encoded)
//	rows        uvarint
//	columns     uvarint
//	per column: name (uvarint length + bytes), kind byte, encoding byte,
//	            chunk length uvarint, chunk CRC-32 (4 bytes LE)
//	header CRC-32 (4 bytes LE, over every byte above)
//	chunks, back to back in column order
//
// Every chunk holds exactly rows values and nothing after them. A column
// holding a null or a value of another kind than its field is stored as a
// plain tagged-value stream and decoded boxed, so the copy reproduces the
// row table exactly.

var dimCopyMagic = [4]byte{'C', 'D', 'C', '1'}

// DimCopyWriter accumulates rows column-major and encodes them as one
// copy. Values are buffered typed per column; a column that meets a value
// of another kind falls back to boxed values.
type DimCopyWriter struct {
	schema *records.Schema
	gen    uint64
	rows   int
	typed  []*records.ColumnVector
	boxed  [][]records.Value // non-nil once a column left its kind
}

// NewDimCopyWriter starts a copy of rows with the given schema, tagged
// with the master table's generation.
func NewDimCopyWriter(schema *records.Schema, gen uint64) *DimCopyWriter {
	w := &DimCopyWriter{schema: schema, gen: gen,
		typed: make([]*records.ColumnVector, schema.Len()),
		boxed: make([][]records.Value, schema.Len())}
	for i := range w.typed {
		if k := schema.Field(i).Kind; k != records.KindNull {
			w.typed[i] = records.NewColumnVector(k, 0)
		} else {
			w.boxed[i] = []records.Value{}
		}
	}
	return w
}

// Append adds one row; the record must have the writer's schema width.
func (w *DimCopyWriter) Append(r records.Record) error {
	if r.Len() != w.schema.Len() {
		return fmt.Errorf("colstore: dimension copy row has %d values, schema %d", r.Len(), w.schema.Len())
	}
	for i := range w.typed {
		v := r.At(i)
		switch {
		case w.boxed[i] != nil:
			w.boxed[i] = append(w.boxed[i], v)
		case v.Kind() == w.typed[i].Kind:
			w.typed[i].Append(v)
		default:
			cv := w.typed[i]
			vals := make([]records.Value, cv.Len(), cv.Len()+1)
			for j := range vals {
				vals[j] = cv.Value(j)
			}
			w.boxed[i] = append(vals, v)
			w.typed[i] = nil
		}
	}
	w.rows++
	return nil
}

// Bytes encodes the copy.
func (w *DimCopyWriter) Bytes() []byte {
	type chunk struct {
		enc     Encoding
		payload []byte
	}
	chunks := make([]chunk, len(w.typed))
	for i := range chunks {
		if w.boxed[i] != nil {
			var buf []byte
			for _, v := range w.boxed[i] {
				buf = records.AppendValue(buf, v)
			}
			chunks[i] = chunk{EncPlain, buf}
			continue
		}
		enc, payload, _ := encodeColumn(w.typed[i])
		chunks[i] = chunk{enc, payload}
	}
	hdr := append([]byte(nil), dimCopyMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, w.gen)
	hdr = binary.AppendUvarint(hdr, uint64(w.rows))
	hdr = binary.AppendUvarint(hdr, uint64(len(chunks)))
	size := 0
	for i, c := range chunks {
		f := w.schema.Field(i)
		hdr = binary.AppendUvarint(hdr, uint64(len(f.Name)))
		hdr = append(hdr, f.Name...)
		hdr = append(hdr, byte(f.Kind), byte(c.enc))
		hdr = binary.AppendUvarint(hdr, uint64(len(c.payload)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(c.payload))
		size += len(c.payload)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	out := make([]byte, 0, len(hdr)+size)
	out = append(out, hdr...)
	for _, c := range chunks {
		out = append(out, c.payload...)
	}
	return out
}

// RowTableGeneration fingerprints the data files of the row table at dir
// (paths and sizes). Row tables only ever gain immutable part files, so
// the fingerprint changes exactly when the table's contents do; copies
// and memos derived from the table are keyed by it.
func RowTableGeneration(fs *hdfs.FileSystem, dir string) (uint64, error) {
	return generationOf(fs, listDataFiles(fs, dir))
}

func generationOf(fs *hdfs.FileSystem, files []string) (uint64, error) {
	h := fnv.New64a()
	var n [8]byte
	for _, p := range files {
		st, err := fs.Stat(p)
		if err != nil {
			return 0, err
		}
		io.WriteString(h, p)
		binary.LittleEndian.PutUint64(n[:], uint64(st.Size))
		h.Write(n[:])
	}
	return h.Sum64(), nil
}

// CopyRowTable reads the row table at dir once per client node, each read
// charged to its client as a copy to that node's disk would be ("" is the
// driver), and returns the column-major copy of its rows, tagged with the
// generation of exactly the files read. The rows are decoded and encoded
// once: every client's copy is the same bytes.
func CopyRowTable(fs *hdfs.FileSystem, dir string, clientNodes ...string) ([]byte, error) {
	if len(clientNodes) == 0 {
		return nil, fmt.Errorf("colstore: copying %s for no client", dir)
	}
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return nil, err
	}
	files := listDataFiles(fs, dir)
	gen, err := generationOf(fs, files)
	if err != nil {
		return nil, err
	}
	w := NewDimCopyWriter(schema, gen)
	if err := scanRowFiles(fs, files, schema, clientNodes[0], w.Append); err != nil {
		return nil, err
	}
	for _, client := range clientNodes[1:] {
		for _, p := range files {
			if _, err := fs.ReadAll(p, client); err != nil {
				return nil, err
			}
		}
	}
	return w.Bytes(), nil
}

// DimCopy is a parsed copy header over the copy's bytes. Columns decode
// on demand, so opening a copy costs only its header.
type DimCopy struct {
	data   []byte
	gen    uint64
	rows   int
	hdrLen int
	schema *records.Schema
	cols   []dimChunk
}

type dimChunk struct {
	enc      Encoding
	off, len int
	crc      uint32
}

// OpenDimCopy parses and verifies a copy's header. A malformed header, or
// chunk lengths that do not add up to the copy's size, is an error.
func OpenDimCopy(data []byte) (*DimCopy, error) {
	bad := func(what string) (*DimCopy, error) {
		return nil, fmt.Errorf("colstore: dimension copy: %s", what)
	}
	if len(data) < 4+8 || [4]byte(data[:4]) != dimCopyMagic {
		return bad("bad magic")
	}
	c := &DimCopy{data: data, gen: binary.LittleEndian.Uint64(data[4:12])}
	pos := 12
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	rows, ok := uvarint()
	if !ok || rows > uint64(len(data)) {
		return bad("bad row count")
	}
	ncols, ok := uvarint()
	if !ok || ncols > uint64(len(data)) {
		return bad("bad column count")
	}
	c.rows = int(rows)
	fields := make([]records.Field, 0, ncols)
	seen := make(map[string]bool, ncols)
	size := 0
	for i := uint64(0); i < ncols; i++ {
		l, ok := uvarint()
		if !ok || l == 0 || l > uint64(len(data)-pos) {
			return bad("bad column name")
		}
		name := string(data[pos : pos+int(l)])
		pos += int(l)
		if seen[name] {
			return bad("duplicate column " + name)
		}
		seen[name] = true
		if len(data)-pos < 2 {
			return bad("short column entry")
		}
		kind, enc := records.Kind(data[pos]), Encoding(data[pos+1])
		pos += 2
		switch kind {
		case records.KindNull, records.KindInt64, records.KindFloat64, records.KindString, records.KindBool:
		default:
			return bad("bad column kind")
		}
		n, ok := uvarint()
		if !ok || n > uint64(len(data)) || len(data)-pos < 4 {
			return bad("bad chunk length")
		}
		crc := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		fields = append(fields, records.F(name, kind))
		c.cols = append(c.cols, dimChunk{enc: enc, off: size, len: int(n), crc: crc})
		size += int(n)
		if size > len(data) {
			return bad("chunks overrun the copy")
		}
	}
	if len(data)-pos < 4 || binary.LittleEndian.Uint32(data[pos:]) != crc32.ChecksumIEEE(data[:pos]) {
		return bad("header checksum mismatch")
	}
	pos += 4
	if len(data)-pos != size {
		return bad("chunk lengths disagree with the copy size")
	}
	c.hdrLen = pos
	for i := range c.cols {
		c.cols[i].off += pos
	}
	c.schema = records.NewSchema(fields...)
	return c, nil
}

// Generation returns the master-table generation the copy was encoded
// from.
func (c *DimCopy) Generation() uint64 { return c.gen }

// dimColumn is one decoded column: dictionary codes (with each entry
// boxed once), delta-decoded integers, or boxed plain values.
type dimColumn struct {
	codes   []uint32
	entries []records.Value
	ints    []int64
	vals    []records.Value
}

func (d *dimColumn) value(i int) records.Value {
	switch {
	case d.entries != nil:
		return d.entries[d.codes[i]]
	case d.ints != nil:
		return records.Int(d.ints[i])
	default:
		return d.vals[i]
	}
}

// column verifies and decodes column i. Every chunk must hold exactly the
// copy's row count of values.
func (c *DimCopy) column(i int) (*dimColumn, error) {
	ch := c.cols[i]
	f := c.schema.Field(i)
	payload := c.data[ch.off : ch.off+ch.len]
	if crc32.ChecksumIEEE(payload) != ch.crc {
		return nil, fmt.Errorf("colstore: dimension copy column %s: checksum mismatch", f.Name)
	}
	bad := func(err error) (*dimColumn, error) {
		return nil, fmt.Errorf("colstore: dimension copy column %s: %w", f.Name, err)
	}
	dec, err := newColDecoder(f.Kind, ch.enc, payload)
	if err != nil {
		return bad(err)
	}
	col := &dimColumn{}
	switch ch.enc {
	case EncDict, EncDictI64:
		if col.codes, err = dec.decodeCodes(make([]uint32, 0, c.rows), c.rows); err != nil {
			return bad(err)
		}
		col.entries = make([]records.Value, dec.dictSize())
		for e := range col.entries {
			col.entries[e] = dec.dictValue(e)
		}
	case EncDelta:
		cv := &records.ColumnVector{Kind: records.KindInt64, Ints: make([]int64, 0, c.rows)}
		if err := dec.decodeInto(cv, c.rows); err != nil {
			return bad(err)
		}
		col.ints = cv.Ints
	default:
		col.vals = make([]records.Value, c.rows)
		for r := range col.vals {
			v, n, err := records.DecodeValue(dec.buf)
			if err != nil {
				return bad(err)
			}
			col.vals[r] = v
			dec.buf = dec.buf[n:]
		}
	}
	if len(dec.buf) != 0 {
		return bad(fmt.Errorf("%d bytes after %d rows", len(dec.buf), c.rows))
	}
	return col, nil
}

// DimRows is what one edge selects from a copy: the primary keys of the
// rows passing the predicate, in copy order, with their aux values.
type DimRows struct {
	// Total is the copy's row count, before the predicate.
	Total int64
	Keys  []int64
	// Aux holds Width values per selected row, row-major.
	Aux   []records.Value
	Width int
	// BytesRead is the header plus every column chunk decoded: what a
	// read of only the edge's columns costs.
	BytesRead int64
}

// AuxAt returns the aux values of selected row i (nil when Width is 0).
func (r *DimRows) AuxAt(i int) []records.Value {
	if r.Width == 0 {
		return nil
	}
	return r.Aux[i*r.Width : (i+1)*r.Width : (i+1)*r.Width]
}

// Select decodes only the columns the edge reads — the int64 primary key
// pk, pred's columns and aux — and returns the rows passing pred (nil
// passes every row). Single-column conjuncts on dictionary columns become
// per-entry bitmaps tested on raw codes; the other conjuncts are evaluated
// per surviving row on one reused scratch record.
func (c *DimCopy) Select(pk string, pred expr.Pred, aux []string) (*DimRows, error) {
	pkIx := c.schema.Index(pk)
	if pkIx < 0 {
		return nil, fmt.Errorf("colstore: dimension copy has no column %s", pk)
	}
	if k := c.schema.Field(pkIx).Kind; k != records.KindInt64 {
		return nil, fmt.Errorf("colstore: dimension key %s is %s, want int64", pk, k)
	}
	out := &DimRows{Total: int64(c.rows), Width: len(aux), BytesRead: int64(c.hdrLen)}
	cols := make(map[int]*dimColumn)
	load := func(name string) (int, *dimColumn, error) {
		ix := c.schema.Index(name)
		if ix < 0 {
			return -1, nil, fmt.Errorf("colstore: dimension copy has no column %s", name)
		}
		if col, ok := cols[ix]; ok {
			return ix, col, nil
		}
		col, err := c.column(ix)
		if err != nil {
			return -1, nil, err
		}
		cols[ix] = col
		out.BytesRead += int64(c.cols[ix].len)
		return ix, col, nil
	}
	_, pkCol, err := load(pk)
	if err != nil {
		return nil, err
	}
	auxCols := make([]*dimColumn, len(aux))
	for i, a := range aux {
		if _, auxCols[i], err = load(a); err != nil {
			return nil, err
		}
	}

	sel := make([]bool, c.rows)
	for i := range sel {
		sel[i] = true
	}
	var residual []expr.Pred
	for _, cj := range expr.Conjuncts(pred) {
		name, single := expr.SingleColumn(cj)
		if !single {
			residual = append(residual, cj)
			continue
		}
		ix, col, err := load(name)
		if err != nil {
			return nil, err
		}
		if col.entries == nil {
			residual = append(residual, cj)
			continue
		}
		vp, err := expr.CompileValuePred(cj, name, c.schema.Field(ix).Kind)
		if err != nil {
			return nil, err
		}
		bits := make([]bool, len(col.entries))
		for e, v := range col.entries {
			bits[e] = vp(v)
		}
		for r, code := range col.codes {
			if !bits[code] {
				sel[r] = false
			}
		}
	}
	if len(residual) > 0 {
		rp, err := expr.CompilePred(expr.And(residual...), c.schema)
		if err != nil {
			return nil, err
		}
		var ixs []int
		var rcols []*dimColumn
		for _, name := range expr.ColumnsOf(nil, residual) {
			ix, col, err := load(name)
			if err != nil {
				return nil, err
			}
			ixs = append(ixs, ix)
			rcols = append(rcols, col)
		}
		scratch := make([]records.Value, c.schema.Len())
		rec := records.Make(c.schema, scratch...)
		for r := range sel {
			if !sel[r] {
				continue
			}
			for j, ix := range ixs {
				scratch[ix] = rcols[j].value(r)
			}
			sel[r] = rp(rec)
		}
	}

	n := 0
	for _, keep := range sel {
		if keep {
			n++
		}
	}
	out.Keys = make([]int64, 0, n)
	out.Aux = make([]records.Value, 0, n*len(aux))
	for r, keep := range sel {
		if !keep {
			continue
		}
		k := pkCol.value(r)
		if k.Kind() != records.KindInt64 {
			return nil, fmt.Errorf("colstore: dimension key %s holds a %s value", pk, k.Kind())
		}
		out.Keys = append(out.Keys, k.Int64())
		for _, a := range auxCols {
			out.Aux = append(out.Aux, a.value(r))
		}
	}
	return out, nil
}
